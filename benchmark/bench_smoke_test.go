package main

import (
	"math"
	"regexp"
	"testing"
)

// TestSmoke runs a miniature of every workload (24 departments, 60 ops)
// in both modes and holds the output against BENCHMARK.json, so the
// file and the code cannot drift: every declared metric is emitted,
// nothing else is, units match, values are finite, the output check
// passes and no op fails.
func TestSmoke(t *testing.T) {
	decl, err := readBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(specs))
	}
	for i, w := range decl.Workloads {
		if w.Name != specs[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, specs[i].name)
		}
	}
	for _, sp := range specs {
		sp.departments = 24
		sp.opsPerSecond = 1 // no run is cut short, however slow the machine (or -race)
		for _, mode := range []struct {
			trace bool
			want  []metricSpec
		}{{false, decl.EndToEnd}, {true, decl.PerLayer}} {
			rep, err := runWorkload(sp, runOptions{seed: 1, ops: 60, trace: mode.trace, setups: 1, scratch: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, mode.trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != 60 || !rep.Check.ok() {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d check=%+v",
					sp.name, mode.trace, rep.Correct, rep.Failed, rep.Attempted, rep.Check)
			}
			if len(rep.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", sp.name, mode.trace, len(rep.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !name.MatchString(m.Name):
					t.Errorf("metric name %q is outside the contract", m.Name)
				case !ok:
					t.Errorf("%s trace=%v: %s is declared and not emitted", sp.name, mode.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", sp.name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s is %v", sp.name, m.Name, got.Value)
				}
			}
		}
	}
}
