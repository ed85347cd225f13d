package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself
// reads: the declared workloads and metrics, with their bounds.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(b, &spec)
}

// runSet is the reports of one file of runs: per workload, every value
// of every metric, and the failed ops.
type runSet struct {
	values map[string]map[string][]float64
	failed map[string]int
}

// readRunSet reads a file holding the standard output of any number of
// end-to-end runs; it keeps the report lines and skips the rest.
func readRunSet(path string) (runSet, error) {
	set := runSet{values: map[string]map[string][]float64{}, failed: map[string]int{}}
	f, err := os.Open(path)
	if err != nil {
		return set, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rep report
		if json.Unmarshal(sc.Bytes(), &rep) != nil || rep.Workload == "" || rep.Trace {
			continue
		}
		if set.values[rep.Workload] == nil {
			set.values[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			set.values[rep.Workload][name] = append(set.values[rep.Workload][name], m.Value)
		}
		set.failed[rep.Workload] += rep.Failed
	}
	return set, sc.Err()
}

// spread is the distance between the first and the third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4), which is what the driver uses.
func spread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	x := slices.Clone(values)
	slices.Sort(x)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		j = min(max(j, 1), n-1)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / mid(values)
}

// mid is the median as Python's statistics.median takes it: the mean of
// the two middle values when their number is even. Of nothing it is 0.
func mid(values []float64) float64 {
	x := slices.Clone(values)
	slices.Sort(x)
	n := len(x)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, how much worse b is than a as a share of a, and a verdict
// against the metric's bound. It returns 1 when any row regressed or b
// failed more ops than a.
func compareFiles(pathA, pathB, specPath string, stdout, stderr io.Writer) int {
	spec, err := readBenchmarkSpec(specPath)
	var a, b runSet
	if err == nil {
		a, err = readRunSet(pathA)
	}
	if err == nil {
		b, err = readRunSet(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	code := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tworse by\tspread a\tspread b\tbound\tverdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values[w.Name][m.Name], b.values[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t-\t%.2f\tmissing\n", w.Name, m.Name, m.Unit, m.Bound)
				code = 1
				continue
			}
			ma, mb := mid(va), mid(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%.1f%%\t%.2f\t%s\n",
				w.Name, m.Name, m.Unit, ma, mb, worse*100, sa*100, sb*100, m.Bound, verdict)
		}
		if b.failed[w.Name] > a.failed[w.Name] {
			fmt.Fprintf(tw, "%s\tfailed ops\tcount\t%d\t%d\t\t\t\t0\tregressed\n", w.Name, a.failed[w.Name], b.failed[w.Name])
			code = 1
		}
	}
	tw.Flush()
	return code
}
