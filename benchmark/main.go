// Command benchmark is the repository's benchmark of record: four
// fixed-op workloads driven over loopback HTTP at a single-node mvolapd
// assembled in-process. See README.md.
//
//	go run -C benchmark . --workload read_hot --seed 1 --seconds 10 --trace 0
//	go run -C benchmark . --compare a.jsonl b.jsonl
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mvolap/internal/workload"
)

// expectedJSON holds the input digests of the default seed at the
// default run length: a later edit to internal/workload cannot silently
// change what is measured.
//
//go:embed expected.json
var expectedJSON []byte

type expected struct {
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Workloads map[string]digests `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all four, one after the other)")
	seed := fs.Int64("seed", 1, "seed of the warehouse and the op stream")
	seconds := fs.Int("seconds", 10, "nominal length of the measured phase; the op count is opsPerSecond x seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (counts, and times from a serial traced replay)")
	compare := fs.Bool("compare", false, "compare two files of run reports: --compare a.jsonl b.jsonl")
	pin := fs.Bool("digests", false, "print the input digests of --seed and --seconds in the form of expected.json, and run nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: --compare takes two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), "../BENCHMARK.json", stdout, stderr)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: want --seconds >= 1, --trace 0 or 1, and no other arguments")
		return 2
	}
	todo := specs
	if *name != "" {
		sp, ok := specByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		todo = []spec{sp}
	}
	if *pin {
		return printDigests(todo, *seed, *seconds, stdout, stderr)
	}
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		fmt.Fprintln(stderr, "benchmark: expected.json:", err)
		return 1
	}

	scratch, err := os.MkdirTemp(".", ".bench-scratch-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	code := 0
	for _, sp := range todo {
		o := runOptions{seed: *seed, ops: sp.opsPerSecond * *seconds, trace: *trace == 1, setups: 3, scratch: scratch}
		if d, ok := exp.Workloads[sp.name]; ok && exp.Seed == *seed && exp.Seconds == *seconds {
			o.pin = &d
		}
		rep, err := runWorkload(sp, o)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !rep.Correct || rep.Failed > 0 {
			code = 1
		}
		// Two lines per run: the full report, then the same result under
		// exactly the four keys the driver reads from the last line.
		printJSON(stdout, rep)
		printJSON(stdout, struct {
			Correct   bool      `json:"correct"`
			Attempted int       `json:"attempted"`
			Failed    int       `json:"failed"`
			Metrics   metricSet `json:"metrics"`
		}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	}
	return code
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // reports hold only finite numbers, strings and maps of them
	}
	fmt.Fprintf(w, "%s\n", b)
}

// printDigests generates each workload's inputs and prints their
// digests; nothing is served or measured.
func printDigests(todo []spec, seed int64, seconds int, stdout, stderr io.Writer) int {
	exp := expected{Seed: seed, Seconds: seconds, Workloads: map[string]digests{}}
	for _, sp := range todo {
		w, err := workload.Generate(warehouseConfig(sp.departments))
		if err == nil {
			var st stream
			st, err = buildInputs(sp, seed, sp.opsPerSecond*seconds, w.Schema)
			exp.Workloads[sp.name] = st.digests
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	b, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
