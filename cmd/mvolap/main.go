// Command mvolap runs temporal multidimensional queries against a
// schema, choosing the temporal mode of presentation per query.
//
// Usage:
//
//	mvolap -schema warehouse.json 'SELECT Amount BY Org.Division, TIME.YEAR MODE tcm'
//	mvolap -schema data/snapshot-0000000000000256.snap MODES
//	mvolap -demo 'QUALITY SELECT Amount BY Org.Department, TIME.YEAR'
//	mvolap -demo MODES
//	echo 'SELECT ...' | mvolap -schema warehouse.json
//
// With -color, measure values are coloured by confidence factor as in
// §5.2 of the paper: plain for source data, green for exact mappings,
// yellow for approximated ones, red for unknown.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/quality"
	"mvolap/internal/store"
	"mvolap/internal/tql"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mvolap:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("mvolap", flag.ContinueOnError)
	schemaPath := fs.String("schema", "", "path to a schema JSON file or a store snapshot")
	demo := fs.Bool("demo", false, "use the built-in ICDE 2003 case study")
	color := fs.Bool("color", false, "colour values by confidence factor")
	weightsSpec := fs.String("weights", "", "confidence weights as sd=10,em=8,am=5,uk=0 (the §5.2 pds function)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	weights := quality.DefaultWeights()
	if *weightsSpec != "" {
		var err error
		if weights, err = parseWeights(*weightsSpec); err != nil {
			return err
		}
	}

	var s *core.Schema
	switch {
	case *demo:
		var err error
		s, err = casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
		if err != nil {
			return err
		}
	case *schemaPath != "":
		var err error
		if s, err = store.LoadSchema(*schemaPath); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -schema FILE or -demo")
	}

	exec := func(stmt string) error {
		res, err := tql.RunCachedContext(context.Background(), s, stmt, weights, nil)
		if err != nil {
			return err
		}
		text := tql.Render(res)
		if *color {
			text = colorize(text)
		}
		fmt.Fprint(out, text)
		return nil
	}

	if rest := fs.Args(); len(rest) > 0 {
		return exec(strings.Join(rest, " "))
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := exec(line); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
	return sc.Err()
}

// parseWeights parses "sd=10,em=8,am=5,uk=0"-style weight overrides on
// top of the defaults.
func parseWeights(spec string) (quality.Weights, error) {
	w := quality.DefaultWeights()
	for _, part := range strings.Split(spec, ",") {
		name, valStr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return w, fmt.Errorf("weight %q: want cf=value", part)
		}
		cf, err := core.ParseConfidence(strings.TrimSpace(name))
		if err != nil {
			return w, err
		}
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(valStr), "%d", &v); err != nil {
			return w, fmt.Errorf("weight %q: bad value", part)
		}
		w[cf] = v
	}
	return w, w.Validate()
}

// colorize wraps the "(sd)" / "(em)" / "(am)" / "(uk)" confidence codes
// and the value before them in the §5.2 colours.
func colorize(text string) string {
	const reset = "\x1b[0m"
	for _, cf := range []core.Confidence{core.ExactMapping, core.ApproxMapping, core.UnknownMapping} {
		marker := "(" + cf.String() + ")"
		colour := quality.CellColor(cf).ANSI()
		text = strings.ReplaceAll(text, marker, colour+marker+reset)
	}
	return text
}
