// Command paperbench regenerates every numeric claim, figure and theorem
// of the paper and prints a paper-vs-measured comparison table per
// experiment (E1..E14). It exits non-zero if any value fails to match.
//
// Usage:
//
//	paperbench [-markdown] [-systems 100] [-samples 60000] [-seed 1]
//
// With -markdown the output is a GitHub-flavoured Markdown document
// suitable for EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pak/internal/experiments"
	"pak/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	markdown := fs.Bool("markdown", false, "emit GitHub-flavoured Markdown")
	systems := fs.Int("systems", 100, "random systems per property experiment (E4, E9)")
	samples := fs.Int("samples", 60_000, "Monte-Carlo samples (E7)")
	seed := fs.Int64("seed", 1, "seed for random workloads")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage: paperbench [-markdown] [-systems 100] [-samples 60000] [-seed 1]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, `
Runs E1..E14, the paper's claims, and exits non-zero if any measured
value fails to match the paper.

Examples:
  paperbench                     the full reproduction gate (CI runs this)
  paperbench -markdown           regenerate EXPERIMENTS.md (make docs)
  paperbench -systems 500 -seed 3    a larger random-system property sweep
`)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *systems <= 0 || *samples <= 0 {
		fmt.Fprintln(stderr, "paperbench: -systems and -samples must be positive")
		return 2
	}

	results, err := runAll(*systems, *samples, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 1
	}

	failures := 0
	for _, res := range results {
		tb := report.NewTable("quantity", "paper", "measured", "match")
		for _, row := range res.Rows {
			mark := "yes"
			if !row.Match {
				mark = "NO"
				failures++
			}
			tb.AddRow(row.Quantity, row.Paper, row.Measured, mark)
		}
		title := fmt.Sprintf("%s — %s", res.ID, res.Title)
		if *markdown {
			fmt.Fprintf(stdout, "## %s\n\n*Source: %s*\n\n%s\n", title, res.Source, tb.Markdown())
		} else {
			fmt.Fprint(stdout, report.Section(title+" ["+res.Source+"]", tb.Render()))
		}
	}

	if failures > 0 {
		fmt.Fprintf(stderr, "paperbench: %d value(s) failed to match the paper\n", failures)
		return 1
	}
	if *markdown {
		fmt.Fprintln(stdout, "All measured values match the paper.")
	} else {
		fmt.Fprintln(stdout, "RESULT: all measured values match the paper.")
	}
	return 0
}

// runAll evaluates experiments.Builders — the one experiment list —
// with the workload flags applied.
func runAll(systems, samples int, seed int64) ([]experiments.Result, error) {
	builders := experiments.Builders(systems, samples, seed)
	out := make([]experiments.Result, 0, len(builders))
	for _, b := range builders {
		res, err := b()
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
