// Command simlint is the repository's one lint driver: it statically
// proves the simulator's determinism and layering invariants over the Go
// tree (internal/lint's rule set — detrange, noclock, taint, exhaustive,
// sim, layering, errcheck-lite, floateq, doccomment) and checks every
// markdown file's relative links and anchors (the former cmd/mdlint, now
// the mdlink rule). The taint rule is interprocedural: it walks a
// module-wide static call graph, so the whole module is loaded and
// analysed in one invocation. `make lint` runs it over the whole module;
// it is fast enough (~2 s) to sit in `make all`.
//
// Usage:
//
//	simlint [-list] [-layers] [-md=false] [-v] [dir]
//	simlint -alloc [-alloc-update] [dir]
//
// dir is the module root to lint (default "."). Findings are printed to
// stderr as file:line:col rule: message. Exit codes: 0 clean, 1 findings,
// 2 usage or internal error — one convention for code and docs.
//
// -v prints a per-rule timing table after the run. -alloc runs the
// hotalloc gate instead of the rule set: it shells out to
// `go build -gcflags=-m`, attributes escape-analysis events to
// //sim:hotpath functions, and diffs them against the checked-in baseline
// (internal/lint/hotalloc.baseline); -alloc-update rewrites the baseline
// after a deliberate change. `make lint-alloc` wires the gate into CI.
//
// Individual findings are suppressed in source with
//
//	//lint:ignore <rule> <reason>
//
// on (or directly above) the offending line; see docs/LINT.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"itbsim/internal/lint"
)

// allocBaseline is the checked-in hotalloc baseline, relative to the
// module root.
const allocBaseline = "internal/lint/hotalloc.baseline"

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("simlint", flag.ExitOnError)
	list := fs.Bool("list", false, "list the rules and exit")
	layers := fs.Bool("layers", false, "print the package DAG layer table and exit")
	md := fs.Bool("md", true, "also check markdown links and anchors")
	verbose := fs.Bool("v", false, "print per-rule timing after the run")
	alloc := fs.Bool("alloc", false, "run the //sim:hotpath allocation gate instead of the rule set")
	allocUpdate := fs.Bool("alloc-update", false, "with -alloc: rewrite the baseline instead of diffing")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: simlint [-list] [-layers] [-md=false] [-v] [dir]")
		fmt.Fprintln(os.Stderr, "       simlint -alloc [-alloc-update] [dir]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *allocUpdate {
		*alloc = true
	}

	rules := lint.RepoRules()
	if *list {
		for _, r := range rules {
			fmt.Printf("%-13s %s\n", r.Name(), r.Doc())
		}
		fmt.Printf("%-13s %s\n", "hotalloc", "new heap allocation in a //sim:hotpath function (run with -alloc)")
		fmt.Printf("%-13s %s\n", lint.MarkdownRuleName, "broken relative markdown link or heading anchor")
		return 0
	}
	if *layers {
		fmt.Print(lint.RepoLayerTable())
		return 0
	}

	dir := "."
	switch fs.NArg() {
	case 0:
	case 1:
		dir = fs.Arg(0)
	default:
		fs.Usage()
		return 2
	}

	start := time.Now()
	pkgs, err := lint.Load(lint.LoadConfig{Dir: dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}

	if *alloc {
		prog := &lint.Program{}
		findings, err := lint.CheckHotAllocs(dir, pkgs, prog, filepath.Join(dir, allocBaseline), *allocUpdate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		if *allocUpdate {
			fmt.Printf("simlint: wrote %s (%d ms)\n", allocBaseline, time.Since(start).Milliseconds())
			return 0
		}
		if len(findings) > 0 {
			for _, f := range findings {
				fmt.Fprintln(os.Stderr, f)
			}
			fmt.Fprintf(os.Stderr, "simlint: %d hotalloc finding(s)\n", len(findings))
			return 1
		}
		fmt.Printf("simlint: hotpath allocations match %s (%d ms)\n", allocBaseline, time.Since(start).Milliseconds())
		return 0
	}

	findings, timings := lint.RunTimed(pkgs, rules)

	mdFiles := 0
	if *md {
		mdStart := time.Now()
		mdFindings, n, err := lint.Markdown([]string{dir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		mdFiles = n
		findings = append(findings, mdFindings...)
		lint.Sort(findings)
		timings = append(timings, lint.RuleTiming{Rule: lint.MarkdownRuleName, Elapsed: time.Since(mdStart), Findings: len(mdFindings)})
	}

	if *verbose {
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "simlint: rule %-13s %6.1f ms  %d finding(s)\n",
				t.Rule, float64(t.Elapsed.Microseconds())/1000, t.Findings)
		}
	}

	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s) in %d package(s), %d markdown file(s)\n",
			len(findings), len(pkgs), mdFiles)
		return 1
	}
	fmt.Printf("simlint: %d package(s), %d markdown file(s) ok (%d ms)\n",
		len(pkgs), mdFiles, time.Since(start).Milliseconds())
	return 0
}
