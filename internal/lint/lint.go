// Package lint is a from-scratch static-analysis framework for this
// repository, built only on the standard library's go/ast, go/parser,
// go/token and go/types. It exists to turn the simulator's core contracts
// — byte-identical determinism at every worker count, a strict package
// DAG, no wall clock in result-bearing code — from properties that runtime
// tests *observe* into properties the build *proves*: a nondeterministic
// map range or a stray time.Now fails `make lint` before it can corrupt a
// published curve.
//
// The framework is deliberately small: a Loader that parses and
// type-checks every package of the module (load.go), a Rule interface,
// and a Run driver that applies rules and filters suppressed findings.
// The shipped rules live beside it (detrange.go, noclock.go, layering.go,
// errchecklite.go, floateq.go) and the repository-specific configuration
// — which packages are deterministic, what the layer DAG is — is in
// repo.go. The markdown link checker that used to be cmd/mdlint is folded
// in as markdown.go, so cmd/simlint is the one lint driver with one
// exit-code convention.
//
// # Suppression
//
// A finding is suppressed with a directive comment
//
//	//lint:ignore <rule> <reason>
//
// placed either at the end of the offending line or alone on the line
// directly above it (blank and comment-only lines in between are skipped).
// The reason is mandatory: a directive without one is itself reported,
// under the pseudo-rule "ignore". Each directive names exactly one rule,
// so a line that trips two rules needs two directives.
//
// Rules report findings as file:line:col rule: message; cmd/simlint exits
// non-zero when any survive suppression. See docs/LINT.md for the rule
// catalogue and rationale.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the canonical file:line:col rule: message
// form (the column is omitted when unknown, as for markdown findings).
func (f Finding) String() string {
	if f.Pos.Column > 0 {
		return fmt.Sprintf("%s:%d:%d %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
	}
	return fmt.Sprintf("%s:%d %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Package is one type-checked package of the module, as produced by Load.
// Test files are not included: the invariants proven here are about the
// shipped simulator, and test code ranges over maps (for unordered
// assertions) too routinely to be worth annotating.
type Package struct {
	// Path is the import path, e.g. "itbsim/internal/netsim".
	Path string
	// Fset is the file set shared by every package of one Load call.
	Fset *token.FileSet
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types results for the package.
	Types *types.Package
	Info  *types.Info
	// Sources maps each file name (as registered in Fset) to its raw
	// bytes, for line-level directive parsing.
	Sources map[string][]byte
}

// Rule is one static check. Check returns raw findings; Run handles
// suppression, so rules need not know about //lint:ignore.
type Rule interface {
	// Name is the identifier used in findings and ignore directives.
	Name() string
	// Doc is a one-line description for -list output.
	Doc() string
	// Check analyses one package.
	Check(pkg *Package) []Finding
}

// ModuleRule is a rule that needs the whole module at once — the
// interprocedural taint rule and the sim rule, which reads every
// package's //sim: annotations. Run calls
// CheckModule exactly once per invocation instead of Check per package;
// findings still position themselves at the offending line, so
// //lint:ignore works unchanged.
type ModuleRule interface {
	Rule
	// CheckModule analyses the full package slice.
	CheckModule(pkgs []*Package) []Finding
}

// RuleTiming records how long one rule took over the whole module and how
// many findings survived suppression; cmd/simlint -v prints the table.
type RuleTiming struct {
	Rule     string
	Elapsed  time.Duration
	Findings int
}

// Run applies every rule to every package, drops findings covered by a
// well-formed //lint:ignore directive, reports malformed directives, and
// returns the survivors sorted by position.
func Run(pkgs []*Package, rules []Rule) []Finding {
	out, _ := RunTimed(pkgs, rules)
	return out
}

// RunTimed is Run plus a per-rule timing table, in rule order.
func RunTimed(pkgs []*Package, rules []Rule) ([]Finding, []RuleTiming) {
	ig := ignoreSet{}
	var out []Finding
	for _, pkg := range pkgs {
		pig, bad := directives(pkg)
		out = append(out, bad...)
		// File names are unique across packages (one FileSet per Load),
		// so merging per-package suppression sets is a plain union.
		for file, byLine := range pig {
			ig[file] = byLine
		}
	}
	timings := make([]RuleTiming, 0, len(rules))
	for _, r := range rules {
		start := time.Now()
		var found []Finding
		if mr, ok := r.(ModuleRule); ok {
			found = mr.CheckModule(pkgs)
		} else {
			for _, pkg := range pkgs {
				found = append(found, r.Check(pkg)...)
			}
		}
		kept := 0
		for _, f := range found {
			if !ig.covers(f) {
				out = append(out, f)
				kept++
			}
		}
		timings = append(timings, RuleTiming{Rule: r.Name(), Elapsed: time.Since(start), Findings: kept})
	}
	Sort(out)
	return out, timings
}

// Sort orders findings by file, line, column, rule, message — the stable
// order every driver and test relies on.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// ignoreSet records, per file and line, which rules are suppressed there.
type ignoreSet map[string]map[int]map[string]bool

func (s ignoreSet) covers(f Finding) bool {
	return s[f.Pos.Filename][f.Pos.Line][f.Rule]
}

func (s ignoreSet) add(file string, line int, rule string) {
	byLine := s[file]
	if byLine == nil {
		byLine = map[int]map[string]bool{}
		s[file] = byLine
	}
	rules := byLine[line]
	if rules == nil {
		rules = map[string]bool{}
		byLine[line] = rules
	}
	rules[rule] = true
}

const ignorePrefix = "//lint:ignore"

// directives scans a package's comments for //lint:ignore directives.
// It returns the resulting suppression set plus one "ignore" finding for
// every malformed directive (missing rule or reason).
func directives(pkg *Package) (ignoreSet, []Finding) {
	set := ignoreSet{}
	var bad []Finding
	for _, file := range pkg.Files {
		var lines map[string][]string // lazily split source, per file
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				args := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
				if len(args) < 2 {
					bad = append(bad, Finding{
						Pos:     pos,
						Rule:    "ignore",
						Message: "malformed directive: want //lint:ignore <rule> <reason>",
					})
					continue
				}
				if lines == nil {
					lines = map[string][]string{}
				}
				src, ok := lines[pos.Filename]
				if !ok {
					src = strings.Split(string(pkg.Sources[pos.Filename]), "\n")
					lines[pos.Filename] = src
				}
				set.add(pos.Filename, targetLine(src, pos), args[0])
			}
		}
	}
	return set, bad
}

// targetLine resolves which source line a directive at pos suppresses: its
// own line when it trails code, otherwise the next line that carries code
// (skipping blanks and comment-only lines).
func targetLine(lines []string, pos token.Position) int {
	if pos.Line-1 < len(lines) {
		before := lines[pos.Line-1]
		if pos.Column-1 <= len(before) {
			before = before[:pos.Column-1]
		}
		if strings.TrimSpace(before) != "" {
			return pos.Line
		}
	}
	for l := pos.Line + 1; l <= len(lines); l++ {
		t := strings.TrimSpace(lines[l-1])
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		return l
	}
	return pos.Line
}
