package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file parses the //sim: annotation family. Where //lint:ignore
// suppresses a finding, //sim: annotations add semantic facts about a
// function that the lint-alloc gate consumes:
//
//	//sim:hotpath
//	    The function is on the simulator's per-cycle hot path; the
//	    lint-alloc gate (hotalloc.go) fails the build when a new heap
//	    allocation appears inside it. Optional trailing text is a note.
//
// An annotation attaches to the function declaration it precedes (doc
// comment or standalone line directly above, blank and comment lines
// skipped) or trails on the declaration's first line — the same placement
// rules as //lint:ignore. A malformed annotation (unknown verb or no
// function to attach to) is itself a finding
// under the pseudo-rule "sim", exactly as malformed //lint:ignore
// directives are reported under "ignore": silently dropping a typo like
// //sim:hotpth would silently drop the invariant.

const simPrefix = "//sim:"

// simVerbs lists the known annotation verbs.
var simVerbs = map[string]bool{"hotpath": true}

// simAnnotation is one parsed //sim: annotation attached to a function.
type simAnnotation struct {
	Verb string
	Pos  token.Position
}

// annotations holds every //sim: annotation of a module, keyed by the
// annotated function, plus the findings for malformed ones.
type annotations struct {
	byFunc map[*types.Func][]simAnnotation
	bad    []Finding
}

// parseSimAnnotations scans every package for //sim: comments, attaches
// well-formed ones to their function declarations, and reports malformed
// ones under the "sim" pseudo-rule.
func parseSimAnnotations(pkgs []*Package) *annotations {
	out := &annotations{byFunc: map[*types.Func][]simAnnotation{}}
	for _, pkg := range pkgs {
		var lines map[string][]string // lazily split source, per file
		for _, file := range pkg.Files {
			// Map of source line -> function declared on that line, for
			// attachment resolution.
			funcAt := map[int]*ast.FuncDecl{}
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					funcAt[pkg.Fset.Position(fd.Pos()).Line] = fd
				}
			}
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, simPrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Slash)
					rest := strings.TrimPrefix(c.Text, simPrefix)
					fields := strings.Fields(rest)
					if len(fields) == 0 || !strings.HasPrefix(rest, fields[0]) {
						out.bad = append(out.bad, Finding{Pos: pos, Rule: "sim",
							Message: "malformed annotation: want //sim:<verb> (no space after the colon)"})
						continue
					}
					verb := fields[0]
					if !simVerbs[verb] {
						out.bad = append(out.bad, Finding{Pos: pos, Rule: "sim",
							Message: fmt.Sprintf("unknown //sim: verb %q (want hotpath)", verb)})
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
					fd := funcAt[targetLine(src, pos)]
					if fd == nil {
						out.bad = append(out.bad, Finding{Pos: pos, Rule: "sim",
							Message: fmt.Sprintf("//sim:%s is not attached to a function declaration", verb)})
						continue
					}
					fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
					if fn == nil {
						continue
					}
					out.byFunc[fn] = append(out.byFunc[fn], simAnnotation{Verb: verb, Pos: pos})
				}
			}
		}
	}
	return out
}

// SimDirectives is the rule that surfaces malformed //sim: annotations.
// The well-formed ones are consumed by the lint-alloc gate; this rule
// exists so a typo in a verb fails the build instead of silently dropping
// the invariant the annotation was meant to carry.
type SimDirectives struct {
	Prog *Program
}

// Name implements Rule.
func (SimDirectives) Name() string { return "sim" }

// Doc implements Rule.
func (SimDirectives) Doc() string {
	return "malformed //sim: annotation (unknown verb or unattached)"
}

// Check implements Rule; the work happens in CheckModule.
func (SimDirectives) Check(*Package) []Finding { return nil }

// CheckModule implements ModuleRule.
func (r SimDirectives) CheckModule(pkgs []*Package) []Finding {
	return r.Prog.At(pkgs).Ann.bad
}
