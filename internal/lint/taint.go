package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// Taint is the interprocedural extension of noclock and detrange. Those
// rules are scoped to the deterministic packages, so a helper one package
// below scope — a topology walk that ranges a map, a utility that calls
// time.Now — passes lint while still corrupting results the moment
// deterministic code calls it. Taint closes the gap: every function
// declared in a deterministic package is a root, the call graph is walked
// transitively (through interfaces and function values, conservatively),
// and a noclock- or detrange-class violation in any reachable
// out-of-scope function is a finding. The message carries the full call
// chain from the root, so the fix site and the reason are both in the
// finding:
//
//	topology.go:41:2 taint: range over map[edge]bool has nondeterministic
//	order in a function reachable from deterministic scope:
//	routes.Build -> topology.Wire -> topology.edges
//
// Violations inside the scope itself are deliberately not re-reported —
// noclock/detrange already own those lines, and one finding per defect
// keeps //lint:ignore bookkeeping sane. Suppression works at the
// violation site: //lint:ignore taint <reason> on the offending line of
// the out-of-scope function.
type Taint struct {
	// Scope is the deterministic package set; every function declared in
	// it is a reachability root.
	Scope map[string]bool
	// Prog supplies the shared call graph.
	Prog *Program
}

// Name implements Rule.
func (Taint) Name() string { return "taint" }

// Doc implements Rule.
func (Taint) Doc() string {
	return "noclock/detrange violation reachable from a deterministic package"
}

// Check implements Rule; the work happens in CheckModule.
func (Taint) Check(*Package) []Finding { return nil }

// CheckModule implements ModuleRule.
func (r Taint) CheckModule(pkgs []*Package) []Finding {
	g := r.Prog.At(pkgs).CG

	var roots []*types.Func
	for _, fn := range g.Funcs() {
		if node := g.Node(fn); node != nil && r.Scope[node.Pkg.Path] {
			roots = append(roots, fn)
		}
	}
	parent := g.Reachable(roots)

	reached := make([]*types.Func, 0, len(parent))
	for fn := range parent {
		reached = append(reached, fn)
	}
	sort.Slice(reached, func(i, j int) bool { return reached[i].FullName() < reached[j].FullName() })

	var out []Finding
	for _, fn := range reached {
		node := g.Node(fn)
		if r.Scope[node.Pkg.Path] {
			continue // noclock/detrange report in-scope bodies themselves
		}
		chain := Chain(parent, fn)
		out = append(out, scanTainted(node, chain)...)
	}
	return out
}

// scanTainted reports the noclock/detrange-class violations in one
// out-of-scope function body, each tagged with the call chain that makes
// it deterministic-relevant.
func scanTainted(node *CallNode, chain string) []Finding {
	pkg := node.Pkg
	var out []Finding
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			fn, ok := pkg.Info.Uses[x].(*types.Func)
			if !ok {
				return true
			}
			label, kind := nondetCall(fn)
			var msg string
			switch kind {
			case "clock":
				msg = fmt.Sprintf("%s reads the wall clock in a function reachable from deterministic scope: %s", label, chain)
			case "rand":
				msg = fmt.Sprintf("global %s draws from the process-wide source in a function reachable from deterministic scope: %s", label, chain)
			}
			if msg != "" {
				out = append(out, Finding{Pos: pkg.Fset.Position(x.Pos()), Rule: "taint", Message: msg})
			}
		case *ast.RangeStmt:
			tv, ok := pkg.Info.Types[x.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			out = append(out, Finding{
				Pos:  pkg.Fset.Position(x.For),
				Rule: "taint",
				Message: fmt.Sprintf(
					"range over map %s has nondeterministic order in a function reachable from deterministic scope: %s",
					types.TypeString(tv.Type, types.RelativeTo(pkg.Types)), chain),
			})
		}
		return true
	})
	return out
}
