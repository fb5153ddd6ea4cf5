package lint_test

import (
	"go/types"
	"testing"

	"itbsim/internal/lint"
)

// fixtureGraph loads the fixture module and builds its call graph.
func fixtureGraph(t *testing.T) ([]*lint.Package, *lint.Program) {
	t.Helper()
	pkgs := loadFixture(t)
	prog := &lint.Program{}
	prog.At(pkgs)
	return pkgs, prog
}

// mustLookup resolves a function by full name or fails the test.
func mustLookup(t *testing.T, g *lint.CallGraph, fullName string) *types.Func {
	t.Helper()
	fn := g.Lookup(fullName)
	if fn == nil {
		t.Fatalf("function %q not in the call graph", fullName)
	}
	return fn
}

// calleeSet returns the full names of fn's resolved call targets.
func calleeSet(t *testing.T, g *lint.CallGraph, fullName string) map[string]bool {
	t.Helper()
	node := g.Node(mustLookup(t, g, fullName))
	if node == nil {
		t.Fatalf("no node for %q", fullName)
	}
	out := map[string]bool{}
	for _, c := range node.Calls {
		out[c.Callee.FullName()] = true
	}
	return out
}

// TestCallGraphStaticEdges pins direct-call resolution, including a
// method called through an embedded field: the edge lands on the
// embedded type's declaration, where the body lives.
func TestCallGraphStaticEdges(t *testing.T) {
	_, prog := fixtureGraph(t)
	g := prog.CG
	cases := []struct{ from, to string }{
		{"fixture/graph.Static", "fixture/graph.helperA"},
		{"(fixture/graph.A).Do", "fixture/graph.helperA"},
		{"(*fixture/graph.B).Do", "fixture/graph.helperB"},
		{"fixture/graph.UseF", "fixture/graph.CallValue"},
		{"fixture/graph.CallEmbedded", "(fixture/graph.A).Do"}, // promoted via C{A}
		{"fixture/troot.Root", "fixture/thelp.Mid"},            // cross-package
		{"fixture/thelp.Mid", "fixture/thelp.Leaf"},
	}
	for _, c := range cases {
		if !calleeSet(t, g, c.from)[c.to] {
			t.Errorf("edge %s -> %s missing; have %v", c.from, c.to, calleeSet(t, g, c.from))
		}
	}
}

// TestCallGraphInterfaceDispatch pins dynamic dispatch: a call through
// the Doer interface resolves to the Do method of every module type that
// implements it — the value-receiver A and the pointer-receiver B — and
// the edges are marked dynamic.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	_, prog := fixtureGraph(t)
	g := prog.CG
	node := g.Node(mustLookup(t, g, "fixture/graph.CallIface"))
	got := map[string]bool{}
	for _, c := range node.Calls {
		if !c.Dynamic {
			t.Errorf("interface edge to %s not marked dynamic", c.Callee.FullName())
		}
		got[c.Callee.FullName()] = true
	}
	want := []string{"(fixture/graph.A).Do", "(*fixture/graph.B).Do"}
	if len(got) != len(want) {
		t.Errorf("CallIface targets = %v, want exactly %v", got, want)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("CallIface is missing the %s implementation", w)
		}
	}
}

// TestCallGraphFunctionValues pins the conservative function-value
// resolution: a call of a func-typed parameter targets every
// address-taken module function with a matching signature — and only
// those. Triple shares Double's signature but is never used as a value,
// so no edge may reach it; A.Do is address-taken as a method value in
// TakeMethodValue, so the niladic thunk call can reach it.
func TestCallGraphFunctionValues(t *testing.T) {
	_, prog := fixtureGraph(t)
	g := prog.CG
	value := calleeSet(t, g, "fixture/graph.CallValue")
	if !value["fixture/graph.Double"] {
		t.Errorf("CallValue cannot reach the address-taken Double; targets %v", value)
	}
	if value["fixture/graph.Triple"] {
		t.Errorf("CallValue reaches Triple, whose address is never taken")
	}
	thunk := calleeSet(t, g, "fixture/graph.CallThunk")
	if !thunk["(fixture/graph.A).Do"] {
		t.Errorf("CallThunk cannot reach the method value A.Do; targets %v", thunk)
	}
}

// TestCallGraphReachableChain pins BFS reachability and chain rendering,
// the substrate of every taint message: Leaf is reached from
// the troot root through Mid and the chain reads root-first, while
// Unreached — same package, same violation — is not in the tree at all.
func TestCallGraphReachableChain(t *testing.T) {
	_, prog := fixtureGraph(t)
	g := prog.CG
	root := mustLookup(t, g, "fixture/troot.Root")
	parent := g.Reachable([]*types.Func{root})

	leaf := mustLookup(t, g, "fixture/thelp.Leaf")
	if _, ok := parent[leaf]; !ok {
		t.Fatal("thelp.Leaf is not reachable from troot.Root")
	}
	if got, want := lint.Chain(parent, leaf), "troot.Root -> thelp.Mid -> thelp.Leaf"; got != want {
		t.Errorf("Chain(Leaf) = %q, want %q", got, want)
	}
	if _, ok := parent[mustLookup(t, g, "fixture/thelp.Unreached")]; ok {
		t.Error("thelp.Unreached is in the reachable set; nothing calls it")
	}
}
