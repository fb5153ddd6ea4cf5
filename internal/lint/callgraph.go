package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds a module-wide static call graph, the substrate for the
// interprocedural taint rule (taint.go) and the hot-path allocation gate
// (hotalloc.go). Resolution is type-based and deliberately conservative — the graph may contain edges
// that can never execute, but a call that can execute is never missing:
//
//   - A direct call of a declared function or method is a static edge to
//     that function (promoted methods resolve to the embedded
//     declaration, which is where the body lives).
//   - A call through an interface value adds an edge to the matching
//     method of every named type in the module that implements the
//     interface. Stdlib implementations are out of scope: the rules only
//     inspect module bodies.
//   - A call through a function value (variable, field, parameter, or any
//     other expression of function type) adds an edge to every declared
//     module function whose address is taken somewhere in the module and
//     whose signature (receiver excluded) matches the call site.
//   - A function literal has no node of its own: its body — and so its
//     calls — belong to the enclosing declared function, because that is
//     the function whose execution runs the literal's allocation and,
//     almost always in this codebase, the literal itself. Literals bound
//     at package level (var f = func() {...}) are the one blind spot; the
//     module has none, and the fixture tests would catch a rule that
//     started to depend on them.
//
// Everything is ordered deterministically (files in Load order, calls in
// source order, dynamic targets by full name) so findings and chains are
// byte-stable run to run — the same contract the simulator itself is held
// to.

// CallGraph is the static call graph of one loaded module.
type CallGraph struct {
	nodes  map[*types.Func]*CallNode
	byName map[string]*types.Func // FullName -> declared function
	// addrTaken maps a receiver-less signature key to the declared
	// functions whose address is taken somewhere in the module, the
	// candidate targets of function-value calls.
	addrTaken map[string][]*types.Func
	named     []*types.Named // module named types, for interface dispatch
	ifaceMemo map[string][]*types.Func
}

// CallNode is one declared function with a body.
type CallNode struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Calls []Call // source order; dynamic targets expanded in name order
}

// Call is one resolved call edge.
type Call struct {
	Callee *types.Func
	Pos    token.Pos
	// Dynamic marks edges resolved through an interface or a function
	// value rather than a direct reference.
	Dynamic bool
}

// rawCall is a call site before dynamic targets are known; expansion
// happens after every package has contributed its address-taken set.
type rawCall struct {
	pos    token.Pos
	static *types.Func
	iface  *types.Interface
	method string
	mpkg   *types.Package
	sig    string // function-value call: receiver-less signature key
}

// buildCallGraph constructs the graph for the given packages.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes:     map[*types.Func]*CallNode{},
		byName:    map[string]*types.Func{},
		addrTaken: map[string][]*types.Func{},
		ifaceMemo: map[string][]*types.Func{},
	}
	module := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		module[pkg.Types] = true
	}

	// Pass 1: index declared functions and named types.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				g.nodes[fn] = &CallNode{Fn: fn, Decl: fd, Pkg: pkg}
				g.byName[fn.FullName()] = fn
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				g.named = append(g.named, named)
			}
		}
	}
	sort.Slice(g.named, func(i, j int) bool {
		return g.named[i].Obj().Pkg().Path()+"."+g.named[i].Obj().Name() <
			g.named[j].Obj().Pkg().Path()+"."+g.named[j].Obj().Name()
	})

	// Pass 2: per package, record call sites per declared function and
	// collect the address-taken set (a function referenced anywhere but
	// the callee slot of a call).
	raw := map[*types.Func][]rawCall{}
	for _, pkg := range pkgs {
		calleePos := map[token.Pos]bool{}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := unwrapCallee(call.Fun).(type) {
				case *ast.Ident:
					calleePos[fun.Pos()] = true
				case *ast.SelectorExpr:
					calleePos[fun.Sel.Pos()] = true
				}
				return true
			})
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if rc, ok := resolveCall(pkg, call); ok {
						raw[fn] = append(raw[fn], rc)
					}
					return true
				})
			}
		}
		// Info.Uses iteration order is random; the collected set is
		// sorted below, so the randomness never escapes.
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || calleePos[id.Pos()] {
				continue
			}
			if _, declared := g.nodes[fn]; !declared {
				continue
			}
			key := sigKey(fn.Type().(*types.Signature))
			g.addrTaken[key] = append(g.addrTaken[key], fn)
		}
	}
	for key, fns := range g.addrTaken {
		sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
		g.addrTaken[key] = dedupeFuncs(fns)
	}

	// Pass 3: expand raw calls into edges now that the whole-module
	// address-taken and implements relations are known.
	for fn, node := range g.nodes {
		for _, rc := range raw[fn] {
			switch {
			case rc.static != nil:
				if _, ok := g.nodes[rc.static]; ok {
					node.Calls = append(node.Calls, Call{Callee: rc.static, Pos: rc.pos})
				}
			case rc.iface != nil:
				for _, impl := range g.implementers(rc.iface, rc.method, rc.mpkg) {
					node.Calls = append(node.Calls, Call{Callee: impl, Pos: rc.pos, Dynamic: true})
				}
			case rc.sig != "":
				for _, target := range g.addrTaken[rc.sig] {
					node.Calls = append(node.Calls, Call{Callee: target, Pos: rc.pos, Dynamic: true})
				}
			}
		}
		sort.SliceStable(node.Calls, func(i, j int) bool { return node.Calls[i].Pos < node.Calls[j].Pos })
	}
	return g
}

// resolveCall classifies one call site. ok is false for calls the graph
// does not model: conversions, builtins, stdlib callees, and direct
// invocations of function literals (whose bodies are walked in place).
func resolveCall(pkg *Package, call *ast.CallExpr) (rawCall, bool) {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return rawCall{}, false // conversion
	}
	rc := rawCall{pos: call.Pos()}
	switch fun := unwrapCallee(call.Fun).(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Func:
			rc.static = obj
			return rc, true
		case *types.Var: // local or package-level function-typed variable
			if sig, ok := obj.Type().Underlying().(*types.Signature); ok {
				rc.sig = sigKey(sig)
				return rc, true
			}
		}
		return rawCall{}, false
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				fn := sel.Obj().(*types.Func)
				sig := fn.Type().(*types.Signature)
				if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
					rc.iface = recv.Type().Underlying().(*types.Interface)
					rc.method = fn.Name()
					rc.mpkg = fn.Pkg()
					return rc, true
				}
				rc.static = fn
				return rc, true
			case types.FieldVal:
				if sig, ok := sel.Type().Underlying().(*types.Signature); ok {
					rc.sig = sigKey(sig)
					return rc, true
				}
			}
			return rawCall{}, false
		}
		// No selection: a package-qualified reference or a method
		// expression used as a value; Uses resolves the Sel ident.
		switch obj := pkg.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			sig := obj.Type().(*types.Signature)
			if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
				rc.iface = recv.Type().Underlying().(*types.Interface)
				rc.method = obj.Name()
				rc.mpkg = obj.Pkg()
				return rc, true
			}
			rc.static = obj
			return rc, true
		case *types.Var:
			if sig, ok := obj.Type().Underlying().(*types.Signature); ok {
				rc.sig = sigKey(sig)
				return rc, true
			}
		}
		return rawCall{}, false
	default:
		// Call of an arbitrary expression: f()(), m[k](), chan receive…
		// Conservatively treat as a function-value call by signature.
		if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.Type != nil {
			if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
				rc.sig = sigKey(sig)
				return rc, true
			}
		}
		return rawCall{}, false
	}
}

// unwrapCallee strips parens and generic instantiation indices from a
// call's Fun expression.
func unwrapCallee(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e
		}
	}
}

// implementers returns the declared module methods that a call of
// iface.method can dispatch to, sorted by full name.
func (g *CallGraph) implementers(iface *types.Interface, method string, mpkg *types.Package) []*types.Func {
	key := types.TypeString(iface, nil) + "\x00" + method
	if mpkg != nil {
		key += "\x00" + mpkg.Path()
	}
	if impls, ok := g.ifaceMemo[key]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range g.named {
		if types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, mpkg, method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if _, declared := g.nodes[fn]; declared {
			impls = append(impls, fn)
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].FullName() < impls[j].FullName() })
	g.ifaceMemo[key] = impls
	return impls
}

// sigKey renders a signature without its receiver, so that a method and a
// plain function with the same parameters and results unify — method
// values are assignable to plain function types.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	tuple := func(t *types.Tuple, variadic bool) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			typ := t.At(i).Type()
			if variadic && i == t.Len()-1 {
				b.WriteString("...")
				if sl, ok := typ.(*types.Slice); ok {
					typ = sl.Elem()
				}
			}
			b.WriteString(types.TypeString(typ, nil))
		}
		b.WriteByte(')')
	}
	tuple(sig.Params(), sig.Variadic())
	tuple(sig.Results(), false)
	return b.String()
}

// dedupeFuncs removes adjacent duplicates from a sorted slice.
func dedupeFuncs(fns []*types.Func) []*types.Func {
	out := fns[:0]
	for i, fn := range fns {
		if i == 0 || fns[i-1] != fn {
			out = append(out, fn)
		}
	}
	return out
}

// Node returns the graph node for fn, or nil when fn has no body in the
// module.
func (g *CallGraph) Node(fn *types.Func) *CallNode { return g.nodes[fn] }

// Lookup resolves a function by its FullName, e.g.
// "(*itbsim/internal/netsim.Sim).step"; nil when not declared.
func (g *CallGraph) Lookup(fullName string) *types.Func { return g.byName[fullName] }

// Funcs returns every declared function in the graph, sorted by full name.
func (g *CallGraph) Funcs() []*types.Func {
	out := make([]*types.Func, 0, len(g.nodes))
	for fn := range g.nodes {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// Reachable walks the graph breadth-first from roots and returns the BFS
// tree as a child->parent map (roots map to nil). Roots are processed in
// full-name order, so the tree — and every chain derived from it — is
// deterministic.
func (g *CallGraph) Reachable(roots []*types.Func) map[*types.Func]*types.Func {
	sorted := append([]*types.Func(nil), roots...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].FullName() < sorted[j].FullName() })
	parent := map[*types.Func]*types.Func{}
	var queue []*types.Func
	for _, r := range sorted {
		if _, seen := parent[r]; seen || g.nodes[r] == nil {
			continue
		}
		parent[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, call := range g.nodes[fn].Calls {
			callee := call.Callee
			if _, seen := parent[callee]; seen || g.nodes[callee] == nil {
				continue
			}
			parent[callee] = fn
			queue = append(queue, callee)
		}
	}
	return parent
}

// Chain reconstructs the root->fn path from a Reachable tree, rendered as
// short function names joined by " -> ".
func Chain(parent map[*types.Func]*types.Func, fn *types.Func) string {
	var names []string
	for f := fn; f != nil; f = parent[f] {
		names = append(names, shortFuncName(f))
		if parent[f] == nil {
			break
		}
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> ")
}

// shortFuncName renders fn as pkgname.Func or pkgname.(Recv).Method —
// compact enough for chain messages while staying unambiguous within the
// module.
func shortFuncName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name() + "."
	}
	recv := sig.Recv()
	if recv == nil {
		return pkgName + fn.Name()
	}
	t := recv.Type()
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
		ptr = "*"
	}
	name := "?"
	if named, ok := t.(*types.Named); ok {
		name = named.Obj().Name()
	}
	return pkgName + "(" + ptr + name + ")." + fn.Name()
}
