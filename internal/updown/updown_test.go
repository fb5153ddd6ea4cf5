package updown

import (
	"testing"
	"testing/quick"

	"itbsim/internal/topology"
)

func torus(t *testing.T, rows, cols int) *topology.Network {
	t.Helper()
	n, err := topology.NewTorus(rows, cols, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func assign(t *testing.T, net *topology.Network, root int) *Assignment {
	t.Helper()
	a, err := NewAssignment(net, root)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAssignmentLevels(t *testing.T) {
	net := torus(t, 4, 4)
	a := assign(t, net, 0)
	if a.Level[0] != 0 {
		t.Errorf("root level = %d, want 0", a.Level[0])
	}
	// In a 4x4 torus, switch 10 (2,2) is 4 hops from switch 0.
	if a.Level[10] != 4 {
		t.Errorf("level of (2,2) = %d, want 4", a.Level[10])
	}
	// Every link's up end must be at a level <= the other end's level.
	for i, l := range net.Links {
		up := a.UpEnd(i)
		other := l.A.Switch
		if other == up {
			other = l.B.Switch
		}
		if a.Level[up] > a.Level[other] {
			t.Errorf("link %d: up end %d deeper than %d", i, up, other)
		}
		if a.Level[up] == a.Level[other] && up > other {
			t.Errorf("link %d: tie not broken by lower ID", i)
		}
	}
}

func TestInvalidRoot(t *testing.T) {
	net := torus(t, 4, 4)
	if _, err := NewAssignment(net, -1); err == nil {
		t.Error("negative root accepted")
	}
	if _, err := NewAssignment(net, net.Switches); err == nil {
		t.Error("out-of-range root accepted")
	}
}

func TestLegalChannelSeq(t *testing.T) {
	net := torus(t, 4, 4)
	a := assign(t, net, 0)
	// Find one up and one down channel.
	upCh, downCh := -1, -1
	for c := 0; c < net.NumChannels(); c++ {
		if a.IsUpChannel(c) {
			upCh = c
		} else {
			downCh = c
		}
	}
	if upCh < 0 || downCh < 0 {
		t.Fatal("expected both up and down channels")
	}
	cases := []struct {
		seq  []int
		want bool
	}{
		{nil, true},
		{[]int{upCh}, true},
		{[]int{downCh}, true},
		{[]int{upCh, downCh}, true},
		{[]int{downCh, upCh}, false},
		{[]int{upCh, upCh, downCh, downCh}, true},
		{[]int{upCh, downCh, upCh}, false},
	}
	for i, c := range cases {
		if got := a.LegalChannelSeq(c.seq); got != c.want {
			t.Errorf("case %d: LegalChannelSeq = %v, want %v", i, got, c.want)
		}
	}
}

func TestLegalDistancesReachAll(t *testing.T) {
	for _, root := range []int{0, 5, 15} {
		net := torus(t, 4, 4)
		a := assign(t, net, root)
		for s := 0; s < net.Switches; s++ {
			raw := net.Distances(s)
			legal := a.LegalDistances(s)
			for d := 0; d < net.Switches; d++ {
				if legal[d] < 0 {
					t.Fatalf("root %d: no legal path %d -> %d", root, s, d)
				}
				if legal[d] < raw[d] {
					t.Fatalf("legal distance %d -> %d is %d < raw %d", s, d, legal[d], raw[d])
				}
			}
		}
	}
}

func TestPaperTorusStaticStats(t *testing.T) {
	net, err := topology.NewTorus(8, 8, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	a := assign(t, net, 0)
	frac, avgLegal, avgRaw := a.MinimalLegalFraction()
	// Paper §4.7.1: 80% of up*/down* paths are minimal in the 8x8 torus;
	// ITB (raw) average distance 4.06, up*/down* average 4.57.
	if frac < 0.70 || frac > 0.92 {
		t.Errorf("minimal fraction = %.3f, paper reports 0.80", frac)
	}
	if avgRaw < 4.0 || avgRaw > 4.12 {
		t.Errorf("avg raw distance = %.3f, paper reports 4.06", avgRaw)
	}
	if avgLegal < 4.2 || avgLegal > 5.0 {
		t.Errorf("avg legal distance = %.3f, paper reports 4.57", avgLegal)
	}
	t.Logf("torus 8x8: minimal=%.1f%% avgLegal=%.2f avgRaw=%.2f", 100*frac, avgLegal, avgRaw)
}

func TestPaperExpressStaticStats(t *testing.T) {
	net, err := topology.NewExpressTorus(8, 8, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	a := assign(t, net, 0)
	frac, _, _ := a.MinimalLegalFraction()
	// Paper: with express channels the percentage of minimal paths is 94%.
	if frac < 0.85 {
		t.Errorf("minimal fraction = %.3f, paper reports 0.94", frac)
	}
	t.Logf("express torus: minimal=%.1f%%", 100*frac)
}

func TestShortestLegalPathsProperties(t *testing.T) {
	net := torus(t, 4, 4)
	a := assign(t, net, 0)
	for src := 0; src < net.Switches; src++ {
		legal := a.LegalDistances(src)
		for dst := 0; dst < net.Switches; dst++ {
			paths := NewWorkspace(a).ShortestLegalPaths(src, dst, 10)
			if len(paths) == 0 {
				t.Fatalf("no paths %d -> %d", src, dst)
			}
			if len(paths) > 10 {
				t.Fatalf("limit exceeded: %d paths", len(paths))
			}
			for _, p := range paths {
				if p[0] != src || p[len(p)-1] != dst {
					t.Fatalf("path %v does not go %d -> %d", p, src, dst)
				}
				if len(p)-1 != legal[dst] {
					t.Fatalf("path %v has %d hops, shortest legal is %d", p, len(p)-1, legal[dst])
				}
				if !a.LegalSwitchPath(p) {
					t.Fatalf("illegal path returned: %v", p)
				}
			}
		}
	}
}

func TestShortestLegalPathsDeterministic(t *testing.T) {
	net := torus(t, 4, 4)
	a := assign(t, net, 0)
	p1 := NewWorkspace(a).ShortestLegalPaths(3, 12, 10)
	p2 := NewWorkspace(a).ShortestLegalPaths(3, 12, 10)
	if len(p1) != len(p2) {
		t.Fatal("non-deterministic path count")
	}
	for i := range p1 {
		for j := range p1[i] {
			if p1[i][j] != p2[i][j] {
				t.Fatal("non-deterministic path order")
			}
		}
	}
}

func TestSameSwitchPath(t *testing.T) {
	net := torus(t, 4, 4)
	a := assign(t, net, 0)
	p := NewWorkspace(a).ShortestLegalPaths(5, 5, 10)
	if len(p) != 1 || len(p[0]) != 1 || p[0][0] != 5 {
		t.Errorf("same-switch paths = %v, want [[5]]", p)
	}
}

func TestBalancedRoutesComplete(t *testing.T) {
	net := torus(t, 4, 4)
	a := assign(t, net, 0)
	routes := a.BalancedRoutes(DefaultBalancedConfig())
	for s := 0; s < net.Switches; s++ {
		for d := 0; d < net.Switches; d++ {
			p := routes[s][d]
			if len(p) == 0 {
				t.Fatalf("missing route %d -> %d", s, d)
			}
			if p[0] != s || p[len(p)-1] != d {
				t.Fatalf("route %v does not go %d -> %d", p, s, d)
			}
			if !a.LegalSwitchPath(p) {
				t.Fatalf("balanced route %v is not a legal up*/down* path", p)
			}
		}
	}
}

func TestBalancedRoutesDeadlockFree(t *testing.T) {
	net := torus(t, 4, 4)
	a := assign(t, net, 0)
	routes := a.BalancedRoutes(DefaultBalancedConfig())
	g := NewDependencyGraph(net)
	for s := range routes {
		for d := range routes[s] {
			g.AddRoute(ChannelSeq(net, routes[s][d]))
		}
	}
	if !g.Acyclic() {
		t.Fatal("up*/down* balanced routes produced a cyclic channel dependency graph")
	}
}

func TestBalancedRoutesBalance(t *testing.T) {
	// With load balancing on, the maximum channel usage should be lower
	// than (or equal to) a purely greedy shortest-path selection that
	// ignores weights (LoadFactor = 0).
	net := torus(t, 4, 4)
	a := assign(t, net, 0)
	use := func(routes [][][]int) (max int) {
		count := make([]int, net.NumChannels())
		for s := range routes {
			for d := range routes[s] {
				for _, c := range ChannelSeq(net, routes[s][d]) {
					count[c]++
					if count[c] > max {
						max = count[c]
					}
				}
			}
		}
		return max
	}
	balanced := use(a.BalancedRoutes(DefaultBalancedConfig()))
	greedy := use(a.BalancedRoutes(BalancedConfig{LoadFactor: 0}))
	if balanced > greedy {
		t.Errorf("balanced max channel usage %d > greedy %d", balanced, greedy)
	}
	t.Logf("max channel usage: balanced=%d greedy=%d", balanced, greedy)
}

func TestCDGDetectsCycle(t *testing.T) {
	net := torus(t, 4, 4)
	g := NewDependencyGraph(net)
	// Route all the way around a torus row and back to the start: the
	// channel sequence is a cycle once it is closed head-to-tail.
	ring := []int{0, 1, 2, 3, 0, 1}
	g.AddRoute(ChannelSeq(net, ring))
	if g.Acyclic() {
		t.Fatal("cycle around torus ring not detected")
	}
}

func TestCDGEmpty(t *testing.T) {
	net := torus(t, 2, 2)
	g := NewDependencyGraph(net)
	if !g.Acyclic() {
		t.Fatal("empty graph reported cyclic")
	}
}

func TestUpDownPropertyRandomTopologies(t *testing.T) {
	check := func(seed int64) bool {
		sw := 4 + int(seed%11+11)%11
		net, err := topology.NewRandomIrregular(sw, 4, 1, 16, seed)
		if err != nil {
			return false
		}
		a, err := NewAssignment(net, 0)
		if err != nil {
			return false
		}
		routes := a.BalancedRoutes(DefaultBalancedConfig())
		g := NewDependencyGraph(net)
		for s := range routes {
			for d := range routes[s] {
				if !a.LegalSwitchPath(routes[s][d]) {
					return false
				}
				g.AddRoute(ChannelSeq(net, routes[s][d]))
			}
		}
		return g.Acyclic()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFatTreeAllMinimalLegal(t *testing.T) {
	// Fat trees are the natural up*/down* topology: with the root level
	// at the top of the BFS tree, every minimal path is a legal
	// up-then-down path. A useful negative control: ITB routing can add
	// nothing here.
	net, err := topology.NewFatTree(2, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Root the spanning tree at a top-level switch. Traffic only travels
	// between the leaf switches (the only ones with hosts); every
	// leaf-to-leaf minimal path is up-then-down and therefore legal.
	// (Pairs involving upper-level switches can have down-up shortest
	// paths, but no host traffic uses them.)
	a := assign(t, net, 8)
	for src := 0; src < net.Switches; src++ {
		if len(net.HostsAt(src)) == 0 {
			continue
		}
		raw := net.Distances(src)
		legal := a.LegalDistances(src)
		for dst := 0; dst < net.Switches; dst++ {
			if len(net.HostsAt(dst)) == 0 {
				continue
			}
			if legal[dst] != raw[dst] {
				t.Errorf("leaf pair %d->%d: legal %d != raw %d", src, dst, legal[dst], raw[dst])
			}
		}
	}
}

func TestTorus3DUpDownForbidsPaths(t *testing.T) {
	// In contrast, a large enough 3-D torus (like the 8x8 2-D torus) has
	// forbidden minimal paths, so ITBs help there too. Radix-4 tori are
	// small enough that up*/down* happens to cover all minimal paths;
	// radix 6 is not.
	net, err := topology.NewTorus3D(6, 6, 6, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	a := assign(t, net, 0)
	frac, _, _ := a.MinimalLegalFraction()
	if frac >= 1 {
		t.Errorf("6x6x6 torus should forbid some minimal paths, got %.3f", frac)
	}
	t.Logf("3-D torus 6x6x6: %.1f%% of pairs have a minimal legal path", 100*frac)
}

func TestRootCongestionIntuition(t *testing.T) {
	// The paper argues up*/down* concentrates routes near the root. Count
	// route traversals per channel and verify the most used channel is
	// adjacent to the root.
	net := torus(t, 4, 4)
	a := assign(t, net, 0)
	routes := a.BalancedRoutes(DefaultBalancedConfig())
	count := make([]int, net.NumChannels())
	for s := range routes {
		for d := range routes[s] {
			for _, c := range ChannelSeq(net, routes[s][d]) {
				count[c]++
			}
		}
	}
	best, bestC := -1, -1
	for c, n := range count {
		if n > best {
			best, bestC = n, c
		}
	}
	from, to := net.ChannelEnds(bestC)
	if from != 0 && to != 0 {
		// Not necessarily adjacent in every tie-break, but it should be
		// within one hop of the root.
		d := net.Distances(0)
		if d[from] > 1 && d[to] > 1 {
			t.Errorf("most used channel %d (%d->%d, %d uses) is not near the root", bestC, from, to, best)
		}
	}
}
