package itbroute

import (
	"testing"
	"testing/quick"

	"itbsim/internal/topology"
	"itbsim/internal/updown"
)

func torus(t *testing.T, rows, cols, hosts int) (*topology.Network, *updown.Assignment) {
	t.Helper()
	net, err := topology.NewTorus(rows, cols, hosts, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := updown.NewAssignment(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net, a
}

func TestMinimalPathsAreMinimal(t *testing.T) {
	net, a := torus(t, 4, 4, 1)
	for src := 0; src < net.Switches; src++ {
		d := net.Distances(src)
		for dst := 0; dst < net.Switches; dst++ {
			paths := MinimalPaths(a, src, dst, 10)
			if len(paths) == 0 {
				t.Fatalf("no minimal paths %d -> %d", src, dst)
			}
			for _, p := range paths {
				if len(p)-1 != d[dst] {
					t.Fatalf("path %v has %d hops, shortest is %d", p, len(p)-1, d[dst])
				}
				if p[0] != src || p[len(p)-1] != dst {
					t.Fatalf("path %v endpoints wrong", p)
				}
				for i := 0; i+1 < len(p); i++ {
					if net.LinkBetween(p[i], p[i+1]) < 0 {
						t.Fatalf("path %v has non-adjacent hop", p)
					}
				}
			}
		}
	}
}

func TestMinimalPathsLimit(t *testing.T) {
	_, a := torus(t, 8, 8, 1)
	// Opposite corner has many shortest paths; the limit must cap them.
	paths := MinimalPaths(a, 0, topology.TorusID(4, 4, 8), 10)
	if len(paths) != 10 {
		t.Errorf("got %d paths, want exactly 10 (limit)", len(paths))
	}
}

func TestSplitPathLegalSegments(t *testing.T) {
	net, a := torus(t, 4, 4, 1)
	for src := 0; src < net.Switches; src++ {
		for dst := 0; dst < net.Switches; dst++ {
			for _, p := range MinimalPaths(a, src, dst, 10) {
				sp, err := SplitPath(a, p)
				if err != nil {
					t.Fatalf("split %v: %v", p, err)
				}
				for _, seg := range sp.Segments() {
					if !a.LegalSwitchPath(seg) {
						t.Fatalf("segment %v of %v illegal", seg, p)
					}
				}
				// Segments must chain: end switch of one = start of next.
				segs := sp.Segments()
				for i := 0; i+1 < len(segs); i++ {
					if segs[i][len(segs[i])-1] != segs[i+1][0] {
						t.Fatalf("segments of %v do not chain: %v", p, segs)
					}
				}
				if segs[0][0] != src || segs[len(segs)-1][len(segs[len(segs)-1])-1] != dst {
					t.Fatalf("segments of %v lose endpoints", p)
				}
			}
		}
	}
}

func TestSplitLegalPathNeedsNoITB(t *testing.T) {
	net, a := torus(t, 4, 4, 1)
	for src := 0; src < net.Switches; src++ {
		for dst := 0; dst < net.Switches; dst++ {
			for _, p := range MinimalPaths(a, src, dst, 10) {
				if !a.LegalSwitchPath(p) {
					continue
				}
				sp, err := SplitPath(a, p)
				if err != nil {
					t.Fatal(err)
				}
				if sp.NumITBs() != 0 {
					t.Fatalf("legal path %v split with %d ITBs", p, sp.NumITBs())
				}
			}
		}
	}
}

func TestSplitIllegalPathUsesITB(t *testing.T) {
	net, a := torus(t, 8, 8, 1)
	found := false
	for src := 0; src < net.Switches && !found; src++ {
		for dst := 0; dst < net.Switches && !found; dst++ {
			for _, p := range MinimalPaths(a, src, dst, 10) {
				if a.LegalSwitchPath(p) {
					continue
				}
				sp, err := SplitPath(a, p)
				if err != nil {
					t.Fatal(err)
				}
				if sp.NumITBs() == 0 {
					t.Fatalf("illegal path %v split with 0 ITBs", p)
				}
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no illegal minimal path found in an 8x8 torus; expected ~20%")
	}
}

func TestSplitPathNonAdjacent(t *testing.T) {
	_, a := torus(t, 4, 4, 1)
	if _, err := SplitPath(a, []int{0, 5}); err == nil {
		t.Error("non-adjacent path accepted")
	}
}

func TestSplitPathTrivial(t *testing.T) {
	_, a := torus(t, 4, 4, 1)
	sp, err := SplitPath(a, []int{3})
	if err != nil || sp.NumITBs() != 0 {
		t.Errorf("single-switch path: %v %v", sp, err)
	}
	segs := sp.Segments()
	if len(segs) != 1 || len(segs[0]) != 1 {
		t.Errorf("segments = %v", segs)
	}
}

func TestMinimalSplitsAndBest(t *testing.T) {
	net, a := torus(t, 8, 8, 1)
	for src := 0; src < net.Switches; src += 7 {
		for dst := 0; dst < net.Switches; dst += 5 {
			if src == dst {
				continue
			}
			splits, err := MinimalSplits(a, src, dst, 10)
			if err != nil {
				t.Fatal(err)
			}
			best := BestSplit(splits)
			for _, s := range splits {
				if s.NumITBs() < best.NumITBs() {
					t.Fatalf("BestSplit did not minimise ITBs: %d < %d", s.NumITBs(), best.NumITBs())
				}
			}
			// Minimal legal up*/down* path exists => best needs 0 ITBs.
			legal := a.LegalDistances(src)
			raw := net.Distances(src)
			if legal[dst] == raw[dst] {
				// A minimal legal path exists; it may not be among the
				// first 10 enumerated minimal paths, so only check when
				// some split has 0 ITBs that BestSplit found it.
				zero := false
				for _, s := range splits {
					if s.NumITBs() == 0 {
						zero = true
					}
				}
				if zero && best.NumITBs() != 0 {
					t.Fatalf("BestSplit missed a 0-ITB split for %d -> %d", src, dst)
				}
			}
		}
	}
}

func TestCDGOfITBSegmentsAcyclic(t *testing.T) {
	// The composed ITB routing must have an acyclic channel dependency
	// graph once routes are split at in-transit hosts (ejection removes
	// the down->up dependency). This is the paper's core deadlock-freedom
	// argument; verify it holds for every minimal path in a torus.
	net, a := torus(t, 4, 4, 1)
	g := updown.NewDependencyGraph(net)
	for src := 0; src < net.Switches; src++ {
		for dst := 0; dst < net.Switches; dst++ {
			splits, err := MinimalSplits(a, src, dst, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, sp := range splits {
				for _, seg := range sp.Segments() {
					g.AddRoute(updown.ChannelSeq(net, seg))
				}
			}
		}
	}
	if !g.Acyclic() {
		t.Fatal("ITB-split minimal routes produced a cyclic CDG")
	}
}

func TestCDGOfUnsplitMinimalRoutesCyclic(t *testing.T) {
	// Control experiment: without ITB splitting, using raw minimal paths
	// in a torus must create cyclic channel dependencies (that is why
	// up*/down* forbids them).
	net, a := torus(t, 4, 4, 1)

	g := updown.NewDependencyGraph(net)
	for src := 0; src < net.Switches; src++ {
		for dst := 0; dst < net.Switches; dst++ {
			for _, p := range MinimalPaths(a, src, dst, 10) {
				g.AddRoute(updown.ChannelSeq(net, p))
			}
		}
	}
	if g.Acyclic() {
		t.Fatal("raw minimal routes in a torus should produce a cyclic CDG")
	}
}

func TestPaperAverageITBCount(t *testing.T) {
	// §4.7.1: on average 0.43 in-transit buffers per message with ITB-SP
	// and 0.54 with ITB-RR under uniform traffic on the 8x8 torus. The
	// static expectation over uniformly chosen switch pairs should be in
	// that neighbourhood.
	net, a := torus(t, 8, 8, 8)
	var spSum, rrSum float64
	var pairs int
	for src := 0; src < net.Switches; src++ {
		for dst := 0; dst < net.Switches; dst++ {
			if src == dst {
				continue
			}
			splits, err := MinimalSplits(a, src, dst, 10)
			if err != nil {
				t.Fatal(err)
			}
			pairs++
			spSum += float64(BestSplit(splits).NumITBs())
			var rr float64
			for _, s := range splits {
				rr += float64(s.NumITBs())
			}
			rrSum += rr / float64(len(splits))
		}
	}
	sp := spSum / float64(pairs)
	rr := rrSum / float64(pairs)
	t.Logf("avg ITBs per route: SP=%.3f RR=%.3f (paper: 0.43 / 0.54)", sp, rr)
	if sp < 0.2 || sp > 0.7 {
		t.Errorf("ITB-SP average %.3f far from paper's 0.43", sp)
	}
	if rr < sp {
		t.Errorf("ITB-RR average %.3f should be >= ITB-SP %.3f", rr, sp)
	}
	if rr < 0.3 || rr > 0.9 {
		t.Errorf("ITB-RR average %.3f far from paper's 0.54", rr)
	}
}

func TestSplitPropertyRandomTopologies(t *testing.T) {
	check := func(seed int64) bool {
		sw := 4 + int(seed%11+11)%11
		net, err := topology.NewRandomIrregular(sw, 4, 1, 16, seed)
		if err != nil {
			return false
		}
		a, err := updown.NewAssignment(net, 0)
		if err != nil {
			return false
		}
		for src := 0; src < net.Switches; src++ {
			raw := net.Distances(src)
			for dst := 0; dst < net.Switches; dst++ {
				if src == dst {
					continue
				}
				splits, err := MinimalSplits(a, src, dst, 5)
				if err != nil {
					return false
				}
				for _, sp := range splits {
					if len(sp.Path)-1 != raw[dst] {
						return false
					}
					for _, seg := range sp.Segments() {
						if !a.LegalSwitchPath(seg) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
