package itbroute

import (
	"reflect"
	"testing"

	"itbsim/internal/topology"
	"itbsim/internal/updown"
)

// capBiasNet builds the topology that exhibits the enumeration-cap bias:
// eleven parallel 2-hop paths between src (switch 1) and dst (switch 2),
// where the first ten in port order descend below both endpoints (down→up,
// one ITB each) and only the eleventh — through switch 13, the one hanging
// off the root — is a legal up-then-down path. The link insertion order
// puts the ten ITB-needing intermediates on src's lowest ports, so a
// DFS enumeration capped at 10 never sees the 0-ITB path.
func capBiasNet(t *testing.T) (*topology.Network, *updown.Assignment) {
	t.Helper()
	b := topology.NewBuilder("capbias", 14, 16)
	b.AddLink(0, 13) // root's only fabric link: switch 13 gets level 1
	for i := 3; i <= 12; i++ {
		b.AddLink(1, i) // src's ports 0..9: the level-3 intermediates
	}
	b.AddLink(1, 13) // src's port 10: the only legal (up-then-down) way
	for i := 3; i <= 13; i++ {
		b.AddLink(2, i)
	}
	b.AddHosts(1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := updown.NewAssignment(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net, a
}

// TestBestSplitCapBiasRegression is the regression test for the
// order-dependence bug in ITB-SP path selection: with MaxAlternatives-capped
// enumeration, BestSplit could only rank the recursion-order prefix of the
// minimal path set, so which split "wins" depended on DFS enumeration order
// rather than on the full equal-length path set. OptimalSplit searches the
// whole minimal-path DAG and must find the 0-ITB path the cap hides.
func TestBestSplitCapBiasRegression(t *testing.T) {
	_, a := capBiasNet(t)
	const src, dst, limit = 1, 2, 10

	splits, err := MinimalSplits(a, src, dst, limit)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != limit {
		t.Fatalf("capped enumeration returned %d splits, want %d", len(splits), limit)
	}
	capped := BestSplit(splits)
	if capped.NumITBs() != 1 {
		t.Fatalf("capped BestSplit uses %d ITBs; the topology should force 1 on every capped candidate (got path %v)",
			capped.NumITBs(), capped.Path)
	}

	opt, err := OptimalSplit(a, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumITBs() != 0 {
		t.Fatalf("OptimalSplit uses %d ITBs on path %v, want the 0-ITB path through switch 13", opt.NumITBs(), opt.Path)
	}
	if want := []int{1, 13, 2}; !reflect.DeepEqual(opt.Path, want) {
		t.Fatalf("OptimalSplit path %v, want %v", opt.Path, want)
	}
}

// hostSubsetCapBiasNet is capBiasNet with hosts only at the root, the
// endpoints, and the switches named in withHosts — so paths breaking at a
// host-less intermediate are unsplittable.
func hostSubsetCapBiasNet(t *testing.T, withHosts ...int) (*topology.Network, *updown.Assignment) {
	t.Helper()
	b := topology.NewBuilder("capbias-hosts", 14, 16)
	b.AddLink(0, 13)
	for i := 3; i <= 12; i++ {
		b.AddLink(1, i)
	}
	b.AddLink(1, 13)
	for i := 3; i <= 13; i++ {
		b.AddLink(2, i)
	}
	for _, sw := range []int{0, 1, 2, 13} {
		b.AddHost(sw)
	}
	for _, sw := range withHosts {
		b.AddHost(sw)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := updown.NewAssignment(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net, a
}

// TestMinimalSplitsCapCountsSplittable is the regression test for the
// truncation bug in MinimalSplits: the limit used to cap the raw path
// enumeration before splittability was tested, and unsplittable paths were
// dropped afterwards — so which candidates survived (and whether any did)
// depended on where the splittable paths happened to sit in DFS enumeration
// order relative to the cap. On this fabric the first ten minimal paths for
// 1->2 all break at host-less switches; the old code reported "no
// splittable minimal path" even though a perfectly legal equal-length path
// sits at position eleven. The cap must count splittable candidates.
func TestMinimalSplitsCapCountsSplittable(t *testing.T) {
	// Hard-failure case: no intermediate has a host, only the path through
	// switch 13 (which needs no break at all) is splittable.
	_, a := hostSubsetCapBiasNet(t)
	splits, err := MinimalSplits(a, 1, 2, 10)
	if err != nil {
		t.Fatalf("MinimalSplits failed with a splittable minimal path past the cap window: %v", err)
	}
	if len(splits) != 1 {
		t.Fatalf("got %d splits, want exactly the one splittable path", len(splits))
	}
	if got := splits[0]; got.NumITBs() != 0 || !reflect.DeepEqual(got.Path, []int{1, 13, 2}) {
		t.Fatalf("split %v (%d ITBs), want the 0-ITB path [1 13 2]", got.Path, got.NumITBs())
	}

	// Thinning case: hosts at intermediates 11 and 12 make two more paths
	// splittable, both past the first eight raw positions. A cap of 3 must
	// yield all three splittable candidates in enumeration order, not the
	// two that happened to fall inside a raw-enumeration window.
	_, a = hostSubsetCapBiasNet(t, 11, 12)
	splits, err = MinimalSplits(a, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 3 {
		t.Fatalf("cap 3 with 3 splittable paths yielded %d candidates", len(splits))
	}
	wantPaths := [][]int{{1, 11, 2}, {1, 12, 2}, {1, 13, 2}}
	for i, sp := range splits {
		if !reflect.DeepEqual(sp.Path, wantPaths[i]) {
			t.Errorf("candidate %d is %v, want %v (enumeration order)", i, sp.Path, wantPaths[i])
		}
	}
}

// TestOptimalSplitMatchesBruteForce checks, over every ordered pair of
// three dissimilar fabrics, that the DP's ITB count equals the true minimum
// over an (effectively) uncapped enumeration, and that the split it builds
// is a well-formed minimal split.
func TestOptimalSplitMatchesBruteForce(t *testing.T) {
	nets := []*topology.Network{}
	if net, err := topology.NewTorus(4, 4, 1, 16); err == nil {
		nets = append(nets, net)
	} else {
		t.Fatal(err)
	}
	if net, err := topology.NewCplant(1, 16); err == nil {
		nets = append(nets, net)
	} else {
		t.Fatal(err)
	}
	if net, err := topology.NewRandomIrregular(16, 4, 1, 16, 20000); err == nil {
		nets = append(nets, net)
	} else {
		t.Fatal(err)
	}
	const uncapped = 1 << 20
	for _, net := range nets {
		a, err := updown.NewAssignment(net, 0)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < net.Switches; src++ {
			raw := net.Distances(src)
			for dst := 0; dst < net.Switches; dst++ {
				if src == dst {
					continue
				}
				all, err := MinimalSplits(a, src, dst, uncapped)
				if err != nil {
					t.Fatalf("%s %d->%d: %v", net.Name, src, dst, err)
				}
				want := BestSplit(all).NumITBs()
				opt, err := OptimalSplit(a, src, dst)
				if err != nil {
					t.Fatalf("%s %d->%d: OptimalSplit: %v", net.Name, src, dst, err)
				}
				if got := opt.NumITBs(); got != want {
					t.Errorf("%s %d->%d: OptimalSplit uses %d ITBs, brute force finds %d", net.Name, src, dst, got, want)
				}
				if len(opt.Path)-1 != raw[dst] {
					t.Errorf("%s %d->%d: optimal path %v has %d hops, raw distance %d",
						net.Name, src, dst, opt.Path, len(opt.Path)-1, raw[dst])
				}
			}
		}
	}
}

// TestEnumerationIsInputOrderPrefix pins the tie-breaking contract of the
// capped enumerators: truncation keeps the port-order (input-order) prefix
// of the full enumeration — the kept subset is a pure function of link
// insertion order, never of traversal accidents. This is what makes capped
// tables reproducible across builds and what the capped-selection audit
// relies on.
func TestEnumerationIsInputOrderPrefix(t *testing.T) {
	net, err := topology.NewTorus(4, 4, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := updown.NewAssignment(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	const uncapped = 1 << 20
	for src := 0; src < net.Switches; src++ {
		for dst := 0; dst < net.Switches; dst++ {
			if src == dst {
				continue
			}
			full := MinimalPaths(a, src, dst, uncapped)
			for _, limit := range []int{1, 3, 10} {
				capped := MinimalPaths(a, src, dst, limit)
				wantLen := limit
				if wantLen > len(full) {
					wantLen = len(full)
				}
				if !reflect.DeepEqual(capped, full[:wantLen]) {
					t.Fatalf("MinimalPaths(%d->%d, limit=%d) is not the prefix of the full enumeration", src, dst, limit)
				}
			}
			fullLegal := updown.NewWorkspace(a).ShortestLegalPaths(src, dst, uncapped)
			for _, limit := range []int{1, 3, 10} {
				capped := updown.NewWorkspace(a).ShortestLegalPaths(src, dst, limit)
				wantLen := limit
				if wantLen > len(fullLegal) {
					wantLen = len(fullLegal)
				}
				if !reflect.DeepEqual(capped, fullLegal[:wantLen]) {
					t.Fatalf("ShortestLegalPaths(%d->%d, limit=%d) is not the prefix of the full enumeration", src, dst, limit)
				}
			}
		}
	}
}
