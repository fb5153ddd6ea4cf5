package updown

import (
	"testing"
	"testing/quick"

	"itbsim/internal/topology"
)

// TestRootReachesAllMinimally: every shortest path from the root increases
// the BFS level by one per hop, so it is down-only and legal — the legal
// distance from the root equals the raw distance.
func TestRootReachesAllMinimally(t *testing.T) {
	check := func(seed int64) bool {
		sw := 4 + int(seed%13+13)%13
		net, err := topology.NewRandomIrregular(sw, 4, 1, 16, seed)
		if err != nil {
			return false
		}
		root := int(seed % int64(sw))
		if root < 0 {
			root += sw
		}
		a, err := NewAssignment(net, root)
		if err != nil {
			return false
		}
		legal := a.LegalDistances(root)
		raw := net.Distances(root)
		for s := range legal {
			if legal[s] != raw[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLegalDistanceSymmetric: the reverse of a legal up-then-down path is
// again up-then-down, so shortest legal distances are symmetric.
func TestLegalDistanceSymmetric(t *testing.T) {
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
		dists := make([][]int, sw)
		for s := 0; s < sw; s++ {
			dists[s] = a.LegalDistances(s)
		}
		for s := 0; s < sw; s++ {
			for d := 0; d < sw; d++ {
				if dists[s][d] != dists[d][s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestReversedPathLegality is the pointwise version of the symmetry
// property: reversing a legal switch path keeps it legal, and reversing an
// illegal one keeps it illegal is NOT implied (an up-up-down path reverses
// to up-down-down, both legal; but down-up reverses to down-up). Verify the
// positive direction on concrete paths.
func TestReversedPathLegality(t *testing.T) {
	net, err := topology.NewTorus(8, 8, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssignment(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < net.Switches; src += 5 {
		for dst := 0; dst < net.Switches; dst += 7 {
			for _, p := range NewWorkspace(a).ShortestLegalPaths(src, dst, 5) {
				rev := make([]int, len(p))
				for i := range p {
					rev[i] = p[len(p)-1-i]
				}
				if !a.LegalSwitchPath(rev) {
					t.Fatalf("reverse of legal path %v is illegal", p)
				}
			}
		}
	}
}

// TestUpDownMinMatchesLegalDistances: the UD-MIN average distance over the
// paper's torus must equal the average shortest legal distance (4.57).
func TestLegalAverageMatchesPaper(t *testing.T) {
	net, err := topology.NewTorus(8, 8, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssignment(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, avgLegal, _ := a.MinimalLegalFraction()
	if avgLegal < 4.5 || avgLegal > 4.65 {
		t.Errorf("avg legal distance = %.3f, paper quotes 4.57", avgLegal)
	}
}

// TestAssignmentIndependentOfHostCount: directions depend only on the
// switch fabric, not on how many hosts hang off each switch.
func TestAssignmentIndependentOfHostCount(t *testing.T) {
	n1, err := topology.NewTorus(4, 4, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	n8, err := topology.NewTorus(4, 4, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := NewAssignment(n1, 0)
	if err != nil {
		t.Fatal(err)
	}
	a8, err := NewAssignment(n8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(n1.Links) != len(n8.Links) {
		t.Fatal("fabrics differ")
	}
	for l := range n1.Links {
		if a1.UpEnd(l) != a8.UpEnd(l) {
			t.Fatalf("link %d direction depends on host count", l)
		}
	}
}
