package routes

import (
	"fmt"
	"testing"

	"itbsim/internal/topology"
)

// buildSchemes are the schemes whose construction cost BenchmarkBuild and
// TestBuildAllocs track, with the allocation ceiling of one build on the
// paper's 8×8 torus.
var buildSchemes = []struct {
	name   string
	scheme Scheme
	allocs float64
}{
	{"updown", UpDown, 31_600},
	{"itbrr", ITBRR, 251_400},
	{"vc", VC, 170_200},
}

// BenchmarkBuild times one table build on the paper's torus shape (8 hosts
// per 16-port switch) at 8×8, 11×11 and 16×16.
func BenchmarkBuild(b *testing.B) {
	for _, size := range []int{8, 11, 16} {
		net, err := topology.NewTorus(size, size, 8, 16)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range buildSchemes {
			b.Run(fmt.Sprintf("torus%dx%d/%s", size, size, s.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Build(net, DefaultConfig(s.scheme)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestBuildAllocs pins the allocation count of one 8×8 torus build per
// scheme. Allocation counts repeat exactly where wall time does not, so
// this is the deterministic guard on the route kernel reusing its
// workspaces: each ceiling sits about 10% above the count measured when
// the kernel landed.
func TestBuildAllocs(t *testing.T) {
	net, err := topology.NewTorus(8, 8, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range buildSchemes {
		got := testing.AllocsPerRun(2, func() {
			if _, err := Build(net, DefaultConfig(s.scheme)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per build", s.name, got)
		if got > s.allocs {
			t.Errorf("%s: %.0f allocations per 8x8 torus build, ceiling %.0f", s.name, got, s.allocs)
		}
	}
}
