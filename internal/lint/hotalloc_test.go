package lint_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"itbsim/internal/lint"
)

// TestParseEscapeOutput pins the compiler-output filter: only "escapes
// to heap" and "moved to heap:" diagnostics survive; inlining chatter,
// "does not escape" and malformed lines are dropped.
func TestParseEscapeOutput(t *testing.T) {
	out := []byte(strings.Join([]string{
		"# itbsim/internal/netsim",
		"internal/netsim/sim.go:10:6: can inline foo",
		"internal/netsim/sim.go:42:9: &msgState{...} escapes to heap",
		"internal/netsim/sim.go:50:2: moved to heap: big",
		"internal/netsim/sim.go:60:12: make([]int, n) does not escape",
		"not a diagnostic at all",
		"",
	}, "\n"))
	got := lint.ParseEscapeOutput(out)
	want := []lint.AllocEvent{
		{File: "internal/netsim/sim.go", Line: 42, Col: 9, Message: "&msgState{...} escapes to heap"},
		{File: "internal/netsim/sim.go", Line: 50, Col: 2, Message: "moved to heap: big"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseEscapeOutput = %v, want %v", got, want)
	}
}

// TestHotpathAllocAttribution pins the line-containment attribution: an
// event inside the //sim:hotpath fixture function is a site keyed by
// that function's full name; events outside its line range or in files
// with no hotpath functions are ignored.
func TestHotpathAllocAttribution(t *testing.T) {
	pkgs := loadFixture(t)
	prog := &lint.Program{}
	prog.At(pkgs)
	node := prog.CG.Node(prog.CG.Lookup("fixture/simann.hot"))
	if node == nil {
		t.Fatal("fixture/simann.hot not in the call graph")
	}
	start := node.Pkg.Fset.Position(node.Decl.Pos())
	end := node.Pkg.Fset.Position(node.Decl.End())
	file := filepath.ToSlash(start.Filename)

	events := []lint.AllocEvent{
		{File: file, Line: start.Line + 1, Col: 9, Message: "&scratch{} escapes to heap"},
		{File: file, Line: end.Line + 2, Col: 1, Message: "&scratch{} escapes to heap"}, // outside hot
		{File: "testdata/src/graph/graph.go", Line: 1, Col: 1, Message: "x escapes to heap"},
	}
	counts, first := lint.HotpathAllocs(pkgs, prog, events)
	site := lint.AllocSite{Func: "fixture/simann.hot", Message: "&scratch{} escapes to heap"}
	if len(counts) != 1 || counts[site] != 1 {
		t.Errorf("counts = %v, want exactly {%v: 1}", counts, site)
	}
	if ev := first[site]; ev.Line != start.Line+1 {
		t.Errorf("first event line = %d, want %d", ev.Line, start.Line+1)
	}
}

// TestAllocBaselineRoundTrip pins the checked-in format: format then
// parse is the identity on a site multiset.
func TestAllocBaselineRoundTrip(t *testing.T) {
	in := map[lint.AllocSite]int{
		{Func: "(*itbsim/internal/netsim.Sim).generate", Message: "&msgState{...} escapes to heap"}: 2,
		{Func: "itbsim/internal/netsim.helper", Message: "moved to heap: big"}:                      1,
	}
	got, err := lint.ParseAllocBaseline(lint.FormatAllocBaseline(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip = %v, want %v", got, in)
	}
}

// TestParseAllocBaselineRejectsGarbage pins the loud-failure contract: a
// malformed line is an error, not a silently shrunken baseline.
func TestParseAllocBaselineRejectsGarbage(t *testing.T) {
	if _, err := lint.ParseAllocBaseline([]byte("one\tfn\tmsg\n")); err == nil {
		t.Error("non-numeric count accepted")
	}
	if _, err := lint.ParseAllocBaseline([]byte("1 fn msg\n")); err == nil {
		t.Error("space-separated line accepted")
	}
}

// TestCompareAllocs pins the gate's diff semantics: a new site and a
// multiplied site are findings at the allocation, a vanished baseline
// entry is a finding at the baseline file, and a matching site is clean.
func TestCompareAllocs(t *testing.T) {
	grew := lint.AllocSite{Func: "p.Grew", Message: "x escapes to heap"}
	fresh := lint.AllocSite{Func: "p.New", Message: "y escapes to heap"}
	same := lint.AllocSite{Func: "p.Same", Message: "z escapes to heap"}
	gone := lint.AllocSite{Func: "p.Gone", Message: "w escapes to heap"}

	current := map[lint.AllocSite]int{grew: 2, fresh: 1, same: 1}
	first := map[lint.AllocSite]lint.AllocEvent{
		grew:  {File: "p/a.go", Line: 10, Col: 3, Message: grew.Message},
		fresh: {File: "p/b.go", Line: 20, Col: 4, Message: fresh.Message},
		same:  {File: "p/c.go", Line: 30, Col: 5, Message: same.Message},
	}
	baseline := map[lint.AllocSite]int{grew: 1, same: 1, gone: 1}

	findings := lint.CompareAllocs(current, first, baseline, "internal/lint/hotalloc.baseline")
	if len(findings) != 3 {
		t.Fatalf("got %d findings, want 3: %v", len(findings), findings)
	}
	// Current-side findings come first, sorted by function name.
	if f := findings[0]; f.Pos.Filename != "p/a.go" || f.Pos.Line != 10 ||
		!strings.Contains(f.Message, "p.Grew") || !strings.Contains(f.Message, "(1 in baseline, 2 now)") {
		t.Errorf("multiplied-site finding = %s", f)
	}
	if f := findings[1]; f.Pos.Filename != "p/b.go" || !strings.Contains(f.Message, "(0 in baseline, 1 now)") {
		t.Errorf("new-site finding = %s", f)
	}
	if f := findings[2]; f.Pos.Filename != "internal/lint/hotalloc.baseline" ||
		!strings.Contains(f.Message, "p.Gone") || !strings.Contains(f.Message, "no longer produced") {
		t.Errorf("vanished-entry finding = %s", f)
	}
	for _, f := range findings {
		if strings.Contains(f.Message, "p.Same") {
			t.Errorf("unchanged site reported: %s", f)
		}
	}
}
