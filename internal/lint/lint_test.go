package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"itbsim/internal/lint"
)

// fixtureRules configures the rule set for the testdata/src fixture
// module, mirroring how repo.go configures it for the real tree: one
// deliberately violating package per rule plus one clean package that is
// inside every rule's scope. The interprocedural rules share one Program,
// exactly as RepoRules does.
func fixtureRules() []lint.Rule {
	det := map[string]bool{"fixture/det": true, "fixture/clean": true}
	clock := map[string]bool{"fixture/clock": true, "fixture/clean": true}
	floats := map[string]bool{"fixture/floats": true, "fixture/clean": true}
	doc := map[string]bool{"fixture/doc": true, "fixture/clean": true}
	taint := map[string]bool{"fixture/troot": true}
	layers := map[string]int{
		"fixture/base":    0,
		"fixture/upward":  0,
		"fixture/graph":   0,
		"fixture/thelp":   0,
		"fixture/simann":  0,
		"fixture/exhaust": 0,
		"fixture/det":     1,
		"fixture/clock":   1,
		"fixture/doc":     1,
		"fixture/errs":    1,
		"fixture/floats":  1,
		"fixture/peer":    1,
		"fixture/troot":   1,
		"fixture/clean":   2,
		// fixture/stray is deliberately unassigned.
	}
	prog := &lint.Program{}
	return []lint.Rule{
		lint.DetRange{Scope: det},
		lint.NoClock{Scope: clock},
		lint.Taint{Scope: taint, Prog: prog},
		lint.Exhaustive{Module: "fixture"},
		lint.SimDirectives{Prog: prog},
		lint.Layering{Module: "fixture", Layers: layers},
		lint.ErrCheckLite{Allow: lint.DefaultErrCheckAllow},
		lint.FloatEq{Scope: floats},
		lint.DocComment{Scope: doc},
	}
}

func loadFixture(t *testing.T) []*lint.Package {
	t.Helper()
	pkgs, err := lint.Load(lint.LoadConfig{Dir: filepath.Join("testdata", "src")})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestFixtureFindings pins the exact findings — file, line, column, rule —
// over the fixture tree: every deliberate violation is reported, every
// well-formed //lint:ignore suppresses exactly its rule on its line, the
// malformed directive is itself reported, and the clean package (which is
// in every rule's scope) contributes nothing.
func TestFixtureFindings(t *testing.T) {
	got := lint.Run(loadFixture(t), fixtureRules())
	var lines []string
	for _, f := range got {
		lines = append(lines, filepath.ToSlash(f.String()))
	}
	want := []string{
		"testdata/src/clock/clock.go:11:12 noclock: time.Now reads the wall clock; deterministic packages must be pure in (spec, seed) — wall-clock timing belongs in the CLI/report layer",
		"testdata/src/clock/clock.go:12:14 noclock: time.Since reads the wall clock; deterministic packages must be pure in (spec, seed) — wall-clock timing belongs in the CLI/report layer",
		"testdata/src/clock/clock.go:17:14 noclock: global rand.Intn draws from the process-wide source; use an explicitly seeded *rand.Rand",
		"testdata/src/det/det.go:10:2 detrange: range over map map[string]int has nondeterministic order; iterate sorted keys or annotate an order-insensitive loop",
		"testdata/src/det/det.go:39:2 ignore: malformed directive: want //lint:ignore <rule> <reason>",
		"testdata/src/det/det.go:40:2 detrange: range over map map[int]int has nondeterministic order; iterate sorted keys or annotate an order-insensitive loop",
		"testdata/src/doc/doc.go:7:6 doccomment: exported type U has no doc comment; this package's exported surface is API documentation",
		"testdata/src/doc/doc.go:15:7 doccomment: exported constant C has no doc comment; this package's exported surface is API documentation",
		"testdata/src/doc/doc.go:19:5 doccomment: exported variable E has no doc comment; this package's exported surface is API documentation",
		"testdata/src/doc/doc.go:24:6 doccomment: exported function G has no doc comment; this package's exported surface is API documentation",
		"testdata/src/doc/doc.go:26:10 doccomment: exported method M has no doc comment; this package's exported surface is API documentation",
		"testdata/src/errs/errs.go:12:2 errcheck-lite: error result of os.Remove is dropped; handle it or annotate why it cannot matter",
		"testdata/src/errs/errs.go:18:6 errcheck-lite: error result of os.Remove is discarded via _ =; handle it or annotate why it cannot matter",
		"testdata/src/errs/errs.go:23:9 errcheck-lite: error result of os.Create is discarded via _ =; handle it or annotate why it cannot matter",
		"testdata/src/exhaust/exhaust.go:19:2 exhaustive: switch over exhaust.Color is not exhaustive: missing Blue; add the cases or a default",
		"testdata/src/floats/floats.go:6:11 floateq: floating-point == is exact; compare with a tolerance or annotate why exact equality holds",
		"testdata/src/peer/peer.go:5:8 layering: import of fixture/det (layer 1) from fixture/peer (layer 1) points up the stack; the DAG is documented in docs/LINT.md",
		"testdata/src/simann/simann.go:16:1 sim: unknown //sim: verb \"frobnicate\" (want hotpath)",
		"testdata/src/simann/simann.go:21:1 sim: //sim:hotpath is not attached to a function declaration",
		"testdata/src/stray/stray.go:3:9 layering: package fixture/stray has no layer assignment; add it to the DAG table in internal/lint/repo.go",
		"testdata/src/thelp/thelp.go:11:14 taint: time.Now reads the wall clock in a function reachable from deterministic scope: troot.Root -> thelp.Mid -> thelp.Leaf",
		"testdata/src/thelp/thelp.go:20:2 taint: range over map map[string]int has nondeterministic order in a function reachable from deterministic scope: troot.Root -> thelp.MapWalk",
		"testdata/src/upward/upward.go:5:8 layering: import of fixture/det (layer 1) from fixture/upward (layer 0) points up the stack; the DAG is documented in docs/LINT.md",
	}
	if len(lines) != len(want) {
		t.Errorf("got %d findings, want %d", len(lines), len(want))
	}
	for i := 0; i < len(lines) || i < len(want); i++ {
		switch {
		case i >= len(lines):
			t.Errorf("missing finding: %s", want[i])
		case i >= len(want):
			t.Errorf("unexpected finding: %s", lines[i])
		case lines[i] != want[i]:
			t.Errorf("finding %d:\n got  %s\n want %s", i, lines[i], want[i])
		}
	}
}

// TestSuppressionIsPerRule checks that a directive only silences the rule
// it names: renaming the suppressed rule in a scope where two rules fire
// would leave the other finding intact. The det fixture's suppressed loop
// is the probe — running DetRange with an empty suppression context (via
// a scope that includes fixture/det) must yield the raw findings,
// including the annotated line 20 loop, proving it was Run's directive
// filtering (not the rule) that dropped it.
func TestSuppressionIsPerRule(t *testing.T) {
	pkgs := loadFixture(t)
	rule := lint.DetRange{Scope: map[string]bool{"fixture/det": true}}
	var raw []lint.Finding
	for _, p := range pkgs {
		raw = append(raw, rule.Check(p)...)
	}
	lint.Sort(raw)
	// Raw rule output sees all three map ranges (lines 10, 20, 40)...
	if len(raw) != 3 {
		t.Fatalf("raw DetRange findings = %d, want 3: %v", len(raw), raw)
	}
	// ...while Run drops exactly the annotated one (line 20).
	filtered := lint.Run(pkgs, []lint.Rule{rule})
	var kept []int
	for _, f := range filtered {
		if f.Rule == "detrange" {
			kept = append(kept, f.Pos.Line)
		}
	}
	if len(kept) != 2 || kept[0] != 10 || kept[1] != 40 {
		t.Errorf("suppressed findings at lines %v, want [10 40]", kept)
	}
}

// TestMarkdownFindings exercises the folded-in markdown checker on a
// synthetic tree with one broken link, one broken anchor, and one good
// file.
func TestMarkdownFindings(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("good.md", "# Title\n\nSee [section](#title) and [other](other.md).\n")
	write("other.md", "# Other\n\nA [missing file](gone.md) and a [bad anchor](good.md#nope).\n")

	findings, n, err := lint.Markdown([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("checked %d files, want 2", n)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Rule != lint.MarkdownRuleName {
			t.Errorf("finding rule = %q, want %q", f.Rule, lint.MarkdownRuleName)
		}
		if filepath.Base(f.Pos.Filename) != "other.md" || f.Pos.Line != 3 {
			t.Errorf("finding at %s:%d, want other.md:3", f.Pos.Filename, f.Pos.Line)
		}
	}
	if !strings.Contains(findings[0].Message, "nope") {
		t.Errorf("first finding %q does not name the bad anchor", findings[0].Message)
	}
	if !strings.Contains(findings[1].Message, "gone.md") {
		t.Errorf("second finding %q does not name the missing file", findings[1].Message)
	}
}

// TestMarkdownOrphans pins orphan detection: a file under docs/ that no
// other markdown file links to is a finding; linked docs and top-level
// files are not. A doc linking only itself stays an orphan.
func TestMarkdownOrphans(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("README.md", "# Readme\n\nSee [linked](docs/LINKED.md).\n")
	write(filepath.Join("docs", "LINKED.md"), "# Linked\n")
	write(filepath.Join("docs", "LOST.md"), "# Lost\n\nA [self link](#lost) and [me again](LOST.md#lost).\n")

	findings, n, err := lint.Markdown([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("checked %d files, want 3", n)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if filepath.Base(f.Pos.Filename) != "LOST.md" || !strings.Contains(f.Message, "orphaned") {
		t.Errorf("finding = %s, want orphaned-document finding on LOST.md", f)
	}
}

// TestRepoTreeIsClean is the linter's own acceptance test: the shipped
// tree — code and markdown — must produce zero findings under the
// repository rule set. Removing any shipped //lint:ignore or sorted-keys
// fix makes this test (and make lint) fail.
func TestRepoTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root := filepath.Join("..", "..")
	pkgs, err := lint.Load(lint.LoadConfig{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	findings := lint.Run(pkgs, lint.RepoRules())
	md, _, err := lint.Markdown([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	findings = append(findings, md...)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestFullRepoLintBudget pins the performance contract from the issue:
// loading, type-checking and running the full repository rule set —
// interprocedural call graph included — stays under five seconds. The
// lint-alloc gate is excluded; it shells out to the compiler and is
// budgeted separately by its build-cache reuse. Under the race detector
// (make race) the rule set still loads and runs, but the budget is not
// checked: instrumentation alone more than doubles the time.
func TestFullRepoLintBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	const budget = 5 * time.Second
	start := time.Now()
	pkgs, err := lint.Load(lint.LoadConfig{Dir: filepath.Join("..", "..")})
	if err != nil {
		t.Fatal(err)
	}
	findings := lint.Run(pkgs, lint.RepoRules())
	elapsed := time.Since(start)
	if elapsed > budget && !raceEnabled {
		t.Errorf("full-repo lint took %v, budget is %v", elapsed, budget)
	}
	t.Logf("full-repo lint: %d package(s), %d finding(s) in %v", len(pkgs), len(findings), elapsed)
}
