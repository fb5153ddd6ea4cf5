package faults

import (
	"slices"
	"testing"
)

// FuzzParsePlan feeds arbitrary strings to ParsePlan: every input must
// either fail or parse to a plan whose String form parses back to the same
// events in simulator order. The checked-in corpus under testdata/fuzz
// covers the edges of the syntax: the empty string, bare whitespace and
// commas, repairs, negative IDs and cycles, '+'-signed numbers, and
// duplicate events.
func FuzzParsePlan(f *testing.F) {
	f.Add("link:12@200000,+link:12@800000")
	f.Add("switch:3@5000, +switch:3@9000")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlan(s)
		if err != nil {
			return
		}
		again, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) = %q, which does not parse: %v", s, p.String(), err)
		}
		if !slices.Equal(p.Sorted(), again.Sorted()) {
			t.Fatalf("ParsePlan(%q) round-trips %v to %v", s, p.Sorted(), again.Sorted())
		}
	})
}
