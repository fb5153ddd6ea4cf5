package cli

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseLoads feeds arbitrary strings to Loads, the -loads parser. It
// must never panic. A list it refuses has a field that is not a number, and
// the error names the first such field; a list it accepts gives one load
// per field, the number the field spells. Which numbers make a valid grid
// is the runner's to decide (a NaN, negative or infinite load is a
// *topology.ConfigError there), so Loads passes them through.
func FuzzParseLoads(f *testing.F) {
	for _, seed := range []string{"0.002,0.004,0.008", " 0.01 , 0.02", "", ",", "0.01,,0.02", "x", "-1,NaN,Inf", "1e309", "0x1p-4", "1_000"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		loads, err := Loads(s)
		fields := strings.Split(s, ",")
		if err != nil {
			for _, field := range fields {
				if _, perr := strconv.ParseFloat(strings.TrimSpace(field), 64); perr != nil {
					if !strings.Contains(err.Error(), strconv.Quote(field)) {
						t.Fatalf("Loads(%q): error %q does not name field %q", s, err, field)
					}
					return
				}
			}
			t.Fatalf("Loads(%q) refused a list whose every field parses: %v", s, err)
		}
		if len(loads) != len(fields) {
			t.Fatalf("Loads(%q) = %d loads for %d fields", s, len(loads), len(fields))
		}
		for i, field := range fields {
			want, _ := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if loads[i] != want && !(math.IsNaN(want) && math.IsNaN(loads[i])) {
				t.Fatalf("Loads(%q)[%d] = %g, field %q spells %g", s, i, loads[i], field, want)
			}
		}
	})
}
