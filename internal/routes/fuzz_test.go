package routes

import (
	"bytes"
	"testing"

	"itbsim/internal/topology"
)

// FuzzRoutesDecode feeds arbitrary bytes to Decode against a 2×2 torus: it
// must return a table or an error, never panic, and a table it accepts
// must survive an Encode/Decode round trip with the same fingerprint. The
// checked-in corpus under testdata/fuzz holds inputs that once panicked,
// so plain go test replays them.
func FuzzRoutesDecode(f *testing.F) {
	net, err := topology.NewTorus(2, 2, 1, 8)
	if err != nil {
		f.Fatal(err)
	}
	for _, sch := range []Scheme{UpDown, ITBRR, VC} {
		tab, err := Build(net, DefaultConfig(sch))
		if err != nil {
			f.Fatal(err)
		}
		var b bytes.Buffer
		if err := Encode(&b, tab); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := Decode(bytes.NewReader(data), net)
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := Encode(&b, tab); err != nil {
			t.Fatal(err)
		}
		again, err := Decode(&b, net)
		if err != nil {
			t.Fatalf("re-decoding an encoded table: %v", err)
		}
		if again.Fingerprint() != tab.Fingerprint() {
			t.Fatal("round trip changed the table fingerprint")
		}
	})
}
