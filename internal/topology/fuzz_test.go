package topology

import (
	"bytes"
	"testing"
)

// FuzzTopologyDecode feeds arbitrary bytes to Decode: it must return a
// network or an error, never panic or allocate by an unchecked size, and a
// network it accepts must survive an Encode/Decode round trip unchanged.
// The checked-in corpus under testdata/fuzz holds inputs that once
// panicked, so plain go test replays them.
func FuzzTopologyDecode(f *testing.F) {
	for _, build := range []func() (*Network, error){
		func() (*Network, error) { return NewTorus(2, 2, 1, 8) },
		func() (*Network, error) { return NewCplant(1, 16) },
	} {
		n, err := build()
		if err != nil {
			f.Fatal(err)
		}
		var b bytes.Buffer
		if err := Encode(&b, n); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := Encode(&first, n); err != nil {
			t.Fatal(err)
		}
		again, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding an encoded network: %v", err)
		}
		if err := Encode(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the network:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
