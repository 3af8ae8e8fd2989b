package scenario

import (
	"bytes"
	"testing"
)

// TestBuiltinSpecsRoundTrip pins the JSON codec over the whole registry:
// encode → decode → re-encode must be byte-equal for every builtin spec.
// This is what the fleet manifest protocol leans on — a worker re-parsing
// the parent's serialized scenario must compile the identical sweep — and
// it catches a field added to Scenario without a JSON tag (it would
// marshal under its Go name, survive one decode, and still break the
// moment Parse goes strict about it elsewhere).
func TestBuiltinSpecsRoundTrip(t *testing.T) {
	for _, sc := range All() {
		first, err := sc.JSON()
		if err != nil {
			t.Fatalf("%s: encode: %v", sc.Name, err)
		}
		decoded, err := Parse(first)
		if err != nil {
			t.Fatalf("%s: decode of own encoding: %v", sc.Name, err)
		}
		second, err := decoded.JSON()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", sc.Name, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: round trip not byte-identical:\n--- first\n%s\n--- second\n%s",
				sc.Name, first, second)
		}
	}
}

// FuzzScenarioParse: Parse never panics, and a spec it accepts encodes to
// JSON that parses again to a spec encoding to the same bytes — the
// round trip TestBuiltinSpecsRoundTrip holds the registry to, on any
// input. The seeds are every builtin's encoding.
func FuzzScenarioParse(f *testing.F) {
	for _, sc := range All() {
		data, err := sc.JSON()
		if err != nil {
			f.Fatalf("%s: encode: %v", sc.Name, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		first, err := sc.JSON()
		if err != nil {
			t.Fatalf("encode of an accepted spec: %v", err)
		}
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("the encoding of an accepted spec does not parse: %v\n%s", err, first)
		}
		second, err := again.JSON()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not byte-identical:\n--- first\n%s\n--- second\n%s", first, second)
		}
	})
}
