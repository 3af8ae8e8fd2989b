package xrand

import "testing"

func TestRandStateRoundTrip(t *testing.T) {
	r := New(42)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	s := r.State()
	want := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	fork := New(0)
	fork.SetState(s)
	for i, w := range want {
		if got := fork.Uint64(); got != w {
			t.Fatalf("output %d after SetState = %#x, want %#x", i, got, w)
		}
	}
}
