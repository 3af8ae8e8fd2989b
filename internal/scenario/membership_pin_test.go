package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// TestValidateRejectsSecondsTheClockCannotHold: duration_sec and
// window_sec take 0 (the default) or a span the nanosecond clock holds.
// 1e11 s overflows it — every cell ran with nothing delivered — and
// 1e-12 s rounds to 0 ns, which silently selected the default horizon.
func TestValidateRejectsSecondsTheClockCannotHold(t *testing.T) {
	for _, tc := range []struct {
		sec float64
		ok  bool
	}{
		{0, true},
		{1e-9, true},
		{2.5, true},
		{9e9, true},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{-1, false},
		{1e-12, false},
		{0.9e-9, false},
		{1e11, false},
		{float64(math.MaxInt64) / 1e9, false},
	} {
		for _, field := range []string{"duration_sec", "window_sec"} {
			sc := MustLookup("waxman-zipf-16").Quick()
			if field == "duration_sec" {
				sc.DurationSec = tc.sec
			} else {
				sc.WindowSec = tc.sec
			}
			if err := sc.Validate(); (err == nil) != tc.ok {
				t.Errorf("%s = %v: Validate returned %v, want ok=%v", field, tc.sec, err, tc.ok)
			}
		}
	}
}

// membershipHash digests a materialised membership: every group's source
// and sorted member list, in group order.
func membershipHash(sc Scenario, seed uint64) string {
	h := sha256.New()
	for g, spec := range sc.Groups(seed) {
		fmt.Fprintf(h, "%d:%d:%v\n", g, spec.Source, spec.Members)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGroupsMembershipPinned pins waxman-zipf-64's membership at two
// seeds: the draws behind it (xrand.Int63n's rejection sampling, the
// Fisher–Yates shuffle) may get cheaper, never different.
func TestGroupsMembershipPinned(t *testing.T) {
	sc := MustLookup("waxman-zipf-64")
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{1, "24ea4ead5de3865f78c6193465003992896b3e9e976ef4b60bde11235d39da60"},
		{7, "6f70ac2cdfac5bcde44e1b6e54045a3ad887decb627ad8fa135d0dde365fa34b"},
	} {
		if got := membershipHash(sc, tc.seed); got != tc.want {
			t.Errorf("waxman-zipf-64 membership at seed %d hashes to %s, pinned %s", tc.seed, got, tc.want)
		}
	}
}
