package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/overlay"
	"repro/internal/traffic"
)

// treeChildren returns h's children in t, in child order.
func treeChildren(t *overlay.Tree, h int) []int {
	var out []int
	t.EachParent(func(p int, kids []int) {
		if p == h {
			out = append(out, kids...)
		}
	})
	return out
}

func reoptBaseConfig() Config {
	return Config{
		NumHosts: 90,
		Mix:      traffic.MixAudio,
		Load:     0.7,
		Scheme:   SchemeSRL,
		Duration: 2 * des.Second,
		Seed:     11,
	}
}

// A re-optimization plane whose hysteresis can essentially never be
// cleared must leave the physics untouched: rejected passes mutate
// nothing, and measurement itself is observation-only. Bit-compare
// against the plane being off entirely.
func TestReoptRejectedPassesAreInert(t *testing.T) {
	base := Run(reoptBaseConfig())
	cfg := reoptBaseConfig()
	cfg.Reopt = ReoptConfig{Every: 500 * des.Millisecond, MinImprove: 0.99}
	guarded := Run(cfg)
	if guarded.Reopts != 0 {
		t.Fatalf("%d passes accepted under a 99%% hysteresis margin", guarded.Reopts)
	}
	if guarded.ReoptRejected == 0 {
		t.Fatal("no passes evaluated — the plane never fired")
	}
	if base.Delivered != guarded.Delivered {
		t.Fatalf("delivered %d vs %d", base.Delivered, guarded.Delivered)
	}
	for g := range base.PerGroupWDB {
		if math.Float64bits(base.PerGroupWDB[g]) != math.Float64bits(guarded.PerGroupWDB[g]) {
			t.Fatalf("group %d WDB %.17g vs %.17g — a rejected pass changed the physics",
				g, base.PerGroupWDB[g], guarded.PerGroupWDB[g])
		}
	}
}

// With a permissive margin on a deliberately location-blind tree (NICE
// scatters low layers across domains) the rewire pass must find and
// apply improving moves, and the rewired trees must stay structurally
// valid with membership intact.
func TestReoptRewiresImproveNICETree(t *testing.T) {
	cfg := reoptBaseConfig()
	cfg.Strategy = "nice"
	cfg.Reopt = ReoptConfig{Every: 250 * des.Millisecond, MinImprove: 0.02, MaxMoves: 3}
	s := NewSession(cfg)
	res := s.Run()
	if res.Delivered == 0 {
		t.Fatal("inert run")
	}
	if res.Reopts == 0 || res.ReoptMoves == 0 {
		t.Fatalf("no rewires accepted (accepted=%d moves=%d rejected=%d)",
			res.Reopts, res.ReoptMoves, res.ReoptRejected)
	}
	for g, tr := range sessionTrees(s) {
		if err := tr.Validate(); err != nil {
			t.Fatalf("group %d tree after rewires: %v", g, err)
		}
		if tr.Size() != cfg.NumHosts {
			t.Fatalf("group %d membership changed: %d members", g, tr.Size())
		}
	}
}

// Rebuild mode swaps whole trees: run it over the nice strategy (whose
// seeded rebuilds genuinely vary) and check the session completes with
// valid trees and consistent accounting.
func TestReoptRebuildMode(t *testing.T) {
	cfg := reoptBaseConfig()
	cfg.Strategy = "nice"
	cfg.Reopt = ReoptConfig{Every: 500 * des.Millisecond, MinImprove: 0.02, Rebuild: true}
	s := NewSession(cfg)
	res := s.Run()
	if res.Delivered == 0 {
		t.Fatal("inert run")
	}
	if res.Reopts+res.ReoptRejected == 0 {
		t.Fatal("no rebuild passes evaluated")
	}
	for g, tr := range sessionTrees(s) {
		if err := tr.Validate(); err != nil {
			t.Fatalf("group %d tree after rebuilds: %v", g, err)
		}
	}
}

// Every registered strategy must compile and run a session end to end,
// delivering to all members over a valid tree.
func TestSessionRunsEveryStrategy(t *testing.T) {
	for _, name := range []string{"dsct", "nice", "spt", "greedy"} {
		cfg := reoptBaseConfig()
		cfg.Strategy = name
		s := NewSession(cfg)
		res := s.Run()
		if res.Delivered == 0 {
			t.Fatalf("strategy %s: no deliveries", name)
		}
		for g, tr := range sessionTrees(s) {
			if err := tr.Validate(); err != nil {
				t.Fatalf("strategy %s group %d: %v", name, g, err)
			}
		}
	}
}

func TestUnknownStrategyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown strategy must panic at compile")
		}
	}()
	cfg := reoptBaseConfig()
	cfg.Strategy = "no-such"
	NewSession(cfg)
}

func TestStrategyRejectedForCapacityAware(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity-aware + strategy must panic")
		}
	}()
	cfg := reoptBaseConfig()
	cfg.Scheme = SchemeCapacityAware
	cfg.Strategy = "spt"
	NewSession(cfg)
}

// Churn through a non-cluster strategy: joins and leaves must flow
// through the spt graft rule and keep the trees valid.
func TestChurnUsesStrategyGraftPoints(t *testing.T) {
	cfg := reoptBaseConfig()
	cfg.Strategy = "spt"
	cfg.Groups = []GroupSpec{
		{Source: 0, Members: rangeInts(0, 60)},
		{Source: 1, Members: rangeInts(0, 45)},
	}
	cfg.Events = []MembershipEvent{
		{At: 200 * des.Millisecond, Group: 0, Host: 70, Join: true},
		{At: 300 * des.Millisecond, Group: 1, Host: 75, Join: true},
		{At: 700 * des.Millisecond, Group: 0, Host: 10},
		{At: 900 * des.Millisecond, Group: 0, Host: 70},
		{At: 1200 * des.Millisecond, Group: 1, Host: 20},
	}
	s := NewSession(cfg)
	res := s.Run()
	if res.Joins != 2 || res.Leaves != 3 {
		t.Fatalf("joins=%d leaves=%d, want 2/3 (rejected=%d)", res.Joins, res.Leaves, res.RejectedEvents)
	}
	for g, tr := range sessionTrees(s) {
		if err := tr.Validate(); err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
	}
}

func rangeInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// Re-optimization composes with churn and sharding: the sharded run of a
// churn+reopt session must reproduce the sequential one bit for bit —
// deliveries, losses, per-group WDB bits, and the control/reopt counters.
func TestShardDifferentialReopt(t *testing.T) {
	cfg := reoptBaseConfig()
	cfg.NumHosts = 120
	cfg.Groups = []GroupSpec{
		{Source: 0, Members: rangeInts(0, 80)},
		{Source: 5, Members: rangeInts(0, 60)},
		{Source: 2, Members: rangeInts(0, 40)},
	}
	cfg.Events = []MembershipEvent{
		{At: 300 * des.Millisecond, Group: 0, Host: 90, Join: true},
		{At: 500 * des.Millisecond, Group: 1, Host: 95, Join: true},
		{At: 800 * des.Millisecond, Group: 0, Host: 30},
		{At: 1100 * des.Millisecond, Group: 2, Host: 15},
		{At: 1500 * des.Millisecond, Group: 1, Host: 95},
	}
	cfg.Reopt = ReoptConfig{Every: 400 * des.Millisecond, MinImprove: 0.02, MaxMoves: 2}
	cfg.WindowSec = 0.5
	seq := Run(cfg)
	if seq.Delivered == 0 {
		t.Fatal("inert workload")
	}
	cfg.Shards = 4
	sh := Run(cfg)
	if seq.Delivered != sh.Delivered || seq.Lost != sh.Lost {
		t.Fatalf("delivered/lost (%d,%d) vs (%d,%d)", seq.Delivered, seq.Lost, sh.Delivered, sh.Lost)
	}
	if seq.Reopts != sh.Reopts || seq.ReoptMoves != sh.ReoptMoves || seq.ReoptRejected != sh.ReoptRejected {
		t.Fatalf("reopt counters (%d,%d,%d) vs (%d,%d,%d)",
			seq.Reopts, seq.ReoptMoves, seq.ReoptRejected, sh.Reopts, sh.ReoptMoves, sh.ReoptRejected)
	}
	if seq.Joins != sh.Joins || seq.Leaves != sh.Leaves || seq.Regrafts != sh.Regrafts {
		t.Fatalf("churn counters (%d,%d,%d) vs (%d,%d,%d)",
			seq.Joins, seq.Leaves, seq.Regrafts, sh.Joins, sh.Leaves, sh.Regrafts)
	}
	for g := range seq.PerGroupWDB {
		if math.Float64bits(seq.PerGroupWDB[g]) != math.Float64bits(sh.PerGroupWDB[g]) {
			t.Fatalf("group %d WDB %.17g vs %.17g", g, seq.PerGroupWDB[g], sh.PerGroupWDB[g])
		}
	}
	if len(seq.WindowMax) != len(sh.WindowMax) {
		t.Fatalf("window series length %d vs %d", len(seq.WindowMax), len(sh.WindowMax))
	}
	for i := range seq.WindowMax {
		if math.Float64bits(seq.WindowMax[i]) != math.Float64bits(sh.WindowMax[i]) {
			t.Fatalf("window %d: %.17g vs %.17g", i, seq.WindowMax[i], sh.WindowMax[i])
		}
	}
}

// oraclePlan is rewire's candidate scan as it ran before the attached walk,
// kept as the oracle for plan: the worst measured member not in moved,
// then every member outside its subtree (collected up front into a set)
// and other than its parent, filtered by the strategy's fanout rule and a
// per-candidate depth climb, ranked by measured mean — or tree-path delay,
// another climb — plus the hop to the moved member.
func (ro *reoptPlane) oraclePlan(g int, moved []int) (w, p int, predicted float64, ok bool) {
	st := ro.groups[g]
	t := st.tree
	w, worst := -1, 0.0
	for _, m := range t.Members {
		if m == t.Source || slices.Contains(moved, m) {
			continue
		}
		if e := &ro.est[g][m]; e.n > 0 {
			if mean := e.sum / float64(e.n); w < 0 || mean > worst || (mean == worst && m < w) {
				w, worst = m, mean
			}
		}
	}
	if w < 0 {
		return -1, -1, 0, false
	}
	oldParent := t.Parent(w)
	subHeight := t.SubtreeHeight(w)
	inSub := map[int]bool{w: true}
	for level := []int{w}; len(level) > 0; {
		var next []int
		for _, v := range level {
			for _, c := range treeChildren(t, v) {
				inSub[c] = true
				next = append(next, c)
			}
		}
		level = next
	}
	p = -1
	for _, m := range t.Members {
		if m == oldParent || inSub[m] {
			continue
		}
		if !st.strat.FanoutOK(ro.net, m, len(treeChildren(t, m)), st.lim) {
			continue
		}
		if st.lim.MaxHeight > 0 && t.Depth(m)+1+subHeight > st.lim.MaxHeight {
			continue
		}
		mean := t.PathLatency(ro.net, m).Seconds()
		if e := &ro.est[g][m]; e.n > 0 {
			mean = e.sum / float64(e.n)
		}
		pred := mean + ro.net.Latency(m, w).Seconds()
		if p < 0 || pred < predicted || (pred == predicted && m < p) {
			p, predicted = m, pred
		}
	}
	return w, p, predicted, p >= 0
}
