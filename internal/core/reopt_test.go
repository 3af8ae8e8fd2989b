package core

import (
	"bytes"
	"slices"
	"sync"
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
	guarded.ReoptRejected = 0 // the one field the plane may move
	if err := SameRun(base, guarded, 0); err != nil {
		t.Fatalf("a rejected pass changed the run: %v", err)
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

// TestReoptPlanReadsSharedTrees: a re-optimization pass plans on the trees
// its session shares with the blueprint — overlay.Select over the attached
// walk and SubtreeHeight in plan, PathLatency, Attached, ParentOf and
// EachParent beside them — and writes none of them. Two sessions whose
// passes all fall short of a 99 % hysteresis margin run side by side, for
// the dsct and spt strategies, reading every tree between passes too; each
// blueprint tree keeps its Snapshot bytes, holds no live RTT index and is
// still every group's tree in both sessions (make substrate runs this
// under the race detector).
func TestReoptPlanReadsSharedTrees(t *testing.T) {
	for _, strategy := range []string{"dsct", "spt"} {
		cfg := reoptBaseConfig()
		cfg.Strategy = strategy
		cfg.Reopt = ReoptConfig{Every: 250 * des.Millisecond, MinImprove: 0.99}
		bp := compileSubstrate(cfg).bp
		var before [][]byte
		for _, tr := range bp.trees {
			before = append(before, treeBytes(t, tr))
		}
		sessions := []*Session{NewSession(cfg), NewSession(cfg)}
		var wg sync.WaitGroup
		for _, s := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Start()
				for at := des.Time(cfg.Duration) / 8; at < des.Time(cfg.Duration); at += des.Time(cfg.Duration) / 8 {
					s.RunTo(at)
					for g, st := range s.sub.groups {
						s.ro.plan(g)
						tr := st.tree
						tr.EachParent(func(p int, kids []int) {
							for _, c := range kids {
								if q, ok := tr.ParentOf(c); !ok || q != p || !tr.Attached(c) || tr.PathLatency(s.sub.net, c) <= 0 {
									t.Errorf("group %d: member %d under %d reads parent %d (%v), attached %v", g, c, p, q, ok, tr.Attached(c))
								}
							}
						})
					}
				}
				if res := s.Finish(); res.ReoptRejected == 0 || res.Reopts != 0 {
					t.Errorf("%s: %d passes rejected, %d accepted: want every pass planned and rejected", strategy, res.ReoptRejected, res.Reopts)
				}
			}()
		}
		wg.Wait()
		for g, tr := range bp.trees {
			if !bytes.Equal(treeBytes(t, tr), before[g]) {
				t.Fatalf("%s: planning changed the blueprint's tree of group %d", strategy, g)
			}
			for i, s := range sessions {
				if s.sub.groups[g].tree != tr {
					t.Fatalf("%s: session %d no longer shares group %d's tree", strategy, i, g)
				}
			}
		}
		if indexed, _ := TreesIndexed(sessions[0]); slices.Contains(indexed, true) {
			t.Fatalf("%s: planning built a live RTT index in a blueprint tree: %v", strategy, indexed)
		}
	}
}
