package core

import (
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/regulator"
	"repro/internal/topo"
)

// forwardedClasses returns, per shard, the (group, capacity) pairs that
// have a live (σ, ρ, λ) regulator: what the clock tables must match.
func forwardedClasses(s *Session) []map[cycleKey]bool {
	classes := make([]map[cycleKey]bool, len(s.sh))
	for i := range classes {
		classes[i] = map[cycleKey]bool{}
	}
	for id, h := range s.hosts {
		if f := h.fwd; f != nil {
			for i, r := range f.srlBank {
				if r != nil {
					classes[s.owner[id]][cycleKey{f.children.groups[i], f.conn}] = true
				}
			}
		}
	}
	return classes
}

// pendingClockEdges counts an engine's pending duty-cycle events and
// reports whether it holds any other kind.
func pendingClockEdges(t *testing.T, eng *des.Engine) (edges int, others bool) {
	t.Helper()
	evs, err := eng.PendingEvents(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev.Kind == des.KindSRLOn || ev.Kind == des.KindSRLOff {
			edges++
		} else {
			others = true
		}
	}
	return edges, others
}

// A static session builds exactly one clock per distinct (group, host
// capacity) pair per shard — however many hosts forward the group — and a
// session nobody sends into executes clock edges and nothing else: two per
// clock per period, where per-regulator timers cost two per regulator.
func TestOneClockPerGroupAndCapacityPerShard(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := shardBaseConfig(7)
		cfg.Shards = shards
		cfg.UplinkClasses = []topo.UplinkClass{{Mult: 1, Weight: 1}, {Mult: 2, Weight: 1}}
		s := NewSession(cfg)
		regs, clocks := 0, 0
		for si, classes := range forwardedClasses(s) {
			env := s.sh[si].env
			if len(env.clocks) != len(classes) || len(env.cycles) != len(classes) {
				t.Errorf("shards=%d: shard %d has %d clocks (%d in the table) for %d forwarded (group, capacity) pairs",
					shards, si, len(env.clocks), len(env.cycles), len(classes))
			}
			for key := range classes {
				if env.cycles[key] == nil {
					t.Errorf("shards=%d: shard %d has no clock for group %d at capacity %v", shards, si, key.g, key.conn)
				}
			}
			clocks += len(classes)
			regs += len(env.eng.Owners(des.KindSRLDone))
		}
		if clocks == 0 || regs < 3*clocks {
			t.Fatalf("shards=%d: %d regulators on %d clocks — the fixture does not share clocks", shards, regs, clocks)
		}

		// No Start: no source ever emits. The longest period bounds the
		// edges from below, the shortest from above.
		horizon := 2 * des.Second
		s.RunTo(horizon)
		minP, maxP := des.Time(1<<62), des.Time(0)
		for g, spec := range s.sub.specs {
			for _, mult := range []float64{1, 2} {
				sigma := s.sh[0].env.bursts[g]
				w, v := regulator.DutyCycle(sigma, spec.Rho, mult*s.sub.conn)
				p := w + v
				minP, maxP = min(minP, p), max(maxP, p)
			}
		}
		var executed, edges uint64
		for _, sh := range s.sh {
			by := sh.eng.ExecutedByKind()
			for _, n := range by {
				executed += n
			}
			edges += by[des.KindSRLOn] + by[des.KindSRLOff]
		}
		lo, hi := uint64(clocks)*uint64(2*(horizon/maxP-1)), uint64(clocks)*uint64(2*(horizon/minP+1))
		if executed != edges || edges < lo || edges > hi {
			t.Errorf("shards=%d: idle session executed %d events, %d of them clock edges; want only edges, between %d and %d for %d clocks (%d regulators)",
				shards, executed, edges, lo, hi, clocks, regs)
		}
	}
}

// After a run's drain tail only the clocks are still ticking: each engine
// holds exactly one pending edge per clock and nothing else.
func TestOnlyClockEdgesRemainAfterRun(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := shardBaseConfig(7)
		cfg.Shards = shards
		cfg.Duration = des.Second
		s := NewSession(cfg)
		if res := s.Run(); res.Delivered == 0 {
			t.Fatal("inert run")
		}
		for si, sh := range s.sh {
			edges, others := pendingClockEdges(t, sh.eng)
			if others || edges != len(sh.env.clocks) || edges == 0 {
				t.Errorf("shards=%d: shard %d ends with %d pending clock edges for %d clocks (other kinds pending: %v)",
					shards, si, edges, len(sh.env.clocks), others)
			}
		}
	}
}

// waitingRegulators counts the (σ, ρ, λ) regulators held behind their
// clock's shut gate: following, gate shut, backlog, nothing in transmission.
func waitingRegulators(s *Session) int {
	n := 0
	for _, h := range s.hosts {
		if h.fwd == nil {
			continue
		}
		for _, r := range h.fwd.srlBank {
			if r != nil && r.Following() && !r.On() && r.QueueLen() > 0 && !r.Transmitting() {
				n++
			}
		}
	}
	return n
}

// A checkpoint taken while regulators wait out a vacation on their clock's
// waiting list restores to the straight run — static, under churn (hosts
// follow and leave clocks on both sides of the instant) and under the
// adaptive scheme (whole banks leave and rejoin), at one shard and at four
// — and carries one pending duty-cycle event per clock, not per regulator.
func TestCheckpointWhileWaitingInVacation(t *testing.T) {
	adaptive := shardBaseConfig(37)
	adaptive.Scheme = SchemeAdaptive
	adaptive.Load = 0.95
	for name, base := range map[string]Config{
		"static":   shardBaseConfig(7),
		"churn":    churnConfig(SchemeSRL, 13),
		"adaptive": adaptive,
	} {
		for _, shards := range []int{1, 4} {
			cfg := base
			cfg.Shards = shards
			straight := Run(cfg)

			s := NewSession(cfg)
			s.Start()
			// Step to the first instant past mid-run with regulators waiting.
			at := des.Time(cfg.Duration) / 2
			for s.RunTo(at); waitingRegulators(s) == 0; s.RunTo(at) {
				if at += 7 * des.Millisecond; at > des.Time(cfg.Duration) {
					t.Fatalf("%s/%d: no regulator ever waits in a vacation", name, shards)
				}
			}
			waiting := waitingRegulators(s)
			blob, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			regs := 0
			for _, sh := range s.sh {
				edges, _ := pendingClockEdges(t, sh.eng)
				if edges != len(sh.env.clocks) {
					t.Errorf("%s/%d: checkpoint holds %d pending clock edges for %d clocks", name, shards, edges, len(sh.env.clocks))
				}
				regs += len(sh.eng.Owners(des.KindSRLDone))
			}
			restored, err := Restore(cfg, blob)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, shards, err)
			}
			if got := waitingRegulators(restored); got != waiting {
				t.Errorf("%s/%d: %d regulators wait after the restore, %d before", name, shards, got, waiting)
			}
			for si, sh := range restored.sh {
				if got, want := len(sh.env.clocks), len(s.sh[si].env.clocks); got != want {
					t.Errorf("%s/%d: shard %d restored %d clocks of %d", name, shards, si, got, want)
				}
			}
			if err := SameRun(straight, restored.Finish(), NormRestore); err != nil {
				t.Errorf("%s/%d: restored at %v with %d of %d regulators waiting, diverged: %v",
					name, shards, at, waiting, regs, err)
			}
		}
	}
}

// Restore refuses a blob whose regulators follow a clock it does not hold,
// and one that holds the same clock twice.
func TestRestoreRejectsBrokenClockTable(t *testing.T) {
	for name, tc := range map[string]struct {
		tamper func(env *hostEnv)
		want   string
	}{
		"missing clock": {func(env *hostEnv) {
			env.eng.Own(des.KindSRLOn, 0, nil)
		}, "follows a clock the snapshot does not hold"},
		"duplicate clock": {func(env *hostEnv) {
			env.eng.Register(des.KindSRLOn, env.eng.Owners(des.KindSRLOn)[0])
			env.clocks = append(env.clocks, env.clocks[0])
		}, "holds two clocks"},
	} {
		cfg := shardBaseConfig(5)
		cfg.Duration = des.Second
		s := NewSession(cfg)
		s.Start()
		s.RunTo(des.Second / 2)
		tc.tamper(s.sh[0].env)
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := restoreNoPanic(t, cfg, blob, name); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a snapshot error mentioning %q", name, err, tc.want)
		}
	}
}
