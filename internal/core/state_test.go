package core_test

import (
	"flag"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/scenario"
)

var census = flag.String("census", "", "comma-separated horizons in simulated seconds: TestChurnHoldsOnlyLiveState "+
	"logs its cell's state census at each, with a snapshot and a restore timed, instead of checking its bounds")

// stormCell is churn-storm's population and churn — 2000 hosts in 16 Zipf
// groups on a 64-router Waxman substrate, half of each group turning over
// a second with one-second stays, under (σ, ρ, λ) at load 0.8 — without
// its faults and re-optimization, on one shard, run for horizon.
func stormCell(t *testing.T, horizon des.Duration) core.Config {
	return stormConfig(t, stormScenario(), horizon)
}

// stormPlanesCell is stormCell with churn-storm's re-optimization and its
// outage, partition and mass leave back, re-timed into a 2 s horizon: at
// 1 s, halfway, the outage's victims wait to be restored and the mass
// leave's sentinels are live; at 1.5 s the partition is open.
func stormPlanesCell(t *testing.T) core.Config {
	sc := stormScenario()
	sc.Reopt = scenario.Reoptimize{EverySec: 0.25, MinImprove: 0.02, MaxMoves: 4}
	sc.Faults = []scenario.FaultSpec{
		{Kind: "domain_outage", AtSec: 0.6, DurationSec: 0.6, Seeded: true},
		{Kind: "mass_leave", AtSec: 0.8, Group: 0, Fraction: 0.3},
		{Kind: "partition", AtSec: 1.3, Seeded: true},
		{Kind: "heal", AtSec: 1.8},
	}
	return stormConfig(t, sc, 2*des.Second)
}

func stormScenario() scenario.Scenario {
	sc := scenario.MustLookup("churn-waxman-16")
	sc.Churn.TurnoverPerSec, sc.Churn.MeanLifetimeSec = 0.5, 1
	sc.WindowSec = 0
	return sc
}

func stormConfig(t *testing.T, sc scenario.Scenario, horizon des.Duration) core.Config {
	cfg, err := sc.SessionConfig(sc.Combos[0], 0.8, 1, core.SeedOpt{}, horizon, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 1
	return cfg
}

// heapAfterGC is the live heap, in bytes, once the collector has run.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestChurnHoldsOnlyLiveState holds a churned session to the state it has
// in service, at 3 and at 12 simulated seconds of stormCell: per family
// the owner-table slots its engine has handed out are within
// slackSlots of the components in service — a MUX in a connection table,
// a regulator in a bank — and the heap after a collection grows by at most
// an eighth from the first horizon to the second, four times as long.
// A dropped component retires once no pending event names it and the next
// one of its family takes its record and slot; a connection no edge names
// closes once idle.
//
// At the parent of the commit that added it every component a session
// made stayed registered: at 3 s and 12 s it held 4,717 and 15,163 MUX
// slots for 3,294 and 5,066 in service, 1,484 and 4,989 regulator slots
// for 881 and 888, and the heap after GC grew from 4.4 to 7.6 MB, where it
// now reads 3.9 and 4.1 MB.
func TestChurnHoldsOnlyLiveState(t *testing.T) {
	if *census != "" {
		logCensus(t)
		return
	}
	const slackSlots = 128
	s := core.NewSession(stormCell(t, 12*des.Second))
	s.Start()
	var heaps []uint64
	for _, at := range []des.Time{3 * des.Second, 12 * des.Second} {
		s.RunTo(at)
		heaps = append(heaps, heapAfterGC())
		muxes, regs, named := core.StateCensus(s)
		t.Logf("at %v: MUXes: %d slots, %d held, %d in service, %d named by an edge; regulators: %d slots, %d held, %d in service; heap %.2f MB",
			at, muxes.Slots, muxes.Held, muxes.InService, named, regs.Slots, regs.Held, regs.InService, float64(heaps[len(heaps)-1])/1e6)
		for _, c := range []struct {
			family string
			core.Census
		}{{"MUX", muxes}, {"regulator", regs}} {
			if c.Slots > c.InService+slackSlots {
				t.Errorf("at %v: %d %s slots for %d in service, over %d more", at, c.Slots, c.family, c.InService, slackSlots)
			}
		}
	}
	if heaps[1] > heaps[0]+heaps[0]/8 {
		t.Errorf("the heap after GC grew from %.2f MB at 3 s to %.2f MB at 12 s, over an eighth", float64(heaps[0])/1e6, float64(heaps[1])/1e6)
	}
	runtime.KeepAlive(s)
}

// TestRestoreCostsItsState holds a restore to the state it restores, not
// the schedule it resumes: stormCell checkpointed at 3 s restores under a
// 12 s and under a 120 s schedule (22,258 and 239,115 membership events)
// with allocations within slackBytes of each other. The session reads the
// Config's schedule in place and Restore seeks its cursors past the
// checkpoint by binary search, so nothing is cloned, sorted or listed in
// proportion to it.
//
// At the parent of the commit that added it every restore cloned and
// stable-sorted the whole schedule and rebuilt the merged barrier list:
// the 12 s restore allocated 3.0 MB and the 120 s one 21.4 MB, where both
// now allocate 1.29 MB.
func TestRestoreCostsItsState(t *testing.T) {
	const slackBytes = 64 << 10
	restoreBytes := func(horizon des.Duration) uint64 {
		cfg := stormCell(t, horizon)
		s := core.NewSession(cfg)
		s.Start()
		s.RunTo(3 * des.Second)
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		least := uint64(math.MaxUint64)
		for range 2 { // the first may warm a cache
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := core.Restore(cfg, blob)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%d events over %v: a restore at 3 s allocates %.2f MB", len(cfg.Events), horizon, float64(least)/1e6)
		return least
	}
	short, long := restoreBytes(12*des.Second), restoreBytes(120*des.Second)
	if long > short+slackBytes || short > long+slackBytes {
		t.Errorf("a restore at 3 s allocates %d B under a 12 s schedule and %d B under a 120 s one: over %d B apart", short, long, slackBytes)
	}
}

// logCensus runs stormCell, its schedule drawn for the last horizon
// -census names, to each of them and logs a row of EXPERIMENTS.md's census
// table there: member edits, MUXes and regulators counted as StateCensus
// counts them, the heap after GC, the least wall time of three snapshots
// and of three restores, and the blob's size.
func logCensus(t *testing.T) {
	var horizons []des.Time
	for _, f := range strings.Split(*census, ",") {
		sec, err := strconv.ParseFloat(f, 64)
		if err != nil {
			t.Fatalf("-census: %v", err)
		}
		horizons = append(horizons, des.Seconds(sec))
	}
	cfg := stormCell(t, horizons[len(horizons)-1])
	s := core.NewSession(cfg)
	s.Start()
	t.Log("| horizon | joins + leaves | MUX slots / held / in service / named | regulator slots / held / in service | heap after GC | snapshot / restore | blob |")
	for _, at := range horizons {
		s.RunTo(at)
		heap := heapAfterGC()
		muxes, regs, named := core.StateCensus(s)
		var blob []byte
		snap, restore := time.Hour, time.Hour
		for range 3 {
			t0 := time.Now()
			b, err := s.Snapshot()
			snap = min(snap, time.Since(t0))
			if err != nil {
				t.Fatal(err)
			}
			t0 = time.Now()
			if _, err := core.Restore(cfg, b); err != nil {
				t.Fatal(err)
			}
			restore, blob = min(restore, time.Since(t0)), b
		}
		t.Logf("| %v s | %d | %d / %d / %d / %d | %d / %d / %d | %.1f MB | %.1f / %.1f ms | %d KB |",
			at.Seconds(), core.MemberEdits(s), muxes.Slots, muxes.Held, muxes.InService, named, regs.Slots, regs.Held, regs.InService,
			float64(heap)/1e6, snap.Seconds()*1e3, restore.Seconds()*1e3, len(blob)/1000)
	}
}
