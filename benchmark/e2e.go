package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// plan sizes one untraced pass over a workload.
type plan struct {
	// reps is the least number of timed repetitions; seconds, when set,
	// keeps repeating until that much wall time has been measured.
	reps    int
	seconds float64
	// quick runs every scenario through Scenario.Quick with no warm-up and
	// single samples. Never used for claims.
	quick bool
}

// Set-up is sampled this many times; each sample is a batch of set-ups
// long enough to last minSetupBatch.
const (
	setupSamples  = 5
	minSetupBatch = 500 * time.Millisecond
)

// e2e is the untraced pass's record for one workload.
type e2e struct {
	Workload  string          `json:"workload"`
	Seed      uint64          `json:"seed"`
	Metrics   map[string]dist `json:"metrics"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Failures  []string        `json:"failures,omitempty"`
	Simulated pin             `json:"simulated"`
	Cells     int             `json:"cells"`
	Cycles    int             `json:"checkpoint_cycles,omitempty"`
	// RepWall is the wall time of each timed repetition in seconds.
	RepWall []float64 `json:"rep_wall_s"`

	last outcome
}

// guarded runs fn and turns a panic into an error, so a crashing
// repetition counts as failed operations instead of ending the benchmark.
func guarded[T any](fn func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// buildHeaviest is the set-up a user pays before the first event fires:
// scenario spec to a startable session of the heaviest cell, with every
// cell's config compiled and the blueprint cache cold.
func buildHeaviest(sc scenario.Scenario, seed uint64, shards int) (core.Checkpointer, error) {
	return guarded(func() (core.Checkpointer, error) {
		cfgs, err := compileCells(sc, seed, shards)
		if err != nil {
			return nil, err
		}
		return core.NewCheckpointer(cfgs[len(cfgs)-1]), nil
	})
}

// measureSetup samples setup_s and reads the live heap of the heaviest
// cell's session, built and started: what survives a collection with the
// session (and the blueprint it was cloned from) reachable, over what
// survived one before anything was built.
func measureSetup(sc scenario.Scenario, seed uint64, shards int, quick bool) (samples []float64, heapMB float64, err error) {
	n, batchFloor := setupSamples, minSetupBatch
	if quick {
		n, batchFloor = 1, 0
	}
	core.FlushSubstrateCache()
	base := liveHeapMB()
	var ck core.Checkpointer
	for i := 0; i < n; i++ {
		ck = nil
		runtime.GC()
		k := 0
		t0 := time.Now()
		for {
			core.FlushSubstrateCache()
			if ck, err = buildHeaviest(sc, seed, shards); err != nil {
				return nil, 0, err
			}
			k++
			if time.Since(t0) >= batchFloor {
				break
			}
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(k))
	}
	ck.Start()
	heapMB = liveHeapMB() - base
	runtime.KeepAlive(ck)
	return samples, heapMB, nil
}

// coldRep times one repetition the way a fresh CLI process would see it:
// blueprint cache flushed (the compile is paid in every process) and the
// heap collected before the clock starts.
func coldRep(drive func() (outcome, error)) (outcome, reading, error) {
	core.FlushSubstrateCache()
	runtime.GC()
	pr := begin()
	o, err := guarded(drive)
	return o, pr.end(), err
}

// measureE2E is the untraced pass for one workload: set-up samples, one
// untimed warm-up repetition, the timed repetitions, then the checks.
func measureE2E(w workload, seed uint64, p plan) e2e {
	rec := e2e{Workload: w.name, Seed: seed, Metrics: map[string]dist{}}
	fail := func(ops int, msg string) {
		rec.Attempted += ops
		rec.Failed += ops
		rec.Failures = append(rec.Failures, w.name+": "+msg)
	}
	sc, err := w.spec(p.quick)
	if err != nil {
		fail(1, "spec: "+err.Error())
		return rec
	}
	setup, heapMB, err := measureSetup(sc, seed, w.shards(), p.quick)
	if err != nil {
		fail(1, "setup: "+err.Error())
		return rec
	}
	rec.Metrics["setup_s"] = summarize(setup)
	rec.Metrics["live_heap_mb"] = summarize([]float64{heapMB})

	rep := func() (outcome, reading, error) {
		return coldRep(func() (outcome, error) { return w.drive(sc, seed) })
	}
	if !p.quick {
		if _, _, err := rep(); err != nil {
			fail(1, "warm-up: "+err.Error())
			return rec
		}
	}
	samples := map[string][]float64{}
	var measured time.Duration
	for i := 0; i < p.reps || measured.Seconds() < p.seconds; i++ {
		o, r, err := rep()
		measured += r.wall
		ops := max(o.Cells, o.Cycles, 1)
		if err != nil {
			fail(ops, fmt.Sprintf("rep %d: %v", i, err))
			continue
		}
		rec.Attempted += ops
		if i > 0 && !sameSimulation(rec.last, o) {
			fail(1, fmt.Sprintf("rep %d: simulated statistics differ from rep 0", i))
		}
		rec.last = o
		d := float64(o.Delivered)
		samples["deliveries_per_s"] = append(samples["deliveries_per_s"], d/r.wall.Seconds())
		samples["cpu_ns_per_delivery"] = append(samples["cpu_ns_per_delivery"], float64(r.cpu.Nanoseconds())/d)
		samples["allocs_per_kdelivery"] = append(samples["allocs_per_kdelivery"], 1000*float64(r.mallocs)/d)
		samples["alloc_bytes_per_delivery"] = append(samples["alloc_bytes_per_delivery"], float64(r.bytes)/d)
		rec.RepWall = append(rec.RepWall, r.wall.Seconds())
	}
	for name, s := range samples {
		rec.Metrics[name] = summarize(s)
	}
	if len(rec.RepWall) == 0 {
		return rec
	}
	rec.Simulated = pinOf(rec.last)
	rec.Cells, rec.Cycles = rec.last.Cells, rec.last.Cycles
	c, err := guarded(func() (*checker, error) { return verify(w, sc, seed, rec.last, p.quick), nil })
	if err != nil {
		fail(1, "checks: "+err.Error())
		return rec
	}
	rec.Attempted += c.ran
	rec.Failed += len(c.failures)
	rec.Failures = append(rec.Failures, c.failures...)
	return rec
}

// sameSimulation holds a repetition to the one before it: host time may
// wander, simulated statistics may not.
func sameSimulation(a, b outcome) bool {
	if !bytes.Equal(a.JSON, b.JSON) {
		return false
	}
	if a.Result != nil && b.Result != nil && !samePhysics(*a.Result, *b.Result) {
		return false
	}
	return a.Delivered == b.Delivered && a.Lost == b.Lost && a.WDB == b.WDB
}

// failedShare is failed ÷ attempted operations (0 when nothing ran).
func (r e2e) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
