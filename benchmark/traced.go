package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/scenario"
	"repro/internal/topo"
	"repro/internal/xrand"
)

// traced is the traced pass's record for one workload: the per-layer
// metrics that depend on the workload, the spans behind them, and the
// outcome of holding the traced run to the untraced one.
type traced struct {
	Workload  string                `json:"workload"`
	Layers    map[string]layerValue `json:"layers"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Failures  []string              `json:"failures,omitempty"`

	spans []span
}

func (t *traced) writeTrace(dir string) error {
	return writeTraceFile(dir, t.Workload, t.spans)
}

func (t *traced) fail(msg string) {
	t.Failed++
	t.Failures = append(t.Failures, t.Workload+": "+msg)
}

func (t *traced) set(name string, v float64) { t.Layers[name] = plain(v) }

// cellTimes is what one traced cell cost, by phase.
type cellTimes struct {
	build, run, drain time.Duration
	snapshot, restore []time.Duration
	snapshotBytes     []int
	res               core.Result
}

func (c cellTimes) busy() time.Duration { return c.build + c.run + c.drain }

// runCell drives one built session phase by phase under parent. On the
// checkpoint workload the run phase is cut into cycles, each with a
// Snapshot and a Restore child span.
func runCell(rec *recorder, cell, parent int, ck core.Checkpointer, cfg core.Config, ckptEverySec float64) (ct cellTimes, err error) {
	ct.run = rec.in("core.run", cell, parent, func(run int) {
		ck.Start()
		if ckptEverySec > 0 {
			period := des.Seconds(ckptEverySec)
			for t := period; t < des.Time(cfg.Duration) && err == nil; t += period {
				ck.RunTo(t)
				var blob []byte
				ct.snapshot = append(ct.snapshot, rec.in("core.snapshot", cell, run, func(int) {
					blob, err = ck.Snapshot()
				}))
				if err != nil {
					return
				}
				ct.snapshotBytes = append(ct.snapshotBytes, len(blob))
				ct.restore = append(ct.restore, rec.in("core.restore", cell, run, func(int) {
					ck, err = core.Restore(cfg, blob)
				}))
			}
			if err != nil {
				return
			}
		}
		ck.RunTo(des.Time(cfg.Duration))
	})
	if err != nil {
		return ct, err
	}
	// The run phase is its span's self time: Start and RunTo without the
	// snapshots and restores cut into it.
	for i := range ct.snapshot {
		ct.run -= ct.snapshot[i] + ct.restore[i]
	}
	ct.drain = rec.in("core.drain", cell, parent, func(int) { ct.res = ck.Finish() })
	return ct, nil
}

// tracePass runs the workload once untraced as the reference, then once
// phase by phase through the public seam — scenario compile → core build
// cold → build warm → Start/RunTo → Finish → harness JSON — recording a
// span around each call. End-to-end numbers never come from here.
func tracePass(w workload, seed uint64, quick bool) *traced {
	t := &traced{Workload: w.name, Layers: map[string]layerValue{}}
	if _, err := guarded(func() (struct{}, error) { return struct{}{}, t.run(w, seed, quick) }); err != nil {
		t.Attempted++
		t.fail(err.Error())
	}
	return t
}

func (t *traced) run(w workload, seed uint64, quick bool) error {
	sc, err := w.spec(quick)
	if err != nil {
		return err
	}
	shards := w.shards()

	// Untraced reference: the wall time tracing overhead is measured
	// against, and the result the traced run must reproduce. The first
	// repetition only warms the process up, so reference and traced run
	// meet the same grown heap.
	var ref outcome
	var refWall time.Duration
	for range 2 {
		o, r, err := coldRep(func() (outcome, error) { return w.drive(sc, seed) })
		if err != nil {
			return fmt.Errorf("untraced reference: %w", err)
		}
		ref, refWall = o, r.wall
	}

	core.FlushSubstrateCache()
	runtime.GC()
	rec := newRecorder(w.name)
	root := rec.start("workload", -1, -1)

	var cfgs []core.Config
	compile := rec.in("scenario.compile", -1, root, func(int) { cfgs, err = compileCells(sc, seed, shards) })
	if err != nil {
		return err
	}
	heavy := cfgs[len(cfgs)-1]
	t.set("scenario.compile_s", compile.Seconds())
	t.set("scenario.events", float64(len(heavy.Events)+len(heavy.Faults)))

	// Cold minus warm is the blueprint compile; warm is clone plus wiring.
	// The cold session is dropped and collected before the warm build, so
	// the second build does not pay for the first one's heap.
	var ck core.Checkpointer
	cold := rec.in("core.build_cold", len(cfgs)-1, root, func(int) { ck = core.NewCheckpointer(heavy) })
	ck = nil
	gc := rec.in("runtime.gc", -1, root, func(int) { runtime.GC() })
	warm := rec.in("core.build_warm", len(cfgs)-1, root, func(int) { ck = core.NewCheckpointer(heavy) })
	t.set("core.build_cold_s", cold.Seconds())
	t.set("core.build_warm_s", warm.Seconds())
	// extra is traced work the untraced flow does not do: the second build
	// and the collection before it, and on a sweep the cold build too,
	// since the pool builds every cell again.
	extra := warm + gc

	cells := make([]cellTimes, len(cfgs))
	workers := min(procs, len(cfgs))
	var poolWall time.Duration
	if len(cfgs) == 1 {
		cells[0], err = runCell(rec, 0, root, ck, heavy, w.ckptEverySec)
		cells[0].build = cold
		poolWall = cells[0].busy()
	} else {
		ck = nil
		extra += cold
		core.FlushSubstrateCache()
		poolWall = rec.in("harness.sweep", -1, root, func(int) { err = tracedSweep(rec, cfgs, cells, workers) })
	}
	if err != nil {
		return err
	}
	t.Attempted += len(cfgs)

	var jsonBytes int
	if ref.Sweep != nil {
		jsonTime := rec.in("harness.json", -1, root, func(int) {
			var data []byte
			data, err = ref.Sweep.JSON()
			jsonBytes = len(data)
		})
		if err != nil {
			return err
		}
		t.set("harness.json_ms", jsonTime.Seconds()*1e3)
		t.set("harness.json_bytes", float64(jsonBytes))
	}
	tracedWall := rec.end(root) - extra

	var sum cellTimes
	var delivered, lost uint64
	var wdb float64
	for _, c := range cells {
		sum.build += c.build
		sum.run += c.run
		sum.drain += c.drain
		delivered += c.res.Delivered
		lost += c.res.Lost
		wdb = max(wdb, c.res.WDB)
	}
	t.Attempted++
	if delivered != ref.Delivered || lost != ref.Lost || wdb != ref.WDB {
		t.fail(fmt.Sprintf("traced≡untraced: expected delivered=%d lost=%d wdb=%v, got delivered=%d lost=%d wdb=%v",
			ref.Delivered, ref.Lost, ref.WDB, delivered, lost, wdb))
	}
	t.set("core.run_s", sum.run.Seconds())
	t.set("core.drain_s", sum.drain.Seconds())
	if delivered > 0 {
		t.set("core.run_ns_per_delivery", float64((sum.run+sum.drain).Nanoseconds())/float64(delivered))
	}
	t.set("harness.pool_efficiency", sum.busy().Seconds()/(float64(workers)*poolWall.Seconds()))

	last := cells[len(cells)-1]
	if n := len(last.snapshot); n > 0 {
		t.set("core.snapshot_ms", median(durationsMS(last.snapshot)))
		t.set("core.restore_ms", median(durationsMS(last.restore)))
		mb := make([]float64, n)
		for i, b := range last.snapshotBytes {
			mb[i] = float64(b) / 1e6
		}
		t.set("core.snapshot_mb", median(mb))
	}
	res := last.res
	if res.Shards > 1 {
		t.set("core.epochs", float64(res.Epochs))
		t.set("core.cross_shard_msgs", float64(res.CrossShardMsgs))
		t.set("core.stall_share", res.StallShare)
	}

	if w.sharded {
		// The same cell on the sequential engine, untraced, for the pair's
		// speed-up: deliveries are equal, so it is the ratio of walls.
		_, r, err := coldRep(func() (outcome, error) { return driveSweep(sc, seed, 1) })
		if err != nil {
			return fmt.Errorf("sequential twin: %w", err)
		}
		t.set("core.shard_speedup", r.wall.Seconds()/refWall.Seconds())
	}
	if sc.Churn.Enabled() || sc.Reopt.Enabled() || sc.HasFaults() {
		if err := t.controlPlane(rec, sc, seed, shards, sum.run+sum.drain, res); err != nil {
			return err
		}
	}
	t.topo(rec, heavy)

	t.spans = rec.finish()
	t.set("trace.overhead_share", tracedWall.Seconds()/refWall.Seconds()-1)
	t.set("trace.unaccounted_share", unaccountedShare(t.spans, root))
	return nil
}

// tracedSweep spreads the cells over workers goroutines the way the
// harness pool does, one span tree per cell.
func tracedSweep(rec *recorder, cfgs []core.Config, cells []cellTimes, workers int) error {
	var next atomic.Int64
	next.Store(-1)
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(cfgs) {
					return
				}
				_, errs[i] = guarded(func() (struct{}, error) {
					cell := rec.start("cell", i, -1)
					var ck core.Checkpointer
					build := rec.in("core.build", i, cell, func(int) { ck = core.NewCheckpointer(cfgs[i]) })
					ct, err := runCell(rec, i, cell, ck, cfgs[i], 0)
					ct.build = build
					cells[i] = ct
					rec.end(cell)
					return struct{}{}, err
				})
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return nil
}

// controlPlane reports what the control, fault and re-optimization planes
// did in the dynamic run, then runs its static twin — the same spec with
// churn, re-optimization and faults removed — and charges the difference
// in run+drain time to the events the dynamic run applied.
func (t *traced) controlPlane(rec *recorder, sc scenario.Scenario, seed uint64, shards int, dynamic time.Duration, res core.Result) error {
	t.set("core.joins", float64(res.Joins))
	t.set("core.leaves", float64(res.Leaves))
	t.set("core.regrafts", float64(res.Regrafts))
	t.set("core.reopt_moves", float64(res.ReoptMoves))
	t.set("core.lost", float64(res.Lost))

	sc.Churn, sc.Reopt, sc.Faults = scenario.Churn{}, scenario.Reoptimize{}, nil
	cfgs, err := compileCells(sc, seed, shards)
	if err != nil {
		return fmt.Errorf("static twin: %w", err)
	}
	cfg := cfgs[len(cfgs)-1]
	root := rec.start("static-twin", -1, -1)
	ct, err := runCell(rec, -1, root, core.NewCheckpointer(cfg), cfg, 0)
	rec.end(root)
	if err != nil {
		return fmt.Errorf("static twin: %w", err)
	}
	events := res.Joins + res.Leaves + res.Reopts + res.ReoptRejected + len(res.Faults)
	if events > 0 {
		t.set("core.ctl_us_per_event", float64((dynamic-ct.run-ct.drain).Microseconds())/float64(events))
	}
	return nil
}

// topo times the underlay at the workload's size: generator plus host
// attachment, then host-to-host latency lookups on seeded pairs.
func (t *traced) topo(rec *recorder, cfg core.Config) {
	var net *topo.Network
	gen := rec.in("topo.generate", -1, -1, func(int) {
		net = topo.NewNetwork(cfg.Topology.Build(cfg.Seed), topo.NetworkConfig{
			NumHosts: cfg.NumHosts, Seed: cfg.Seed, UplinkClasses: cfg.UplinkClasses})
	})
	t.set("topo.generate_s", gen.Seconds())
	rng := xrand.New(cfg.Seed)
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(cfg.NumHosts), rng.Intn(cfg.NumHosts)}
	}
	var sink des.Duration
	const rounds = 64
	lat := rec.in("topo.latency", -1, -1, func(int) {
		for range rounds {
			for _, p := range pairs {
				sink += net.Latency(p[0], p[1])
			}
		}
	})
	runtime.KeepAlive(sink)
	t.set("topo.latency_ns", float64(lat.Nanoseconds())/float64(rounds*len(pairs)))
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * 1e3
	}
	return out
}
