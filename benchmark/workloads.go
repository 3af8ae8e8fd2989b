package main

import (
	_ "embed"
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/harness"
	"repro/internal/scenario"
)

//go:embed scenarios/churn-storm.json
var churnStormJSON []byte

// workload is one fixed set of simulator inputs. Names are cited by later
// issues and must not change; sizes are recorded in README.md.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	// base names a registered scenario; empty means the benchmark-owned
	// churn-storm spec.
	base   string
	loads  []float64 // nil keeps the scenario's own grid
	simSec float64   // simulated seconds per cell
	// sharded runs each cell with Shards = P instead of 1.
	sharded bool
	// ckptEverySec > 0 selects the checkpoint driver: RunTo → Snapshot →
	// Restore at this simulated period, continuing on the restored session.
	ckptEverySec float64
}

// The simulated durations are cut from the issue's sizing so that one
// repetition lasts about 2 s (scale-100k: about 7 s, nearly all of it
// set-up, the t=0 burst and the drain tail) and the driver's 136 runs fit
// its time cap. Populations, group counts and load grids are the issue's.
var workloads = []workload{
	{
		name:   "fig6-sweep",
		why:    "paper-fig6: 665 hosts, 3 groups, 7 loads x 6 combos = 42 cells at 3 sim s, Workers=P; cheapest deliveries, sweep pool and blueprint-cache reuse",
		base:   "paper-fig6",
		loads:  []float64{0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95},
		simSec: 3,
	},
	{
		name:   "scale-10k",
		why:    "waxman-zipf-64: 10k hosts, 64 Zipf groups, load 0.8, 2.5 sim s, Shards=1; steady-state forwarding hot path, set-up a few % of wall",
		base:   "waxman-zipf-64",
		loads:  []float64{0.8},
		simSec: 2.5,
	},
	{
		name:    "scale-10k-sharded",
		why:     "the scale-10k cell with Shards=P: same physics through ShardedSession, Coordinator and LookaheadMatrix; pairs with scale-10k for the shard speed-up",
		base:    "waxman-zipf-64",
		loads:   []float64{0.8},
		simSec:  2.5,
		sharded: true,
	},
	{
		name:   "scale-100k",
		why:    "waxman-zipf-512: 100k hosts, 512 groups, load 0.8, 0.05 sim s; set-up and live heap largest, same-bucket event chains make a delivery 8x dearer than scale-10k",
		base:   "waxman-zipf-512",
		loads:  []float64{0.8},
		simSec: 0.05,
	},
	{
		name:   "churn-storm",
		why:    "2000 hosts, 16 Zipf groups, 12 sim s of 50%/s churn, reopt every 0.25 s, outage, partition, mass leave, epoch: control-plane writes beside forwarding reads",
		simSec: 12,
	},
	{
		name:         "checkpoint-10k",
		why:          "the scale-10k cell for 1.5 sim s with RunTo, Snapshot, Restore every 0.05 sim s (29 cycles): snapshot work shows here and nowhere else",
		base:         "waxman-zipf-64",
		loads:        []float64{0.8},
		simSec:       1.5,
		ckptEverySec: 0.05,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// spec returns the workload's scenario with its grid and duration fixed in
// the spec itself, so sweep options need carry only the seed and the
// parallelism. quick reduces it through Scenario.Quick (smoke runs only).
func (w workload) spec(quick bool) (scenario.Scenario, error) {
	var sc scenario.Scenario
	var err error
	if w.base == "" {
		sc, err = scenario.Parse(churnStormJSON)
	} else {
		sc, err = scenario.Lookup(w.base)
	}
	if err != nil {
		return sc, err
	}
	if w.loads != nil {
		sc.Loads = w.loads
	}
	sc.DurationSec = w.simSec
	if w.base != "" && len(sc.Combos) > 1 && len(sc.Loads) == 1 {
		sc.Combos = sc.Combos[:1] // single-cell workloads run combo 0
	}
	if quick {
		sc = sc.Quick()
	}
	return sc, sc.Validate()
}

func (w workload) shards() int {
	if w.sharded {
		return procs
	}
	return 1
}

// outcome is the simulated half of a run: every field is deterministic for
// a given (workload, seed) and is checked, never timed.
type outcome struct {
	Cells      int
	Delivered  uint64
	Lost       uint64
	WDB        float64 // max over cells
	Joins      int
	Leaves     int
	Regrafts   int
	ReoptMoves int
	Epochs     uint64
	CrossMsgs  uint64
	Cycles     int // checkpoint cycles completed
	// JSON is the sweep record (nil for the checkpoint driver).
	JSON []byte
	// Sweep is the aggregated result behind JSON.
	Sweep *harness.ScenarioResult
	// Result is the cell result of the checkpoint driver.
	Result *core.Result
}

// drive runs the workload end to end the way a user would: scenario in,
// result bytes out.
func (w workload) drive(sc scenario.Scenario, seed uint64) (outcome, error) {
	if w.ckptEverySec > 0 {
		return driveCheckpoint(sc, seed, w.ckptEverySec)
	}
	return driveSweep(sc, seed, w.shards())
}

func driveSweep(sc scenario.Scenario, seed uint64, shards int) (outcome, error) {
	res, err := harness.ScenarioSweep(sc, harness.Options{Seed: seed, Workers: procs, Shards: shards})
	if err != nil {
		return outcome{}, err
	}
	data, err := res.JSON()
	if err != nil {
		return outcome{}, err
	}
	o := outcome{
		Cells:     len(res.Loads) * len(res.Curves),
		Delivered: res.Delivered, Lost: res.Lost,
		Joins: res.Joins, Leaves: res.Leaves, Regrafts: res.Regrafts, ReoptMoves: res.ReoptMoves,
		JSON: data, Sweep: &res,
	}
	for _, c := range res.Curves {
		for _, y := range c.WDB.Y {
			o.WDB = max(o.WDB, y)
		}
		for i := range c.Epochs {
			o.Epochs += c.Epochs[i]
			o.CrossMsgs += c.CrossShardMsgs[i]
		}
	}
	return o, nil
}

// compileCells turns a scenario into one core config per (load, combo)
// cell through the public seam, exactly as a sweep does: shared specs and
// membership, per-load traffic seeds. The heaviest cell is the last.
func compileCells(sc scenario.Scenario, seed uint64, shards int) ([]core.Config, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	mix, err := sc.ParseMix()
	if err != nil {
		return nil, err
	}
	wl, err := sc.ParseWorkload()
	if err != nil {
		return nil, err
	}
	specs := core.DefaultSpecsN(wl, mix, sc.GroupCount(), seed)
	groups := sc.Groups(seed)
	dur := des.Seconds(sc.DurationSec)
	var cfgs []core.Config
	for li, load := range sc.Loads {
		for _, combo := range sc.Combos {
			cfg, err := sc.SessionConfig(combo, load, seed,
				core.UseSeed(harness.DeriveSeed(seed, li)), dur, specs, groups)
			if err != nil {
				return nil, err
			}
			if shards > 1 {
				cfg.Shards = shards
			}
			cfgs = append(cfgs, cfg)
		}
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("scenario %s: empty sweep", sc.Name)
	}
	return cfgs, nil
}

// driveCheckpoint is the preemptible-worker flow: the cell is stepped to
// a quiesce point every period, snapshotted, and continued on a session
// restored from the snapshot bytes.
func driveCheckpoint(sc scenario.Scenario, seed uint64, everySec float64) (outcome, error) {
	cfgs, err := compileCells(sc, seed, 1)
	if err != nil {
		return outcome{}, err
	}
	cfg := cfgs[len(cfgs)-1]
	o := outcome{Cells: 1}
	ck := core.NewCheckpointer(cfg)
	ck.Start()
	period := des.Seconds(everySec)
	for t := period; t < des.Time(cfg.Duration); t += period {
		ck.RunTo(t)
		blob, err := ck.Snapshot()
		if err != nil {
			return o, fmt.Errorf("snapshot at %v: %w", t, err)
		}
		if ck, err = core.Restore(cfg, blob); err != nil {
			return o, fmt.Errorf("restore at %v: %w", t, err)
		}
		o.Cycles++
	}
	res := ck.Finish()
	o.Delivered, o.Lost, o.WDB = res.Delivered, res.Lost, res.WDB
	o.Joins, o.Leaves, o.Regrafts, o.ReoptMoves = res.Joins, res.Leaves, res.Regrafts, res.ReoptMoves
	o.Result = &res
	return o, nil
}

// physics strips the coordinator's load-balance diagnostics, which depend
// on the shard count and on how a run is sliced into RunTo calls, leaving
// what the sequential ≡ sharded ≡ restored identities cover.
func physics(res core.Result) core.Result {
	res.Shards, res.Epochs, res.CrossShardMsgs, res.StallShare = 0, 0, 0, 0
	return res
}

func samePhysics(a, b core.Result) bool {
	return reflect.DeepEqual(physics(a), physics(b))
}
