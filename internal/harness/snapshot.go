package harness

// SnapshotDiff is the checkpoint/restore differential harness: for every
// combo of a scenario sweep it runs the heaviest-load cell straight
// through, then again with a snapshot + restore at the halfway instant,
// and demands the two Results match bit for bit. CI drives it through
// "wdcsim -snapshot-diff" (make snapshot) so the restore contract is
// checked on real scenario workloads, not just the core unit fixtures.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/scenario"
)

// SnapshotDiff checks run-to-end against run-to-half → snapshot →
// restore → run-to-end for each combo of the scenario at its heaviest
// load, compared by core.SameRun under core.NormRestore: epoch count and
// stall share depend on how a run is sliced into Run calls, so they sit
// outside the bit-identity contract, which covers the physics. It returns
// one report line per combo — the verdict, and beside it the snapshot's
// size and the wall time of the one Snapshot and the one Restore (the only
// part of a line that differs between two runs); a DIVERGED line names
// every field that differs. Every supported configuration snapshots; a
// combo is reported as skipped only if Snapshot refuses it (e.g. a pending
// closure, which no owner table can name in another process). A non-nil
// error means at least one combo diverged — the restore contract is broken.
func SnapshotDiff(sc scenario.Scenario, opts Options) ([]string, error) {
	p, err := newSweepPlan(sc, opts)
	if err != nil {
		return nil, err
	}
	if len(p.loads) == 0 || len(p.combos) == 0 {
		return nil, fmt.Errorf("harness: scenario %s has an empty sweep", p.sc.Name)
	}
	li := len(p.loads) - 1
	var lines []string
	var diverged int
	for ci, combo := range p.combos {
		cfg := p.cfgs[li*len(p.combos)+ci]
		mid := des.Time(cfg.Duration) / 2

		ck := core.NewSession(cfg)
		ck.Start()
		ck.RunTo(mid)
		t0 := time.Now()
		blob, err := ck.Snapshot()
		snapMs := time.Since(t0).Seconds() * 1e3
		if err != nil {
			lines = append(lines, fmt.Sprintf("%v @ load %.2f: skipped (%v)", combo, p.loads[li], err))
			continue
		}
		t0 = time.Now()
		restored, err := core.Restore(cfg, blob)
		restoreMs := time.Since(t0).Seconds() * 1e3
		if err != nil {
			return lines, fmt.Errorf("harness: %v: restore failed: %w", combo, err)
		}
		want := core.Run(cfg)
		if err := core.SameRun(want, restored.Finish(), core.NormRestore); err != nil {
			diverged++
			lines = append(lines, fmt.Sprintf("%v @ load %.2f: DIVERGED after restore at %v (snapshot %d bytes): %v",
				combo, p.loads[li], mid, len(blob), err))
			continue
		}
		lines = append(lines, fmt.Sprintf("%v @ load %.2f: identical (%d deliveries, snapshot %d bytes in %.2f ms, restore %.2f ms, shards %d)",
			combo, p.loads[li], want.Delivered, len(blob), snapMs, restoreMs, want.Shards))
	}
	if diverged > 0 {
		return lines, fmt.Errorf("harness: scenario %s: %d combo(s) diverged after checkpoint/restore", p.sc.Name, diverged)
	}
	return lines, nil
}
