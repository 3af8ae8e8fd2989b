package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/xrand"
)

// ScenarioSweep fans its cells out over a bounded worker pool: one
// engine per goroutine, results written to index-addressed slots, every
// per-point random stream derived purely from (sweep seed, point index).
// Nothing about the outcome depends on which worker runs which point or in
// what order, so parallel and sequential execution are bit-identical — the
// property the determinism tests in parallel_test.go pin down.

// runJobs executes jobs 0..n-1 via job on min(Workers or GOMAXPROCS, n)
// goroutines pulling indices from a shared counter — in order on the
// calling goroutine when that is one (the debugging mode). job must only
// write to its own point's slots.
func runJobs(n int, opts Options, job func(i int)) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	defer des.HoldRunners(workers - 1)()
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// DeriveSeed maps (sweep seed, point index) to the point's traffic seed.
// It is xrand.DeriveSeed — the repository-wide derivation rule — re-
// exported here because the sweep is its original home.
func DeriveSeed(base uint64, point int) uint64 {
	return xrand.DeriveSeed(base, point)
}

// assertSpecsMatch verifies a run's echoed specs are exactly the sweep's
// shared specs — the cheap guard that no point rebuilt or mutated the
// envelopes behind the sweep's back (which would silently decouple the
// curves from each other). Sharing is sound because a FlowSpec is a
// function of the workload, mix, seed and envelope parameters only: the
// load axis moves the connection capacity C = TotalRate/load, never the
// flow envelopes.
func assertSpecsMatch(shared, got []core.FlowSpec, load float64) {
	if len(shared) != len(got) {
		panic(fmt.Sprintf("harness: run at load %.2f used %d specs, sweep built %d",
			load, len(got), len(shared)))
	}
	for i := range shared {
		if shared[i] != got[i] {
			panic(fmt.Sprintf("harness: run at load %.2f diverged on spec %d: %+v != %+v",
				load, i, got[i], shared[i]))
		}
	}
}
