package harness

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// The sweep columns of the identity matrix (internal/core/identity_test.go,
// DESIGN.md §11.4): each quick sweep below runs once on one worker, and its
// JSON record, byte for byte, is what sweeping it on three workers
// (deliberately not a divisor of its cells) and splitting it over a fleet
// must reproduce — churn, fault outcomes, window series and sharded
// diagnostics included.

// sweepFixture is a row of the sweep columns.
type sweepFixture struct {
	name  string
	opts  Options
	fleet int  // fleet workers
	churn bool // the sweep must apply joins and leaves

	once sync.Once
	base []byte
}

var sweepFixtures = []*sweepFixture{
	{name: "paper-fig4c", opts: Options{Seed: 3}, fleet: 2},
	{name: "paper-fig6c", opts: Options{Seed: 3}, fleet: 2},
	{name: "transit-stub-dsl-fibre", opts: Options{Seed: 3}, fleet: 2},
	{name: "churn-waxman-16", opts: Options{Seed: 3}, fleet: 2, churn: true},
	{name: "outage-waxman-16", opts: Options{Seed: 5, Shards: 2}, fleet: 3},
	// More fleet workers than combos: per-cell claims spread a 2-combo ×
	// 3-load sweep six ways.
	{name: "waxman-zipf-16", opts: Options{Seed: 11}, fleet: 6},
}

// sweepRows runs fn as one subtest per sweep fixture and holds what it
// returns to the fixture's one-worker JSON.
func sweepRows(t *testing.T, fn func(t *testing.T, f *sweepFixture, sc scenario.Scenario) []byte) {
	for _, f := range sweepFixtures {
		t.Run(f.name, func(t *testing.T) {
			sc := scenario.MustLookup(f.name).Quick()
			f.once.Do(func() {
				opts := f.opts
				opts.Workers = 1
				f.base = sweepJSON(t, sc, opts)
			})
			if rec, err := DecodeScenarioJSON(f.base); err != nil || f.churn && (rec.Joins == 0 || rec.Leaves == 0) {
				t.Fatalf("inert one-worker sweep (%d joins, %d leaves, err %v) — the fixture is broken", rec.Joins, rec.Leaves, err)
			}
			if got := fn(t, f, sc); !bytes.Equal(got, f.base) {
				t.Fatalf("sweep JSON diverged from the one-worker sweep:\n--- one worker\n%s\n--- transformed\n%s", f.base, got)
			}
		})
	}
}

func TestScenarioSweepParallelMatchesSequential(t *testing.T) {
	sweepRows(t, func(t *testing.T, f *sweepFixture, sc scenario.Scenario) []byte {
		opts := f.opts
		opts.Workers = 3
		return sweepJSON(t, sc, opts)
	})
}

func TestFleetSweepByteIdentical(t *testing.T) {
	sweepRows(t, func(t *testing.T, f *sweepFixture, sc scenario.Scenario) []byte {
		r, err := FleetSweep(sc, f.opts, FleetOptions{
			Workers: f.fleet,
			Dir:     filepath.Join(t.TempDir(), "work"),
			Spawn:   inProcessSpawn,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	})
}
