package harness

// The sweep fleet: ScenarioSweep farmed out to worker processes over a
// shared work directory. The parent compiles the sweep plan, writes a
// manifest pinning every plan input (scenario spec, resolved seed, load
// grid, duration, shard count), and spawns N workers; each worker
// reconstructs the identical plan from the manifest — newSweepPlan is a pure
// function of its inputs — claims individual (combo, load) cells via
// O_EXCL claim files, runs each claimed cell, and writes it as one atomic
// result file. Cell-level granularity lets a sweep with few combos but
// many loads still spread across every worker. The parent merges result
// files through the same aggregate as the in-process sweep, so the merged
// ScenarioResult is byte-identical to ScenarioSweep's (sweepCell carries
// only types that round-trip bit-exactly through encoding/json).
//
// The directory is the whole protocol, which makes a killed sweep
// resumable: re-running FleetSweep on the same directory validates the
// manifest byte-for-byte, clears claims whose result never landed, and
// workers skip cells whose results exist.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sync"

	"repro/internal/des"
	"repro/internal/scenario"
)

// FleetOptions configures a distributed sweep.
type FleetOptions struct {
	// Workers is the number of worker processes to spawn (default 1).
	Workers int
	// Dir is the shared work directory holding the manifest, claims, and
	// results. Empty means a fresh temporary directory, removed after a
	// successful merge — resumable sweeps need an explicit directory.
	Dir string
	// Spawn launches one worker against the work directory and blocks
	// until it exits. Nil means re-exec this binary with
	// "-fleet-worker <dir>" (the wdcsim entry point); tests inject an
	// in-process worker.
	Spawn func(dir string) error
}

// fleetManifest pins every input of the sweep plan. The parent writes it
// once; a resume validates the existing file byte-for-byte, so two
// invocations can never silently mix cells from different sweeps.
type fleetManifest struct {
	SchemaVersion int             `json:"schema_version"`
	Scenario      json.RawMessage `json:"scenario"`
	Seed          uint64          `json:"seed"`
	Loads         []float64       `json:"loads"`
	Combos        int             `json:"combos"`
	DurationNS    int64           `json:"duration_ns"`
	NumHosts      int             `json:"num_hosts"`
	Strategy      string          `json:"strategy"`
	Shards        int             `json:"shards"`
}

// fleetCellResult is one worker's output for one (combo, load) cell.
type fleetCellResult struct {
	SchemaVersion int       `json:"schema_version"`
	Combo         int       `json:"combo"`
	Load          int       `json:"load"`
	Cell          sweepCell `json:"cell"`
}

const fleetManifestName = "manifest.json"

func fleetClaimPath(dir string, ci, li int) string {
	return filepath.Join(dir, fmt.Sprintf("cell_%d_%d.claim", ci, li))
}

func fleetResultPath(dir string, ci, li int) string {
	return filepath.Join(dir, fmt.Sprintf("cell_%d_%d.json", ci, li))
}

// writeFileAtomic writes via a temp file and rename, so readers only ever
// see absent or complete result files — a killed worker leaves at worst a
// stale .tmp, never a truncated result.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// fleetManifestFor captures the compiled plan and the original inputs.
// Resolved values (seed, loads, duration, shards) go into the manifest
// rather than raw options, so the worker's option precedence rules cannot
// drift from what the parent actually ran.
func fleetManifestFor(sc scenario.Scenario, opts Options, p *sweepPlan) (fleetManifest, error) {
	spec, err := sc.JSON()
	if err != nil {
		return fleetManifest{}, err
	}
	return fleetManifest{
		SchemaVersion: SchemaVersion,
		Scenario:      spec,
		Seed:          p.seed,
		Loads:         p.loads,
		Combos:        len(p.combos),
		DurationNS:    int64(p.dur()),
		NumHosts:      opts.NumHosts,
		Strategy:      opts.Strategy,
		Shards:        p.shards,
	}, nil
}

// planFromManifest reconstructs the sweep plan a manifest pins. Workers and
// the resuming parent both come through here, so every party compiles
// from the same inputs.
func planFromManifest(m fleetManifest) (*sweepPlan, error) {
	sc, err := scenario.Parse(m.Scenario)
	if err != nil {
		return nil, fmt.Errorf("harness: fleet manifest scenario: %w", err)
	}
	opts := Options{
		Seed:     m.Seed,
		Loads:    m.Loads,
		NumHosts: m.NumHosts,
		Duration: des.Duration(m.DurationNS),
		Strategy: m.Strategy,
		Shards:   m.Shards,
	}
	p, err := newSweepPlan(sc, opts)
	if err != nil {
		return nil, err
	}
	if len(p.combos) != m.Combos {
		return nil, fmt.Errorf("harness: fleet manifest compiled to %d combos, manifest says %d",
			len(p.combos), m.Combos)
	}
	return p, nil
}

// readFleetManifest loads and version-checks a work directory's manifest.
func readFleetManifest(dir string) (fleetManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, fleetManifestName))
	if err != nil {
		return fleetManifest{}, err
	}
	if err := checkSchemaVersion(data); err != nil {
		return fleetManifest{}, err
	}
	var m fleetManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fleetManifest{}, fmt.Errorf("harness: fleet manifest does not parse: %w", err)
	}
	return m, nil
}

// prepareFleetDir writes the manifest into a fresh directory, or — on
// resume — verifies the existing manifest matches byte-for-byte and
// clears stale claims (a claim whose result never landed marks a cell a
// killed worker was holding; removing it lets the next worker reclaim).
func prepareFleetDir(dir string, m fleetManifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	want, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fleetManifestName)
	existing, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return writeFileAtomic(path, want)
	case err != nil:
		return err
	}
	if !bytes.Equal(existing, want) {
		return fmt.Errorf("harness: fleet dir %s holds a different sweep's manifest; use a fresh directory", dir)
	}
	for ci := 0; ci < m.Combos; ci++ {
		for li := range m.Loads {
			if _, err := os.Stat(fleetResultPath(dir, ci, li)); errors.Is(err, fs.ErrNotExist) {
				if err := os.Remove(fleetClaimPath(dir, ci, li)); err != nil && !errors.Is(err, fs.ErrNotExist) {
					return err
				}
			}
		}
	}
	return nil
}

// fleetWorker is the worker loop: claim a (combo, load) cell nobody
// holds, run it, write the result atomically, repeat until no cell is
// left unclaimed. maxCells < 0 means unlimited; ran, when non-nil,
// observes each cell this worker actually executed (tests count re-runs
// with it).
func fleetWorker(dir string, maxCells int, ran func(ci, li int)) error {
	m, err := readFleetManifest(dir)
	if err != nil {
		return err
	}
	p, err := planFromManifest(m)
	if err != nil {
		return err
	}
	done := 0
	for ci := range p.combos {
		for li := range p.loads {
			if maxCells >= 0 && done >= maxCells {
				return nil
			}
			if _, err := os.Stat(fleetResultPath(dir, ci, li)); err == nil {
				continue // another worker (or a previous run) finished this cell
			}
			claim, err := os.OpenFile(fleetClaimPath(dir, ci, li), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
			if err != nil {
				if errors.Is(err, fs.ErrExist) {
					continue // another live worker holds it
				}
				return err
			}
			claim.Close()
			out, err := json.MarshalIndent(fleetCellResult{
				SchemaVersion: SchemaVersion,
				Combo:         ci,
				Load:          li,
				Cell:          p.runCell(li*len(p.combos) + ci),
			}, "", "  ")
			if err != nil {
				return err
			}
			if err := writeFileAtomic(fleetResultPath(dir, ci, li), out); err != nil {
				return err
			}
			if ran != nil {
				ran(ci, li)
			}
			done++
		}
	}
	return nil
}

// RunFleetWorker runs one fleet worker against a prepared work directory
// until no unclaimed cell remains — the "-fleet-worker" entry point.
func RunFleetWorker(dir string) error {
	return fleetWorker(dir, -1, nil)
}

// defaultSpawn re-execs the current binary as a fleet worker; wdcsim
// implements the flag. Worker stderr passes through for diagnostics.
func defaultSpawn(dir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-fleet-worker", dir)
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

// mergeFleet reads every cell result and reassembles the flat cell
// array the in-process sweep would have produced.
func mergeFleet(dir string, p *sweepPlan) ([]sweepCell, error) {
	cells := make([]sweepCell, p.cellCount())
	for ci := range p.combos {
		for li := range p.loads {
			data, err := os.ReadFile(fleetResultPath(dir, ci, li))
			if errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("harness: fleet sweep incomplete: cell (combo %d, load %d) has no result (a worker died; re-run with the same -fleet-dir to resume)", ci, li)
			}
			if err != nil {
				return nil, err
			}
			if err := checkSchemaVersion(data); err != nil {
				return nil, err
			}
			var res fleetCellResult
			if err := json.Unmarshal(data, &res); err != nil {
				return nil, fmt.Errorf("harness: fleet result (%d,%d) does not parse: %w", ci, li, err)
			}
			if res.Combo != ci || res.Load != li {
				return nil, fmt.Errorf("harness: fleet result (%d,%d) is stamped for cell (%d,%d)",
					ci, li, res.Combo, res.Load)
			}
			cells[li*len(p.combos)+ci] = res.Cell
		}
	}
	return cells, nil
}

// FleetSweep runs ScenarioSweep distributed across worker processes. The
// merged result is byte-identical (through ScenarioResult.JSON) to the
// in-process ScenarioSweep of the same scenario and options, and a sweep
// killed partway resumes from its work directory without re-running
// completed cells.
func FleetSweep(sc scenario.Scenario, opts Options, fo FleetOptions) (ScenarioResult, error) {
	p, err := newSweepPlan(sc, opts)
	if err != nil {
		return ScenarioResult{}, err
	}
	dir := fo.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "wdcsim-fleet-")
		if err != nil {
			return ScenarioResult{}, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	m, err := fleetManifestFor(sc, opts, p)
	if err != nil {
		return ScenarioResult{}, err
	}
	if err := prepareFleetDir(dir, m); err != nil {
		return ScenarioResult{}, err
	}

	workers := fo.Workers
	if workers < 1 {
		workers = 1
	}
	spawn := fo.Spawn
	if spawn == nil {
		spawn = defaultSpawn
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = spawn(dir)
		}(w)
	}
	wg.Wait()

	cells, err := mergeFleet(dir, p)
	if err != nil {
		// A worker failure explains the missing results better than the
		// merge error alone.
		for _, werr := range errs {
			if werr != nil {
				return ScenarioResult{}, fmt.Errorf("%w (worker: %v)", err, werr)
			}
		}
		return ScenarioResult{}, err
	}
	return p.aggregate(cells), nil
}
