package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// inProcessSpawn runs the fleet worker in this process — the test stand-in
// for re-execing the binary.
func inProcessSpawn(dir string) error { return RunFleetWorker(dir) }

// TestFleetSweepResume kills the fleet after one cell, then resumes on
// the same directory: the completed cell's result file must survive
// byte-for-byte (not re-run), a stale claim without a result must be
// reclaimed, and the merged output must still match the in-process sweep.
func TestFleetSweepResume(t *testing.T) {
	sc := scenario.MustLookup("churn-waxman-16").Quick()
	opts := Options{Seed: 7}
	dir := filepath.Join(t.TempDir(), "work")

	// First attempt: the lone worker dies after finishing one cell.
	_, err := FleetSweep(sc, opts, FleetOptions{
		Workers: 1,
		Dir:     dir,
		Spawn:   func(d string) error { return fleetWorker(d, 1, nil) },
	})
	if err == nil {
		t.Fatal("partial fleet run did not report an incomplete sweep")
	}
	first, err := os.ReadFile(fleetResultPath(dir, 0, 0))
	if err != nil {
		t.Fatalf("cell (0,0) result missing after partial run: %v", err)
	}
	// A worker killed mid-cell leaves a claim with no result; the resume
	// must clear it so the cell is reclaimed.
	if err := os.WriteFile(fleetClaimPath(dir, 1, 0), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var reran [][2]int
	got, err := FleetSweep(sc, opts, FleetOptions{
		Workers: 2,
		Dir:     dir,
		Spawn: func(d string) error {
			return fleetWorker(d, -1, func(ci, li int) {
				mu.Lock()
				reran = append(reran, [2]int{ci, li})
				mu.Unlock()
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range reran {
		if cell == [2]int{0, 0} {
			t.Error("resume re-ran cell (0,0), which already had a result")
		}
	}
	if len(reran) == 0 {
		t.Error("resume ran no cells despite missing results")
	}
	after, err := os.ReadFile(fleetResultPath(dir, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, after) {
		t.Error("resume rewrote the completed cell's result file")
	}

	want, err := ScenarioSweep(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := want.JSON()
	gotJSON, _ := got.JSON()
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("resumed fleet sweep diverged from in-process sweep:\n--- in-process\n%s\n--- fleet\n%s",
			wantJSON, gotJSON)
	}
}

// TestFleetDirMismatch pins the manifest guard: resuming a directory that
// holds a different sweep's manifest fails instead of mixing cells.
func TestFleetDirMismatch(t *testing.T) {
	sc := scenario.MustLookup("churn-waxman-16").Quick()
	dir := filepath.Join(t.TempDir(), "work")
	if _, err := FleetSweep(sc, Options{Seed: 7}, FleetOptions{Dir: dir, Spawn: inProcessSpawn}); err != nil {
		t.Fatal(err)
	}
	if _, err := FleetSweep(sc, Options{Seed: 8}, FleetOptions{Dir: dir, Spawn: inProcessSpawn}); err == nil {
		t.Fatal("fleet run on a different sweep's directory did not fail")
	}
}

// TestFleetResultVersionGuard pins the record version check end to end: a
// result file stamped with a future schema version fails the merge.
func TestFleetResultVersionGuard(t *testing.T) {
	sc := scenario.MustLookup("churn-waxman-16").Quick()
	dir := filepath.Join(t.TempDir(), "work")
	if _, err := FleetSweep(sc, Options{Seed: 7}, FleetOptions{Dir: dir, Spawn: inProcessSpawn}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(fleetResultPath(dir, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var res fleetCellResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	res.SchemaVersion = SchemaVersion + 1
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fleetResultPath(dir, 0, 0), out, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FleetSweep(sc, Options{Seed: 7}, FleetOptions{Dir: dir, Spawn: inProcessSpawn}); err == nil {
		t.Fatal("merge accepted a result with an unknown schema version")
	}
}

// TestDecodeScenarioJSON pins the sweep-record version guard: the
// round-trip works, a missing schema_version is rejected, and an unknown
// one is rejected.
func TestDecodeScenarioJSON(t *testing.T) {
	r, err := ScenarioSweep(scenario.MustLookup("waxman-zipf-16").Quick(), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeScenarioJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SchemaVersion != SchemaVersion || rec.Scenario != "waxman-zipf-16" {
		t.Fatalf("decoded record header wrong: %+v", rec)
	}

	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	delete(raw, "schema_version")
	missing, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeScenarioJSON(missing); err == nil {
		t.Fatal("record without schema_version was accepted")
	}

	raw["schema_version"] = json.RawMessage("999")
	future, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeScenarioJSON(future); err == nil {
		t.Fatal("record with unknown schema_version was accepted")
	}
}
