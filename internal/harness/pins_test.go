package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/scenario"
)

var repin = flag.Bool("repin", false, "rewrite "+pinsFile+" from this build and print a before/after table")

const pinsFile = "testdata/pins.json"

// pinKey names one row of the pin table: a builtin and a column.
type pinKey struct {
	Scenario string `json:"scenario"`
	Column   string `json:"column"`
}

// pinRow is one row of the pin table: the SHA-256 of the bytes one column
// produces for one builtin.
type pinRow struct {
	pinKey
	SHA256 string `json:"sha256"`
}

// pinColumn is what one column runs for a builtin and the bytes it pins.
type pinColumn struct {
	name string
	run  func(t *testing.T) []byte
}

// TestPins holds every builtin to whole-run pins (testdata/pins.json), so
// no result moves unseen: it is the fixed column of the identity matrix
// (internal/core/identity_test.go, DESIGN.md §11.4), whose other columns
// compare transformed runs with straight ones. Every builtin has four
// columns:
//
//   - seed1, seed1-shards4, seed7: the SHA-256 of its -quick
//     ScenarioResult.JSON() at that seed and shard count. The JSON is
//     bit-stable per shard count, not across counts: shard-local mean
//     accumulators merge in shard order, so mean_delay may differ from the
//     one-shard run in its last bits, and the record carries the shard
//     diagnostics. Every other field must match the one-shard run.
//   - restore-shards4: SnapshotDiff's verdicts at four shards, each of
//     which must say "identical".
//
// The extra rows pin what once had tests of its own: the paper-fig4/6
// static goldens at their own grids (golden), waxman-zipf-64's full-scale
// membership (membership-seed*) and its quick cell's event census and
// scaling ceiling (census-shards*), and one-shard restores of the
// snapshot fixtures (restore-shards1). WDCSIM_SHARDS changes no column;
// under -short (the race job) only the seed1 column runs.
//
// `go test ./internal/harness -run TestPins -args -repin` rewrites the
// file. When a row moved it fails, so that its before/after table prints
// without -v. It refuses to write a run that delivered nothing or
// measured a WDB ≤ 0.
func TestPins(t *testing.T) {
	pinned := map[pinKey]string{}
	if data, err := os.ReadFile(pinsFile); err == nil {
		var rows []pinRow
		if err := json.Unmarshal(data, &rows); err != nil {
			t.Fatalf("%s: %v", pinsFile, err)
		}
		for _, r := range rows {
			pinned[r.pinKey] = r.SHA256
		}
	} else if !*repin {
		t.Fatal(err)
	}
	var (
		keys []pinKey // every row, in file order
		mu   sync.Mutex
		got  = map[pinKey]string{}
	)
	for _, sc := range scenario.All() {
		cols := pinColumns(sc)
		for _, c := range cols {
			keys = append(keys, pinKey{sc.Name, c.name})
		}
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for _, c := range cols {
				if testing.Short() && c.name != "seed1" {
					continue
				}
				t.Run(c.name, func(t *testing.T) {
					k := pinKey{sc.Name, c.name}
					sum := sha256.Sum256(c.run(t))
					h := hex.EncodeToString(sum[:])
					mu.Lock()
					got[k] = h
					mu.Unlock()
					if !*repin && h != pinned[k] {
						t.Errorf("sha256 %s, pinned %q (a declared re-pin runs -args -repin)", h, pinned[k])
					}
				})
			}
		})
	}
	// The builtins run in parallel; what follows waits for all of them.
	t.Cleanup(func() {
		if !*repin {
			for k := range pinned {
				if !slices.Contains(keys, k) {
					t.Errorf("%s has a row no builtin produces: %s %s", pinsFile, k.Scenario, k.Column)
				}
			}
			return
		}
		if t.Failed() || len(got) != len(keys) {
			t.Fatalf("%s not rewritten: every row must run and pass its checks", pinsFile)
		}
		writePins(t, keys, pinned, got)
	})
}

// writePins rewrites the pin file, one row a line, and reports every row
// that moved, appeared or went.
func writePins(t *testing.T, keys []pinKey, before, after map[pinKey]string) {
	var buf bytes.Buffer
	var table []string
	sep := "[\n"
	for _, k := range keys {
		line, err := json.Marshal(pinRow{k, after[k]})
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString(sep)
		buf.Write(line)
		sep = ",\n"
		if old, ok := before[k]; !ok || old != after[k] {
			table = append(table, fmt.Sprintf("%-24s %-18s %-12.12s → %.12s", k.Scenario, k.Column, old, after[k]))
		}
		delete(before, k)
	}
	buf.WriteString("\n]\n")
	for k, old := range before {
		table = append(table, fmt.Sprintf("%-24s %-18s %-12.12s → (gone)", k.Scenario, k.Column, old))
	}
	if err := os.WriteFile(pinsFile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if len(table) > 0 {
		slices.Sort(table)
		t.Errorf("rewrote %s: %d of %d rows moved, appeared or went (before → after):\n%s",
			pinsFile, len(table), len(keys), strings.Join(table, "\n"))
	}
}

// pinColumns lists a builtin's columns in the order they run.
func pinColumns(sc scenario.Scenario) []pinColumn {
	q := sc.Quick()
	var one []byte // the seed1 JSON, which the shard-4 column compares to
	seed1 := func(t *testing.T) []byte {
		if one == nil {
			one = sweepJSON(t, q, Options{Seed: 1})
		}
		return one
	}
	cols := []pinColumn{
		{"seed1", seed1},
		{"seed1-shards4", func(t *testing.T) []byte {
			four := sweepJSON(t, q, Options{Seed: 1, Shards: 4})
			if a, b := shardInvariant(t, seed1(t)), shardInvariant(t, four); !bytes.Equal(a, b) {
				t.Errorf("four shards moved a shard-invariant field:\n%s\none shard:\n%s", b, a)
			}
			return four
		}},
		{"seed7", func(t *testing.T) []byte { return sweepJSON(t, q, Options{Seed: 7}) }},
		{"restore-shards4", func(t *testing.T) []byte { return restoreVerdicts(t, q, Options{Seed: 1, Shards: 4}) }},
	}
	restore1 := func(fixture scenario.Scenario) pinColumn {
		return pinColumn{"restore-shards1", func(t *testing.T) []byte {
			return restoreVerdicts(t, fixture, Options{Seed: 2})
		}}
	}
	switch sc.Name {
	case "paper-fig4":
		cols = append(cols, pinColumn{"golden", func(t *testing.T) []byte {
			return sweepJSON(t, sc, Options{Seed: 7, Loads: []float64{0.45, 0.7, 0.95}, Duration: 9 * des.Second})
		}})
	case "paper-fig6":
		cols = append(cols, pinColumn{"golden", func(t *testing.T) []byte {
			return sweepJSON(t, sc, Options{Seed: 7, NumHosts: 48, Loads: []float64{0.5, 0.9}, Duration: 6 * des.Second})
		}})
	case "paper-fig4c":
		// The adaptive curve's T/2 checkpoint lands inside a (σ, ρ, λ)
		// episode of the controller.
		fixture := q
		fixture.Combos = append(slices.Clone(q.Combos), scenario.Combo{Scheme: "adaptive"})
		cols = append(cols, restore1(fixture))
	case "waxman-zipf-16", "churn-waxman-16", "outage-waxman-16":
		cols = append(cols, restore1(q))
	case "waxman-zipf-64":
		for _, seed := range []uint64{1, 7} {
			cols = append(cols, pinColumn{fmt.Sprintf("membership-seed%d", seed), func(*testing.T) []byte {
				var b bytes.Buffer
				for g, spec := range sc.Groups(seed) {
					fmt.Fprintf(&b, "%d:%d:%v\n", g, spec.Source, spec.Members)
				}
				return b.Bytes()
			}})
		}
		for _, shards := range []int{1, 2, 4, 8} {
			cols = append(cols, pinColumn{fmt.Sprintf("census-shards%d", shards), func(t *testing.T) []byte {
				return census(t, q, shards)
			}})
		}
	}
	return cols
}

// sweepJSON runs one sweep and returns its JSON record; a sweep that
// delivered nothing or measured a WDB ≤ 0 fails the row.
func sweepJSON(t *testing.T, sc scenario.Scenario, opts Options) []byte {
	r, err := ScenarioSweep(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered == 0 {
		t.Errorf("no deliveries")
	}
	for _, c := range r.Curves {
		for i, y := range c.WDB.Y {
			if y <= 0 {
				t.Errorf("%v WDB %v at load %.2f", c.Combo, y, r.Loads[i])
			}
		}
	}
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// shardInvariant is a sweep record without what may differ between shard
// counts: the mean delays and the shard diagnostics.
func shardInvariant(t *testing.T, data []byte) []byte {
	rec, err := DecodeScenarioJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	rec.Shards = 0
	for i := range rec.Curves {
		c := &rec.Curves[i]
		c.MeanDelay, c.Shards, c.Epochs, c.CrossShardMsgs, c.StallShare = nil, nil, nil, nil, nil
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// restoreVerdicts runs SnapshotDiff and returns its verdicts without the
// snapshot's size and wall times, which the restore contract does not
// cover; every verdict must say "identical".
func restoreVerdicts(t *testing.T, sc scenario.Scenario, opts Options) []byte {
	lines, err := SnapshotDiff(sc, opts)
	if err != nil {
		t.Fatalf("%v\n%s", err, strings.Join(lines, "\n"))
	}
	var b bytes.Buffer
	for _, l := range lines {
		verdict, _, _ := strings.Cut(l, ", snapshot")
		if !strings.Contains(verdict, ": identical (") {
			t.Errorf("combo not verified: %s", l)
		}
		b.WriteString(verdict + "\n")
	}
	return b.Bytes()
}

// census renders a quick cell (the first combo at the first load, seed 1)
// at the given shard count: its deliveries, its scaling ceiling
// (Result.ShardCeiling, Σ events ÷ Σ per-epoch busiest-shard events) and
// its executed events by kind. All three are functions of the engine's
// event structure and epoch schedule alone, not of who executes them, so
// a change that brings back a timer per regulator, adds a per-packet
// event or moves what an epoch is moves the census.
func census(t *testing.T, sc scenario.Scenario, shards int) []byte {
	cfg, err := sc.SessionConfig(sc.Combos[0], sc.Loads[0], 1, core.SeedOpt{}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = shards
	s := core.NewSession(cfg)
	res := s.Run()
	acct := s.ShardAccount()
	var total, busiest uint64
	for _, n := range acct.Events {
		total += n
		busiest = max(busiest, n)
	}
	if c := res.ShardCeiling(); res.Shards != shards || c < 1 || c > float64(total)/float64(busiest) {
		t.Errorf("ran on %d shards with ceiling %v, want %d shards and a ceiling in [1, %v]",
			res.Shards, c, shards, float64(total)/float64(busiest))
	}
	b := fmt.Appendf(nil, "delivered %d\nceiling %v\n", res.Delivered, res.ShardCeiling())
	for k := range uint16(des.NumKinds) {
		var n uint64
		for _, shard := range acct.ByKind {
			n += shard[k]
		}
		if n > 0 {
			b = fmt.Appendf(b, "%s %d\n", des.KindName(k), n)
		}
	}
	t.Logf("%s", b)
	return b
}
