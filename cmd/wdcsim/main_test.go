package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
)

func TestListScenarios(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list-scenarios"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"paper-fig4", "paper-fig6", "churn-waxman-16", "waxman-zipf-16"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("listing missing %q:\n%s", want, out.String())
		}
	}
	// The routers and faults columns: header present, the default backbone
	// resolves to 19 routers, and the outage scenario reports its fault
	// event count.
	lines := strings.Split(out.String(), "\n")
	headerLine := lines[0]
	for _, col := range []string{"routers", "faults"} {
		if !strings.Contains(headerLine, col) {
			t.Fatalf("listing header missing %q column:\n%s", col, headerLine)
		}
	}
	routersCol := strings.Index(headerLine, "routers")
	faultsCol := strings.Index(headerLine, "faults")
	for _, line := range lines[1:] {
		switch {
		case strings.HasPrefix(line, "paper-fig6"):
			if !strings.HasPrefix(line[routersCol:], "19") {
				t.Fatalf("paper-fig6 routers column want 19:\n%s", line)
			}
		case strings.HasPrefix(line, "outage-waxman-16"):
			if !strings.HasPrefix(line[faultsCol:], "3") {
				t.Fatalf("outage-waxman-16 faults column want 3:\n%s", line)
			}
		case strings.HasPrefix(line, "paper-fig4 "):
			// The one-hop preset lists like any entry: its one-router wire.
			if !strings.Contains(line, " wire ") || !strings.HasPrefix(line[routersCol:], "1 ") ||
				!strings.HasPrefix(line[faultsCol:], "-") {
				t.Fatalf("paper-fig4 should list the wire underlay, one router, no faults:\n%s", line)
			}
		}
	}
}

// TestListScenariosSortedStable pins the listing order: registry entries
// print in sorted name order, identically across invocations — never in
// map-iteration order.
func TestListScenariosSortedStable(t *testing.T) {
	render := func() string {
		var out, errOut bytes.Buffer
		if code := run([]string{"-list-scenarios"}, &out, &errOut); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		return out.String()
	}
	first := render()
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if len(lines) < 3 {
		t.Fatalf("listing too short:\n%s", first)
	}
	var names []string
	for _, line := range lines[1:] { // skip header
		fields := strings.Fields(line)
		if len(fields) > 0 {
			names = append(names, fields[0])
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("scenario names not sorted: %v", names)
	}
	for i := 0; i < 5; i++ {
		if render() != first {
			t.Fatal("listing not stable across invocations")
		}
	}
}

// TestScenarioShardsFlag smoke-tests a sharded scenario run through the
// CLI.
func TestScenarioShardsFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scenario", "waxman-zipf-16", "-quick", "-duration", "1", "-shards", "3"},
		&out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "deliveries") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
	// The per-shard account closes a sharded run's text output, is the same
	// bytes whoever executed the shards (pool worker inline or runners),
	// and is absent from a one-shard run.
	if !strings.Contains(out.String(), "Sharded execution at load") ||
		!strings.Contains(out.String(), "events per shard") {
		t.Fatalf("sharded text output lacks the shard account:\n%s", out.String())
	}
	var seq, one bytes.Buffer
	run([]string{"-scenario", "waxman-zipf-16", "-quick", "-duration", "1", "-shards", "3", "-workers", "1"}, &seq, &errOut)
	if seq.String() != out.String() {
		t.Fatalf("-workers 1 changed a sharded run's output:\n%s\nvs\n%s", seq.String(), out.String())
	}
	run([]string{"-scenario", "waxman-zipf-16", "-quick", "-duration", "1", "-shards", "1"}, &one, &errOut)
	if strings.Contains(one.String(), "Sharded execution") {
		t.Fatalf("one-shard output carries a shard account:\n%s", one.String())
	}
}

// TestScenarioEndsInsidePartition: cut to 2.5 s, outage-waxman-16 ends
// with its 2.2 s partition open — the 2.8 s heal is filtered out, a valid
// schedule — and must still report (it exited 2 with "overlay: parent
// cycle" from Finish).
func TestScenarioEndsInsidePartition(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scenario", "outage-waxman-16", "-quick", "-duration", "2.5"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "scenario outage-waxman-16") || !strings.Contains(out.String(), "partition") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestScenarioRunQuick(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scenario", "ring-sparse", "-quick", "-duration", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "scenario ring-sparse") ||
		!strings.Contains(out.String(), "deliveries") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestScenarioJSONOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scenario", "churn-waxman-16", "-quick", "-duration", "1", "-json"},
		&out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var rec struct {
		Scenario string    `json:"scenario"`
		Loads    []float64 `json:"loads"`
		Curves   []struct {
			Combo string    `json:"combo"`
			WDB   []float64 `json:"wdb"`
		} `json:"curves"`
	}
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if rec.Scenario != "churn-waxman-16" || len(rec.Curves) == 0 || len(rec.Loads) == 0 {
		t.Fatalf("JSON record incomplete: %+v", rec)
	}
}

func TestSingleExperimentQuick(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "rhostar"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "rate threshold") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

// A paper figure is a sweep like any other: -json emits the harness
// record of its registry entry.
func TestExpJSONDecodes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig6a", "-quick", "-hosts", "40", "-duration", "2", "-json"},
		&out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	rec, err := harness.DecodeScenarioJSON(out.Bytes())
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if rec.Scenario != "paper-fig6" || len(rec.Curves) != 6 || len(rec.Loads) != 5 {
		t.Fatalf("record: scenario %q, %d curves, %d loads", rec.Scenario, len(rec.Curves), len(rec.Loads))
	}
}

// curveRows extracts the WDB rows ("0.35  0.0755 ...") of a printed sweep;
// layerRows the layer-table rows ("0.35  2  2").
func curveRows(out string) []string {
	return regexp.MustCompile(`(?m)^0\.\d\d +\d+\.\d{4}.*$`).FindAllString(out, -1)
}

func layerRows(out string) []string {
	return regexp.MustCompile(`(?m)^0\.\d\d +\d+( .*)?$`).FindAllString(out, -1)
}

// -exp ids name registry entries: -exp fig4a prints the curve rows of
// -scenario paper-fig4 under the same overrides, and -quick under -exp is
// harness.Quick's grid passed as explicit overrides.
func TestExpMatchesScenarioRows(t *testing.T) {
	var viaExp, viaScenario, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig4a", "-duration", "2"}, &viaExp, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if code := run([]string{"-scenario", "paper-fig4", "-duration", "2"}, &viaScenario, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	rows := curveRows(viaExp.String())
	if len(rows) != 13 || strings.Join(rows, "\n") != strings.Join(curveRows(viaScenario.String()), "\n") {
		t.Fatalf("-exp fig4a and -scenario paper-fig4 disagree:\n%s\nvs\n%s", viaExp.String(), viaScenario.String())
	}

	// EXPERIMENTS.md §1's quick-scale Fig. 4(a) numbers (5 loads, 13 s).
	var quick bytes.Buffer
	if code := run([]string{"-exp", "fig4a", "-quick"}, &quick, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	want := [][]string{
		{"0.35", "0.0755", "0.2893"},
		{"0.50", "0.1404", "0.3028"},
		{"0.65", "0.2694", "0.2974"},
		{"0.80", "0.5394", "0.2987"},
		{"0.95", "1.9513", "0.2984"},
	}
	rows = curveRows(quick.String())
	if len(rows) != len(want) {
		t.Fatalf("-exp fig4a -quick printed %d rows:\n%s", len(rows), quick.String())
	}
	for i, row := range rows {
		if got := strings.Fields(row); !slices.Equal(got, want[i]) {
			t.Fatalf("-exp fig4a -quick row %d = %v, want %v", i, got, want[i])
		}
	}
	for _, line := range []string{"Fig. 4(a)", "crossover=0.80 (theory 0.79); max improvement 6.54x at 0.95"} {
		if !strings.Contains(quick.String(), line) {
			t.Fatalf("output missing %q:\n%s", line, quick.String())
		}
	}
}

// Tables I–III print only the layer table of their fig6 entry; -adaptive
// adds a curve to any sweep that has none.
func TestExpTableAndAdaptive(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "table2", "-quick", "-hosts", "60"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Table II") || !strings.Contains(out.String(), "capacity-aware dsct") ||
		strings.Contains(out.String(), "[s]") || len(layerRows(out.String())) != 5 {
		t.Fatalf("table output unexpected:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-exp", "fig4c", "-quick", "-duration", "2", "-adaptive"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "adaptive [s]") {
		t.Fatalf("adaptive column missing:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-scenario", "paper-fig6", "-quick", "-adaptive", "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	rec, err := harness.DecodeScenarioJSON(out.Bytes())
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if len(rec.Curves) != 7 || rec.Curves[6].Combo != "adaptive" || rec.Curves[6].Strategy != "dsct" {
		t.Fatalf("paper-fig6 -adaptive: %d curves, last %+v", len(rec.Curves), rec.Curves[len(rec.Curves)-1])
	}
}

// The one-hop preset takes every sweep flag: a shard request (its single
// router domain resolves to one shard, so the output is the one-shard
// output) and the checkpoint differential, mid-switch adaptive included.
func TestOneHopPresetTakesSweepFlags(t *testing.T) {
	var one, four, diff, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig4b", "-quick", "-duration", "2", "-shards", "1"}, &one, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if code := run([]string{"-exp", "fig4b", "-quick", "-duration", "2", "-shards", "4"}, &four, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if one.String() != four.String() || len(curveRows(one.String())) != 5 {
		t.Fatalf("-shards 4 changed the one-hop sweep:\n%s\nvs\n%s", four.String(), one.String())
	}
	if code := run([]string{"-scenario", "paper-fig4c", "-quick", "-adaptive", "-snapshot-diff"}, &diff, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s\n%s", code, errOut.String(), diff.String())
	}
	if strings.Count(diff.String(), "identical") != 3 || strings.Contains(diff.String(), "DIVERGED") {
		t.Fatalf("snapshot diff output unexpected:\n%s", diff.String())
	}
}

func TestHelpExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Fatalf("-h: exit %d, want 0 (usage is not an error)", code)
	}
	if !strings.Contains(errOut.String(), "-scenario") {
		t.Fatalf("usage text missing:\n%s", errOut.String())
	}
}

func TestBadFlagsExitNonZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig99"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown experiment: exit %d", code)
	}
	if code := run([]string{"-scenario", "no-such"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown scenario: exit %d", code)
	}
	if code := run([]string{"-exp", "fig2", "-json"}, &out, &errOut); code != 2 {
		t.Fatalf("-json without -scenario: exit %d", code)
	}
}

// TestScenarioStrategyFlag forces a scenario run onto one overlay
// strategy and checks the comparison table reflects it.
func TestScenarioStrategyFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scenario", "waxman-zipf-16", "-quick", "-duration", "1",
		"-strategy", "greedy"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Per-strategy comparison") ||
		!strings.Contains(out.String(), "greedy") {
		t.Fatalf("strategy table missing:\n%s", out.String())
	}
	if code := run([]string{"-scenario", "waxman-zipf-16", "-quick", "-strategy", "no-such"},
		&out, &errOut); code == 0 {
		t.Fatal("unknown strategy accepted")
	}
}

// -strategy only applies to sweeps, like -json.
func TestStrategyFlagRequiresScenario(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig2", "-strategy", "spt"}, &out, &errOut); code != 2 {
		t.Fatalf("-strategy without -scenario: exit %d", code)
	}
	if !strings.Contains(errOut.String(), "-strategy") {
		t.Fatalf("unhelpful error: %s", errOut.String())
	}
}

// TestSnapshotDiffFlag drives the checkpoint/restore differential through
// the CLI: every combo must report identical, and each verdict names the
// shard count the run had.
func TestSnapshotDiffFlag(t *testing.T) {
	verdict := regexp.MustCompile(`identical \(\d+ deliveries, snapshot \d+ bytes in \d+\.\d\d ms, restore \d+\.\d\d ms, shards (\d+)\)$`)
	for _, shards := range []string{"1", "4"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-scenario", "waxman-zipf-16", "-quick", "-duration", "1",
			"-shards", shards, "-snapshot-diff"}, &out, &errOut); code != 0 {
			t.Fatalf("-shards %s: exit %d, stderr: %s\n%s", shards, code, errOut.String(), out.String())
		}
		if strings.Contains(out.String(), "DIVERGED") {
			t.Fatalf("-shards %s: snapshot diff output unexpected:\n%s", shards, out.String())
		}
		// Each verdict carries the checkpoint's cost and the run's shard count.
		verdicts := 0
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.Contains(line, "identical") {
				continue
			}
			m := verdict.FindStringSubmatch(line)
			if m == nil || m[1] != shards {
				t.Fatalf("-shards %s: verdict line does not carry the snapshot size, Snapshot / Restore times and shards %s:\n%s", shards, shards, line)
			}
			verdicts++
		}
		if verdicts == 0 {
			t.Fatalf("-shards %s: no identical verdict:\n%s", shards, out.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig2", "-snapshot-diff"}, &out, &errOut); code != 2 {
		t.Fatalf("-snapshot-diff without -scenario: exit %d", code)
	}
}

// TestFleetFlagGuards pins the fleet flag grammar; the full worker
// protocol is covered in internal/harness (spawning real subprocesses
// from a unit test would race the test binary's own flags).
func TestFleetFlagGuards(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig2", "-fleet", "2"}, &out, &errOut); code != 2 {
		t.Fatalf("-fleet without -scenario: exit %d", code)
	}
	if !strings.Contains(errOut.String(), "-fleet") {
		t.Fatalf("unhelpful error: %s", errOut.String())
	}
	if code := run([]string{"-fleet-worker", "/no/such/dir"}, &out, &errOut); code != 1 {
		t.Fatalf("-fleet-worker on a missing dir: exit %d, want 1", code)
	}
}

// TestShardsFlagRejectsGarbage pins the flag grammar: a count, 0 meaning
// GOMAXPROCS. Anything else — a word, "auto" among them, or a negative
// count — exits 2; an unset flag and -shards 0 print what -shards
// GOMAXPROCS prints.
func TestShardsFlagRejectsGarbage(t *testing.T) {
	for _, v := range []string{"lots", "auto", "-3"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-scenario", "ring-sparse", "-shards", v}, &out, &errOut); code != 2 {
			t.Fatalf("-shards %s: exit %d, want 2", v, code)
		}
	}
	args := []string{"-scenario", "waxman-zipf-16", "-quick", "-duration", "1"}
	procs := strconv.Itoa(runtime.GOMAXPROCS(0))
	var want, errOut bytes.Buffer
	if code := run(append(args, "-shards", procs), &want, &errOut); code != 0 {
		t.Fatalf("-shards %s: exit %d, stderr: %s", procs, code, errOut.String())
	}
	for _, extra := range [][]string{nil, {"-shards", "0"}} {
		var got bytes.Buffer
		if code := run(append(args, extra...), &got, &errOut); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", extra, code, errOut.String())
		}
		if got.String() != want.String() {
			t.Fatalf("%v differs from -shards %s:\n%s\nvs\n%s", extra, procs, got.String(), want.String())
		}
	}
}

// TestBadFlagValuesExitTwo: a numeric flag no run can take exits 2 with one
// "wdcsim: …" line, before any output — not a stack trace mid-sweep, and not
// a silent fall-back to the default.
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "paper-fig6", "-quick", "-hosts", "1"},
		{"-scenario", "paper-fig6", "-quick", "-hosts", "-3"},
		{"-scenario", "paper-fig6", "-quick", "-duration", "-1"},
		{"-scenario", "paper-fig6", "-quick", "-duration", "NaN"},
		{"-scenario", "paper-fig6", "-quick", "-duration", "1e11"},
		{"-scenario", "paper-fig6", "-quick", "-duration", "1e-12"},
		{"-scenario", "paper-fig6", "-quick", "-workers", "-2"},
		{"-scenario", "paper-fig6", "-quick", "-fleet", "-1"},
	} {
		var out, errOut bytes.Buffer
		code := func() (code int) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%v: panicked: %v", args, r)
				}
			}()
			return run(args, &out, &errOut)
		}()
		msg := errOut.String()
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.HasPrefix(msg, "wdcsim: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one \"wdcsim: …\" line", args, msg)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before failing", args, out.String())
		}
	}
}
