package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// lastLine returns the last non-empty line of out.
func lastLine(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	return lines[len(lines)-1]
}

// TestQuickSuite runs the whole command in-process at -quick scale: every
// workload's untraced pass with its identity checks, the traced pass, the
// micro-drivers, the trace files and the -json record.
func TestQuickSuite(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-out", dir, "-json", filepath.Join(dir, "rec.json")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	var sum map[string]any
	if err := json.Unmarshal([]byte(lastLine(stdout.String())), &sum); err != nil {
		t.Fatalf("summary line: %v", err)
	}
	if claim, ok := sum["claim"]; !ok || claim != nil {
		t.Fatalf("summary must end with \"claim\": null, got %v", sum)
	}
	if !strings.HasSuffix(lastLine(stdout.String()), `"claim":null}`) {
		t.Fatalf("claim is not the summary's last key: %s", lastLine(stdout.String()))
	}
	if sum["failed"].(float64) != 0 || sum["workloads"].(float64) != float64(len(workloads)) {
		t.Fatalf("summary: %v", sum)
	}
	for _, m := range endToEnd {
		if !strings.Contains(stdout.String(), m.Name) {
			t.Errorf("metric %s is not printed", m.Name)
		}
	}
	for _, w := range workloads {
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct{ Spans []span }
		if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 {
			t.Fatalf("trace-%s.json: %d spans, err %v", w.name, len(tf.Spans), err)
		}
	}
	var rec record
	data, err := os.ReadFile(filepath.Join(dir, "rec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.EndToEnd) != len(workloads) || len(rec.Traced) != len(workloads) || len(rec.Micro) == 0 {
		t.Fatalf("record is incomplete: %d e2e, %d traced, %d micro", len(rec.EndToEnd), len(rec.Traced), len(rec.Micro))
	}
	for _, tr := range rec.Traced {
		if tr.Workload == "fig6-sweep" {
			continue // cells run concurrently under the sweep span
		}
		if u := tr.Layers["trace.unaccounted_share"].Value; u > 0.10 {
			t.Errorf("%s: trace.unaccounted_share = %v, want ≤ 0.10", tr.Workload, u)
		}
	}
}

// TestDriverContract checks the last line the driver parses, on the
// held-out seed: exactly the four keys, every end-to-end metric with
// --trace 0 and every per-layer metric with --trace 1.
func TestDriverContract(t *testing.T) {
	for _, tc := range []struct {
		trace string
		want  []string
	}{
		{"0", metricNames(endToEnd)},
		{"1", layerNames()},
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "churn-storm", "--seed", "7", "--seconds", "0.01", "--trace", tc.trace,
			"-quick", "-out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("--trace %s: exit %d\n%s", tc.trace, code, stderr.String())
		}
		var out map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lastLine(stdout.String())), &out); err != nil {
			t.Fatal(err)
		}
		if len(out) != 4 || out["correct"] == nil || out["attempted"] == nil || out["failed"] == nil || out["metrics"] == nil {
			t.Fatalf("--trace %s: %d keys in %s", tc.trace, len(out), lastLine(stdout.String()))
		}
		if string(out["correct"]) != "true" || string(out["failed"]) != "0" {
			t.Fatalf("--trace %s: %s", tc.trace, lastLine(stdout.String()))
		}
		var metrics map[string]value
		if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.want) {
			t.Fatalf("--trace %s: %d metrics, want %d", tc.trace, len(metrics), len(tc.want))
		}
		for _, name := range tc.want {
			if _, ok := metrics[name]; !ok {
				t.Errorf("--trace %s: metric %s is missing", tc.trace, name)
			}
		}
	}
}

func metricNames(ms []metric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	return names
}

func layerNames() []string {
	var names []string
	for _, m := range perLayer {
		names = append(names, m.Name)
	}
	return names
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such"},
		{"-seconds", "1"}, // driver mode needs exactly one workload
		{"-trace", "maybe"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestSelfTimes pins the span arithmetic: self time is duration minus the
// part of the interval direct children cover, clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "a.child", Parent: 1, StartNS: 15, EndNS: 25},
		{Name: "b", Parent: 0, StartNS: 50, EndNS: 120}, // overruns the parent
		{Name: "other-root", Parent: -1, StartNS: 0, EndNS: 7},
	}
	selfTimes(spans)
	for i, want := range []int64{100 - 30 - 50, 30 - 10, 10, 70, 7} {
		if spans[i].SelfNS != want {
			t.Errorf("%s: self %d, want %d", spans[i].Name, spans[i].SelfNS, want)
		}
	}
	if got := unaccountedShare(spans, 0); got != 0.2 {
		t.Errorf("unaccounted share %v, want 0.2", got)
	}
	// Children that cover more than the parent clip to zero, not negative.
	over := []span{
		{Parent: -1, StartNS: 0, EndNS: 10},
		{Parent: 0, StartNS: 0, EndNS: 10},
		{Parent: 0, StartNS: 0, EndNS: 10},
	}
	selfTimes(over)
	if over[0].SelfNS != 0 {
		t.Errorf("overlapping children: self %d, want 0", over[0].SelfNS)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder("w")
	var inner int
	rec.in("outer", 3, -1, func(id int) {
		inner = rec.start("inner", 3, id)
		rec.end(inner)
	})
	spans := rec.finish()
	if len(spans) != 2 || spans[inner].Parent != 0 || spans[0].Cell != 3 || spans[0].Workload != "w" {
		t.Fatalf("spans: %+v", spans)
	}
	if spans[0].SelfNS != spans[0].EndNS-spans[0].StartNS-(spans[1].EndNS-spans[1].StartNS) {
		t.Fatalf("outer self time does not exclude inner: %+v", spans)
	}
}

func TestMedianAndBound(t *testing.T) {
	if d := summarize([]float64{5, 1, 3}); d.Median != 3 || d.Min != 1 || d.Max != 5 || d.N != 3 {
		t.Errorf("odd: %+v", d)
	}
	if d := summarize([]float64{4, 1, 3, 2}); d.Median != 2.5 {
		t.Errorf("even: %+v", d)
	}
	if d := summarize(nil); d.N != 0 || d.Median != 0 {
		t.Errorf("empty: %+v", d)
	}
	// Higher is better: dropping from 100 to 89 is an 11% regression.
	if got := worsening(100, 89, true); got != 0.11 {
		t.Errorf("worsening higher: %v", got)
	}
	// Lower is better: rising from 100 to 105 is a 5% regression.
	if got := worsening(100, 105, false); got != 0.05 {
		t.Errorf("worsening lower: %v", got)
	}
	if !withinBound(100, 105, 0.10, false) || withinBound(100, 120, 0.10, false) {
		t.Error("withinBound, lower is better")
	}
	// Agreement is symmetric: neither median may be worse than the other
	// by more than the bound, whichever is taken as the parent.
	if withinBound(120, 100, 0.10, true) || withinBound(100, 120, 0.10, true) {
		t.Error("withinBound must hold in both directions")
	}
	g := gap{metric: metric{Better: "higher", Bound: 0.10}, a: 100, b: 95}
	if !g.ok() || g.share() < 0.05 {
		t.Errorf("gap: ok=%v share=%v", g.ok(), g.share())
	}
}

// TestCheckerReportsMismatch pins the failure line: workload, field,
// expected, got.
func TestCheckerReportsMismatch(t *testing.T) {
	c := &checker{workload: "scale-10k"}
	c.eq("delivered", uint64(10), uint64(10))
	c.eq("delivered", uint64(10), uint64(11))
	if c.ran != 2 || len(c.failures) != 1 || c.failures[0] != "scale-10k: delivered: expected 10, got 11" {
		t.Fatalf("checker: %+v", c)
	}
	w, _ := findWorkload("scale-10k")
	verifyPins(c, w, outcome{Delivered: 1})
	if !strings.Contains(strings.Join(c.failures, "\n"), "scale-10k: delivered: expected 1301747, got 1") {
		t.Fatalf("pin mismatch is not reported: %v", c.failures)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds the metric tables to the driver's limits, the pins
// to the workload list, and the committed BENCHMARK.json to -manifest.
func TestManifest(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	setup := 0
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v", m)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup++
		}
	}
	if setup != 1 {
		t.Error("exactly one setup_s metric is required")
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
		if _, ok := exp.Workloads[w.name]; !ok {
			t.Errorf("%s: no pin in expected.json", w.name)
		}
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes", len(want))
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run -C benchmark . -manifest > BENCHMARK.json`")
	}
}
