package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
)

// record is everything one suite run measured, as -json writes it.
type record struct {
	Procs    int                   `json:"procs"`
	NumCPU   int                   `json:"nproc"`
	Go       string                `json:"go"`
	GOARCH   string                `json:"goarch"`
	Commit   string                `json:"commit"`
	Seed     uint64                `json:"seed"`
	Quick    bool                  `json:"quick"`
	EndToEnd []e2e                 `json:"end_to_end"`
	Traced   []*traced             `json:"traced,omitempty"`
	Micro    map[string]layerValue `json:"micro,omitempty"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

func newRecord(o options) record {
	return record{Procs: procs, NumCPU: runtime.NumCPU(), Go: runtime.Version(),
		GOARCH: runtime.GOARCH, Commit: commit(), Seed: o.seed, Quick: o.quick}
}

func (o options) plan() plan { return plan{reps: o.reps, quick: o.quick} }

// untracedPass measures every selected workload end to end.
func untracedPass(o options, stdout io.Writer) []e2e {
	var recs []e2e
	for _, w := range o.workloads {
		rec := measureE2E(w, o.seed, o.plan())
		printE2E(stdout, rec)
		recs = append(recs, rec)
	}
	return recs
}

// summary is the last line of a suite run.
type summary struct {
	Workloads   int     `json:"workloads"`
	Attempted   int     `json:"attempted"`
	Failed      int     `json:"failed"`
	FailedShare float64 `json:"failed_share"`
	Claim       *string `json:"claim"`
}

// runSuite is the whole benchmark: the untraced pass over every workload,
// then (unless -trace=false) the traced pass and the micro-drivers.
func runSuite(o options, stdout, stderr io.Writer) int {
	printHeader(stdout, o)
	rec := newRecord(o)
	rec.EndToEnd = untracedPass(o, stdout)
	var sum summary
	var failures []string
	for _, r := range rec.EndToEnd {
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		failures = append(failures, r.Failures...)
	}
	if o.trace {
		for _, w := range o.workloads {
			tr := tracePass(w, o.seed, o.quick)
			if err := tr.writeTrace(o.outDir); err != nil {
				tr.fail("trace file: " + err.Error())
			}
			printLayers(stdout, w.name, tr.Layers)
			rec.Traced = append(rec.Traced, tr)
			sum.Attempted += tr.Attempted
			sum.Failed += tr.Failed
			failures = append(failures, tr.Failures...)
		}
		micro, err := guarded(func() (map[string]layerValue, error) {
			return microDrivers(o.seed, microBudget(0, o.quick)), nil
		})
		sum.Attempted++
		if err != nil {
			sum.Failed++
			failures = append(failures, "micro-drivers: "+err.Error())
		}
		rec.Micro = micro
		printLayers(stdout, "layer micro-drivers", micro)
		fmt.Fprintf(stdout, "\ntrace files: %s/trace-<workload>.json\n", o.outDir)
	}
	if o.jsonPath != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "FAIL", f)
	}
	sum.Workloads = len(o.workloads)
	if sum.Attempted > 0 {
		sum.FailedShare = float64(sum.Failed) / float64(sum.Attempted)
	}
	line, _ := json.Marshal(sum)
	fmt.Fprintf(stdout, "\n%s\n", line)
	if sum.Failed > 0 || len(failures) > 0 {
		return 1
	}
	return 0
}

// gap is one metric × workload row of -selfcheck.
type gap struct {
	workload string
	metric   metric
	a, b     float64
}

func (g gap) share() float64 { return disagreement(g.a, g.b, g.metric.higherIsBetter()) }

func (g gap) ok() bool { return withinBound(g.a, g.b, g.metric.Bound, g.metric.higherIsBetter()) }

// compare pairs up two untraced passes of the same code.
func compare(a, b []e2e) []gap {
	var gaps []gap
	for i := range a {
		for _, m := range endToEnd {
			gaps = append(gaps, gap{a[i].Workload, m, a[i].Metrics[m.Name].Median, b[i].Metrics[m.Name].Median})
		}
	}
	return gaps
}

// runSelfcheck is the benchmark's own run-to-run agreement test: the
// untraced pass twice in one process (A/A), every metric's two medians
// held to the metric's bound. A and B of one workload run back to back,
// so that slow drift of a shared box is not mistaken for disagreement.
func runSelfcheck(o options, stdout, stderr io.Writer) int {
	printHeader(stdout, o)
	var a, b []e2e
	for _, w := range o.workloads {
		one := o
		one.workloads = []workload{w}
		fmt.Fprintf(stdout, "\n# selfcheck %s: pass A, then pass B\n", w.name)
		a = append(a, untracedPass(one, stdout)...)
		b = append(b, untracedPass(one, stdout)...)
	}
	fmt.Fprintf(stdout, "\n== selfcheck: A/A medians\n   %-18s %-26s %14s %14s %8s %7s\n",
		"workload", "metric", "A", "B", "gap", "bound")
	bad := 0
	for _, g := range compare(a, b) {
		verdict := "ok"
		if !g.ok() {
			verdict = "EXCEEDS BOUND"
			bad++
		}
		fmt.Fprintf(stdout, "   %-18s %-26s %14.6g %14.6g %7.2f%% %6.0f%%  %s\n",
			g.workload, g.metric.Name, g.a, g.b, 100*g.share(), 100*g.metric.Bound, verdict)
	}
	failed := 0
	for _, r := range append(a, b...) {
		failed += r.Failed
		for _, f := range r.Failures {
			fmt.Fprintln(stderr, "FAIL", f)
		}
	}
	fmt.Fprintf(stdout, "\n{\"selfcheck_gaps_over_bound\": %d, \"failed\": %d, \"claim\": null}\n", bad, failed)
	if bad > 0 || failed > 0 {
		return 1
	}
	return 0
}

// runPin prints expected.json for the code as it stands: every workload
// at full size and pinnedSeed, the sharded one at each shard count a
// box of 1 to 4 cores would use.
func runPin(stdout, stderr io.Writer) int {
	exp := expectedFile{Seed: pinnedSeed, GOARCH: runtime.GOARCH, Workloads: map[string]pin{}}
	for _, w := range workloads {
		sc, err := w.spec(false)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		o, err := w.drive(sc, pinnedSeed)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", w.name, err)
			return 1
		}
		p := pinOf(o)
		if w.sharded {
			p.JSONSHA256 = ""
			p.ByShards = map[string]shardPin{}
			for n := 1; n <= 4; n++ {
				o, err := driveSweep(sc, pinnedSeed, n)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", w.name, err)
					return 1
				}
				p.ByShards[strconv.Itoa(n)] = shardPin{o.Epochs, o.CrossMsgs}
			}
		}
		exp.Workloads[w.name] = p
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
