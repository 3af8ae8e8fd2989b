package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
)

// commit names the code under test from the VCS stamp go build leaves in
// the binary; "unknown" under go run and in a checkout that is not a
// repository (the driver's).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printHeader(w io.Writer, o options) {
	names := make([]string, len(o.workloads))
	for i, wl := range o.workloads {
		names[i] = wl.name
	}
	fmt.Fprintf(w, "# wdc benchmark: P=%d nproc=%d %s %s/%s commit=%s seed=%d quick=%v\n",
		procs, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit(), o.seed, o.quick)
	fmt.Fprintf(w, "# workloads: %s\n", strings.Join(names, ","))
}

// printE2E prints one workload's end-to-end metrics by name and unit: the
// median is the value, with sample count, min and max beside it.
func printE2E(w io.Writer, rec e2e) {
	fmt.Fprintf(w, "\n== %s (untraced, seed %d): %d cells, %d checkpoint cycles, reps %s s\n",
		rec.Workload, rec.Seed, rec.Cells, rec.Cycles, fmtFloats(rec.RepWall))
	s := rec.Simulated
	fmt.Fprintf(w, "   simulated: delivered=%d lost=%d wdb=%v joins=%d leaves=%d regrafts=%d reopt_moves=%d\n",
		s.Delivered, s.Lost, s.WDB, s.Joins, s.Leaves, s.Regrafts, s.ReoptMoves)
	for _, m := range endToEnd {
		d := rec.Metrics[m.Name]
		fmt.Fprintf(w, "   %-26s %14.6g %-6s n=%d min=%.6g max=%.6g  (%s is better, bound %.0f%%)\n",
			m.Name, d.Median, m.Unit, d.N, d.Min, d.Max, m.Better, 100*m.Bound)
	}
	fmt.Fprintf(w, "   %-26s %14.6g %-6s %d failed of %d operations (any increase is a regression)\n",
		"failed_share", rec.failedShare(), "share", rec.Failed, rec.Attempted)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
}

// layerValue is one per-layer metric with the allocations per operation
// measured beside it (-1 when the metric is not a per-operation time).
type layerValue struct {
	Value  float64 `json:"value"`
	Allocs float64 `json:"allocs_per_op"`
}

func plain(v float64) layerValue { return layerValue{Value: v, Allocs: -1} }

func printLayers(w io.Writer, title string, layers map[string]layerValue) {
	fmt.Fprintf(w, "\n== %s (traced pass and micro-drivers)\n", title)
	for _, m := range perLayer {
		v, ok := layers[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-36s %14.6g %-6s", m.Name, v.Value, m.Unit)
		if v.Allocs >= 0 {
			fmt.Fprintf(w, " %.3g allocs/op", v.Allocs)
		}
		fmt.Fprintln(w)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
