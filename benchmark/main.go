// Command benchmark is the repository's one performance benchmark: six
// simulator workloads generated from a seed, run end to end with tracing
// off, verified against the simulated statistics they must reproduce, and
// then traced layer by layer from outside the packages. See README.md.
//
//	go run -C benchmark .                          the whole suite
//	go run -C benchmark . -selfcheck               A/A run-to-run agreement
//	bash benchmark/run.sh --workload scale-10k --seed 3 --seconds 6 --trace 0
//
// The last form is the driver's contract: one workload, a measuring time,
// and one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// procs is P = min(nproc, 4): GOMAXPROCS for the process and the ceiling
// for sweep workers and shards.
var procs = min(runtime.NumCPU(), 4)

// boolValue is a boolean flag that takes its value as a separate
// argument too ("--trace 0"), which the standard bool flag does not.
type boolValue bool

func (b *boolValue) String() string { return fmt.Sprint(bool(*b)) }

func (b *boolValue) Set(s string) error {
	switch s {
	case "1", "true":
		*b = true
	case "0", "false":
		*b = false
	default:
		return fmt.Errorf("want 0, 1, true or false")
	}
	return nil
}

type options struct {
	seed      uint64
	workloads []workload
	reps      int
	seconds   float64
	trace     bool
	quick     bool
	selfcheck bool
	jsonPath  string
	outDir    string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	trace := boolValue(true)
	names := fs.String("workload", "", "comma-separated workload names (default: all six)")
	fs.Uint64Var(&o.seed, "seed", pinnedSeed, "input seed; expected.json pins seed 1")
	fs.IntVar(&o.reps, "reps", 3, "timed repetitions per workload, after one untimed warm-up")
	fs.Float64Var(&o.seconds, "seconds", 0, "driver mode: measure one workload for at least this long and end with one JSON line")
	fs.Var(&trace, "trace", "run the traced pass and the layer micro-drivers (in driver mode: instead of the untraced pass)")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: every scenario through Scenario.Quick, one repetition; never for claims")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced pass twice and fail if any metric's two medians disagree by more than its bound")
	fs.StringVar(&o.jsonPath, "json", "", "also write the full record to this file")
	fs.StringVar(&o.outDir, "out", "", "directory for trace files (default benchmark/out, or out inside benchmark/)")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	pinMode := fs.Bool("pin", false, "print expected.json for the current code at seed 1 and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	o.trace = bool(trace)
	if *printManifest {
		out, err := manifest()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		stdout.Write(out)
		return 0
	}
	if *names == "" {
		o.workloads = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, ok := findWorkload(n)
			if !ok {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", n)
				return 2
			}
			o.workloads = append(o.workloads, w)
		}
	}
	if o.outDir == "" {
		o.outDir = "out"
		if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
			o.outDir = "benchmark/out"
		}
	}
	runtime.GOMAXPROCS(procs)

	switch {
	case *pinMode:
		return runPin(stdout, stderr)
	case o.seconds > 0:
		return runDriver(o, stdout, stderr)
	case o.selfcheck:
		return runSelfcheck(o, stdout, stderr)
	default:
		return runSuite(o, stdout, stderr)
	}
}

// runDriver serves the driver's contract: one workload per process, the
// untraced pass (--trace 0, every end-to-end metric) or the traced pass
// and micro-drivers (--trace 1, every per-layer metric), and a last line
// with exactly the keys correct, attempted, failed and metrics.
func runDriver(o options, stdout, stderr io.Writer) int {
	if len(o.workloads) != 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds takes exactly one -workload")
		return 2
	}
	w := o.workloads[0]
	printHeader(stdout, o)
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	var failures []string
	if !o.trace {
		rec := measureE2E(w, o.seed, plan{reps: o.reps, seconds: o.seconds, quick: o.quick})
		printE2E(stdout, rec)
		out.Attempted, out.Failed, failures = rec.Attempted, rec.Failed, rec.Failures
		for _, m := range endToEnd {
			d, ok := rec.Metrics[m.Name]
			if !ok {
				failures = append(failures, w.name+": metric "+m.Name+" was not measured")
				continue
			}
			out.Metrics[m.Name] = value{d.Median, m.Unit}
		}
	} else {
		tr := tracePass(w, o.seed, o.quick)
		if err := tr.writeTrace(o.outDir); err != nil {
			tr.fail("trace file: " + err.Error())
		}
		micro, err := guarded(func() (map[string]layerValue, error) {
			return microDrivers(o.seed, microBudget(o.seconds, o.quick)), nil
		})
		tr.Attempted++
		if err != nil {
			tr.fail("micro-drivers: " + err.Error())
		}
		out.Attempted, out.Failed, failures = tr.Attempted, tr.Failed, tr.Failures
		layers := tr.Layers
		for k, v := range micro {
			layers[k] = v
		}
		printLayers(stdout, w.name, layers)
		for _, m := range perLayer {
			// A metric this workload does not exercise reads 0.
			out.Metrics[m.Name] = value{layers[m.Name].Value, m.Unit}
		}
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "FAIL", f)
	}
	out.Correct = len(failures) == 0 && out.Failed == 0
	if out.Attempted < 1 || len(out.Metrics) == 0 {
		fmt.Fprintln(stderr, "benchmark: nothing was measured")
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}
