package main

import (
	"encoding/json"
)

// metric is one named number the benchmark prints. The tables below are
// the single source of BENCHMARK.json (written by -manifest) and of the
// bounds -selfcheck compares against.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func (m metric) higherIsBetter() bool { return m.Better == "higher" }

// Bounds are the share of the parent's median by which a metric may get
// worse before a change counts as a regression. Each is at least three
// times the widest quartile spread seen over ten seeds on a shared 2-core
// box (README.md, "Noise floor"): about 7% for the two timings, where the
// seed's topology and membership move the cost of a delivery more than
// the box does, about 1% for the allocation counts and 2% for the
// smallest workload's live heap.
var endToEnd = []metric{
	{"deliveries_per_s", "1/s", "higher", 0.25},
	{"cpu_ns_per_delivery", "ns", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_kdelivery", "count", "lower", 0.05},
	{"alloc_bytes_per_delivery", "B", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.08},
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayer lists the traced pass's metrics, grouped by package. The arrow
// table in README.md says which end-to-end metric each should move, on
// which workload.
var perLayer = []layerMetric{
	{"scenario.compile_s", "s", "lower"},
	{"scenario.events", "count", "lower"},
	{"topo.generate_s", "s", "lower"},
	{"topo.latency_ns", "ns", "lower"},
	{"overlay.build_dsct_us_per_member", "us", "lower"},
	{"overlay.build_nice_us_per_member", "us", "lower"},
	{"overlay.build_spt_us_per_member", "us", "lower"},
	{"overlay.build_greedy_us_per_member", "us", "lower"},
	{"overlay.build_flat_us_per_member", "us", "lower"},
	{"overlay.graft_prune_us_per_op", "us", "lower"},
	{"core.build_cold_s", "s", "lower"},
	{"core.build_warm_s", "s", "lower"},
	{"core.run_s", "s", "lower"},
	{"core.drain_s", "s", "lower"},
	{"core.run_ns_per_delivery", "ns", "lower"},
	{"core.snapshot_ms", "ms", "lower"},
	{"core.snapshot_mb", "MB", "lower"},
	{"core.restore_ms", "ms", "lower"},
	{"core.epochs", "count", "lower"},
	{"core.cross_shard_msgs", "count", "lower"},
	{"core.stall_share", "share", "lower"},
	{"core.shard_speedup", "x", "higher"},
	{"core.joins", "count", "higher"},
	{"core.leaves", "count", "higher"},
	{"core.regrafts", "count", "lower"},
	{"core.reopt_moves", "count", "lower"},
	{"core.lost", "count", "lower"},
	{"core.ctl_us_per_event", "us", "lower"},
	{"des.steady_256_ns_per_event", "ns", "lower"},
	{"des.steady_100k_ns_per_event", "ns", "lower"},
	{"des.burst_ns_per_event", "ns", "lower"},
	{"des.schedule_cancel_ns_per_op", "ns", "lower"},
	{"des.allocs_per_event", "count", "lower"},
	{"des.coordinator_ns_per_msg", "ns", "lower"},
	{"regulator.sigma_rho_ns_per_pkt", "ns", "lower"},
	{"regulator.srl_ns_per_pkt", "ns", "lower"},
	{"mux.lifo_k3_ns_per_pkt", "ns", "lower"},
	{"mux.lifo_k512_ns_per_pkt", "ns", "lower"},
	{"netsim.pipe_send_ns_per_pkt", "ns", "lower"},
	{"netsim.partition_lookahead_s", "s", "lower"},
	{"traffic.extremal_ns_per_pkt", "ns", "lower"},
	{"traffic.meter_ns_per_obs", "ns", "lower"},
	{"stats.observe_ns_per_sample", "ns", "lower"},
	{"snap.write_mb_per_s", "MB/s", "higher"},
	{"snap.read_mb_per_s", "MB/s", "higher"},
	{"harness.pool_efficiency", "share", "higher"},
	{"harness.json_ms", "ms", "lower"},
	{"harness.json_bytes", "B", "lower"},
	{"calculus.bound_ns_per_call", "ns", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"trace.unaccounted_share", "share", "lower"},
}

// value is one metric as the driver's contract wants it printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []metric      `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	return append(out, '\n'), err
}

// runSeconds is the measuring time the driver passes as --seconds.
const runSeconds = 6
