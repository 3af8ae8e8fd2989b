package core

import (
	"runtime"

	"repro/internal/des"
)

// ShardProbe is one auto-tune measurement: a candidate shard count and the
// barrier-stall share a short probe run measured at it.
type ShardProbe struct {
	Shards     int
	StallShare float64
	Epochs     uint64
}

// DefaultShardCandidates returns the shard counts AutoTuneShards probes
// when the caller passes none: powers of two from 2 up to GOMAXPROCS —
// none on one core, where a shard has no core to run on.
func DefaultShardCandidates() []int {
	var cands []int
	for n := 2; n <= runtime.GOMAXPROCS(0); n *= 2 {
		cands = append(cands, n)
	}
	return cands
}

// AutoTuneShards picks a shard count for cfg by measurement: it runs a
// short probe session at each candidate count and returns the one whose
// barrier-stall share — the fraction of shard-step capacity idled waiting
// at epoch barriers, a deterministic event-count ratio independent of
// machine load — is smallest. Ties break toward fewer shards (less
// coordination for the same balance). Candidates above GOMAXPROCS are
// never proposed — the extra shards would share a runner and pay barriers
// for no core — so on one core it returns 1 without probing. Candidates
// that collapse to a sequential run (partition produced one shard) are
// skipped; if every candidate collapses, it returns 1.
//
// probe is the simulated duration of each probe run; 0 means one tenth of
// cfg.Duration, floored at one simulated second. Stall share is a property
// of how evenly the partition splits event load across epochs, which a
// short prefix of the run already exhibits; probing the full duration
// would cost more than the tuning saves.
//
// The probes run sequentially on the calling goroutine — each sharded
// probe already spreads over the cores, so overlapping probes would just
// contend with each other.
func AutoTuneShards(cfg Config, candidates []int, probe des.Duration) (int, []ShardProbe) {
	procs := runtime.GOMAXPROCS(0)
	if len(candidates) == 0 {
		candidates = DefaultShardCandidates()
	}
	if probe <= 0 {
		probe = cfg.Duration / 10
		if probe < des.Second {
			probe = des.Second
		}
	}
	if cfg.Duration > 0 && probe > cfg.Duration {
		probe = cfg.Duration
	}
	pcfg := cfg
	pcfg.Duration = probe

	best := 1
	bestStall := 0.0
	var probes []ShardProbe
	for _, n := range candidates {
		if n < 2 || n > procs {
			continue
		}
		pcfg.Shards = n
		r := Run(pcfg)
		if r.Shards < 2 {
			continue // partition collapsed: candidate is not really sharded
		}
		probes = append(probes, ShardProbe{Shards: r.Shards, StallShare: r.StallShare, Epochs: r.Epochs})
		if best == 1 || r.StallShare < bestStall {
			best, bestStall = n, r.StallShare
		}
	}
	return best, probes
}
