package netsim

// Sharding support: partitioning the host population for conservative-
// parallel execution and extracting the model's lookahead — the minimum
// simulated latency any cross-shard packet can have, which bounds how far
// shards may run ahead of each other.
//
// Hosts are partitioned at router granularity: a router's whole local
// domain shares a shard. Same-router hosts exchange packets in as little
// as two access delays (~0.2 ms), while inter-domain paths also pay at
// least one backbone hop; keeping domains intact therefore multiplies the
// conservative lookahead — and with it the epoch width — by the backbone
// delay, and it keeps DSCT's domain-local traffic (the bulk of a tree's
// edges) off the cross-shard path entirely.

import (
	"sort"

	"repro/internal/des"
	"repro/internal/topo"
)

// PartitionHosts assigns whole router domains to at most n shards,
// balancing attached-host counts greedily (largest domain into the least-
// loaded shard, ties to the lowest index — a deterministic function of the
// network alone). It returns owner[host] = shard; the number of shards
// actually used is max(owner)+1, which is below n when the network has
// fewer populated domains than requested shards. n <= 1 yields the
// all-zero single-shard assignment.
func PartitionHosts(net *topo.Network, n int) []int {
	owner := make([]int, len(net.Hosts))
	if n <= 1 {
		return owner
	}
	type domain struct{ router, hosts int }
	var domains []domain
	for r := 0; r < net.Backbone.NumNodes(); r++ {
		if c := len(net.HostsAtRouter(topo.NodeID(r))); c > 0 {
			domains = append(domains, domain{router: r, hosts: c})
		}
	}
	if n > len(domains) {
		n = len(domains)
	}
	if n <= 1 {
		return owner
	}
	sort.Slice(domains, func(i, j int) bool {
		if domains[i].hosts != domains[j].hosts {
			return domains[i].hosts > domains[j].hosts
		}
		return domains[i].router < domains[j].router
	})
	load := make([]int, n)
	shardOf := make([]int, net.Backbone.NumNodes())
	for _, d := range domains {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		shardOf[d.router] = best
		load[best] += d.hosts
	}
	for h := range net.Hosts {
		owner[h] = shardOf[net.Hosts[h].Router]
	}
	return owner
}

// NumShards returns the shard count an owner assignment actually uses.
func NumShards(owner []int) int {
	max := 0
	for _, s := range owner {
		if s > max {
			max = s
		}
	}
	return max + 1
}

// LookaheadMatrix returns the per-(src, dst) shard-pair conservative
// lookahead under the given owner assignment: la[s][t] is the exact
// minimum host-to-host propagation latency from any host in shard s to
// any host in shard t (access + backbone shortest path + access, the
// fabric's delivery delay). Entries with no cross-shard path — and the
// diagonal — hold an effectively infinite sentinel (1<<62-1), which the
// coordinator's saturating arithmetic treats as "never constrains".
// Distant shard pairs get entries far above the global minimum, which is
// exactly the slack per-pair epoch bounds exploit. Computed over populated
// router pairs using each router's per-shard minimum access delay, so it
// is O(routers²) for router-granular partitions (every router hosts one
// shard), not O(hosts²). ok=false when no finite cross-shard entry exists
// (a single populated shard), which builds no per-router table at all.
func LookaheadMatrix(net *topo.Network, owner []int) (la [][]des.Duration, ok bool) {
	const none = des.Time(1)<<62 - 1
	nsh := NumShards(owner)
	la = make([][]des.Duration, nsh)
	cells := make([]des.Duration, nsh*nsh)
	for i := range la {
		la[i] = cells[i*nsh : (i+1)*nsh : (i+1)*nsh]
		for j := range la[i] {
			la[i][j] = none
		}
	}
	if nsh == 1 {
		return la, false
	}
	nr := net.Backbone.NumNodes()
	shards := make([][]int, nr)       // shard ids present at each router
	acc := make([][]des.Duration, nr) // parallel per-shard min access delay
	for h := range net.Hosts {
		r := net.Hosts[h].Router
		s := owner[h]
		d := net.Hosts[h].AccessDelay
		found := false
		for i, sh := range shards[r] {
			if sh == s {
				if d < acc[r][i] {
					acc[r][i] = d
				}
				found = true
				break
			}
		}
		if !found {
			shards[r] = append(shards[r], s)
			acc[r] = append(acc[r], d)
		}
	}
	upd := func(s, t int, d des.Duration) {
		if d < la[s][t] {
			la[s][t] = d
		}
	}
	for a := 0; a < nr; a++ {
		if len(shards[a]) == 0 {
			continue
		}
		// A router whose domain spans shards (not produced by
		// PartitionHosts, but legal input): two access delays, no backbone
		// hop, in both directions.
		for i, s := range shards[a] {
			for j, t := range shards[a] {
				if i != j {
					upd(s, t, acc[a][i]+acc[a][j])
				}
			}
		}
		for b := 0; b < nr; b++ {
			if b == a || len(shards[b]) == 0 {
				continue
			}
			core := net.Routes.Delay[a][b]
			if core < 0 {
				continue // unreachable pair cannot exchange packets
			}
			for i, s := range shards[a] {
				for j, t := range shards[b] {
					if s != t {
						upd(s, t, acc[a][i]+core+acc[b][j])
					}
				}
			}
		}
	}
	for i := range la {
		for j := range la[i] {
			if i != j && la[i][j] != none {
				ok = true
			}
		}
	}
	return la, ok
}
