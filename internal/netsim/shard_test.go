package netsim

import (
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func shardTestNetwork(t *testing.T, hosts int) *topo.Network {
	t.Helper()
	return topo.NewNetwork(topo.Backbone19(), topo.NetworkConfig{NumHosts: hosts, Seed: 7})
}

func TestPartitionHostsRouterGranular(t *testing.T) {
	net := shardTestNetwork(t, 300)
	for _, n := range []int{1, 2, 4, 8} {
		owner := PartitionHosts(net, n)
		if len(owner) != 300 {
			t.Fatalf("n=%d: owner length %d", n, len(owner))
		}
		// Router granularity: hosts on one router share a shard.
		byRouter := map[topo.NodeID]int{}
		for h, s := range owner {
			r := net.Hosts[h].Router
			if prev, ok := byRouter[r]; ok && prev != s {
				t.Fatalf("n=%d: router %d split across shards %d and %d", n, r, prev, s)
			}
			byRouter[r] = s
			if s < 0 || s >= n {
				t.Fatalf("n=%d: host %d assigned to shard %d", n, h, s)
			}
		}
		used := NumShards(owner)
		if n <= 19 && used != n {
			t.Fatalf("n=%d: only %d shards used", n, used)
		}
		// Balance: no shard more than twice the ideal share (greedy on the
		// 19-domain backbone should stay well within this).
		if n > 1 {
			counts := make([]int, used)
			for _, s := range owner {
				counts[s]++
			}
			for s, c := range counts {
				if c == 0 {
					t.Fatalf("n=%d: shard %d empty", n, s)
				}
				if c > 2*300/n {
					t.Fatalf("n=%d: shard %d holds %d of 300 hosts", n, s, c)
				}
			}
		}
	}
}

func TestPartitionHostsDeterministic(t *testing.T) {
	net := shardTestNetwork(t, 200)
	a := PartitionHosts(net, 4)
	b := PartitionHosts(net, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("partition not deterministic at host %d", i)
		}
	}
}

func TestFabricRemoteHook(t *testing.T) {
	net := shardTestNetwork(t, 20)
	owner := PartitionHosts(net, 2)
	eng := des.New()
	var posted []int
	var postedAt []des.Time
	fab := NewFabric(eng, net, FabricConfig{
		Local: func(h int) bool { return owner[h] == 0 },
		Remote: func(dst int, at des.Time, p traffic.Packet) {
			posted = append(posted, dst)
			postedAt = append(postedAt, at)
		},
	})
	gotLocal := 0
	src, localDst, remoteDst := -1, -1, -1
	for h := range owner {
		switch {
		case owner[h] == 0 && src < 0:
			src = h
		case owner[h] == 0 && localDst < 0:
			localDst = h
		case owner[h] == 1 && remoteDst < 0:
			remoteDst = h
		}
	}
	if src < 0 || localDst < 0 || remoteDst < 0 {
		t.Skip("partition degenerate for this seed")
	}
	fab.SetReceiver(localDst, func(traffic.Packet) { gotLocal++ })
	fab.Send(src, localDst, traffic.Packet{Size: 1000})
	fab.Send(src, remoteDst, traffic.Packet{Size: 1000})
	eng.Run()
	if gotLocal != 1 {
		t.Fatalf("local delivery count = %d, want 1", gotLocal)
	}
	if len(posted) != 1 || posted[0] != remoteDst {
		t.Fatalf("remote hook saw %v, want [%d]", posted, remoteDst)
	}
	if want := net.Latency(src, remoteDst); postedAt[0] != want {
		t.Fatalf("remote arrival %v, want latency %v", postedAt[0], want)
	}
}

// TestLookaheadMatrixIsExactPairwiseMinimum checks every matrix entry
// against the O(hosts²) brute force: la[i][j] must equal the minimum
// latency over host pairs (a in shard i, b in shard j).
func TestLookaheadMatrixIsExactPairwiseMinimum(t *testing.T) {
	net := shardTestNetwork(t, 150)
	owner := PartitionHosts(net, 4)
	nsh := NumShards(owner)
	la, ok := LookaheadMatrix(net, owner)
	if !ok {
		t.Fatal("expected a cross-shard pair")
	}
	if len(la) != nsh {
		t.Fatalf("matrix has %d rows, want %d", len(la), nsh)
	}
	none := des.Time(1)<<62 - 1
	for i := 0; i < nsh; i++ {
		for j := 0; j < nsh; j++ {
			want := none
			if i != j {
				for a := range net.Hosts {
					if owner[a] != i {
						continue
					}
					for b := range net.Hosts {
						if owner[b] != j {
							continue
						}
						if d := net.Latency(a, b); d < want {
							want = d
						}
					}
				}
			}
			if la[i][j] != want {
				t.Fatalf("la[%d][%d] = %v, brute force = %v", i, j, la[i][j], want)
			}
			if i != j && la[i][j] <= 0 {
				t.Fatalf("la[%d][%d] = %v, must be positive", i, j, la[i][j])
			}
		}
	}
}

// TestLookaheadMatrixMixedRouters covers owner assignments that split a
// router's hosts across shards: entries must still match the brute force
// (same-router cross-shard pairs bound by access delays).
func TestLookaheadMatrixMixedRouters(t *testing.T) {
	net := shardTestNetwork(t, 80)
	owner := make([]int, 80)
	for h := range owner {
		owner[h] = h % 2
	}
	la, ok := LookaheadMatrix(net, owner)
	if !ok {
		t.Fatal("expected cross-shard pairs")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if i == j {
				continue
			}
			want := des.Time(1)<<62 - 1
			for a := range net.Hosts {
				for b := range net.Hosts {
					if a == b || owner[a] != i || owner[b] != j {
						continue
					}
					if d := net.Latency(a, b); d < want {
						want = d
					}
				}
			}
			if la[i][j] != want {
				t.Fatalf("la[%d][%d] = %v, brute force = %v", i, j, la[i][j], want)
			}
		}
	}
}

// TestLookaheadMatrixSingleShard: one shard has no cross-shard pair.
func TestLookaheadMatrixSingleShard(t *testing.T) {
	net := shardTestNetwork(t, 50)
	if _, ok := LookaheadMatrix(net, make([]int, 50)); ok {
		t.Fatal("single-shard assignment reported cross-shard lookahead")
	}
}

// TestCarryMatchesSend: a send on a link priced once (Latency, then Carry)
// is Send, event for event. Two fabrics over one network, one sharded
// partition and one partition cut take the same sends — local, remote,
// cut and to self — one through Send and one through Carry; their pending
// flights have the same (at, prio), their Remote hand-offs the same
// (dst, at, packet), their drops the same count and their deliveries the
// same (host, instant, packet).
func TestCarryMatchesSend(t *testing.T) {
	net := shardTestNetwork(t, 40)
	owner := PartitionHosts(net, 2)
	type handoff struct {
		dst int
		at  des.Time
		p   traffic.Packet
	}
	type delivery struct {
		host int
		at   des.Time
		id   uint64
	}
	type side struct {
		eng       *des.Engine
		fab       *Fabric
		handoffs  []handoff
		delivered []delivery
		dropped   int
	}
	build := func() *side {
		s := &side{eng: des.New()}
		s.fab = NewFabric(s.eng, net, FabricConfig{
			Local:  func(h int) bool { return owner[h] == 0 },
			Remote: func(dst int, at des.Time, p traffic.Packet) { s.handoffs = append(s.handoffs, handoff{dst, at, p}) },
			Drop: func(src, dst int) bool {
				if src%7 == 3 {
					s.dropped++
					return true
				}
				return false
			},
		})
		for h := range owner {
			h := h
			s.fab.SetReceiver(h, func(p traffic.Packet) { s.delivered = append(s.delivered, delivery{h, s.eng.Now(), p.ID}) })
		}
		return s
	}
	send, carry := build(), build()
	sends := func(round int) {
		id := uint64(round * 1000)
		for src := 0; src < len(owner); src += 3 {
			for dst := 0; dst < len(owner); dst += 5 {
				id++
				p := traffic.Packet{ID: id, Size: 1000}
				send.fab.Send(src, dst, p)
				carry.fab.Carry(src, dst, carry.fab.Latency(src, dst), p)
			}
		}
	}
	stamps := func(s *side) [][2]des.Time {
		evs, err := s.eng.PendingEvents(nil)
		if err != nil {
			t.Fatal(err)
		}
		var out [][2]des.Time
		for _, ev := range evs {
			out = append(out, [2]des.Time{ev.At, ev.Prio})
		}
		return out
	}
	for round := 0; round < 3; round++ {
		sends(round)
		a, b := stamps(send), stamps(carry)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("round %d: pending (at, prio) through Send %v, through Carry %v", round, a, b)
		}
		until := des.Time(round+1) * 3 * des.Millisecond
		send.eng.RunUntil(until)
		carry.eng.RunUntil(until)
	}
	send.eng.Run()
	carry.eng.Run()
	if len(send.handoffs) == 0 || send.dropped == 0 || len(send.delivered) == 0 {
		t.Fatalf("fixture exercises too little: %d hand-offs, %d drops, %d deliveries", len(send.handoffs), send.dropped, len(send.delivered))
	}
	if !reflect.DeepEqual(send.handoffs, carry.handoffs) || send.dropped != carry.dropped ||
		!reflect.DeepEqual(send.delivered, carry.delivered) || send.fab.Delivered != carry.fab.Delivered {
		t.Fatalf("Send and Carry differ: hand-offs %d/%d, drops %d/%d, deliveries %d/%d",
			len(send.handoffs), len(carry.handoffs), send.dropped, carry.dropped, len(send.delivered), len(carry.delivered))
	}
}
