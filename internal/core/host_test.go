package core

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/des"
	"repro/internal/mux"
	"repro/internal/regulator"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func testEnv(eng *des.Engine, sent *[]int) *hostEnv {
	line := mux.NewLine(eng, 2, mux.LIFO, sentTo{sent})
	return &hostEnv{
		eng: eng,
		specs: []FlowSpec{
			{Rate: 100_000, Sigma: 10_000, Rho: 102_000},
			{Rate: 100_000, Sigma: 10_000, Rho: 102_000},
		},
		conn:   1_000_000,
		bursts: []float64{10_000, 10_000},
		line:   line,
		slabs:  compSlabs{reg: regulator.NewSlab(0, 0, 0, line.Pool())},
	}
}

// sentTo is a fabric with no delay that records the destination of every
// packet sent.
type sentTo struct{ to *[]int }

func (s sentTo) Latency(_, _ int) des.Duration { return 0 }

func (s sentTo) Carry(_, to int, _ des.Duration, _ traffic.Packet) { *s.to = append(*s.to, to) }

// newHost is a hand-built host in env, wired for its child sets under
// scheme as a session build wires it, less the adaptive controller.
func newHost(id int, env *hostEnv, children groupChildren, scheme Scheme) *host {
	env.scheme = scheme
	h := &host{id: int32(id), env: env}
	h.wire(children, make([]connPlan, children.slots()))
	return h
}

// denseChildren converts dense per-group child lists into the child sets
// compileChildren makes: the groups with children, ascending, and each
// child's edge naming its rank among the host's distinct children.
func denseChildren(lists [][]int) groupChildren {
	var conns []int
	for _, cs := range lists {
		conns = append(conns, cs...)
	}
	slices.Sort(conns)
	conns = slices.Compact(conns)
	var gc groupChildren
	for g, cs := range lists {
		if len(cs) == 0 {
			continue
		}
		var es []edge
		for _, c := range cs {
			k, _ := slices.BinarySearch(conns, c)
			es = append(es, edge{int32(c), int32(k)})
		}
		gc.groups = append(gc.groups, int32(g))
		gc.edges = append(gc.edges, es)
	}
	return gc
}

// childrenOf returns f's children in group g, in edge order.
func childrenOf(f *forwarder, g int) []int {
	var cs []int
	if i := f.children.find(g); i >= 0 {
		for _, e := range f.children.edges[i] {
			cs = append(cs, int(e.child))
		}
	}
	return cs
}

// TestHostRecordSize pins the record every host of a session has: an id,
// its environment and its forwarder, which a leaf leaves nil. Forwarding
// state in this record was 240 bytes per host, 24 MB of a started
// waxman-zipf-512 session whose 100,000 hosts hold 20,314 forwarders.
func TestHostRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(host{}); got > 24 {
		t.Fatalf("host record is %d bytes, want at most 24", got)
	}
}

// TestTopoHostRecordSize pins the network's per-host record, which every
// MUX a restore makes reads twice to price its link (Network.Latency): a
// router, an access delay and an uplink multiplier. Until the write-only
// coordinate and the id its index repeats went, it was 48 bytes, and two
// of them straddled more cache lines than a Latency call's other reads.
func TestTopoHostRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(topo.Host{}); got != 24 {
		t.Fatalf("topo.Host is %d bytes, want 24", got)
	}
}

func TestHostLeafBuildsNoMachinery(t *testing.T) {
	eng := des.New()
	var sent []int
	h := newHost(1, testEnv(eng, &sent), denseChildren([][]int{nil, nil}), SchemeSRL)
	if h.fwd != nil {
		t.Fatal("leaf host built forwarding machinery")
	}
	// Forwarding to a leaf is a no-op, not a crash.
	eng.Schedule(0, func() { h.forward(0, traffic.Packet{Flow: 0, Size: 1000}) })
	eng.Run()
	if len(sent) != 0 {
		t.Fatal("leaf host sent packets")
	}
}

func TestHostReplicatesPerGroupChildren(t *testing.T) {
	eng := des.New()
	var sent []int
	h := newHost(0, testEnv(eng, &sent), denseChildren([][]int{{1, 2}, {2, 3}}), SchemeCapacityAware)
	eng.Schedule(0, func() {
		h.forward(0, traffic.Packet{Flow: 0, Size: 1000})
		h.forward(1, traffic.Packet{Flow: 1, Size: 1000})
	})
	eng.Run()
	// Flow 0 -> children 1,2; flow 1 -> children 2,3.
	got := map[int]int{}
	for _, to := range sent {
		got[to]++
	}
	if got[1] != 1 || got[2] != 2 || got[3] != 1 {
		t.Fatalf("replication counts = %v", got)
	}
}

func TestHostDistinctConnectionsDeDuplicated(t *testing.T) {
	eng := des.New()
	var sent []int
	h := newHost(0, testEnv(eng, &sent), denseChildren([][]int{{1, 2}, {2, 1}}), SchemeSigmaRho)
	if len(h.fwd.muxes) != 2 {
		t.Fatalf("expected 2 connections, got %d", len(h.fwd.muxes))
	}
}

func TestHostModeSwitchKeepsForwarding(t *testing.T) {
	eng := des.New()
	var sent []int
	h := newHost(0, testEnv(eng, &sent), denseChildren([][]int{{1}, {1}}), SchemeSigmaRho)
	// Feed in σρ mode, switch to SRL mid-run, feed more.
	eng.Schedule(0, func() { h.forward(0, traffic.Packet{ID: 1, Flow: 0, Size: 1000}) })
	eng.Schedule(des.Millisecond, func() { h.setMode(SchemeSRL) })
	eng.Schedule(2*des.Millisecond, func() { h.forward(0, traffic.Packet{ID: 2, Flow: 0, Size: 1000}) })
	eng.RunUntil(30 * des.Second)
	if len(sent) != 2 {
		t.Fatalf("sent %d packets across a mode switch, want 2", len(sent))
	}
	if h.fwd.switches != 1 {
		t.Fatalf("switches = %d", h.fwd.switches)
	}
}

func TestHostModeSwitchRoundTrip(t *testing.T) {
	eng := des.New()
	var sent []int
	h := newHost(0, testEnv(eng, &sent), denseChildren([][]int{{1}, {1}}), SchemeSigmaRho)
	eng.Schedule(0, func() {
		h.setMode(SchemeSRL)
		h.setMode(SchemeSigmaRho)
		h.setMode(SchemeSRL)
		h.setMode(SchemeSRL) // no-op
	})
	eng.RunUntil(des.Second)
	if h.fwd.switches != 3 {
		t.Fatalf("switches = %d, want 3", h.fwd.switches)
	}
	if h.fwd.mode != SchemeSRL {
		t.Fatalf("mode = %v", h.fwd.mode)
	}
}

func TestHostSRLResidueDrainsAfterSwitchAway(t *testing.T) {
	eng := des.New()
	var sent []int
	h := newHost(0, testEnv(eng, &sent), denseChildren([][]int{{1}, {1}}), SchemeSRL)
	// Queue a packet while every SRL is off (cycles just started with
	// offsets), then immediately switch to σρ: the residue must drain.
	eng.Schedule(0, func() {
		h.forward(0, traffic.Packet{ID: 1, Flow: 0, Size: 1000})
		h.setMode(SchemeSigmaRho)
	})
	eng.RunUntil(10 * des.Second)
	if len(sent) != 1 {
		t.Fatalf("SRL residue lost on switch: sent %d", len(sent))
	}
}

func TestHostControllerSwitchesAboveThreshold(t *testing.T) {
	eng := des.New()
	var sent []int
	env := testEnv(eng, &sent)
	env.ctlEvery, env.threshold = 100*des.Millisecond, 0.15 // low threshold
	h := newHost(0, env, denseChildren([][]int{{1}, {1}}), SchemeAdaptive)
	h.startController()
	// Offered load ~0.2 of conn: 200 kbps vs 1 Mbps -> above 0.15.
	src := traffic.NewGreedy(0, 0, 200_000, 1000)
	src.Start(eng, 3*des.Second, func(p traffic.Packet) {
		h.observe(p)
		h.forward(0, p)
	})
	eng.RunUntil(3 * des.Second)
	if h.fwd.mode != SchemeSRL {
		t.Fatalf("controller did not engage SRL above threshold (mode %v)", h.fwd.mode)
	}
	if len(sent) == 0 {
		t.Fatal("nothing forwarded")
	}
}

func TestHostControllerStaysBelowThreshold(t *testing.T) {
	eng := des.New()
	var sent []int
	env := testEnv(eng, &sent)
	env.ctlEvery, env.threshold = 100*des.Millisecond, 0.9
	h := newHost(0, env, denseChildren([][]int{{1}, {1}}), SchemeAdaptive)
	h.startController()
	src := traffic.NewGreedy(0, 0, 200_000, 1000) // 0.2 of conn, below 0.9
	src.Start(eng, 2*des.Second, func(p traffic.Packet) {
		h.observe(p)
		h.forward(0, p)
	})
	eng.RunUntil(2 * des.Second)
	if h.fwd.mode != SchemeSigmaRho {
		t.Fatalf("controller left σρ mode below threshold (mode %v)", h.fwd.mode)
	}
	if h.fwd.switches != 0 {
		t.Fatalf("spurious switches: %d", h.fwd.switches)
	}
}

func TestHostCapacityAwareConnCap(t *testing.T) {
	eng := des.New()
	var sent []int
	env := testEnv(eng, &sent)
	env.capAware = true
	env.capFactor = 2.0
	h := newHost(0, env, denseChildren([][]int{{1, 2, 3}, nil}), SchemeCapacityAware)
	for _, m := range h.fwd.muxes {
		if c := muxField(m, "c").Float(); c != 2.0*1_000_000/3 {
			t.Fatalf("connection capacity %v, want aggregate/3", c)
		}
	}
}

// The (σ, ρ, λ) bursts are Theorem 1's σ*ᵢ, one row per connection
// capacity: at each capacity every flow's duty cycle has one period, no
// σ*ᵢ exceeds σᵢ, the flow attaining the minimum keeps its σᵢ exactly, and
// a homogeneous mix's σ* is its σ bit for bit.
func TestHostEnvSigmaStarsPerCapacity(t *testing.T) {
	env := &hostEnv{
		specs: []FlowSpec{
			{Rate: 1_500_000, Sigma: 400_000, Rho: 1_530_000},
			{Rate: 64_000, Sigma: 10_000, Rho: 65_280},
			{Rate: 64_000, Sigma: 10_000, Rho: 65_280},
		},
		bursts: []float64{400_000, 10_000, 10_000},
	}
	for _, c := range []float64{2_000_000, 4_000_000} {
		stars := env.sigmaStars(c)
		period := func(g int) float64 {
			rho := env.specs[g].Rho / c
			return stars[g] / (c * rho * (1 - rho))
		}
		for g := range stars {
			if math.Abs(period(g)-period(1)) > 1e-12*period(1) || stars[g] > env.bursts[g] {
				t.Fatalf("C=%v: flow %d σ* %v (σ %v), period %v against %v", c, g, stars[g], env.bursts[g], period(g), period(1))
			}
		}
		if stars[1] != env.bursts[1] || stars[0] >= env.bursts[0] {
			t.Fatalf("C=%v: σ* %v for σ %v; the audio flows attain the minimum", c, stars, env.bursts)
		}
	}
	if len(env.stars) != 2 || &env.sigmaStars(2_000_000)[0] != &env.stars[2_000_000][0] {
		t.Fatalf("%d rows for two capacities, or a row made twice", len(env.stars))
	}
	var sent []int
	homog := testEnv(des.New(), &sent)
	if stars := homog.sigmaStars(homog.conn); !slices.Equal(stars, homog.bursts) {
		t.Fatalf("homogeneous σ* %v, want σ %v", stars, homog.bursts)
	}
}

func TestHostEnvDefaultConnCap(t *testing.T) {
	env := &hostEnv{conn: 12345}
	if env.connectionCapacity(0, 7) != 12345 {
		t.Fatal("regulated schemes must get the full per-connection C")
	}
}

func TestHostEnvUplinkMultScalesCapacity(t *testing.T) {
	env := &hostEnv{conn: 1_000_000, mults: []float64{1, 0.5, 4}}
	if env.hostConn(0) != 1_000_000 || env.hostConn(1) != 500_000 || env.hostConn(2) != 4_000_000 {
		t.Fatalf("hostConn = %v/%v/%v", env.hostConn(0), env.hostConn(1), env.hostConn(2))
	}
	env.capAware = true
	env.capFactor = 2
	if env.connectionCapacity(1, 4) != 2*500_000/4.0 {
		t.Fatalf("capacity-aware connCap = %v", env.connectionCapacity(1, 4))
	}
}

func TestHostSetModePanicsOnAdaptive(t *testing.T) {
	eng := des.New()
	var sent []int
	h := newHost(0, testEnv(eng, &sent), denseChildren([][]int{{1}, nil}), SchemeSigmaRho)
	defer func() {
		if recover() == nil {
			t.Fatal("setMode(SchemeAdaptive) must panic — it is not a concrete mode")
		}
	}()
	h.setMode(SchemeAdaptive)
}

// TestForwarderLifeUnderChurn follows one host of an adaptive session
// through churn: a leaf that a join grafts a child under gets a forwarder,
// carved from its shard's arena;
// when that child leaves it keeps the forwarder, with its mode, switch
// count, banks and controller; a checkpoint taken then restores it so; and
// a later join under it runs bit-identically to the straight run. At one
// shard and at four.
func TestForwarderLifeUnderChurn(t *testing.T) {
	base := Config{NumHosts: 48, Mix: traffic.MixAudio, Load: 0.8, Scheme: SchemeAdaptive,
		Duration: 3 * des.Second, Seed: 11, Groups: partialGroups(48)}
	// The first outsider whose graft point is a host that forwards nothing.
	// The probe's trees are the blueprint's: a graft point runs on a clone,
	// as it builds its tree's live RTT index.
	probe := NewSession(base)
	g, joiner, parent := -1, -1, -1
	for gi, st := range probe.sub.groups {
		tree := st.tree.Clone()
		for h := 0; h < base.NumHosts && g < 0; h++ {
			if st.member.has(h) {
				continue
			}
			if p, err := st.strat.GraftPoint(probe.sub.net, tree, h, 0, st.lim); err == nil && probe.hosts[p].fwd == nil {
				g, joiner, parent = gi, h, p
			}
		}
	}
	if g < 0 {
		t.Fatal("fixture has no outsider that grafts under a leaf")
	}
	ms := func(n int) des.Time { return des.Time(n) * des.Time(des.Millisecond) }
	// The controller ticks every 250 ms from the first join, so nothing
	// but the leave moves the host between 1,050 and 1,200 ms.
	base.Events = []MembershipEvent{
		{At: ms(500), Group: g, Host: joiner, Join: true},
		{At: ms(1100), Group: g, Host: joiner},
		{At: ms(2000), Group: g, Host: joiner, Join: true},
	}
	type state struct {
		mode          Scheme
		switches      int32
		sr, srl, rate bool
		groups        int
	}
	stateOf := func(f *forwarder) state {
		return state{f.mode, f.switches, f.srBank != nil, f.srlBank != nil, f.rate != nil, len(f.children.groups)}
	}
	for _, shards := range []int{1, 4} {
		cfg := base
		cfg.Shards = shards
		s := NewSession(cfg)
		if s.hosts[parent].fwd != nil {
			t.Fatalf("shards=%d: host %d forwards before the join", shards, parent)
		}
		s.Start()
		s.RunTo(ms(1050))
		f := s.hosts[parent].fwd
		if f == nil || !slices.Equal(childrenOf(f, g), []int{joiner}) {
			t.Fatalf("shards=%d: host %d has no forwarder with child %d in group %d after the join", shards, parent, joiner, g)
		}
		// The new forwarder is carved from its shard's arena, which the
		// build sized for the hosts with children: the arena's next
		// forwarder sits right behind it.
		if next := s.hosts[parent].env.slabs.fwds.One(); uintptr(unsafe.Pointer(next)) != uintptr(unsafe.Pointer(f))+unsafe.Sizeof(*f) {
			t.Fatalf("shards=%d: host %d's forwarder is not in its shard's arena", shards, parent)
		}
		before := stateOf(f)
		s.RunTo(ms(1200))
		want := before
		want.groups = 0
		if s.hosts[parent].fwd != f || stateOf(f) != want {
			t.Fatalf("shards=%d: after the leave host %d holds %+v (forwarder kept: %v), want %+v",
				shards, parent, stateOf(f), s.hosts[parent].fwd == f, want)
		}
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r, err := Restore(cfg, blob)
		if err != nil {
			t.Fatal(err)
		}
		if rf := r.hosts[parent].fwd; rf == nil || stateOf(rf) != want {
			t.Fatalf("shards=%d: restored host %d holds %v, want a forwarder holding %+v", shards, parent, rf, want)
		}
		r.RunTo(ms(2050))
		if rf := r.hosts[parent].fwd; !slices.Equal(childrenOf(rf, g), []int{joiner}) {
			t.Fatalf("shards=%d: the second join did not graft %d under restored host %d", shards, joiner, parent)
		}
		if err := SameRun(Run(cfg), r.Finish(), NormRestore); err != nil {
			t.Fatalf("shards=%d: restored run diverged from the straight run: %v", shards, err)
		}
	}
}
