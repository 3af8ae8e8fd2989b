package main

import (
	"runtime"
	"time"

	"repro/internal/calculus"
	"repro/internal/des"
	"repro/internal/mux"
	"repro/internal/netsim"
	"repro/internal/overlay"
	"repro/internal/regulator"
	"repro/internal/snap"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// The layer micro-drivers time calls into one package's public functions
// on inputs generated from the benchmark seed. Each runs for about the
// given budget; none of them feeds an end-to-end number.

// microBudget is the wall time each micro-driver runs for: about 1 s in
// the suite, the driver's measuring time shared out in driver mode, and a
// token amount under -quick.
func microBudget(seconds float64, quick bool) time.Duration {
	switch {
	case quick:
		return 5 * time.Millisecond
	case seconds > 0:
		return time.Duration(seconds / 24 * float64(time.Second))
	}
	return time.Second
}

// nsPerOp repeats step, which performs and returns a number of operations,
// until the budget is spent, and reports host nanoseconds and allocations
// per operation.
func nsPerOp(budget time.Duration, step func() int) layerValue {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	ops := 0
	t0 := time.Now()
	for ops == 0 || time.Since(t0) < budget {
		ops += step()
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms)
	return layerValue{
		Value:  float64(el.Nanoseconds()) / float64(ops),
		Allocs: float64(ms.Mallocs-mallocs) / float64(ops),
	}
}

const (
	microHosts   = 2000 // the Waxman-64 population of the overlay drivers
	microRouters = 64
)

func microDrivers(seed uint64, budget time.Duration) map[string]layerValue {
	out := map[string]layerValue{}
	net := topo.NewNetwork(topo.Waxman{N: microRouters}.Build(seed),
		topo.NetworkConfig{NumHosts: microHosts, Seed: seed})
	microOverlay(out, net, seed, budget)
	microDES(out, seed, budget)
	microShaping(out, budget)
	microNetsim(out, net, seed, budget)
	microBookkeeping(out, seed, budget)
	return out
}

// microOverlay builds every tree family over all 2000 hosts, then cycles
// the dynamic operations churn and re-optimization lean on.
func microOverlay(out map[string]layerValue, net *topo.Network, seed uint64, budget time.Duration) {
	members := make([]int, microHosts)
	for i := range members {
		members[i] = i
	}
	cfg := overlay.Config{K: 3, Seed: seed}
	usPerMember := func(build func() (*overlay.Tree, error)) layerValue {
		v := nsPerOp(budget, func() int {
			if _, err := build(); err != nil {
				panic(err)
			}
			return len(members)
		})
		v.Value /= 1e3
		return v
	}
	for _, name := range []string{"dsct", "nice", "spt", "greedy"} {
		strat := overlay.MustStrategy(name)
		out["overlay.build_"+name+"_us_per_member"] = usPerMember(func() (*overlay.Tree, error) {
			return strat.Build(net, members, 0, cfg)
		})
	}
	out["overlay.build_flat_us_per_member"] = usPerMember(func() (*overlay.Tree, error) {
		return overlay.BuildFlat(net, members, 0, overlay.DefaultGreedyFanout)
	})

	// One cycle is a leave (Prune + Repair of the orphans), the same host
	// joining again (GraftPoint + Graft), and a rewire (Reparent) undone by
	// a second one so that the tree does not drift out of shape.
	strat := overlay.MustStrategy("dsct")
	tree, err := strat.Build(net, members, 0, cfg)
	if err != nil {
		panic(err)
	}
	lim := strat.Limits(cfg, microHosts)
	rng := xrand.New(seed)
	v := nsPerOp(budget, func() int {
		h := 1 + rng.Intn(microHosts-1)
		orphans, err := tree.Prune(h)
		if err != nil {
			panic(err)
		}
		if _, err := tree.Repair(net, orphans, lim.MaxFanout, lim.MaxHeight); err != nil {
			panic(err)
		}
		parent, err := tree.GraftPoint(net, h, 0, lim.MaxFanout, lim.MaxHeight)
		if err != nil {
			panic(err)
		}
		if err := tree.Graft(h, parent); err != nil {
			panic(err)
		}
		x, y := 1+rng.Intn(microHosts-1), rng.Intn(microHosts)
		if old := tree.Parent(x); y != old && !tree.InSubtree(x, y) {
			if err := tree.Reparent(x, y); err != nil {
				panic(err)
			}
			if err := tree.Reparent(x, old); err != nil {
				panic(err)
			}
		}
		return 4
	})
	v.Value /= 1e3
	out["overlay.graft_prune_us_per_op"] = v
}

// steadyEngine is the regulator-shaped steady state: n self-rescheduling
// timers at mixed co-prime periods, pool warmed.
func steadyEngine(n int) *des.Engine {
	eng := des.New()
	for i := 0; i < n; i++ {
		period := des.Duration(500_000 + 7919*i)
		var tick func()
		tick = func() { eng.ScheduleIn(period, tick) }
		eng.ScheduleIn(period, tick)
	}
	for i := 0; i < 2*n; i++ {
		eng.Step()
	}
	return eng
}

func microDES(out map[string]layerValue, seed uint64, budget time.Duration) {
	for _, pop := range []struct {
		name string
		n    int
	}{{"des.steady_256_ns_per_event", 256}, {"des.steady_100k_ns_per_event", 100_000}} {
		eng := steadyEngine(pop.n)
		out[pop.name] = nsPerOp(budget, func() int {
			for i := 0; i < 4096; i++ {
				eng.Step()
			}
			return 4096
		})
	}
	out["des.allocs_per_event"] = plain(out["des.steady_256_ns_per_event"].Allocs)

	// One chain of events inside a single wheel tick (8192 ns), filed in
	// shuffled order, so draining the bucket sorts the whole chain.
	const chain = 4096
	offsets := xrand.New(seed).Perm(chain)
	eng := des.New()
	nop := func() {}
	out["des.burst_ns_per_event"] = nsPerOp(budget, func() int {
		base := (eng.Now()>>13 + 256) << 13
		for _, off := range offsets {
			eng.Schedule(base+des.Time(2*off), nop)
		}
		eng.Run()
		return chain
	})

	eng = des.New()
	evs := make([]des.Event, 256)
	out["des.schedule_cancel_ns_per_op"] = nsPerOp(budget, func() int {
		now := eng.Now()
		for j := range evs {
			evs[j] = eng.Schedule(now+des.Time(1000*(j+1)), nop)
		}
		for j := 0; j < len(evs); j += 2 {
			eng.Cancel(evs[j])
		}
		eng.Run()
		return len(evs) + len(evs)/2
	})

	// Sixteen payloads bounce between two engines, one lookahead per hop,
	// so every epoch hands each of them across the boundary once.
	const la = des.Duration(1000)
	engines := []*des.Engine{des.New(), des.New()}
	co := des.NewCoordinatorMatrix[int](engines, [][]des.Duration{{0, la}, {la, 0}})
	co.OnDeliver(func(dst, p int) { co.PostPayload(dst, 1-dst, engines[dst].Now()+la, p) })
	for i := 0; i < 16; i++ {
		co.PostPayload(i%2, 1-i%2, la+des.Time(i), i)
	}
	deadline := des.Time(0)
	out["des.coordinator_ns_per_msg"] = nsPerOp(budget, func() int {
		before := co.Messages()
		deadline += 256 * la
		co.Run(deadline)
		return int(co.Messages() - before)
	})
}

// microShaping drives extremal video-rate flows through each regulator
// and through the LIFO MUX, counting packets out.
func microShaping(out map[string]layerValue, budget time.Duration) {
	const (
		rate   = traffic.VideoRate
		rho    = 1.02 * rate
		burst  = 0.15
		simSec = 240 // 20 extremal periods per step
	)
	until := des.Seconds(simSec)
	shape := func(wire func(eng *des.Engine, sink func(traffic.Packet)) (in func(traffic.Packet), stop func()), flows []int) layerValue {
		return nsPerOp(budget, func() int {
			eng := des.New()
			pkts := 0
			in, stop := wire(eng, func(traffic.Packet) { pkts++ })
			for _, f := range flows {
				traffic.NewExtremal(f, rate, rho, burst).Start(eng, until, in)
			}
			eng.RunUntil(until + des.Second)
			if stop != nil {
				stop()
			}
			return pkts
		})
	}
	one := []int{0}
	out["traffic.extremal_ns_per_pkt"] = shape(func(_ *des.Engine, sink func(traffic.Packet)) (func(traffic.Packet), func()) {
		return sink, nil
	}, one)
	out["regulator.sigma_rho_ns_per_pkt"] = shape(func(eng *des.Engine, sink func(traffic.Packet)) (func(traffic.Packet), func()) {
		return regulator.NewSigmaRho(eng, burst*rho, rho, sink).Enqueue, nil
	}, one)
	out["regulator.srl_ns_per_pkt"] = shape(func(eng *des.Engine, sink func(traffic.Packet)) (func(traffic.Packet), func()) {
		reg := regulator.NewSRL(eng, burst*rho, rho, 4*rho, sink)
		reg.StartCycle(0)
		return reg.Enqueue, reg.StopCycle
	}, one)
	// k3 is the paper's host; k512 declares 512 flows of which eight,
	// spread over the id range, ever arrive — the sparse slots of a
	// 100k-host session's MUX.
	lifo := func(k int, flows []int) layerValue {
		c := float64(len(flows)) * rate / 0.8
		return shape(func(eng *des.Engine, sink func(traffic.Packet)) (func(traffic.Packet), func()) {
			return mux.New(eng, k, c, mux.LIFO, sink).Enqueue, nil
		}, flows)
	}
	out["mux.lifo_k3_ns_per_pkt"] = lifo(3, []int{0, 1, 2})
	out["mux.lifo_k512_ns_per_pkt"] = lifo(512, []int{0, 73, 146, 219, 292, 365, 438, 511})
}

func microNetsim(out map[string]layerValue, net *topo.Network, seed uint64, budget time.Duration) {
	eng := des.New()
	fab := netsim.NewFabric(eng, net, netsim.FabricConfig{})
	got := 0
	recv := func(traffic.Packet) { got++ }
	for h := 0; h < microHosts; h++ {
		fab.SetReceiver(h, recv)
	}
	rng := xrand.New(seed)
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(microHosts), rng.Intn(microHosts)}
	}
	out["netsim.pipe_send_ns_per_pkt"] = nsPerOp(budget, func() int {
		for _, p := range pairs {
			fab.Send(p[0], p[1], traffic.Packet{Size: 10_000})
		}
		eng.Run()
		return len(pairs)
	})

	// What a sharded build adds to set-up, at the scale-10k population.
	big := topo.NewNetwork(topo.Waxman{N: 128}.Build(seed), topo.NetworkConfig{NumHosts: 10_000, Seed: seed})
	v := nsPerOp(budget, func() int {
		owner := netsim.PartitionHosts(big, max(procs, 2))
		if _, ok := netsim.LookaheadMatrix(big, owner); !ok {
			panic("netsim: no lookahead between shards")
		}
		return 1
	})
	out["netsim.partition_lookahead_s"] = plain(v.Value / 1e9)
}

// microBookkeeping covers the per-sample and per-byte costs under every
// delivery and every snapshot, and the closed-form bound.
func microBookkeeping(out map[string]layerValue, seed uint64, budget time.Duration) {
	rng := xrand.New(seed)
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = rng.Float64()
	}

	meter := traffic.NewMeter(traffic.VideoRate)
	var now des.Time
	out["traffic.meter_ns_per_obs"] = nsPerOp(budget, func() int {
		for _, d := range delays {
			now += des.Time(1 + d*1e6)
			meter.Observe(now, 10_000)
		}
		return len(delays)
	})

	var mt stats.MaxTracker
	var wf stats.Welford
	wm := stats.NewWindowMax(1)
	var tag uint64
	out["stats.observe_ns_per_sample"] = nsPerOp(budget, func() int {
		for _, d := range delays {
			tag++
			mt.Observe(d, tag)
			wf.Add(d)
			wm.Observe(float64(tag%64_000)/1000, d)
		}
		return len(delays)
	})

	// Records of eight integers and four floats, 100 bytes of payload
	// each, about 1 MB per blob.
	const records = 10_000
	var blob []byte
	write := nsPerOp(budget, func() int {
		w := snap.NewWriterSize(1, len(blob))
		for r := 0; r < records; r++ {
			w.Begin(1)
			for i := 0; i < 8; i++ {
				w.U64(uint64(r + i))
			}
			for i := 0; i < 4; i++ {
				w.F64(delays[(r+i)%len(delays)])
			}
			w.End()
		}
		var err error
		if blob, err = w.Finish(); err != nil {
			panic(err)
		}
		return len(blob)
	})
	var sum uint64
	read := nsPerOp(budget, func() int {
		r, _, err := snap.NewReader(blob)
		if err != nil {
			panic(err)
		}
		for {
			if _, ok := r.Next(); !ok {
				break
			}
			for i := 0; i < 8; i++ {
				sum += r.U64()
			}
			for i := 0; i < 4; i++ {
				sum += uint64(r.F64())
			}
		}
		if r.Err() != nil {
			panic(r.Err())
		}
		return len(blob)
	})
	runtime.KeepAlive(sum)
	// ns per byte → MB per second.
	out["snap.write_mb_per_s"] = plain(1e3 / write.Value)
	out["snap.read_mb_per_s"] = plain(1e3 / read.Value)

	sigmas, rhos := []float64{0.05, 0.04, 0.03}, []float64{0.3, 0.25, 0.2}
	var acc float64
	out["calculus.bound_ns_per_call"] = nsPerOp(budget, func() int {
		for h := 2; h < 66; h++ {
			acc += calculus.MulticastDhatHetero(h, sigmas, rhos)
			acc += calculus.MulticastDgHetero(h, sigmas, rhos)
		}
		return 128
	})
	runtime.KeepAlive(acc)
}
