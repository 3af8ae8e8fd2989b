package netsim

import (
	"testing"

	"repro/internal/des"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// pipe is the fabric's pure-delay conduit: a flight pool delivering to out.
func pipe(eng *des.Engine, out func(traffic.Packet)) *flightPool {
	return newFlightPool(eng, func(_ int, p traffic.Packet) { out(p) })
}

func TestPipeDelaysExactly(t *testing.T) {
	eng := des.New()
	var at des.Time = -1
	p := pipe(eng, func(traffic.Packet) { at = eng.Now() })
	eng.Schedule(des.Millisecond, func() { p.send(eng, 5*des.Millisecond, 0, traffic.Packet{ID: 1, Size: 100}) })
	eng.Run()
	if at != 6*des.Millisecond {
		t.Fatalf("delivered at %v", at)
	}
}

func TestPipeNoSerialisation(t *testing.T) {
	// Two packets sent together arrive together: pipes have no capacity.
	eng := des.New()
	var times []des.Time
	p := pipe(eng, func(traffic.Packet) { times = append(times, eng.Now()) })
	eng.Schedule(0, func() {
		p.send(eng, des.Millisecond, 0, traffic.Packet{ID: 1, Size: 1e9})
		p.send(eng, des.Millisecond, 0, traffic.Packet{ID: 2, Size: 1e9})
	})
	eng.Run()
	if len(times) != 2 || times[0] != times[1] {
		t.Fatalf("times = %v", times)
	}
}

func testNetwork(t *testing.T) *topo.Network {
	t.Helper()
	return topo.NewNetwork(topo.Backbone19(), topo.NetworkConfig{NumHosts: 60, Seed: 4})
}

func TestFabricPipeModeMatchesLatency(t *testing.T) {
	net := testNetwork(t)
	eng := des.New()
	f := NewFabric(eng, net, FabricConfig{})
	var at des.Time = -1
	f.SetReceiver(7, func(p traffic.Packet) { at = eng.Now() })
	eng.Schedule(0, func() { f.Send(3, 7, traffic.Packet{ID: 1, Size: 1000}) })
	eng.Run()
	if at != net.Latency(3, 7) {
		t.Fatalf("delivered at %v, want %v", at, net.Latency(3, 7))
	}
	if f.Delivered != 1 {
		t.Fatalf("delivered counter = %d", f.Delivered)
	}
}

func TestFabricSelfSendImmediate(t *testing.T) {
	net := testNetwork(t)
	eng := des.New()
	f := NewFabric(eng, net, FabricConfig{})
	got := false
	f.SetReceiver(5, func(traffic.Packet) { got = true })
	eng.Schedule(0, func() { f.Send(5, 5, traffic.Packet{ID: 1}) })
	eng.Run()
	if !got {
		t.Fatal("self-send not delivered")
	}
}

func BenchmarkFabricPipeSend(b *testing.B) {
	net := topo.NewNetwork(topo.Backbone19(), topo.NetworkConfig{NumHosts: 100, Seed: 1})
	eng := des.New()
	f := NewFabric(eng, net, FabricConfig{})
	f.SetReceiver(50, func(traffic.Packet) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(eng.Now(), func() { f.Send(1, 50, traffic.Packet{Size: 1000}) })
		eng.Step()
	}
}

// TestFabricDropHook: the partition hook runs once per send, after the
// self-send shortcut; a dropped packet never reaches the receiver and is
// not counted as delivered — the hook owns the accounting.
func TestFabricDropHook(t *testing.T) {
	net := testNetwork(t)
	eng := des.New()
	dropped := 0
	cut := true
	f := NewFabric(eng, net, FabricConfig{
		Drop: func(src, dst int) bool {
			if cut && src == 3 {
				dropped++
				return true
			}
			return false
		}})
	got := 0
	f.SetReceiver(7, func(traffic.Packet) { got++ })
	f.SetReceiver(3, func(traffic.Packet) { got++ })
	eng.Schedule(0, func() { f.Send(3, 7, traffic.Packet{ID: 1, Size: 100}) })
	eng.Schedule(0, func() { f.Send(3, 3, traffic.Packet{ID: 2, Size: 100}) }) // self-send bypasses the hook
	eng.Schedule(des.Millisecond, func() { cut = false })
	eng.Schedule(2*des.Millisecond, func() { f.Send(3, 7, traffic.Packet{ID: 3, Size: 100}) })
	eng.Run()
	if dropped != 1 {
		t.Fatalf("hook dropped %d packets, want 1", dropped)
	}
	if got != 2 {
		t.Fatalf("delivered %d packets, want 2 (self-send + post-heal)", got)
	}
	if f.Delivered != 2 {
		t.Fatalf("delivered counter = %d, want 2", f.Delivered)
	}
}
