package regulator

import (
	"testing"

	"repro/internal/des"
	"repro/internal/traffic"
)

func pkt(id uint64, size float64) traffic.Packet {
	return traffic.Packet{ID: id, Size: size}
}

// Following a shared clock started at time zero must be StartCycle's
// private clock exactly: same on/off trajectory, same emissions.
func TestSRLPhasedAtZeroMatchesStartCycle(t *testing.T) {
	run := func(shared bool) []des.Time {
		eng := des.New()
		var out []des.Time
		r := NewSRL(eng, 10_000, 250_000, 1_000_000, func(traffic.Packet) {
			out = append(out, eng.Now())
		})
		w, v := DutyCycle(r.Sigma, r.Rho, r.C)
		off := w * 2
		if shared {
			c := NewCycle(eng, off, w, v)
			c.Start()
			r.Follow(c)
			defer c.Stop()
		} else {
			r.StartCycle(off)
		}
		for i := 0; i < 30; i++ {
			i := i
			eng.Schedule(des.Millis(float64(5*i)), func() { r.Enqueue(pkt(uint64(i), 8_000)) })
		}
		eng.RunUntil(des.Seconds(1))
		r.StopCycle()
		return out
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("emission counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("emission %d at %v (StartCycle) vs %v (shared clock)", i, a[i], b[i])
		}
	}
}

// A regulator whose clock starts mid-run must be exactly in phase with one
// that has been cycling since time zero: a clock is anchored at zero.
func TestSRLPhasedMidRunAlignsWithGlobalSchedule(t *testing.T) {
	eng := des.New()
	ref := NewSRL(eng, 10_000, 250_000, 1_000_000, func(traffic.Packet) {})
	w, _ := DutyCycle(ref.Sigma, ref.Rho, ref.C)
	off := w / 2
	ref.StartCycle(off)
	late := NewSRL(eng, 10_000, 250_000, 1_000_000, func(traffic.Packet) {})
	// Attach at an arbitrary instant strictly inside the run.
	eng.Schedule(des.Millis(137), func() { late.StartCycle(off) })
	// Compare the on/off state of the two regulators at fine sample points
	// after the attach.
	mismatches := 0
	for i := 0; i < 400; i++ {
		at := des.Millis(140) + des.Duration(i)*des.Millis(1)/4
		eng.Schedule(at, func() {
			if ref.On() != late.On() {
				mismatches++
			}
		})
	}
	eng.RunUntil(des.Seconds(1))
	if mismatches > 0 {
		t.Fatalf("phased regulator out of phase at %d of 400 sample points", mismatches)
	}
}

// Detach must stop the duty cycle, close the gate, let a mid-transmission
// packet complete, and report the abandoned backlog — without disturbing
// a sibling regulator's schedule.
func TestSRLDetachDrainsInFlightAndReportsLoss(t *testing.T) {
	eng := des.New()
	var emitted []uint64
	r := NewSRL(eng, 10_000, 250_000, 1_000_000, func(p traffic.Packet) {
		emitted = append(emitted, p.ID)
	})
	sib := NewSRL(eng, 10_000, 250_000, 1_000_000, func(traffic.Packet) {})
	w, _ := DutyCycle(r.Sigma, r.Rho, r.C)
	r.StartCycle(0)
	sib.StartCycle(w)
	var dropped int
	eng.Schedule(0, func() {
		// Three packets: the first starts transmitting immediately (on
		// phase begins at 0), the other two are backlog.
		r.Enqueue(pkt(1, 8_000))
		r.Enqueue(pkt(2, 8_000))
		r.Enqueue(pkt(3, 8_000))
	})
	// Detach mid-transmission of packet 1 (8000 bits at 1 Mbps = 8 ms).
	eng.Schedule(des.Millis(4), func() { dropped = r.Detach() })
	sibOnBefore := make([]bool, 0, 50)
	for i := 0; i < 50; i++ {
		at := des.Millis(10) + des.Duration(i)*des.Millis(2)
		eng.Schedule(at, func() { sibOnBefore = append(sibOnBefore, sib.On()) })
	}
	eng.RunUntil(des.Seconds(1))
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (in-flight packet completes)", dropped)
	}
	if len(emitted) != 1 || emitted[0] != 1 {
		t.Fatalf("emitted %v, want just the in-flight packet 1", emitted)
	}
	if r.On() {
		t.Fatal("detached regulator still on")
	}

	// The sibling's observed schedule must equal a fresh run without the
	// detached regulator at all.
	eng2 := des.New()
	sib2 := NewSRL(eng2, 10_000, 250_000, 1_000_000, func(traffic.Packet) {})
	sib2.StartCycle(w)
	sibOnClean := make([]bool, 0, 50)
	for i := 0; i < 50; i++ {
		at := des.Millis(10) + des.Duration(i)*des.Millis(2)
		eng2.Schedule(at, func() { sibOnClean = append(sibOnClean, sib2.On()) })
	}
	eng2.RunUntil(des.Seconds(1))
	for i := range sibOnBefore {
		if sibOnBefore[i] != sibOnClean[i] {
			t.Fatalf("sibling schedule perturbed at sample %d", i)
		}
	}
}

func TestSigmaRhoDetachCancelsPendingWait(t *testing.T) {
	eng := des.New()
	emitted := 0
	s := NewSigmaRho(eng, 10_000, 250_000, func(traffic.Packet) { emitted++ })
	var dropped int
	eng.Schedule(0, func() {
		// Burst past the bucket: first packets pass, the rest wait.
		for i := 0; i < 6; i++ {
			s.Enqueue(pkt(uint64(i), 4_000))
		}
		dropped = s.Detach()
	})
	eng.Run()
	if emitted == 0 {
		t.Fatal("no packet passed before detach")
	}
	if dropped != 6-emitted {
		t.Fatalf("dropped = %d, emitted = %d, want them to cover all 6", dropped, emitted)
	}
	if evs, err := eng.PendingEvents(nil); err != nil || len(evs) != 0 {
		t.Fatalf("%d events still pending after detach (%v)", len(evs), err)
	}
}
