package traffic

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/snap"
)

// TestRestorePacketBounds: a packet round-trips through its fixed-width
// layout, and a flow outside [0, flows) or a size that is not in
// (0, MaxPacketBits] — zero, negative, infinite, not a number, absurdly
// large — fails the reader at the decode instead of overflowing a
// serialisation time later.
func TestRestorePacketBounds(t *testing.T) {
	restore := func(p Packet, flows int) (Packet, error) {
		w := snap.NewWriterSize(1, 0)
		w.Begin(1)
		p.Snapshot(w)
		w.End()
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != len(snap.Magic)+4+6+PacketSnapBytes {
			t.Fatalf("a packet occupies %d payload bytes, PacketSnapBytes = %d", len(data)-len(snap.Magic)-10, PacketSnapBytes)
		}
		r, _, _ := snap.NewReader(data)
		r.Next()
		return RestorePacket(r, flows), r.Err()
	}
	good := Packet{ID: 1 << 40, Flow: 2, Size: 10_000, CreatedAt: 123456789}
	if got, err := restore(good, 3); err != nil || got != good {
		t.Fatalf("round trip: got %+v, %v", got, err)
	}
	if _, err := restore(good, 2); err == nil {
		t.Error("flow 2 of 2 accepted")
	}
	for _, size := range []float64{0, -1, math.Inf(1), math.NaN(), 2 * MaxPacketBits, 1e300} {
		bad := good
		bad.Size = size
		if _, err := restore(bad, 3); err == nil {
			t.Errorf("size %v accepted", size)
		}
	}
	if _, err := restore(Packet{Size: MaxPacketBits}, 1); err != nil {
		t.Errorf("size MaxPacketBits refused: %v", err)
	}
}

// TestSourcesResumeAllocFree: a source is the handler of its own events, so
// re-binding it (Resume, as a checkpoint restore does) and running it for a
// period — Extremal's cycle, Audio's mean talkspurt and silence, Video's
// group of pictures — allocates nothing past what its sink does.
func TestSourcesResumeAllocFree(t *testing.T) {
	type resumable interface {
		Source
		Resume(eng *des.Engine, until des.Time, out Sink)
	}
	audio, video := new(Audio).init(0, AudioRate, 1), new(Video).init(1, VideoRate, 1)
	for _, tc := range []struct {
		src    resumable
		period des.Duration
	}{
		{NewExtremal(2, AudioRate, 1.04*AudioRate, 0.05), des.Seconds(12)},
		{audio, audio.MeanTalk + audio.MeanSilence},
		{video, des.Seconds(12 / video.FPS)},
	} {
		eng := des.New()
		emitted := 0
		emit := SinkFunc(func(Packet) { emitted++ })
		until := des.Time(1 << 60)
		tc.src.StartSink(eng, until, emit)
		eng.RunUntil(tc.period) // the engine's event storage, warmed
		allocs := testing.AllocsPerRun(20, func() {
			tc.src.Resume(eng, until, emit)
			eng.RunUntil(eng.Now() + tc.period)
		})
		if allocs != 0 || emitted == 0 {
			t.Errorf("%s: Resume and a period of emission allocated %v objects (%d packets emitted)", tc.src.Name(), allocs, emitted)
		}
	}
}
