package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// reading is what one timed interval cost the host: wall clock, process
// CPU (user+sys over every thread, so parallel workloads show their
// efficiency as the gap to wall), and the allocator's counters.
type reading struct {
	wall, cpu time.Duration
	mallocs   uint64
	bytes     uint64
}

// probe holds the counters at the start of a timed interval.
type probe struct {
	t0      time.Time
	cpu0    time.Duration
	mallocs uint64
	bytes   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// begin opens a timed interval. ReadMemStats stops the world, so it runs
// before the clock is read here and after it is read in end.
func begin() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return probe{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, cpu0: cpuTime(), t0: time.Now()}
}

func (p probe) end() reading {
	wall := time.Since(p.t0)
	cpu := cpuTime() - p.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return reading{wall: wall, cpu: cpu, mallocs: ms.Mallocs - p.mallocs, bytes: ms.TotalAlloc - p.bytes}
}

// liveHeapMB forces a collection and reports what survived it.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// dist summarises the samples of one host-time metric: the median is the
// reported value, with the sample count, min and max printed beside it.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(samples []float64) dist {
	if len(samples) == 0 {
		return dist{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{N: len(s), Median: medianSorted(s), Min: s[0], Max: s[len(s)-1]}
}

func median(samples []float64) float64 { return summarize(samples).Median }

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// worsening is how much b is worse than a as a share of a, in the metric's
// own direction: positive means b regressed. Used by -selfcheck on two
// runs of the same code, where it measures run-to-run disagreement.
func worsening(a, b float64, higherIsBetter bool) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if higherIsBetter {
		return (a - b) / a
	}
	return (b - a) / a
}

// disagreement is the gap between two medians of the same code: the
// worsening of one against the other, whichever is taken as the parent.
func disagreement(a, b float64, higherIsBetter bool) float64 {
	return max(worsening(a, b, higherIsBetter), worsening(b, a, higherIsBetter))
}

// withinBound reports whether two medians of the same code agree within
// the metric's regression bound.
func withinBound(a, b, bound float64, higherIsBetter bool) bool {
	return disagreement(a, b, higherIsBetter) <= bound
}
