package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// hostCost is what one iteration cost the host, measured from outside
// the simulator.
type hostCost struct {
	wall, cpu time.Duration
	// peakHeap is the largest live heap (bytes marked live by a GC cycle)
	// sampled while the iteration ran.
	peakHeap uint64
	// gcCPU and busyCPU are the runtime's GC and busy (non-idle) CPU
	// estimates over the iteration; gcCycles the GC cycles it completed.
	gcCPU, busyCPU float64
	gcCycles       uint64
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	mAllocObjects = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mLiveHeap     = "/gc/heap/live:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mCPUGC        = "/cpu/classes/gc/total:cpu-seconds"
	mCPUTotal     = "/cpu/classes/total:cpu-seconds"
	mCPUIdle      = "/cpu/classes/idle:cpu-seconds"
)

// allocCounters are the cumulative heap-allocation counters.
type allocCounters struct{ objects, bytes uint64 }

func readAllocs() allocCounters {
	s := []metrics.Sample{{Name: mAllocObjects}, {Name: mAllocBytes}}
	metrics.Read(s)
	return allocCounters{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// gcCounters are the cumulative GC cycle and CPU-class counters.
type gcCounters struct {
	cycles          uint64
	gc, total, idle float64
}

func readGC() gcCounters {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mCPUGC}, {Name: mCPUTotal}, {Name: mCPUIdle}}
	metrics.Read(s)
	return gcCounters{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: mLiveHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampleEvery is the live-heap sampling period. The live-heap figure
// only changes when a GC cycle ends, and cycles are tens of milliseconds
// apart on these workloads, so a 5 ms poll sees every value.
const heapSampleEvery = 5 * time.Millisecond

// measure runs fn once and returns its host cost. A sampler goroutine
// polls the live heap while fn runs; measure stops it and waits for it
// to exit before returning.
func measure(fn func()) hostCost {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			if h := liveHeap(); h > peak {
				peak = h
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()

	gc0, cpu0, t0 := readGC(), cpuTime(), time.Now()
	fn()
	wall, cpu, gc1 := time.Since(t0), cpuTime()-cpu0, readGC()
	close(stop)
	wg.Wait()
	if h := liveHeap(); h > peak {
		peak = h
	}
	return hostCost{
		wall:     wall,
		cpu:      cpu,
		peakHeap: peak,
		gcCPU:    gc1.gc - gc0.gc,
		busyCPU:  (gc1.total - gc1.idle) - (gc0.total - gc0.idle),
		gcCycles: gc1.cycles - gc0.cycles,
	}
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method). With fewer than two values all three are the
// value itself.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		// Exclusive method: position p·(n+1), 1-based, clamped to the ends.
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), median(s), at(0.75)
}

// median returns the middle of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
