package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile is the ceiling-rank q-quantile of sorted samples (the same
// rule as the server's histograms, without bucket rounding).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailQuantile is the highest of the usual reporting quantiles with at
// least ten samples beyond it.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.98, 0.95, 0.9, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

func sorted(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// memSnap is the runtime's allocation and GC counters at one instant, or
// their change over an interval.
type memSnap struct {
	alloc, gcs uint64
	pause      time.Duration
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{alloc: m.TotalAlloc, gcs: uint64(m.NumGC), pause: time.Duration(m.PauseTotalNs)}
}

func (m memSnap) sub(o memSnap) memSnap {
	return memSnap{alloc: m.alloc - o.alloc, gcs: m.gcs - o.gcs, pause: m.pause - o.pause}
}

// heapSampler tracks the peak live heap, as marked by the latest GC, by
// sampling the runtime every few milliseconds; runtime/metrics reads do not
// stop the world.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}
