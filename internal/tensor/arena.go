package tensor

import (
	"sync"
	"unsafe"
)

// Arena is a step-scoped pool of scratch buffers for the fused attention
// path. Training steps and serve batches allocate the same buffer shapes
// over and over; checking them out of a pool instead of the heap makes the
// steady-state attention path allocation-free.
//
// Buffers are bucketed by exact length and precision (float64 for the
// training/serving tape path, float32 for the inference fast path). Get
// returns a zeroed buffer (the fused kernels accumulate into their
// scratch, so a dirty buffer would be a correctness bug, not just noise).
// Put zeroes before parking so the cost is paid off the critical Get path
// of the next step. A dirty-buffer Get32 variant with kernel-side clears
// was tried and measured ~25% slower end to end on the serving box —
// zeroing a just-released buffer while its lines are still cache-resident
// beats clearing a long-parked cold one right before use.
//
// An Arena is safe for concurrent use: serve workers running forwards in
// parallel share one arena per server. A nil *Arena is valid and degrades
// to plain make, so callers without a pool and tests pay nothing.
type Arena struct {
	mu  sync.Mutex
	f64 bucketPool[float64]
	f32 bucketPool[float32]
}

// bucketPool is one precision's buckets of parked buffers, keyed by exact
// length, and their occupancy counters. The owning Arena's mutex guards
// it.
type bucketPool[T float32 | float64] struct {
	buckets map[int][][]T
	stats   ArenaPrecisionStats
}

// ArenaPrecisionStats are the occupancy counters for one precision's
// buckets. All byte figures count buffer payload (len × element size).
type ArenaPrecisionStats struct {
	// Borrows counts Get calls served (hit or miss).
	Borrows uint64 `json:"borrows"`
	// BucketHits counts Gets satisfied from a parked buffer.
	BucketHits uint64 `json:"bucket_hits"`
	// BucketMisses counts Gets that fell through to make.
	BucketMisses uint64 `json:"bucket_misses"`
	// InUseBytes is the payload currently checked out (Get minus Put).
	InUseBytes uint64 `json:"in_use_bytes"`
	// PeakBytes is the high-water mark of InUseBytes.
	PeakBytes uint64 `json:"peak_bytes"`
}

// ArenaStats is a point-in-time snapshot of both precisions' counters,
// exported on the serve /metrics endpoint.
type ArenaStats struct {
	F64 ArenaPrecisionStats `json:"f64"`
	F32 ArenaPrecisionStats `json:"f32"`
}

// NewArena creates an empty arena.
func NewArena() *Arena {
	return &Arena{
		f64: bucketPool[float64]{buckets: make(map[int][][]float64)},
		f32: bucketPool[float32]{buckets: make(map[int][][]float32)},
	}
}

// borrow updates one precision's counters for a Get of payloadBytes.
func (s *ArenaPrecisionStats) borrow(hit bool, payloadBytes uint64) {
	s.Borrows++
	if hit {
		s.BucketHits++
	} else {
		s.BucketMisses++
	}
	s.InUseBytes += payloadBytes
	if s.InUseBytes > s.PeakBytes {
		s.PeakBytes = s.InUseBytes
	}
}

// release updates one precision's counters for a Put of payloadBytes.
// Foreign buffers (never borrowed here) clamp at zero instead of
// underflowing.
func (s *ArenaPrecisionStats) release(payloadBytes uint64) {
	if s.InUseBytes >= payloadBytes {
		s.InUseBytes -= payloadBytes
	} else {
		s.InUseBytes = 0
	}
}

// get checks out a zeroed buffer of length n, parked or fresh, under mu.
func (p *bucketPool[T]) get(mu *sync.Mutex, n int) []T {
	if n == 0 {
		return make([]T, 0)
	}
	payload := uint64(n) * uint64(unsafe.Sizeof(T(0)))
	mu.Lock()
	bucket := p.buckets[n]
	if len(bucket) == 0 {
		p.stats.borrow(false, payload)
		mu.Unlock()
		return make([]T, n)
	}
	buf := bucket[len(bucket)-1]
	p.buckets[n] = bucket[:len(bucket)-1]
	p.stats.borrow(true, payload)
	mu.Unlock()
	return buf
}

// put zeroes buf outside the lock, then parks it under mu.
func (p *bucketPool[T]) put(mu *sync.Mutex, buf []T) {
	if len(buf) == 0 {
		return
	}
	clear(buf)
	mu.Lock()
	p.buckets[len(buf)] = append(p.buckets[len(buf)], buf)
	p.stats.release(uint64(len(buf)) * uint64(unsafe.Sizeof(T(0))))
	mu.Unlock()
}

// parked counts the buffers parked across all buckets.
func (p *bucketPool[T]) parked() int {
	n := 0
	for _, b := range p.buckets {
		n += len(b)
	}
	return n
}

// Get checks out a zeroed float64 buffer of length n.
func (a *Arena) Get(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.f64.get(&a.mu, n)
}

// Put zeroes buf and parks it for reuse. Putting a buffer twice, or using
// it after Put, is a caller bug (the usual pool contract). A nil arena
// drops the buffer for the GC.
func (a *Arena) Put(buf []float64) {
	if a != nil {
		a.f64.put(&a.mu, buf)
	}
}

// Get32 checks out a zeroed float32 buffer of length n — the inference
// fast path's counterpart of Get.
func (a *Arena) Get32(n int) []float32 {
	if a == nil {
		return make([]float32, n)
	}
	return a.f32.get(&a.mu, n)
}

// Put32 zeroes buf and parks it, under the same contract as Put.
func (a *Arena) Put32(buf []float32) {
	if a != nil {
		a.f32.put(&a.mu, buf)
	}
}

// Stats snapshots the occupancy counters. A nil arena reports zeros.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return ArenaStats{F64: a.f64.stats, F32: a.f32.stats}
}

// Buffered reports how many buffers are currently parked across both
// precisions (test hook).
func (a *Arena) Buffered() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.f64.parked() + a.f32.parked()
}
