package tensor

import (
	"fmt"
	"math"

	"mega/internal/compute"
)

// Float32 forward-only variants of the fused attention kernels, in a
// head-major scratch layout.
//
// The float64 kernels walk node-major [R,d] rows: a per-(receiver, head)
// segment sweep touches one dk-wide stripe of each sender row, so
// consecutive senders are d elements apart — with 4 heads, 3/4 of every
// fetched cache line is for other heads. The f32 kernels repack Q/K/V
// (and the edge modulation) head-major — element (row r, head a, lane j)
// at a·(R·dk) + r·dk + j — so each segment sweep reads one contiguous
// ~len·dk stream per head: band-graph senders are near-consecutive
// positions, so the stream is dense.
//
// The repacking changes addresses, not arithmetic: per element the
// accumulation order is the node-major walk's, pinned bit-for-bit against
// a serial node-major reference by TestAttention32MatchesNodeMajorExactly.
// Across precisions the contract is the divergence envelope, not
// bit-identity.

// AttnLayout names the scratch memory layout of the f32 attention
// kernels. LayoutHeadMajor is the only layout; the parameter stays in
// FusedSegmentAttention32's signature for existing callers.
type AttnLayout int

// LayoutHeadMajor streams each (receiver, head) segment sweep over
// contiguous per-head panels.
const LayoutHeadMajor AttnLayout = 0

// exp32 evaluates exp in float64 and rounds once — Go has no float32
// stdlib exp, and one correctly-rounded evaluation keeps the softmax the
// tightest float32 can represent.
func exp32(x float32) float32 { return float32(math.Exp(float64(x))) }

// packHeadMajor copies node-major src [rows,d] into dst laid out
// head-major: dst[a·rows·dk + i·dk + j] = src[i·d + a·dk + j].
func packHeadMajor(dst, src []float32, rows, heads, dk int) {
	d := heads * dk
	compute.ParallelGrain(rows, rowGrain(d), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := src[i*d : (i+1)*d]
			for a := 0; a < heads; a++ {
				copy(dst[a*rows*dk+i*dk:a*rows*dk+(i+1)*dk], row[a*dk:(a+1)*dk])
			}
		}
	})
}

// unpackHeadMajor is the inverse copy, back to node-major.
func unpackHeadMajor(dst, src []float32, rows, heads, dk int) {
	d := heads * dk
	compute.ParallelGrain(rows, rowGrain(d), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := dst[i*d : (i+1)*d]
			for a := 0; a < heads; a++ {
				copy(row[a*dk:(a+1)*dk], src[a*rows*dk+i*dk:a*rows*dk+(i+1)*dk])
			}
		}
	})
}

// FusedSegmentAttention32 is the forward-only float32 counterpart of
// FusedSegmentAttention: scaled dot-product attention with edge-modulated
// keys over a directed pair list, softmax-normalised per receiver segment,
// plus (when ew is non-nil) the per-edge mean of k⊙w as the GT edge-stream
// input. bySend is not needed — there is no backward.
func FusedSegmentAttention32(q, k, v, ew *F32, recv, send, edgeIdx []int32,
	byRecv, byEdge *Segments, heads int, layout AttnLayout, arena *Arena) (att, edgeOut *F32) {

	if layout != LayoutHeadMajor {
		panic(fmt.Sprintf("tensor: fusedattn32 unknown layout %d", int(layout)))
	}
	rows, d := q.rows, q.cols
	if k.rows != rows || k.cols != d || v.rows != rows || v.cols != d {
		panic(fmt.Sprintf("tensor: fusedattn32 shape q %dx%d k %dx%d v %dx%d",
			q.rows, q.cols, k.rows, k.cols, v.rows, v.cols))
	}
	if heads < 1 || d%heads != 0 {
		panic(fmt.Sprintf("tensor: fusedattn32 %d cols with %d heads", d, heads))
	}
	P := len(recv)
	if len(send) != P || len(edgeIdx) != P {
		panic(fmt.Sprintf("tensor: fusedattn32 index lengths %d/%d/%d", len(recv), len(send), len(edgeIdx)))
	}
	numEdges := 0
	if ew != nil {
		if ew.cols != d {
			panic(fmt.Sprintf("tensor: fusedattn32 edge cols %d != %d", ew.cols, d))
		}
		numEdges = ew.rows
		if byEdge == nil || len(byEdge.Start) != numEdges+1 {
			panic("tensor: fusedattn32 missing/mis-sized edge segments")
		}
	}
	if byRecv == nil || len(byRecv.Start) != rows+1 {
		panic("tensor: fusedattn32 missing/mis-sized recv segments")
	}
	for p := 0; p < P; p++ {
		if r := recv[p]; r < 0 || int(r) >= rows {
			panic(fmt.Sprintf("tensor: fusedattn32 recv %d out of %d rows", r, rows))
		}
		if s := send[p]; s < 0 || int(s) >= rows {
			panic(fmt.Sprintf("tensor: fusedattn32 send %d out of %d rows", s, rows))
		}
		if ew != nil {
			if e := edgeIdx[p]; e < 0 || int(e) >= numEdges {
				panic(fmt.Sprintf("tensor: fusedattn32 edge %d out of %d", e, numEdges))
			}
		}
	}

	dk := d / heads
	scale := float32(1 / math.Sqrt(float64(dk)))
	att = arena.GetF32(rows, d)
	if ew != nil {
		edgeOut = arena.GetF32(numEdges, d)
	}

	// Head-major panels for everything the segment sweeps touch.
	qh := arena.Get32(rows * d)
	kh := arena.Get32(rows * d)
	vh := arena.Get32(rows * d)
	packHeadMajor(qh, q.Data, rows, heads, dk)
	packHeadMajor(kh, k.Data, rows, heads, dk)
	packHeadMajor(vh, v.Data, rows, heads, dk)
	var ewh []float32
	if ew != nil {
		ewh = arena.Get32(numEdges * d)
		packHeadMajor(ewh, ew.Data, numEdges, heads, dk)
	}

	// Scores, head-major sBuf[a·P + p]: per (head, pair-chunk) both the q
	// row stripe and the k/w stripes are contiguous dk runs inside the
	// head's panel. The j-sum is a serial ascending register accumulation
	// — the float64 kernel's order.
	sBuf := arena.Get32(P * heads)
	pairGrain := workGrain(d)
	compute.ParallelGrain(P, pairGrain, func(lo, hi int) {
		for a := 0; a < heads; a++ {
			qa := qh[a*rows*dk : (a+1)*rows*dk]
			ka := kh[a*rows*dk : (a+1)*rows*dk]
			var ewa []float32
			if ew != nil {
				ewa = ewh[a*numEdges*dk : (a+1)*numEdges*dk]
			}
			sa := sBuf[a*P : (a+1)*P]
			for p := lo; p < hi; p++ {
				r, s := int(recv[p])*dk, int(send[p])*dk
				var sum float32
				if ew != nil {
					e := int(edgeIdx[p]) * dk
					for j := 0; j < dk; j++ {
						sum += qa[r+j] * (ka[s+j] * ewa[e+j])
					}
				} else {
					for j := 0; j < dk; j++ {
						sum += qa[r+j] * ka[s+j]
					}
				}
				sa[p] = sum * scale
			}
		}
	})

	// Softmax + aggregation, receiver-segment-parallel: each (r, a) output
	// stripe is one contiguous dk run in the head's panel of attH, fed by
	// contiguous sender stripes of vh. Ascending pair order per segment.
	attH := arena.Get32(rows * d)
	segGrain := workGrain(2 * d * (P/rows + 1))
	compute.ParallelGrain(rows, segGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			seg := byRecv.Order[byRecv.Start[r]:byRecv.Start[r+1]]
			if len(seg) == 0 {
				continue
			}
			for a := 0; a < heads; a++ {
				va := vh[a*rows*dk : (a+1)*rows*dk]
				sa := sBuf[a*P : (a+1)*P]
				mx := float32(math.Inf(-1))
				for _, p := range seg {
					if sv := sa[p]; sv > mx {
						mx = sv
					}
				}
				var denom float32
				for _, p := range seg {
					ex := exp32(sa[p] - mx)
					sa[p] = ex
					denom += ex
				}
				recip := 1 / (denom + 1e-9)
				orow := attH[a*rows*dk+r*dk : a*rows*dk+(r+1)*dk]
				for _, p := range seg {
					alpha := sa[p] * recip
					saxpy32(alpha, va[int(send[p])*dk:(int(send[p])+1)*dk], orow)
				}
			}
		}
	})
	unpackHeadMajor(att.Data, attH, rows, heads, dk)
	arena.Put32(attH)
	arena.Put32(sBuf)
	arena.Put32(qh)
	arena.Put32(vh)

	// Edge stream: per-edge mean of k⊙w, edge-segment-parallel, from the
	// head-major k/w panels into the node-major output. Per element the
	// pair accumulation order matches the float64 kernel (ascending pair
	// index, then one 1/count scale).
	if ew != nil {
		compute.ParallelGrain(numEdges, segGrain, func(lo, hi int) {
			for e := lo; e < hi; e++ {
				seg := byEdge.Order[byEdge.Start[e]:byEdge.Start[e+1]]
				if len(seg) == 0 {
					continue
				}
				for _, p := range seg {
					s := int(send[p]) * dk
					for a := 0; a < heads; a++ {
						ka := kh[a*rows*dk:]
						ewa := ewh[a*numEdges*dk:]
						orow := edgeOut.Data[e*d+a*dk : e*d+(a+1)*dk]
						eo := e * dk
						for j := range orow {
							orow[j] += ka[s+j] * ewa[eo+j]
						}
					}
				}
				inv := 1 / float32(len(seg))
				orow := edgeOut.Data[e*d : (e+1)*d]
				for j := range orow {
					orow[j] *= inv
				}
			}
		})
		arena.Put32(ewh)
	}
	arena.Put32(kh)
	return att, edgeOut
}

// gatScore32 is LeakyReLU with slope 0.2 in the staged decomposition the
// float64 kernel uses (relu + (x−relu)·0.2).
func gatScore32(x float32) float32 {
	relu := x
	if relu < 0 {
		relu = 0
	}
	return relu + (x-relu)*0.2
}

// FusedAdditiveAttention32 is the forward-only float32 counterpart of
// FusedAdditiveAttention (GAT): per-pair leaky additive scores from
// per-row halves, softmax per receiver segment, aggregating alpha·w_s per
// head. aL/aR are the flattened 1×d attention vectors.
func FusedAdditiveAttention32(wh *F32, aL, aR []float32, recv, send []int32,
	byRecv *Segments, heads int, arena *Arena) *F32 {

	rows, d := wh.rows, wh.cols
	if heads < 1 || d%heads != 0 {
		panic(fmt.Sprintf("tensor: fusedattn32 %d cols with %d heads", d, heads))
	}
	if len(aL) != d || len(aR) != d {
		panic(fmt.Sprintf("tensor: fusedattn32 attention vectors %d/%d for dim %d", len(aL), len(aR), d))
	}
	P := len(recv)
	if len(send) != P {
		panic(fmt.Sprintf("tensor: fusedattn32 index lengths %d/%d", len(recv), len(send)))
	}
	if byRecv == nil || len(byRecv.Start) != rows+1 {
		panic("tensor: fusedattn32 missing/mis-sized recv segments")
	}
	for p := 0; p < P; p++ {
		if r := recv[p]; r < 0 || int(r) >= rows {
			panic(fmt.Sprintf("tensor: fusedattn32 recv %d out of %d rows", r, rows))
		}
		if s := send[p]; s < 0 || int(s) >= rows {
			panic(fmt.Sprintf("tensor: fusedattn32 send %d out of %d rows", s, rows))
		}
	}

	dk := d / heads
	att := arena.GetF32(rows, d)

	// Per-row score halves rs[r,a] = Σ_j ascending wh[r,aj]·a[aj], read
	// node-major (per row this is the head-major per-head order — same
	// elements, same ascending j).
	rsL := arena.Get32(rows * heads)
	rsR := arena.Get32(rows * heads)
	rowG := workGrain(d)
	compute.ParallelGrain(rows, rowG, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for a := 0; a < heads; a++ {
				base := a * dk
				var sl, sr float32
				for j := base; j < base+dk; j++ {
					sl += wh.Data[i*d+j] * aL[j]
					sr += wh.Data[i*d+j] * aR[j]
				}
				rsL[i*heads+a] = sl
				rsR[i*heads+a] = sr
			}
		}
	})

	// Head-major value panel: the aggregation is the only pair-major sweep
	// over wh, so only it needs repacking.
	segGrain := workGrain(2 * d * (P/rows + 1))
	whh := arena.Get32(rows * d)
	packHeadMajor(whh, wh.Data, rows, heads, dk)
	attH := arena.Get32(rows * d)
	compute.ParallelGrain(rows, segGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			seg := byRecv.Order[byRecv.Start[r]:byRecv.Start[r+1]]
			if len(seg) == 0 {
				continue
			}
			for a := 0; a < heads; a++ {
				wa := whh[a*rows*dk : (a+1)*rows*dk]
				mx := float32(math.Inf(-1))
				for _, p := range seg {
					if sv := gatScore32(rsL[r*heads+a] + rsR[int(send[p])*heads+a]); sv > mx {
						mx = sv
					}
				}
				var denom float32
				for _, p := range seg {
					denom += exp32(gatScore32(rsL[r*heads+a]+rsR[int(send[p])*heads+a]) - mx)
				}
				recip := 1 / (denom + 1e-9)
				orow := attH[a*rows*dk+r*dk : a*rows*dk+(r+1)*dk]
				for _, p := range seg {
					ex := exp32(gatScore32(rsL[r*heads+a]+rsR[int(send[p])*heads+a]) - mx)
					alpha := ex * recip
					saxpy32(alpha, wa[int(send[p])*dk:(int(send[p])+1)*dk], orow)
				}
			}
		}
	})
	unpackHeadMajor(att.Data, attH, rows, heads, dk)
	arena.Put32(attH)
	arena.Put32(whh)
	arena.Put32(rsL)
	arena.Put32(rsR)
	return att
}
