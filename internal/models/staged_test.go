package models

import "mega/internal/tensor"

// The staged attention pipelines: the composed gather / softmax / scatter
// ops whose work the fused kernels do in one pass. They are the bit-exact
// oracle the kernels are pinned against (fused_test.go) and the baseline
// of the attention benchmarks. GT's per-layer staged attention
// (forwardAttnStaged) lives in gt.go because the shard engine runs it;
// GAT's and both models' staged layer compositions live here.

// stagedGT is a GT whose forward runs the staged attention pipeline. It
// shares the wrapped model's parameters.
type stagedGT struct{ *GT }

// Forward mirrors GT.Forward with the staged layer composition: the
// per-edge mean of k⊙ê is an explicit EdgeMean at the point the fused
// layer accounts it with NoteEdgeMean.
func (m stagedGT) Forward(ctx *Context) *tensor.Tensor {
	h, e := m.enc.forward(ctx)
	for _, l := range m.layers {
		ctx.Prof.LayerStart()
		att, kmod := l.forwardAttnStaged(ctx, h, e, m.cfg.Heads)
		hOut := l.nodeStream(ctx, h, att)
		e = l.edgeStream(ctx, e, ctx.EdgeMean(kmod))
		h = ctx.SyncDuplicates(hOut)
	}
	pooled := ctx.Readout(h)
	ctx.Prof.Linear(pooled.Rows(), pooled.Cols(), m.cfg.OutDim)
	return m.readout.Forward(pooled)
}

// stagedGAT is a GAT whose forward runs the staged attention pipeline.
type stagedGAT struct{ *GAT }

// Forward mirrors GAT.Forward with stagedGATAttention in each layer.
func (m stagedGAT) Forward(ctx *Context) *tensor.Tensor {
	h, _ := m.enc.forward(ctx)
	for _, l := range m.layers {
		ctx.Prof.LayerStart()
		att := stagedGATAttention(ctx, ctx.Linear(l.w, h), l.aL, l.aR, m.cfg.Heads)
		h = ctx.SyncDuplicates(ctx.Act(tensor.ReLU, ctx.Norm(l.bn, tensor.Add(h, att))))
	}
	pooled := ctx.Readout(h)
	ctx.Prof.Linear(pooled.Rows(), pooled.Cols(), m.cfg.OutDim)
	return m.readout.Forward(pooled)
}

// stagedGATAttention is GAT's staged attention block over projected rows
// wh: per-row score halves computed densely then gathered per pair (the
// neural-then-graph split of §II-A), leaky scores, segment softmax, and
// per-head aggregation.
func stagedGATAttention(ctx *Context, wh, aL, aR *tensor.Tensor, heads int) *tensor.Tensor {
	dk := wh.Cols() / heads
	sL := tensor.Mul(wh, broadcastRow(aL, wh.Rows()))
	sR := tensor.Mul(wh, broadcastRow(aR, wh.Rows()))

	whSend := ctx.GatherSend(wh)
	sLr := ctx.GatherRecv(sL)
	sRs := ctx.GatherSend(sR)

	headOuts := make([]*tensor.Tensor, heads)
	for a := 0; a < heads; a++ {
		lhs := tensor.RowSum(tensor.NarrowCols(sLr, a*dk, dk))
		rhs := tensor.RowSum(tensor.NarrowCols(sRs, a*dk, dk))
		score := ctx.Act(leakyReLU, tensor.Add(lhs, rhs))
		alpha := ctx.SegmentSoftmaxByRecv(score)
		va := tensor.NarrowCols(whSend, a*dk, dk)
		headOuts[a] = ctx.AggregateByRecv(tensor.MulColVec(va, alpha))
	}
	return tensor.ConcatCols(headOuts...)
}

// leakyReLU applies max(x, 0.2x), GAT's score nonlinearity.
func leakyReLU(x *tensor.Tensor) *tensor.Tensor {
	return tensor.Add(tensor.ReLU(x), tensor.Scale(tensor.Sub(x, tensor.ReLU(x)), 0.2))
}

// broadcastRow tiles a 1×d row vector to rows×d without gradient fan-in
// surprises (the underlying tensor op handles accumulation).
func broadcastRow(v *tensor.Tensor, rows int) *tensor.Tensor {
	idx := make([]int32, rows)
	return tensor.GatherRows(v, idx)
}
