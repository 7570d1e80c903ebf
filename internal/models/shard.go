package models

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mega/internal/compute"
	"mega/internal/tensor"
)

// This file implements the shard-parallel execution engine for the MEGA
// path representation: the path's working rows are split into contiguous
// worker chunks with ω-row halos, each worker runs the real per-layer GT
// forward over its chunk, and halo embeddings plus cross-chunk
// duplicate-group and edge-fold synchronisation travel between workers
// over channels. The output is bit-identical to the single-engine
// GT.Forward over the same context at any worker count.
//
// Determinism protocol (the whole design reduces to one rule): every
// floating-point reduction is performed by exactly one owner, over RAW
// rows, in ascending global order, starting from a zero base — the same
// sequence of adds the single engine's SegmentMean/ScatterAddRows kernels
// execute. Workers never exchange partial sums, because partial sums
// regroup the additions and break bit-identity.
//
// The path is always cut into shardChunks=8 canonical µchunks whose
// bounds, pair assignment, and edge ownership are independent of the
// worker count; k workers own contiguous runs of µchunks (k must divide
// 8), so every µchunk runs the same kernels over the same rows at every k.
//
// The engine is forward-only: workers read the model's parameters
// directly, the way concurrent serve workers share one model, and never
// write to it.
const shardChunks = 8

// errShardAborted unwinds a worker that was waiting on a peer which
// panicked; it is recognised and swallowed by the worker guard.
var errShardAborted = errors.New("models: shard worker aborted")

// ErrUnshardable marks contexts the shard plan rejects for structural
// reasons (not a MEGA context, path shorter than the 8 canonical µchunks,
// or attention window wider than some µchunk). Callers fall back to the
// monolithic engine on it — the answer is bit-identical either way — and
// the distributed supervisor treats it as permanent: retrying on another
// replica cannot make a context shardable.
var ErrUnshardable = errors.New("models: context not shardable")

// ShardStats reports the traffic and timing of the last Forward of a
// ShardEngine. Message and byte counts are
// logical — one message per (halo boundary, layer), per (duplicate group,
// non-owner worker, layer, direction), per (edge, non-owner referencing
// worker, layer, direction) — exactly the granularity
// dist.AnalyzePathPartition predicts.
type ShardStats struct {
	Workers int

	HaloMessages int64
	HaloBytes    int64
	SyncMessages int64
	SyncBytes    int64
	EdgeMessages int64
	EdgeBytes    int64

	CollectMessages int64
	CollectBytes    int64

	// Per-worker wall time of the forward wave, in ns.
	ForwardNs []int64
}

// ForwardMessages totals the per-layer exchange messages (halo + duplicate
// sync + edge fold/broadcast), the quantity AnalyzePathPartition predicts
// per layer.
func (s ShardStats) ForwardMessages() int64 {
	return s.HaloMessages + s.SyncMessages + s.EdgeMessages
}

// ForwardBytes totals the per-layer exchange bytes.
func (s ShardStats) ForwardBytes() int64 {
	return s.HaloBytes + s.SyncBytes + s.EdgeBytes
}

// mcShard is the static plan of one canonical µchunk.
type mcShard struct {
	lo, hi int // own working rows [lo, hi)
	// extLo/extHi is the pair-derived extended row range the µchunk's
	// attention computes over: own rows plus the sender rows its pairs
	// reach. It is derived from the pair list only, so it is identical at
	// every worker count (worker halos are a messaging concern only).
	extLo, extHi int

	pairs []int32 // global pair ids assigned here (receiver in own rows), ascending
	lctx  *Context

	localEdges []int32 // global edge ids this µchunk holds features for, ascending
	edgeLocal  map[int32]int
	ownEdges   []int32 // owned subset of localEdges, ascending

	nodeIDs   []int32 // NodeTypeIDs of own rows
	edgeTypes []int32 // EdgeTypeIDs of localEdges

	// Edge-fold plan (owner side): every pair referencing an owned edge,
	// ascending global pair id, with its owned-edge segment — the exact row
	// order EdgeMean accumulates in the single engine.
	foldPairs []int32
	foldSeg   []int32
}

// dupGroup is one duplicate-position group (a node revisited by the path).
type dupGroup struct {
	members  []int32 // global rows, ascending
	inv      float64 // 1/len(members), computed as SegmentMean does
	ownerW   int     // worker of members[0]
	workers  []int   // distinct member workers, ascending
	byWorker map[int][]int32
}

// edgeSendPlan schedules one forward fold message: the rows of this
// worker's pairs referencing a remotely-owned edge.
type edgeSendPlan struct {
	edge   int32
	ownerW int
	pairs  []int32 // this worker's referencing pairs, ascending
}

// localEdgePlan lists, per worker, which of its µchunks hold an edge's
// features (for applying one broadcast to every holder).
type localEdgePlan struct {
	edge int32
	mcs  []int
}

// shardPlan is the full static execution plan for one (context, k) pair.
type shardPlan struct {
	workers, dim, layers, heads int
	L, omega                    int

	ub  []int // µchunk bounds, len shardChunks+1 (ceil-division cuts)
	wb  []int // worker bounds, len workers+1
	mcW []int // µchunk → worker

	mcs  []*mcShard
	wMCs [][]int // worker → its µchunks, ascending

	syncActive bool
	groups     []*dupGroup
	rowGroup   []int32 // global row → group index or -1

	edgeOwner      []int32 // edge → owning µchunk
	edgeRefWorkers [][]int // edge → distinct referencing workers, ascending
	pairMC         []int32 // pair → its µchunk
	pairRow        []int32 // pair → row within its µchunk's pair list
	edgeIdx        []int32 // the context's global pair→edge map

	wEdgeSend   [][]edgeSendPlan
	wLocalEdges [][]localEdgePlan

	inCap []int // exact per-worker incoming message counts per Forward
}

func (p *shardPlan) mcOfRow(r int) int { return r * shardChunks / p.L }
func (p *shardPlan) wOfRow(r int) int  { return p.mcW[p.mcOfRow(r)] }

// ShardEngine runs a GT model's forward over a MEGA context split across k
// chunk workers. Construct once per (model, context, k); Forward may then
// be called any number of times and is bit-identical to m.Forward(ctx).
// Engines and plain m.Forward calls may run concurrently over one model;
// one engine runs one Forward at a time.
type ShardEngine struct {
	model *GT
	ctx   *Context
	plan  *shardPlan

	run *shardRun
}

// NewShardEngine validates the plan. ctx must be a MEGA context (built by
// NewMegaContext*); the engine always uses the staged attention pipeline,
// which is bit-identical to the fused one.
func NewShardEngine(m *GT, ctx *Context, workers int) (*ShardEngine, error) {
	plan, err := buildShardPlan(ctx, workers, m.cfg.Dim, len(m.layers), m.cfg.Heads)
	if err != nil {
		return nil, err
	}
	return &ShardEngine{model: m, ctx: ctx, plan: plan}, nil
}

// buildShardPlan derives the static chunking, ownership, and messaging
// schedule for ctx at the given worker count.
func buildShardPlan(ctx *Context, workers, dim, layers, heads int) (*shardPlan, error) {
	if ctx.posToNode == nil {
		return nil, fmt.Errorf("%w: shard engine requires a MEGA context", ErrUnshardable)
	}
	if workers < 1 {
		return nil, fmt.Errorf("models: shard workers %d < 1", workers)
	}
	if workers > shardChunks || shardChunks%workers != 0 {
		return nil, fmt.Errorf("models: shard workers %d must divide %d", workers, shardChunks)
	}
	L := ctx.NumRows
	if L < shardChunks {
		return nil, fmt.Errorf("%w: path length %d shorter than %d chunks", ErrUnshardable, L, shardChunks)
	}
	omega := ctx.maxWindow
	if omega < 1 {
		omega = 1
	}
	p := &shardPlan{
		workers: workers, dim: dim, layers: layers, heads: heads,
		L: L, omega: omega,
		edgeIdx: ctx.EdgeIdx,
	}
	// Ceil-division µchunk bounds: ub[j] = ⌈j·L/C⌉ is exactly the partition
	// induced by mcOfRow(r) = r·C/L, and worker bounds at k | C refine it.
	p.ub = make([]int, shardChunks+1)
	for j := 0; j <= shardChunks; j++ {
		p.ub[j] = (j*L + shardChunks - 1) / shardChunks
	}
	p.wb = make([]int, workers+1)
	per := shardChunks / workers
	for w := 0; w <= workers; w++ {
		p.wb[w] = p.ub[w*per]
	}
	p.mcW = make([]int, shardChunks)
	p.wMCs = make([][]int, workers)
	for j := 0; j < shardChunks; j++ {
		w := j / per
		p.mcW[j] = w
		p.wMCs[w] = append(p.wMCs[w], j)
		if p.ub[j+1]-p.ub[j] < omega {
			return nil, fmt.Errorf("%w: window %d exceeds chunk %d length %d (path %d)",
				ErrUnshardable, omega, j, p.ub[j+1]-p.ub[j], L)
		}
	}

	// Pair assignment: a pair lives with its receiver's µchunk, so each
	// receiver's softmax group is complete within one µchunk and local pair
	// lists (ascending global id) preserve the kernels' accumulation order.
	nPairs := len(ctx.RecvIdx)
	p.pairMC = make([]int32, nPairs)
	p.pairRow = make([]int32, nPairs)
	mcPairs := make([][]int32, shardChunks)
	for pp := 0; pp < nPairs; pp++ {
		j := p.mcOfRow(int(ctx.RecvIdx[pp]))
		p.pairMC[pp] = int32(j)
		p.pairRow[pp] = int32(len(mcPairs[j]))
		mcPairs[j] = append(mcPairs[j], int32(pp))
	}

	// Edge ownership: the µchunk of the first referencing pair; edges no
	// pair references are spread by index (they generate no traffic).
	p.edgeOwner = make([]int32, ctx.NumEdges)
	for e := range p.edgeOwner {
		p.edgeOwner[e] = -1
	}
	edgeRefPairs := make([][]int32, ctx.NumEdges)
	for pp := 0; pp < nPairs; pp++ {
		e := ctx.EdgeIdx[pp]
		if p.edgeOwner[e] < 0 {
			p.edgeOwner[e] = p.pairMC[pp]
		}
		edgeRefPairs[e] = append(edgeRefPairs[e], int32(pp))
	}
	for e := range p.edgeOwner {
		if p.edgeOwner[e] < 0 {
			p.edgeOwner[e] = int32(e * shardChunks / ctx.NumEdges)
		}
	}
	p.edgeRefWorkers = make([][]int, ctx.NumEdges)
	for e, refs := range edgeRefPairs {
		var seenMC [shardChunks]bool
		for _, pp := range refs {
			seenMC[p.pairMC[pp]] = true
		}
		var seenW [shardChunks]bool
		for j := 0; j < shardChunks; j++ {
			if seenMC[j] && !seenW[p.mcW[j]] {
				seenW[p.mcW[j]] = true
				p.edgeRefWorkers[e] = append(p.edgeRefWorkers[e], p.mcW[j])
			}
		}
	}

	// Per-µchunk shards: extended ranges, local contexts, edge tables.
	for j := 0; j < shardChunks; j++ {
		mc := &mcShard{lo: p.ub[j], hi: p.ub[j+1]}
		mc.extLo, mc.extHi = mc.lo, mc.hi
		for _, pp := range mcPairs[j] {
			for _, rr := range [2]int32{ctx.RecvIdx[pp], ctx.SendIdx[pp]} {
				if int(rr) < mc.extLo {
					mc.extLo = int(rr)
				}
				if int(rr) >= mc.extHi {
					mc.extHi = int(rr) + 1
				}
			}
		}
		// Pairs stay within the band window, so the extended range must sit
		// inside the adjacent µchunks; anything else is a plan bug.
		adjLo, adjHi := 0, L
		if j > 0 {
			adjLo = p.ub[j-1]
		}
		if j < shardChunks-1 {
			adjHi = p.ub[j+2]
		}
		if mc.extLo < adjLo || mc.extHi > adjHi {
			return nil, fmt.Errorf("models: chunk %d extended range [%d,%d) escapes adjacency [%d,%d)",
				j, mc.extLo, mc.extHi, adjLo, adjHi)
		}
		mc.pairs = mcPairs[j]
		// Local edge table: edges referenced by this µchunk's pairs plus
		// the edges it owns, ascending global id.
		inLocal := make(map[int32]bool)
		for _, pp := range mc.pairs {
			inLocal[ctx.EdgeIdx[pp]] = true
		}
		for e := int32(0); int(e) < ctx.NumEdges; e++ {
			if p.edgeOwner[e] == int32(j) {
				mc.ownEdges = append(mc.ownEdges, e)
				inLocal[e] = true
			}
		}
		mc.edgeLocal = make(map[int32]int, len(inLocal))
		for e := int32(0); int(e) < ctx.NumEdges; e++ {
			if inLocal[e] {
				mc.edgeLocal[e] = len(mc.localEdges)
				mc.localEdges = append(mc.localEdges, e)
			}
		}
		mc.nodeIDs = ctx.NodeTypeIDs[mc.lo:mc.hi]
		mc.edgeTypes = make([]int32, len(mc.localEdges))
		for i, e := range mc.localEdges {
			mc.edgeTypes[i] = ctx.EdgeTypeIDs[e]
		}
		// Localised context for the µchunk's attention + node stream.
		lctx := &Context{
			NumRows:  mc.extHi - mc.extLo,
			NumEdges: len(mc.localEdges),
			RecvIdx:  make([]int32, len(mc.pairs)),
			SendIdx:  make([]int32, len(mc.pairs)),
			EdgeIdx:  make([]int32, len(mc.pairs)),
		}
		for i, pp := range mc.pairs {
			lctx.RecvIdx[i] = ctx.RecvIdx[pp] - int32(mc.extLo)
			lctx.SendIdx[i] = ctx.SendIdx[pp] - int32(mc.extLo)
			lctx.EdgeIdx[i] = int32(mc.edgeLocal[ctx.EdgeIdx[pp]])
		}
		mc.lctx = lctx
		p.mcs = append(p.mcs, mc)
	}
	// Owner-side fold plan: all referencing pairs of owned edges, ascending
	// global pair id — the single engine's EdgeMean row order.
	ownIdx := make([]map[int32]int32, shardChunks)
	for j, mc := range p.mcs {
		ownIdx[j] = make(map[int32]int32, len(mc.ownEdges))
		for i, e := range mc.ownEdges {
			ownIdx[j][e] = int32(i)
		}
	}
	for pp := 0; pp < nPairs; pp++ {
		e := ctx.EdgeIdx[pp]
		jo := int(p.edgeOwner[e])
		mc := p.mcs[jo]
		mc.foldPairs = append(mc.foldPairs, int32(pp))
		mc.foldSeg = append(mc.foldSeg, ownIdx[jo][e])
	}

	// Duplicate groups from the node-slot map, ordered by first member row.
	slotRows := make(map[int32][]int32)
	var slotOrder []int32
	for r := 0; r < L; r++ {
		s := ctx.posToNode[r]
		if _, ok := slotRows[s]; !ok {
			slotOrder = append(slotOrder, s)
		}
		slotRows[s] = append(slotRows[s], int32(r))
	}
	p.rowGroup = make([]int32, L)
	for r := range p.rowGroup {
		p.rowGroup[r] = -1
	}
	for _, s := range slotOrder {
		rows := slotRows[s]
		if len(rows) < 2 {
			continue
		}
		g := &dupGroup{
			members:  rows,
			inv:      1 / float64(len(rows)),
			ownerW:   p.wOfRow(int(rows[0])),
			byWorker: make(map[int][]int32),
		}
		var seenW [shardChunks]bool
		for _, rr := range rows {
			w := p.wOfRow(int(rr))
			if !seenW[w] {
				seenW[w] = true
			}
			g.byWorker[w] = append(g.byWorker[w], rr)
		}
		for w := 0; w < workers; w++ {
			if seenW[w] {
				g.workers = append(g.workers, w)
			}
		}
		for _, rr := range rows {
			p.rowGroup[rr] = int32(len(p.groups))
		}
		p.groups = append(p.groups, g)
	}
	p.syncActive = len(p.groups) > 0

	// Per-worker send schedules and edge/µchunk holder lists, ascending
	// edge id for a deterministic schedule.
	p.wEdgeSend = make([][]edgeSendPlan, workers)
	p.wLocalEdges = make([][]localEdgePlan, workers)
	holders := make([][]int, ctx.NumEdges) // edge → µchunks with it in localEdges
	for j, mc := range p.mcs {
		for _, e := range mc.localEdges {
			holders[e] = append(holders[e], j)
		}
	}
	for e := int32(0); int(e) < ctx.NumEdges; e++ {
		ownerW := p.mcW[p.edgeOwner[e]]
		for _, w := range p.edgeRefWorkers[e] {
			if w == ownerW {
				continue
			}
			var pairs []int32
			for _, pp := range edgeRefPairs[e] {
				if p.mcW[p.pairMC[pp]] == w {
					pairs = append(pairs, pp)
				}
			}
			p.wEdgeSend[w] = append(p.wEdgeSend[w], edgeSendPlan{edge: e, ownerW: ownerW, pairs: pairs})
		}
		byW := make(map[int][]int)
		for _, j := range holders[e] {
			byW[p.mcW[j]] = append(byW[p.mcW[j]], j)
		}
		for w := 0; w < workers; w++ {
			if mcs := byW[w]; len(mcs) > 0 {
				p.wLocalEdges[w] = append(p.wLocalEdges[w], localEdgePlan{edge: e, mcs: mcs})
			}
		}
	}

	// Exact per-worker incoming message counts (channel capacity: with
	// every send buffered, workers can never deadlock on a send).
	p.inCap = make([]int, workers)
	for w := 0; w < workers; w++ {
		haloIn := 0
		if w > 0 {
			haloIn++
		}
		if w < workers-1 {
			haloIn++
		}
		syncFoldIn, syncBcastIn := 0, 0
		for _, g := range p.groups {
			if g.ownerW == w {
				syncFoldIn += len(g.workers) - 1
			} else if len(g.byWorker[w]) > 0 {
				syncBcastIn++
			}
		}
		edgeFoldIn := 0
		for _, j := range p.wMCs[w] {
			for _, e := range p.mcs[j].ownEdges {
				for _, rw := range p.edgeRefWorkers[e] {
					if rw != w {
						edgeFoldIn++
					}
				}
			}
		}
		edgeBcastIn := len(p.wEdgeSend[w])
		p.inCap[w] = layers * (haloIn + syncFoldIn + syncBcastIn + edgeFoldIn + edgeBcastIn)
	}
	return p, nil
}

// Message phases. Keys are unique per (phase, layer, id, sender).
const (
	phHalo int8 = iota
	phSyncFold
	phSyncBcast
	phEdgeFold
	phEdgeBcast
)

// ShardKey identifies one exchange message: unique per (phase, layer, id,
// sender). It is the unit of addressing for both the in-process channel
// exchange and a remote transport (internal/dist serialises it verbatim),
// so a message produced on one side of a process boundary is matched by
// the same key on the other.
type ShardKey struct {
	Phase int8
	Layer int16
	ID    int32
	From  int8
}

type shardMsg struct {
	key  ShardKey
	data []float64
}

func mkey(phase int8, layer, id, from int) ShardKey {
	return ShardKey{Phase: phase, Layer: int16(layer), ID: int32(id), From: int8(from)}
}

// ShardLink carries one worker's cross-worker exchange messages when the
// shard workers do not share an address space. Send must deliver data to
// worker `to` under key; Recv must return the payload sent to this worker
// under key (stashing out-of-order arrivals internally). Payloads must be
// preserved bit-for-bit — the engine's bit-identity invariant survives
// serialisation only if the link does not renormalise floats. A returned
// error aborts the worker's wave cleanly (RunShardWorkerForward surfaces
// it); links should fail fast on peer death or deadline rather than block
// forever.
type ShardLink interface {
	Send(to int, key ShardKey, data []float64) error
	Recv(key ShardKey) ([]float64, error)
}

// shardLinkError unwinds a worker whose link failed (peer death, message
// deadline); RunShardWorkerForward converts it back into the link's error.
type shardLinkError struct{ err error }

// mcOut holds one µchunk's outputs for the layer in flight: the attention
// + node stream results over the extended range (kmod per local pair,
// hOutPre per extended row) and, for owner µchunks, the edge stream
// output per owned edge. Each µchunk's slot is touched only by its worker.
type mcOut struct {
	kmod, hOutPre, eOut []float64
}

// shardRun is the mutable state of one Forward.
type shardRun struct {
	eng *ShardEngine

	// link, when non-nil, replaces the in-process channels: this run hosts
	// exactly one worker and every cross-worker message flows through the
	// link (a remote transport). The channel/stash fields are unused then.
	link ShardLink

	ch       []chan shardMsg
	stash    []map[ShardKey][]float64
	failed   chan struct{}
	failOnce sync.Once
	panicVal any

	hw     [][]float64 // per worker: extended h buffer [bufLo, bufHi)
	eLoc   [][]float64 // per µchunk: current e rows for localEdges
	finalH []float64   // L×d final embeddings (disjoint worker writes)
	outs   []mcOut     // per µchunk

	haloMsgs, haloBytes       int64
	syncMsgs, syncBytes       int64
	edgeMsgs, edgeBytes       int64
	collectMsgs, collectBytes int64
	fwdNs                     []int64
}

func newShardRun(e *ShardEngine) *shardRun {
	p := e.plan
	r := &shardRun{
		eng:    e,
		ch:     make([]chan shardMsg, p.workers),
		stash:  make([]map[ShardKey][]float64, p.workers),
		failed: make(chan struct{}),
		hw:     make([][]float64, p.workers),
		eLoc:   make([][]float64, shardChunks),
		finalH: make([]float64, p.L*p.dim),
		outs:   make([]mcOut, shardChunks),
		fwdNs:  make([]int64, p.workers),
	}
	for w := 0; w < p.workers; w++ {
		r.ch[w] = make(chan shardMsg, p.inCap[w])
		r.stash[w] = make(map[ShardKey][]float64)
		bufLo, bufHi := r.bufRange(w)
		r.hw[w] = make([]float64, (bufHi-bufLo)*p.dim)
	}
	for j := 0; j < shardChunks; j++ {
		r.eLoc[j] = make([]float64, len(p.mcs[j].localEdges)*p.dim)
	}
	return r
}

// bufRange is worker w's extended h-buffer row range: its own rows plus ω
// halo rows on each interior side.
func (r *shardRun) bufRange(w int) (int, int) {
	p := r.eng.plan
	lo := p.wb[w] - p.omega
	if lo < 0 {
		lo = 0
	}
	hi := p.wb[w+1] + p.omega
	if hi > p.L {
		hi = p.L
	}
	return lo, hi
}

func (r *shardRun) send(to int, key ShardKey, data []float64, msgs, bytes *int64) {
	atomic.AddInt64(msgs, 1)
	atomic.AddInt64(bytes, int64(len(data)*8))
	if r.link != nil {
		if err := r.link.Send(to, key, data); err != nil {
			panic(&shardLinkError{err})
		}
		return
	}
	select {
	case r.ch[to] <- shardMsg{key: key, data: data}:
	case <-r.failed:
		panic(errShardAborted)
	}
}

func (r *shardRun) recv(w int, key ShardKey) []float64 {
	if r.link != nil {
		data, err := r.link.Recv(key)
		if err != nil {
			panic(&shardLinkError{err})
		}
		return data
	}
	if d, ok := r.stash[w][key]; ok {
		delete(r.stash[w], key)
		return d
	}
	for {
		select {
		case m := <-r.ch[w]:
			if m.key == key {
				return m.data
			}
			r.stash[w][m.key] = m.data
		case <-r.failed:
			panic(errShardAborted)
		}
	}
}

// guard times a worker wave and converts peer-abort panics into a clean
// exit; a genuine panic is recorded once and re-raised on the caller.
func (r *shardRun) guard(ns *int64) func() {
	start := time.Now()
	return func() {
		atomic.StoreInt64(ns, int64(time.Since(start)))
		if rec := recover(); rec != nil && rec != errShardAborted {
			r.failOnce.Do(func() {
				r.panicVal = rec
				close(r.failed)
			})
		}
	}
}

func (r *shardRun) rethrow() {
	if r.panicVal != nil {
		panic(r.panicVal)
	}
}

// Forward runs the sharded forward pass and returns the model output,
// bit-identical to m.Forward(ctx).
func (e *ShardEngine) Forward() *tensor.Tensor {
	run := newShardRun(e)
	e.run = run
	// Best-effort budget accounting for the worker goroutines: nested
	// kernels still admit their own helpers through the same bucket.
	_, release := compute.Borrow(e.plan.workers - 1)
	var wg sync.WaitGroup
	for w := 0; w < e.plan.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer run.guard(&run.fwdNs[w])()
			run.workerForward(w)
		}(w)
	}
	wg.Wait()
	release()
	run.rethrow()

	return e.model.readoutFinal(e.ctx, run.finalH)
}

// FinalEmbeddings returns the final-layer path embeddings (NumRows×dim,
// row-major) collected by the last Forward. The returned slice is the
// engine's buffer; callers must not mutate it.
func (e *ShardEngine) FinalEmbeddings() []float64 {
	if e.run == nil {
		return nil
	}
	return e.run.finalH
}

// WorkerBounds returns the worker row boundaries: worker w owns path rows
// [b[w], b[w+1]).
func (e *ShardEngine) WorkerBounds() []int {
	return append([]int(nil), e.plan.wb...)
}

// Stats reports the traffic and timing of the last Forward (valid after it
// returns).
func (e *ShardEngine) Stats() ShardStats {
	r := e.run
	s := ShardStats{Workers: e.plan.workers}
	if r == nil {
		return s
	}
	s.HaloMessages = atomic.LoadInt64(&r.haloMsgs)
	s.HaloBytes = atomic.LoadInt64(&r.haloBytes)
	s.SyncMessages = atomic.LoadInt64(&r.syncMsgs)
	s.SyncBytes = atomic.LoadInt64(&r.syncBytes)
	s.EdgeMessages = atomic.LoadInt64(&r.edgeMsgs)
	s.EdgeBytes = atomic.LoadInt64(&r.edgeBytes)
	s.CollectMessages = atomic.LoadInt64(&r.collectMsgs)
	s.CollectBytes = atomic.LoadInt64(&r.collectBytes)
	s.ForwardNs = append([]int64(nil), r.fwdNs...)
	return s
}

// workerForward runs worker w's forward wave.
func (r *shardRun) workerForward(w int) {
	e := r.eng
	p := e.plan
	d := p.dim
	lo, hi := p.wb[w], p.wb[w+1]
	bufLo, _ := r.bufRange(w)
	hw := r.hw[w]
	row := func(rr int) []float64 {
		off := (rr - bufLo) * d
		return hw[off : off+d]
	}
	copyRows := func(a, b int) []float64 {
		out := make([]float64, (b-a)*d)
		copy(out, hw[(a-bufLo)*d:(b-bufLo)*d])
		return out
	}
	// hOutPre value of an own row in the current layer.
	preRow := func(rr int) []float64 {
		j := p.mcOfRow(rr)
		off := (rr - p.mcs[j].extLo) * d
		return r.outs[j].hOutPre[off : off+d]
	}

	// Layer-1 inputs: the encoder over own rows / local edges.
	enc := e.model.enc
	for _, j := range p.wMCs[w] {
		mc := p.mcs[j]
		hEnc := tensor.EmbedRows(enc.node.Table, mc.nodeIDs)
		copy(hw[(mc.lo-bufLo)*d:(mc.hi-bufLo)*d], hEnc.Data)
		copy(r.eLoc[j], tensor.EmbedRows(enc.edge.Table, mc.edgeTypes).Data)
	}

	for l := 0; l < p.layers; l++ {
		// Phase 1: dense ω-row halo exchange of the current embeddings.
		if w > 0 {
			r.send(w-1, mkey(phHalo, l, 0, w), copyRows(lo, lo+p.omega), &r.haloMsgs, &r.haloBytes)
		}
		if w < p.workers-1 {
			r.send(w+1, mkey(phHalo, l, 0, w), copyRows(hi-p.omega, hi), &r.haloMsgs, &r.haloBytes)
		}
		if w > 0 {
			copy(hw[(lo-p.omega-bufLo)*d:(lo-bufLo)*d], r.recv(w, mkey(phHalo, l, 0, w-1)))
		}
		if w < p.workers-1 {
			copy(hw[(hi-bufLo)*d:(hi+p.omega-bufLo)*d], r.recv(w, mkey(phHalo, l, 0, w+1)))
		}

		// Phase 2: attention + node stream per µchunk over the extended
		// range. Halo-row outputs are garbage and discarded; every op is
		// row-local so they cannot contaminate own rows. The inputs view hw
		// and eLoc directly: nothing writes either until this phase ends.
		lay := e.model.layers[l]
		for _, j := range p.wMCs[w] {
			mc := p.mcs[j]
			hExt := tensor.New(mc.extHi-mc.extLo, d, hw[(mc.extLo-bufLo)*d:(mc.extHi-bufLo)*d])
			eRep := tensor.New(len(mc.localEdges), d, r.eLoc[j])
			att, kmod := lay.forwardAttnStaged(mc.lctx, hExt, eRep, p.heads)
			r.outs[j].kmod = kmod.Data
			r.outs[j].hOutPre = lay.nodeStream(mc.lctx, hExt, att).Data
		}

		// Phase 3: duplicate-group synchronisation → h(ℓ+1) own rows.
		// Owners fold RAW member rows ascending global row from a zero
		// base and broadcast the mean — SegmentMean's exact arithmetic.
		for gi, g := range p.groups {
			if g.ownerW == w {
				continue
			}
			mine := g.byWorker[w]
			if len(mine) == 0 {
				continue
			}
			data := make([]float64, len(mine)*d)
			for i, rr := range mine {
				copy(data[i*d:(i+1)*d], preRow(int(rr)))
			}
			r.send(g.ownerW, mkey(phSyncFold, l, gi, w), data, &r.syncMsgs, &r.syncBytes)
		}
		for gi, g := range p.groups {
			if g.ownerW != w {
				continue
			}
			remote := make(map[int][]float64)
			used := make(map[int]int)
			for _, ow := range g.workers {
				if ow != w {
					remote[ow] = r.recv(w, mkey(phSyncFold, l, gi, ow))
				}
			}
			mean := make([]float64, d)
			for _, rr := range g.members {
				var src []float64
				if mw := p.wOfRow(int(rr)); mw == w {
					src = preRow(int(rr))
				} else {
					i := used[mw]
					src = remote[mw][i*d : (i+1)*d]
					used[mw] = i + 1
				}
				for c := 0; c < d; c++ {
					mean[c] += src[c]
				}
			}
			for c := range mean {
				mean[c] *= g.inv
			}
			for _, ow := range g.workers {
				if ow != w {
					r.send(ow, mkey(phSyncBcast, l, gi, w),
						append([]float64(nil), mean...), &r.syncMsgs, &r.syncBytes)
				}
			}
			for _, rr := range g.byWorker[w] {
				copy(row(int(rr)), mean)
			}
		}
		for gi, g := range p.groups {
			if g.ownerW == w || len(g.byWorker[w]) == 0 {
				continue
			}
			mean := r.recv(w, mkey(phSyncBcast, l, gi, g.ownerW))
			for _, rr := range g.byWorker[w] {
				copy(row(int(rr)), mean)
			}
		}
		for rr := lo; rr < hi; rr++ {
			if p.rowGroup[rr] >= 0 {
				continue
			}
			src := preRow(rr)
			dst := row(rr)
			if p.syncActive {
				// Mirror SegmentMean+Gather on a singleton segment: the
				// zero-base add flushes -0.0 to +0.0 exactly as the kernel
				// does; ×1.0 is the count-1 mean.
				for c := 0; c < d; c++ {
					s := 0.0 + src[c]
					dst[c] = s * 1.0
				}
			} else {
				copy(dst, src)
			}
		}

		// Phase 4: edge fold — referencing workers ship RAW k⊙ê pair rows
		// to each edge's owner, ascending global pair id.
		for _, ef := range p.wEdgeSend[w] {
			data := make([]float64, len(ef.pairs)*d)
			for i, pp := range ef.pairs {
				j, rw := int(p.pairMC[pp]), int(p.pairRow[pp])
				copy(data[i*d:(i+1)*d], r.outs[j].kmod[rw*d:(rw+1)*d])
			}
			r.send(ef.ownerW, mkey(phEdgeFold, l, int(ef.edge), w), data, &r.edgeMsgs, &r.edgeBytes)
		}
		// Phase 5: edge stream per owner µchunk — assemble the fold matrix in
		// ascending global pair order, SegmentMean per owned edge (the
		// single engine's EdgeMean bit for bit), then the edge stream.
		for _, j := range p.wMCs[w] {
			mc := p.mcs[j]
			if len(mc.ownEdges) == 0 {
				continue
			}
			kf := make([]float64, len(mc.foldPairs)*d)
			remote := make(map[[2]int32][]float64)
			used := make(map[[2]int32]int)
			for i, pp := range mc.foldPairs {
				srcMC := int(p.pairMC[pp])
				if srcW := p.mcW[srcMC]; srcW == w {
					rw := int(p.pairRow[pp])
					copy(kf[i*d:(i+1)*d], r.outs[srcMC].kmod[rw*d:(rw+1)*d])
				} else {
					e := p.edgeIdx[pp]
					rk := [2]int32{e, int32(srcW)}
					data, ok := remote[rk]
					if !ok {
						data = r.recv(w, mkey(phEdgeFold, l, int(e), srcW))
						remote[rk] = data
					}
					ui := used[rk]
					copy(kf[i*d:(i+1)*d], data[ui*d:(ui+1)*d])
					used[rk] = ui + 1
				}
			}
			eAvg := tensor.SegmentMean(tensor.New(len(mc.foldPairs), d, kf), mc.foldSeg, len(mc.ownEdges))
			eOwnData := make([]float64, len(mc.ownEdges)*d)
			for i, ee := range mc.ownEdges {
				li := mc.edgeLocal[ee]
				copy(eOwnData[i*d:(i+1)*d], r.eLoc[j][li*d:(li+1)*d])
			}
			eOwn := tensor.New(len(mc.ownEdges), d, eOwnData)
			r.outs[j].eOut = lay.edgeStream(&Context{}, eOwn, eAvg).Data
		}
		// Phase 6: broadcast owned-edge outputs to referencing workers and
		// refresh every local edge table for the next layer.
		for _, j := range p.wMCs[w] {
			mc := p.mcs[j]
			for oi, ee := range mc.ownEdges {
				for _, rw := range p.edgeRefWorkers[ee] {
					if rw == w {
						continue
					}
					out := r.outs[j].eOut[oi*d : (oi+1)*d]
					r.send(rw, mkey(phEdgeBcast, l, int(ee), w),
						append([]float64(nil), out...), &r.edgeMsgs, &r.edgeBytes)
				}
			}
		}
		for _, le := range p.wLocalEdges[w] {
			jo := int(p.edgeOwner[le.edge])
			var src []float64
			if ow := p.mcW[jo]; ow == w {
				oi := -1
				for i, ee := range p.mcs[jo].ownEdges {
					if ee == le.edge {
						oi = i
						break
					}
				}
				src = r.outs[jo].eOut[oi*d : (oi+1)*d]
			} else {
				src = r.recv(w, mkey(phEdgeBcast, l, int(le.edge), ow))
			}
			for _, j := range le.mcs {
				li := p.mcs[j].edgeLocal[le.edge]
				copy(r.eLoc[j][li*d:(li+1)*d], src)
			}
		}
	}

	// Collect: final own rows into the shared output buffer.
	copy(r.finalH[lo*d:hi*d], hw[(lo-bufLo)*d:(hi-bufLo)*d])
	atomic.AddInt64(&r.collectMsgs, 1)
	atomic.AddInt64(&r.collectBytes, int64((hi-lo)*d*8))
}

// ShardWorkerResult is one worker's share of a distributed forward: its
// owned final-embedding rows and the traffic it originated (send-side
// counters only, so summing the k results reproduces the in-process
// engine's totals exactly).
type ShardWorkerResult struct {
	Lo, Hi  int       // owned path-row range [Lo, Hi)
	PathLen int       // total path rows L across all workers
	Rows    []float64 // (Hi-Lo)×dim row-major final embeddings
	Stats   ShardStats
}

// RunShardWorkerForward runs worker w's forward wave of a k-worker shard
// plan in this process, exchanging cross-worker messages over link. It is
// the process-boundary counterpart of ShardEngine.Forward: when every
// worker of the plan runs somewhere (any mix of processes) over a link
// that preserves payload bits, the concatenated Rows are bit-identical to
// the in-process engine's final embeddings, and ReadoutFromFinal on the
// assembled rows reproduces m.Forward(ctx) exactly.
//
// A link error (peer death, deadline) aborts the wave and is returned;
// any other panic inside the wave is also converted to an error so a
// malformed job cannot kill a worker process.
func RunShardWorkerForward(m *GT, ctx *Context, workers, w int, link ShardLink) (ShardWorkerResult, error) {
	if w < 0 || w >= workers {
		return ShardWorkerResult{}, fmt.Errorf("models: shard worker index %d out of range [0,%d)", w, workers)
	}
	eng, err := NewShardEngine(m, ctx, workers)
	if err != nil {
		return ShardWorkerResult{}, err
	}
	run := newShardRun(eng)
	run.link = link
	eng.run = run
	err = func() (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				if le, ok := rec.(*shardLinkError); ok {
					err = le.err
				} else {
					err = fmt.Errorf("models: shard worker %d/%d panicked: %v", w, workers, rec)
				}
			}
		}()
		start := time.Now()
		run.workerForward(w)
		atomic.StoreInt64(&run.fwdNs[w], int64(time.Since(start)))
		return nil
	}()
	if err != nil {
		return ShardWorkerResult{}, err
	}
	lo, hi := eng.plan.wb[w], eng.plan.wb[w+1]
	d := eng.plan.dim
	return ShardWorkerResult{
		Lo:      lo,
		Hi:      hi,
		PathLen: eng.plan.L,
		Rows:    append([]float64(nil), run.finalH[lo*d:hi*d]...),
		Stats:   eng.Stats(),
	}, nil
}

// ReadoutFromFinal applies the readout tail — SegmentMean over node slots,
// SegmentMean over member graphs, readout head — to externally assembled
// final embeddings (NumRows×dim row-major). It is exactly the tail of
// ShardEngine.Forward, so feeding it the rows collected from a distributed
// run yields output bit-identical to m.Forward(ctx).
func (m *GT) ReadoutFromFinal(ctx *Context, finalH []float64) (*tensor.Tensor, error) {
	if ctx.posToNode == nil {
		return nil, fmt.Errorf("%w: readout tail requires a MEGA context", ErrUnshardable)
	}
	if len(finalH) != ctx.NumRows*m.cfg.Dim {
		return nil, fmt.Errorf("models: final embeddings have %d values, want %d×%d",
			len(finalH), ctx.NumRows, m.cfg.Dim)
	}
	return m.readoutFinal(ctx, finalH), nil
}

// readoutFinal is ReadoutFromFinal without the checks: the single engine's
// readout arithmetic over a MEGA context's final embeddings.
func (m *GT) readoutFinal(ctx *Context, finalH []float64) *tensor.Tensor {
	hFinal := tensor.New(ctx.NumRows, m.cfg.Dim, finalH)
	nodes := tensor.SegmentMean(hFinal, ctx.posToNode, ctx.numNodeSlots)
	pooled := tensor.SegmentMean(nodes, ctx.nodeGraph, ctx.NumGraphs)
	return m.readout.Forward(pooled)
}
