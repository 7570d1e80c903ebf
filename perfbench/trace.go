package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mega/internal/band"
	"mega/internal/datasets"
	"mega/internal/dynamic"
	"mega/internal/gpusim"
	"mega/internal/graph"
	"mega/internal/models"
	"mega/internal/serve"
	"mega/internal/tensor"
	"mega/internal/train"
	"mega/internal/traverse"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// spanRecorder keeps spans in memory. A nil recorder records nothing and
// costs one nil check per call, so the same code runs traced and untraced.
type spanRecorder struct {
	t0    time.Time
	req   int
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// start opens a span under parent (-1 for a root) and returns its id.
func (r *spanRecorder) start(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Req: r.req})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
}

// durations returns the sorted durations of every span with the name.
func (r *spanRecorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return sorted(out)
}

// selfTimes sums each span name's self time: its duration minus the time
// its direct children cover (children of one span never overlap).
func (r *spanRecorder) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range r.spans {
		self[s.Name] += time.Duration(s.End - s.Start)
	}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			self[r.spans[s.Parent].Name] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// write stores the spans as JSON lines.
func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayReq is one request of the traced replay, in serving order. id is
// the request's index in the serving phase, so its replay spans and its
// serving span share an id. Warm-up requests have negative ids and only
// populate the replay's cache: decode, fingerprint and preprocessing.
type replayReq struct {
	id     int
	warm   bool
	inst   datasets.Instance // predicts
	lin    int               // updates: lineage index, else -1
	update serve.UpdateRequest
}

// replayer walks requests through each layer's public functions, one at a
// time, as the server would: decode, fingerprint, cache lookup, traversal
// and band construction on a miss, segment plan, context assembly and the
// forward pass; updates go through the dynamic maintainer and publish the
// repaired representation, so a later predict of that version hits.
type replayer struct {
	model    models.Model
	modelF32 models.ModelF32 // non-nil when serving at f32
	arena    *tensor.Arena
	topts    traverse.Options
	rng      *rand.Rand

	cache       map[graph.Fingerprint]*models.PreparedRep
	maintainers map[int]*dynamic.Maintainer

	// Exact counts accumulated over the replay.
	pairs, rows, nodes, pathRows int
	attnBytes                    float64
	splices, rebuilds, prefix    int
}

func newReplayer(model models.Model, f32 bool) (*replayer, error) {
	rp := &replayer{model: model, arena: tensor.NewArena(), topts: models.MegaOptions{}.TraverseOptions()}
	if f32 {
		var err error
		if rp.modelF32, err = models.PrepareF32(model); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

func (rp *replayer) reset(seed int64) {
	rp.rng = rand.New(rand.NewSource(seed))
	rp.cache = map[graph.Fingerprint]*models.PreparedRep{}
	rp.maintainers = map[int]*dynamic.Maintainer{}
	rp.pairs, rp.rows, rp.nodes, rp.pathRows, rp.attnBytes = 0, 0, 0, 0, 0
	rp.splices, rp.rebuilds, rp.prefix = 0, 0, 0
}

// run replays every request under rec (nil replays untraced).
func (rp *replayer) run(reqs []replayReq, rec *spanRecorder) error {
	for i, q := range reqs {
		if rec != nil {
			rec.req = q.id
		}
		var err error
		if q.lin >= 0 {
			err = rp.update(q, rec)
		} else {
			err = rp.predict(q.inst, q.warm, rec)
		}
		if err != nil {
			return fmt.Errorf("replay request %d: %w", i, err)
		}
	}
	return nil
}

func (rp *replayer) predict(inst datasets.Instance, warm bool, rec *spanRecorder) error {
	name := "request.predict"
	if warm {
		name = "request.warm"
	}
	root := rec.start(name, -1)
	defer rec.end(root)

	wire, err := json.Marshal(serve.GraphRequest{
		NumNodes: inst.G.NumNodes(), Edges: edgePairs(inst.G), NodeFeats: inst.NodeFeat, EdgeFeats: inst.EdgeFeat,
	})
	if err != nil {
		return err
	}
	sp := rec.start("graph.decode", root)
	var req serve.GraphRequest
	if err := json.Unmarshal(wire, &req); err != nil {
		return err
	}
	inst, err = req.Instance()
	rec.end(sp)
	if err != nil {
		return err
	}

	sp = rec.start("graph.fingerprint", root)
	fp := inst.G.Fingerprint()
	rec.end(sp)
	prep, ok := rp.cache[fp]
	if !ok {
		if prep, err = rp.prepare(inst.G, root, rec); err != nil {
			return err
		}
		rp.cache[fp] = prep
	}
	if warm {
		return nil
	}
	rp.nodes += inst.G.NumNodes()
	rp.pathRows += len(prep.Res.Path)

	sp = rec.start("models.context", root)
	ctx, err := models.NewMegaContextFromReps([]datasets.Instance{inst}, []*models.PreparedRep{prep}, nil, modelConfig.Dim)
	rec.end(sp)
	if err != nil {
		return err
	}
	ctx.Scratch = rp.arena
	rp.rows += ctx.NumRows

	sp = rec.start("models.forward", root)
	if rp.modelF32 != nil {
		rp.arena.PutF32(rp.modelF32.Forward(ctx, rp.arena))
	} else {
		rp.model.Forward(ctx)
	}
	rec.end(sp)

	rp.attention(ctx, root, rec)

	// The MEGA-over-DGL ratio compares like with like: both engines at
	// f64, on the same graph.
	if rp.modelF32 != nil {
		sp = rec.start("models.forward_f64", root)
		rp.model.Forward(ctx)
		rec.end(sp)
	}
	sp = rec.start("models.dgl_forward", root)
	dctx, err := models.NewDGLContext([]datasets.Instance{inst}, nil, modelConfig.Dim)
	if err == nil {
		dctx.Scratch = rp.arena
		rp.model.Forward(dctx)
	}
	rec.end(sp)
	return err
}

// prepare is PrepareMega split at its layer boundary, plus the plan build.
func (rp *replayer) prepare(g *graph.Graph, root int, rec *spanRecorder) (*models.PreparedRep, error) {
	sp := rec.start("traverse.run", root)
	res, err := traverse.Run(g, rp.topts)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.start("band.build", root)
	rep, err := band.Build(res.Graph, res, 0)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	prep := &models.PreparedRep{Rep: rep, Res: res}
	sp = rec.start("models.plan", root)
	prep.Plan()
	rec.end(sp)
	return prep, nil
}

// attention calls the fused attention kernel directly on the context's own
// index arrays with seeded q/k/v/edge tensors of the model's width.
func (rp *replayer) attention(ctx *models.Context, root int, rec *spanRecorder) {
	d, heads := modelConfig.Dim, modelConfig.Heads
	rows, edges, pairs := ctx.NumRows, ctx.NumEdges, len(ctx.RecvIdx)
	byRecv := tensor.BuildSegments(ctx.RecvIdx, rows)
	byEdge := tensor.BuildSegments(ctx.EdgeIdx, edges)
	elem := 8.0
	if rp.modelF32 != nil {
		elem = 4
		q, k, v, ew := randF32(rp.rng, rows, d), randF32(rp.rng, rows, d), randF32(rp.rng, rows, d), randF32(rp.rng, edges, d)
		sp := rec.start("tensor.attention", root)
		att, eo := tensor.FusedSegmentAttention32(q, k, v, ew, ctx.RecvIdx, ctx.SendIdx, ctx.EdgeIdx, byRecv, byEdge, heads, tensor.LayoutHeadMajor, rp.arena)
		rec.end(sp)
		rp.arena.PutF32(att)
		rp.arena.PutF32(eo)
	} else {
		bySend := tensor.BuildSegments(ctx.SendIdx, rows)
		q, k, v, ew := tensor.Randn(rp.rng, rows, d, 1), tensor.Randn(rp.rng, rows, d, 1), tensor.Randn(rp.rng, rows, d, 1), tensor.Randn(rp.rng, edges, d, 1)
		sp := rec.start("tensor.attention", root)
		tensor.FusedSegmentAttention(q, k, v, ew, ctx.RecvIdx, ctx.SendIdx, ctx.EdgeIdx, byRecv, bySend, byEdge, heads, rp.arena)
		rec.end(sp)
	}
	rp.pairs += pairs
	// Bytes the kernel must touch, from tensor sizes: q, k, v and the
	// output per row, the edge weights and edge output per edge, and
	// three int32 indices per pair.
	rp.attnBytes += elem*float64(d)*float64(4*rows+2*edges) + 12*float64(pairs)
}

func randF32(rng *rand.Rand, rows, cols int) *tensor.F32 {
	data := make([]float32, rows*cols)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	return tensor.NewF32(rows, cols, data)
}

// update applies one lineage update through the dynamic maintainer and
// publishes the repaired representation under the successor fingerprint.
func (rp *replayer) update(q replayReq, rec *spanRecorder) error {
	root := rec.start("request.update", -1)
	defer rec.end(root)
	m := rp.maintainers[q.lin]
	if m == nil {
		fp, err := graph.ParseFingerprint(q.update.Fingerprint)
		if err != nil {
			return err
		}
		prep, ok := rp.cache[fp]
		if !ok {
			return fmt.Errorf("update of an unknown fingerprint %s", q.update.Fingerprint)
		}
		if m, err = dynamic.Adopt(prep.Rep, prep.Res, rp.topts, dynamic.Policy{}); err != nil {
			return err
		}
		rp.maintainers[q.lin] = m
	}
	if got := m.Fingerprint().String(); got != q.update.Fingerprint {
		return fmt.Errorf("lineage %d is at %s, update expects %s", q.lin, got, q.update.Fingerprint)
	}
	repairs, err := rp.applyTimed("dynamic.apply", m, q.update, root, rec)
	if err != nil {
		return err
	}
	rp.countRepairs(repairs)
	rp.cache[m.Fingerprint()] = &models.PreparedRep{Rep: m.Rep(), Res: m.Result()}
	return nil
}

func (rp *replayer) applyTimed(name string, m *dynamic.Maintainer, u serve.UpdateRequest, root int, rec *spanRecorder) ([]dynamic.Repair, error) {
	sp := rec.start(name, root)
	repairs, err := m.ApplyBatch(nodePairs(u.Remove), nodePairs(u.Add))
	rec.end(sp)
	return repairs, err
}

func (rp *replayer) countRepairs(repairs []dynamic.Repair) {
	for _, r := range repairs {
		if r.Kind == dynamic.RepairSplice {
			rp.splices++
			rp.prefix += r.PrefixRows
		} else {
			rp.rebuilds++
		}
	}
}

func nodePairs(ps [][2]int32) [][2]graph.NodeID {
	out := make([][2]graph.NodeID, len(ps))
	for i, p := range ps {
		out[i] = [2]graph.NodeID{p[0], p[1]}
	}
	return out
}

func edgePairs(g *graph.Graph) [][2]int32 {
	out := make([][2]int32, g.NumEdges())
	for i, e := range g.Edges() {
		out[i] = [2]int32{e.Src, e.Dst}
	}
	return out
}

// sampleTraverse times traversals cycling over the graphs until it has
// enough samples for a p99 with ten beyond it.
func (rp *replayer) sampleTraverse(gs []*graph.Graph, rec *spanRecorder) error {
	for i := 0; i < 1000; i++ {
		sp := rec.start("traverse.sample", -1)
		_, err := traverse.Run(gs[i%len(gs)], rp.topts)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// sampleApply times single-mutation repairs, cycling over the updates
// until it has enough samples for a p99: each sample adopts the update's
// base representation (untimed) and applies the update (timed).
func (rp *replayer) sampleApply(ups []serve.UpdateRequest, bases []*models.PreparedRep, rec *spanRecorder) error {
	for i := 0; i < 1000; i++ {
		u, base := ups[i%len(ups)], bases[i%len(ups)]
		m, err := dynamic.Adopt(base.Rep, base.Res, rp.topts, dynamic.Policy{})
		if err != nil {
			return err
		}
		if _, err := rp.applyTimed("dynamic.sample", m, u, -1, rec); err != nil {
			return err
		}
	}
	return nil
}

// forwardCycles runs the first graphs through the simulated GPU and
// returns the summed cycle count of their MEGA forward passes.
func (rp *replayer) forwardCycles(insts []datasets.Instance) (float64, error) {
	total := 0.0
	for _, inst := range insts {
		prep, ok := rp.cache[inst.G.Fingerprint()]
		if !ok {
			return 0, fmt.Errorf("gpusim: graph not prepared")
		}
		sim := gpusim.New(gpusim.GTX1080())
		ctx, err := models.NewMegaContextFromReps([]datasets.Instance{inst}, []*models.PreparedRep{prep}, sim, modelConfig.Dim)
		if err != nil {
			return 0, err
		}
		rp.model.Forward(ctx)
		total += sim.TotalCycles()
	}
	return total, nil
}

// traceInputs are one workload's seeded inputs for the traced run.
type traceInputs struct {
	srv   *serveBench
	reqs  []replayReq
	model models.Model
	f32   bool
	cfg   models.Config
	// zinc is train-zinc's dataset, whose own batches the traced training
	// steps use; serving workloads train on their replayed graphs.
	zinc *datasets.Dataset
}

// Replay sizes: a fixed number of requests, so every count is exact.
const (
	replayRequests = 160
	gpusimGraphs   = 16
	trainSteps     = 4
)

// runTraced measures the per-layer metrics. The serving layers (batcher,
// cache, pacer) are read from the server's own counters while the
// workload's high-rate phase runs open loop; the other layers from a
// sequential replay of the same seeded requests through each layer's
// public functions. The replay runs twice, untraced and traced, and the
// difference is the recorder's overhead.
func runTraced(r *report, workload string, seed int64, budget time.Duration) error {
	rec := newSpanRecorder()
	in, phase, err := traceServe(r, workload, seed, budget, rec)
	if err != nil {
		return err
	}
	if in.srv != nil {
		defer in.srv.srv.Close()
	}
	if err := phase.reconcile(); err != nil {
		return fmt.Errorf("%w: %v", errUnreconciled, err)
	}

	rp, err := newReplayer(in.model, in.f32)
	if err != nil {
		return err
	}
	// A warm-up pass, then the replay untraced and traced.
	var off, on time.Duration
	for pass, pr := range []*spanRecorder{nil, nil, rec} {
		runtime.GC()
		rp.reset(seed)
		t0 := time.Now()
		if err := rp.run(in.reqs, pr); err != nil {
			return err
		}
		switch pass {
		case 1:
			off = time.Since(t0)
		case 2:
			on = time.Since(t0)
		}
	}

	// Distribution samples and counts outside the replayed requests.
	var gs []*graph.Graph
	var firsts []datasets.Instance
	for _, q := range in.reqs {
		if q.lin < 0 {
			gs = append(gs, q.inst.G)
			if len(firsts) < gpusimGraphs {
				firsts = append(firsts, q.inst)
			}
		}
	}
	rec.req = -1
	if err := rp.sampleTraverse(gs, rec); err != nil {
		return err
	}
	ups, bases, err := rp.mutations(in, seed)
	if err != nil {
		return err
	}
	if err := rp.sampleApply(ups, bases, rec); err != nil {
		return err
	}
	cycles, err := rp.forwardCycles(firsts)
	if err != nil {
		return err
	}
	if err := traceTrain(in, seed, rec); err != nil {
		return err
	}

	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := rec.write(path); err != nil {
		return err
	}
	layerMetrics(r, rec, rp, phase, cycles)
	r.set("trace.overhead_frac", "ratio", on.Seconds()/off.Seconds()-1)
	r.set("trace.spans", "count", float64(len(rec.spans)))
	r.out.Attempted = len(phase.results) + len(in.reqs)
	r.out.Failed += phase.counts().predictErrs + phase.counts().updateErrs
	r.note("replay of %d requests: %.3f s untraced, %.3f s traced; %d spans written to %s", len(in.reqs), off.Seconds(), on.Seconds(), len(rec.spans), path)
	selfTimes(r, rec)
	r.note("exact counts (repeat exactly at one seed; the only per-layer numbers a change may claim on as counts): %v", exactCounts)
	return nil
}

// exactCounts are the per-layer metrics that are counts of work, not
// timings: they repeat exactly at one seed.
var exactCounts = []string{
	"cache.hit_ratio", "cache.evictions", "traverse.path_expansion", "tensor.attention_pairs",
	"tensor.attention_mbytes", "gpusim.forward_cycles", "dynamic.splice_ratio",
	"dynamic.prefix_rows_mean", "trace.spans",
}

// mutations returns single-edge updates with their base representations
// for the repair samples: the workload's own lineage updates where it has
// them, otherwise one seeded chord insertion per replayed graph.
func (rp *replayer) mutations(in traceInputs, seed int64) ([]serve.UpdateRequest, []*models.PreparedRep, error) {
	var ups []serve.UpdateRequest
	var bases []*models.PreparedRep
	for _, q := range in.reqs {
		if q.lin < 0 {
			continue
		}
		fp, err := graph.ParseFingerprint(q.update.Fingerprint)
		if err != nil {
			return nil, nil, err
		}
		ups, bases = append(ups, q.update), append(bases, rp.cache[fp])
	}
	if len(ups) > 0 {
		return ups, bases, nil
	}
	rng := rand.New(rand.NewSource(seed))
	seen := map[*graph.Graph]bool{}
	for _, q := range in.reqs {
		g := q.inst.G
		if seen[g] || g.NumEdges() >= g.NumNodes()*(g.NumNodes()-1)/2 {
			continue
		}
		seen[g] = true
		l := &lineage{versions: []datasets.Instance{q.inst}}
		l.plan(rng)
		ups, bases = append(ups, l.updates[0]), append(bases, rp.cache[g.Fingerprint()])
	}
	return ups, bases, nil
}

// traceServe builds the workload's inputs and runs its serving phase open
// loop, recording one span per request from its due time to its reply.
func traceServe(r *report, workload string, seed int64, budget time.Duration, rec *spanRecorder) (traceInputs, *phase, error) {
	var in traceInputs
	reached := map[*lineage]int{} // the version each lineage is at
	var b *serveBench
	var calls []call
	var warm []datasets.Instance
	var rate float64
	if p, ok := serveWorkloads[workload]; ok {
		var err error
		if b, err = setupServe(p, seed); err != nil {
			return in, nil, err
		}
		// The same requests the end-to-end run sends at its high rate:
		// plan the low phase first, and apply its updates untimed so the
		// lineages stand where the high phase expects them.
		for _, c := range b.plan(p.LowRate, share(budget, lowShare)) {
			if c.kind == kindUpdate {
				if _, err := b.srv.Update(c.lin.updates[c.upd]); err != nil {
					b.srv.Close()
					return in, nil, err
				}
				c.lin.done.Add(1)
			}
		}
		for _, l := range b.lineages {
			warm = append(warm, l.versions[l.done.Load()])
		}
		for _, class := range b.pool {
			warm = append(warm, class...)
		}
		rate = p.HighRate
		calls = b.plan(rate, p.phaseDur(rate, share(budget, highShare)))
		for _, l := range b.lineages {
			reached[l] = int(l.done.Load())
		}
		in.model, in.f32, in.cfg = b.model, p.Precision == serve.PrecisionF32, modelConfig
	} else if workload == "train-zinc" {
		var err error
		if in.zinc, err = trainDataset(seed); err != nil {
			return in, nil, err
		}
		if b, calls, err = zincServing(in.zinc, seed, budget); err != nil {
			return in, nil, err
		}
		rate = zincServeRate
		in.model, in.cfg = b.model, b.srv.Meta().Config
	} else {
		return in, nil, fmt.Errorf("unknown workload %q", workload)
	}
	in.srv = b

	mem0 := readMem()
	ph := b.run("high", rate, calls)
	mem := readMem().sub(mem0)
	ph.mem = mem
	for i, res := range ph.results {
		name := "serve.predict"
		if res.kind == kindUpdate {
			name = "serve.update"
		}
		due := ph.t0.Sub(rec.t0) + calls[i].due
		rec.spans = append(rec.spans, span{Name: name, Start: int64(due), End: int64(due + res.lat), Parent: -1, Req: i})
	}
	wrong, err := b.checkAnswers(ph)
	if err != nil {
		return in, nil, err
	}
	if wrong > 0 {
		r.out.Failed += wrong
		r.fail("%d wrong answers in the serving phase", wrong)
	}

	// The replay: warm-up graphs in setup order, then the first requests
	// of the phase in due order, with each version predict resolved to the
	// version the replay's own lineage has reached.
	for i, inst := range warm {
		in.reqs = append(in.reqs, replayReq{id: -1 - i, warm: true, inst: inst, lin: -1})
	}
	linIndex := map[*lineage]int{}
	for i, l := range b.lineages {
		linIndex[l] = i
	}
	for i := 0; i < len(calls) && i < replayRequests; i++ {
		c := calls[i]
		switch c.kind {
		case kindUpdate:
			in.reqs = append(in.reqs, replayReq{id: i, lin: linIndex[c.lin], update: c.lin.updates[c.upd]})
			reached[c.lin] = c.upd + 1
		case kindVersion:
			in.reqs = append(in.reqs, replayReq{id: i, inst: c.lin.versions[reached[c.lin]], lin: -1})
		default:
			in.reqs = append(in.reqs, replayReq{id: i, inst: c.inst, lin: -1})
		}
	}
	return in, ph, nil
}

// zincServeRate is the fixed rate at which train-zinc's serving phase
// predicts its training graphs.
const zincServeRate = 100

// zincServing serves train-zinc's own graphs: a server over a ZINC-vocabulary
// GT of the serving model's shape predicts the training graphs open loop.
func zincServing(ds *datasets.Dataset, seed int64, budget time.Duration) (*serveBench, []call, error) {
	cfg := modelConfig
	cfg.NodeTypes, cfg.EdgeTypes = ds.NumNodeTypes, ds.NumEdgeTypes
	model, err := train.NewModel("GT", cfg)
	if err != nil {
		return nil, nil, err
	}
	meta := train.Checkpoint{Model: "GT", Config: cfg, Task: datasets.TaskRegression, Dataset: "ZINC"}
	srv, err := serve.New(model, meta, serve.Options{})
	if err != nil {
		return nil, nil, err
	}
	b := &serveBench{srv: srv, model: model, rng: rand.New(rand.NewSource(seed)), refs: map[*graph.Graph][]float64{}}
	var calls []call
	for i, t := range poissonArrivals(b.rng, zincServeRate, share(budget, highShare).Seconds()) {
		calls = append(calls, call{due: time.Duration(t * float64(time.Second)), kind: kindFresh, inst: ds.Train[i%len(ds.Train)]})
	}
	return b, calls, nil
}

// traceTrain runs a few traced training steps: train-zinc's own batches,
// or batches of a serving workload's replayed graphs on its serving model.
func traceTrain(in traceInputs, seed int64, rec *spanRecorder) error {
	var tr *trainer
	var err error
	if in.zinc != nil {
		tr, err = newTrainer(in.zinc, seed)
	} else {
		var insts []datasets.Instance
		for _, q := range in.reqs {
			if q.lin < 0 {
				insts = append(insts, q.inst)
			}
		}
		tr, err = newTrainerOn(insts, nil, in.cfg)
	}
	if err != nil {
		return err
	}
	for i := 0; i < trainSteps && i < len(tr.trainCtxs); i++ {
		root := rec.start("train.step", -1)
		tr.step(tr.trainCtxs[i], rec, root)
		rec.end(root)
	}
	return nil
}

// layerMetrics turns the spans and counters into the per-layer metrics.
func layerMetrics(r *report, rec *spanRecorder, rp *replayer, ph *phase, cycles float64) {
	p50 := func(name string) time.Duration { return quantile(rec.durations(name), 0.5) }
	p99 := func(name string) time.Duration { return quantile(rec.durations(name), 0.99) }

	a, z := ph.after, ph.before
	qw := bucketDelta(a.QueueLatency.Buckets, z.QueueLatency.Buckets)
	r.set("serve.queue_wait_p50_ms", "ms", qw(0.5))
	r.set("serve.queue_wait_p99_ms", "ms", qw(0.99))
	r.set("serve.batch_size_mean", "requests", batchMean(ph))
	reqs := a.Requests - z.Requests
	r.set("serve.shed_frac", "ratio", float64(a.Shed-z.Shed)/float64(max(1, reqs)))
	hits, misses := a.Cache.Hits-z.Cache.Hits, a.Cache.Misses-z.Cache.Misses
	r.set("cache.hit_ratio", "ratio", float64(hits)/float64(max(1, hits+misses)))
	r.set("cache.evictions", "count", float64(a.Cache.Evictions-z.Cache.Evictions))
	r.set("driver.pacer_lag_p99_ms", "ms", ms(quantile(ph.pacerLags(), 0.99)))
	r.set("runtime.gc_cycles", "count", float64(ph.mem.gcs))
	r.set("runtime.gc_pause_ms", "ms", ms(ph.mem.pause))

	r.set("graph.decode_us", "us", us(p50("graph.decode")))
	r.set("graph.fingerprint_us", "us", us(p50("graph.fingerprint")))
	r.set("traverse.run_us_p50", "us", us(p50("traverse.sample")))
	r.set("traverse.run_us_p99", "us", us(p99("traverse.sample")))
	r.set("band.build_us_p50", "us", us(p50("band.build")))
	r.set("traverse.path_expansion", "ratio", float64(rp.pathRows)/float64(max(1, rp.nodes)))
	r.set("models.plan_us_p50", "us", us(p50("models.plan")))
	r.set("models.context_us_p50", "us", us(p50("models.context")))
	fwd := rec.durations("models.forward")
	r.set("models.forward_ms_p50", "ms", ms(quantile(fwd, 0.5)))
	total := time.Duration(0)
	for _, d := range fwd {
		total += d
	}
	r.set("models.forward_us_per_row", "us", us(total)/float64(max(1, rp.rows)))
	mega64 := p50("models.forward")
	if rp.modelF32 != nil {
		mega64 = p50("models.forward_f64")
	}
	dgl := p50("models.dgl_forward")
	r.set("models.dgl_forward_ms_p50", "ms", ms(dgl))
	r.set("models.mega_over_dgl", "ratio", float64(mega64)/float64(dgl))
	r.set("tensor.attention_us_p50", "us", us(p50("tensor.attention")))
	r.set("tensor.attention_pairs", "count", float64(rp.pairs))
	r.set("tensor.attention_mbytes", "MB", rp.attnBytes/1e6)
	r.set("gpusim.forward_cycles", "count", cycles)
	r.set("dynamic.apply_us_p50", "us", us(p50("dynamic.sample")))
	r.set("dynamic.apply_us_p99", "us", us(p99("dynamic.sample")))
	repairs := rp.splices + rp.rebuilds
	r.set("dynamic.splice_ratio", "ratio", float64(rp.splices)/float64(max(1, repairs)))
	r.set("dynamic.prefix_rows_mean", "rows", float64(rp.prefix)/float64(max(1, rp.splices)))
	r.set("train.forward_ms_p50", "ms", ms(p50("train.forward")))
	r.set("train.backward_ms_p50", "ms", ms(p50("train.backward")))
	r.set("train.optimizer_ms_p50", "ms", ms(p50("train.optimizer")))
	for _, name := range []string{"traverse.sample", "dynamic.sample", "models.forward", "train.step"} {
		r.note("span %s: n=%d", name, len(rec.durations(name)))
	}
}

// bucketDelta returns a quantile function over the difference of two
// cumulative histogram snapshots, rounded up to the bucket bound as the
// server's own quantiles are.
func bucketDelta(after, before []serve.Bucket) func(q float64) float64 {
	counts := make([]uint64, len(after))
	var n uint64
	for i := range after {
		counts[i] = after[i].Count
		if i < len(before) {
			counts[i] -= before[i].Count
		}
		n += counts[i]
	}
	return func(q float64) float64 {
		target := uint64(q*float64(n) + 0.999999)
		if target == 0 {
			target = 1
		}
		var cum uint64
		last := 0.0
		for i, c := range counts {
			if !after[i].Inf {
				last = after[i].LeMs
			}
			cum += c
			if cum >= target {
				break
			}
		}
		return last // the overflow bucket reports the last finite bound
	}
}

// selfTimes prints each span name's total self time, largest first.
func selfTimes(r *report, rec *spanRecorder) {
	self := rec.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		r.note("self time %-22s %10.3f ms over %d spans", n, ms(self[n]), len(rec.durations(n)))
	}
}
