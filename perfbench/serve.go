package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mega/internal/datasets"
	"mega/internal/graph"
	"mega/internal/models"
	"mega/internal/serve"
	"mega/internal/tensor"
	"mega/internal/train"
)

// modelConfig is the ephemeral seeded GT model megaload serves when no
// checkpoint is given: load characteristics depend on shapes, not on
// trained weights.
var modelConfig = models.Config{Dim: 32, Layers: 2, Heads: 4, NodeTypes: 8, EdgeTypes: 4, OutDim: 1, Seed: 42}

// serveParams fixes one serving workload. Rates are requests per second.
type serveParams struct {
	Precision string  `json:"precision"`
	LowRate   float64 `json:"low_rate"`
	HighRate  float64 `json:"high_rate"`
	// CapLo/CapHi bracket the capacity search. The high-rate phase is its
	// first probe: when it meets the SLO the search runs between HighRate
	// and CapHi, otherwise between CapLo and HighRate.
	CapLo float64 `json:"cap_lo"`
	CapHi float64 `json:"cap_hi"`
	// Churn selects the fresh/update/version mix; otherwise every
	// request is a warm-pool hit.
	Churn bool `json:"churn"`
	// KindMix splits churn arrivals, in tenths, into fresh predicts,
	// updates and predicts of a lineage's latest version.
	KindMix  []int `json:"kind_mix,omitempty"`
	Lineages int   `json:"lineages,omitempty"`
	PoolPer  int   `json:"pool_per_class,omitempty"`
	// TailQ is the reported tail quantile: the highest one with at least
	// ten samples beyond it in each third of the high-rate phase. The SLO
	// caps it.
	TailQ float64 `json:"tail_q"`
	SLOMs float64 `json:"slo_ms"`
}

// serveWorkloads are the serving workloads. Each SLO is placed where the
// probes judge it steadily. serve-hot's p99 turns bimodal above ~1100
// req/s (a queue of f32 hits either drains in larger, cheaper batches or
// runs away), so its SLO sits below that, where the tail still grows
// smoothly with the rate. serve-churn's p95 at moderate rates swings by a
// third between runs (f64 forwards allocate ~1.6 MiB a request and keep
// the GC busy), so its SLO sits near saturation, where the tail climbs
// steeply and the crossing barely moves.
var serveWorkloads = map[string]serveParams{
	"serve-hot": {
		Precision: serve.PrecisionF32, LowRate: 60, HighRate: 200,
		CapLo: 100, CapHi: 1600, PoolPer: 64, TailQ: 0.99, SLOMs: 25,
	},
	"serve-churn": {
		Precision: serve.PrecisionF64, LowRate: 15, HighRate: 50,
		CapLo: 20, CapHi: 640, Churn: true, KindMix: []int{4, 3, 3},
		Lineages: 40, TailQ: 0.9, SLOMs: 100,
	},
}

// Serving limits: the failure budget, and the number of windows a phase's
// tail is taken over. A measurement whose pacer ran later than half the
// SLO at p99 is invalid.
const (
	maxFailFrac = 0.005
	windows     = 3
)

// A serving run spends its measured seconds in these shares: the low-rate
// phase, the high-rate phase, each of the capacity probes, and the
// saturation phase, where saturationClients callers send back to back.
const (
	lowShare          = 0.08
	highShare         = 0.50
	probeShare        = 0.10
	probes            = 3
	saturationShare   = 0.12
	saturationClients = 32
)

func share(budget time.Duration, f float64) time.Duration {
	return time.Duration(f * float64(budget))
}

func (p serveParams) slo() time.Duration {
	return time.Duration(p.SLOMs * float64(time.Millisecond))
}

func (p serveParams) maxPacerLag() time.Duration { return p.slo() / 2 }

// phaseDur stretches a phase at the rate beyond dur, up to twice dur, when
// its windows would otherwise hold too few predicts for the tail quantile.
func (p serveParams) phaseDur(rate float64, dur time.Duration) time.Duration {
	need := time.Duration(windows * 11 / (1 - p.TailQ) / (rate * p.predictShare()) * float64(time.Second))
	return min(max(dur, need), 2*dur)
}

// predictShare is the fraction of requests that are predicts.
func (p serveParams) predictShare() float64 {
	if !p.Churn {
		return 1
	}
	return 1 - float64(p.KindMix[1])/float64(p.KindMix[0]+p.KindMix[1]+p.KindMix[2])
}

type reqKind int

const (
	kindHit     reqKind = iota // warm-pool predict
	kindFresh                  // predict of a never-seen topology
	kindUpdate                 // lineage /update
	kindVersion                // predict of a lineage's latest version
)

func (k reqKind) String() string {
	return [...]string{"hit", "fresh", "update", "version"}[k]
}

// call is one planned request; due is its offset from the phase start.
type call struct {
	due  time.Duration
	kind reqKind
	inst datasets.Instance
	lin  *lineage
	upd  int // index into lin.updates
}

// result is one request's client-side record.
type result struct {
	kind     reqKind
	lag, lat time.Duration
	err      error
	pred     serve.Prediction
	inst     datasets.Instance
	upd      serve.UpdateResponse
	lin      *lineage
	version  int
}

// lineage is one mutable graph: versions[v] is the graph after v updates,
// with the edge order the server's copy-on-write repair produces (removes
// compact the list preserving order, adds append as (min,max)).
type lineage struct {
	versions []datasets.Instance
	updates  []serve.UpdateRequest // updates[i] turns version i into i+1
	added    [][2]int32            // chords added and not yet removed
	done     atomic.Int32          // updates completed
}

func newLineage(rng *rand.Rand, sizes *deck) *lineage {
	inst := randomInstance(rng, sizeMix[sizes.draw(rng)])
	return &lineage{versions: []datasets.Instance{inst}}
}

// plan appends one mutation to the lineage: insert an absent chord, or
// (half the time, when any exist) delete one the lineage added earlier,
// so the graph stays connected and its size stays bounded.
func (l *lineage) plan(rng *rand.Rand) int {
	cur := l.versions[len(l.versions)-1]
	g := cur.G
	n := g.NumNodes()
	edges := g.Edges()
	var req serve.UpdateRequest
	if len(l.added) > 0 && rng.Intn(2) == 0 {
		i := rng.Intn(len(l.added))
		e := l.added[i]
		l.added = append(l.added[:i], l.added[i+1:]...)
		req.Remove = [][2]int32{e}
		for j, x := range edges {
			if x == orderedEdge(int(e[0]), int(e[1])) {
				edges = append(edges[:j], edges[j+1:]...)
				break
			}
		}
	} else {
		var e graph.Edge
		for {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
				e = orderedEdge(u, v)
				break
			}
		}
		req.Add = [][2]int32{{int32(e.Src), int32(e.Dst)}}
		l.added = append(l.added, req.Add[0])
		edges = append(edges, e)
	}
	req.Fingerprint = g.Fingerprint().String()
	l.updates = append(l.updates, req)
	l.versions = append(l.versions, withFeatures(rng, graph.MustNew(n, edges, false)))
	return len(l.updates) - 1
}

// serveBench is the state of one serving workload run.
type serveBench struct {
	p        serveParams
	srv      *serve.Server
	model    models.Model
	rng      *rand.Rand
	sizes    *deck                 // size classes
	kinds    *deck                 // churn request kinds
	pool     [][]datasets.Instance // warm pool per size class
	lineages []*lineage
	refs     map[*graph.Graph][]float64
}

// setupServe builds the server and warms it: the pool graphs (serve-hot)
// or every lineage's base graph (serve-churn) are predicted once, so
// they are cache-resident before the first measured request.
func setupServe(p serveParams, seed int64) (*serveBench, error) {
	model, err := train.NewModel("GT", modelConfig)
	if err != nil {
		return nil, err
	}
	meta := train.Checkpoint{Model: "GT", Config: modelConfig, Task: datasets.TaskRegression, Dataset: "synthetic"}
	srv, err := serve.New(model, meta, serve.Options{Precision: p.Precision})
	if err != nil {
		return nil, err
	}
	b := &serveBench{
		p: p, srv: srv, model: model, rng: rand.New(rand.NewSource(seed)),
		sizes: sizeDeck(), kinds: newDeck(p.KindMix...), refs: map[*graph.Graph][]float64{},
	}
	var warm []datasets.Instance
	if p.Churn {
		for i := 0; i < p.Lineages; i++ {
			l := newLineage(b.rng, b.sizes)
			b.lineages = append(b.lineages, l)
			warm = append(warm, l.versions[0])
		}
	} else {
		b.pool = make([][]datasets.Instance, len(sizeMix))
		for c := range sizeMix {
			for i := 0; i < p.PoolPer; i++ {
				inst := randomInstance(b.rng, sizeMix[c])
				b.pool[c] = append(b.pool[c], inst)
				warm = append(warm, inst)
			}
		}
	}
	for _, inst := range warm {
		if _, err := srv.Predict(inst); err != nil {
			srv.Close()
			return nil, fmt.Errorf("warm-up predict: %w", err)
		}
	}
	return b, nil
}

// plan draws one phase's calls at the given rate.
func (b *serveBench) plan(rate float64, dur time.Duration) []call {
	var calls []call
	for _, t := range poissonArrivals(b.rng, rate, dur.Seconds()) {
		c := call{due: time.Duration(t * float64(time.Second))}
		if !b.p.Churn {
			class := b.pool[b.sizes.draw(b.rng)]
			c.kind, c.inst = kindHit, class[b.rng.Intn(len(class))]
			calls = append(calls, c)
			continue
		}
		switch b.kinds.draw(b.rng) {
		case 0:
			c.kind, c.inst = kindFresh, randomInstance(b.rng, sizeMix[b.sizes.draw(b.rng)])
		case 1:
			c.kind, c.lin = kindUpdate, b.lineages[b.rng.Intn(len(b.lineages))]
			c.upd = c.lin.plan(b.rng)
		default:
			c.kind, c.lin = kindVersion, b.lineages[b.rng.Intn(len(b.lineages))]
		}
		calls = append(calls, c)
	}
	return calls
}

// phase is one measured open-loop window.
type phase struct {
	name    string
	rate    float64
	results []result
	t0      time.Time // when the phase's due times count from
	wall    time.Duration
	before  serve.Snapshot
	after   serve.Snapshot
	mem     memSnap
}

// run fires the calls open loop: each is dispatched at its due time
// whatever is still outstanding, and its latency runs from the due time,
// so a stalled pacer or server shows up in every request it delays.
// Updates of one lineage run in order, each sent only after the previous
// reply, but are still timed from when they were due.
func (b *serveBench) run(name string, rate float64, calls []call) *phase {
	ph := &phase{name: name, rate: rate, results: make([]result, len(calls))}
	lanes := map[*lineage]chan int{}
	for i, c := range calls {
		if c.kind == kindUpdate && lanes[c.lin] == nil {
			n := 0
			for _, d := range calls[i:] {
				if d.lin == c.lin && d.kind == kindUpdate {
					n++
				}
			}
			// Sized to the lineage's update count, so the pacer never blocks.
			lanes[c.lin] = make(chan int, n)
		}
	}
	ph.before = b.srv.MetricsSnapshot(true)
	mem0 := readMem()
	var wg sync.WaitGroup
	t0 := time.Now()
	ph.t0 = t0
	for lin, ch := range lanes {
		wg.Add(1)
		go func(lin *lineage, ch chan int) {
			defer wg.Done()
			for i := range ch {
				c := calls[i]
				if d := time.Until(t0.Add(c.due)); d > 0 {
					time.Sleep(d)
				}
				resp, err := b.srv.Update(lin.updates[c.upd])
				r := &ph.results[i]
				r.lat = time.Since(t0) - c.due
				r.upd, r.err = resp, err
				if err == nil {
					lin.done.Add(1)
				}
			}
		}(lin, ch)
	}
	for i, c := range calls {
		if d := time.Until(t0.Add(c.due)); d > 0 {
			time.Sleep(d)
		}
		r := &ph.results[i]
		r.kind, r.lag, r.lin, r.version = c.kind, time.Since(t0)-c.due, c.lin, c.upd+1
		switch c.kind {
		case kindUpdate:
			lanes[c.lin] <- i
			continue
		case kindVersion:
			r.version = int(c.lin.done.Load())
			r.inst = c.lin.versions[r.version]
		default:
			r.inst = c.inst
		}
		wg.Add(1)
		go func(r *result, due time.Duration) {
			defer wg.Done()
			r.pred, r.err = b.srv.PredictCtx(context.Background(), r.inst)
			r.lat = time.Since(t0) - due
		}(r, c.due)
	}
	for _, ch := range lanes {
		close(ch)
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	ph.mem = readMem().sub(mem0)
	ph.after = b.srv.MetricsSnapshot(true)
	return ph
}

// saturate measures the rate the server completes predicts at when it is
// never idle: clients callers each send their next predict as soon as the
// last is answered, for dur. The predicts are the workload's own mix
// without its updates, which are closed loop per lineage already.
func (b *serveBench) saturate(clients int, dur time.Duration) (*phase, error) {
	var calls []call
	for _, c := range b.plan(2*b.p.CapHi, dur) {
		if c.kind != kindUpdate {
			calls = append(calls, c)
		}
	}
	ph := &phase{name: "saturation", results: make([]result, len(calls))}
	var next atomic.Int64
	var wg sync.WaitGroup
	ph.before = b.srv.MetricsSnapshot(true)
	mem0 := readMem()
	t0 := time.Now()
	ph.t0 = t0
	deadline := t0.Add(dur)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(calls) {
					return
				}
				c, r := calls[i], &ph.results[i]
				r.kind, r.lin, r.inst = c.kind, c.lin, c.inst
				if c.kind == kindVersion {
					r.version = int(c.lin.done.Load())
					r.inst = c.lin.versions[r.version]
				}
				start := time.Since(t0)
				r.pred, r.err = b.srv.PredictCtx(context.Background(), r.inst)
				r.lat = time.Since(t0) - start
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	ph.mem = readMem().sub(mem0)
	ph.after = b.srv.MetricsSnapshot(true)
	done := int(min(next.Load(), int64(len(calls))))
	if done == len(calls) {
		return nil, fmt.Errorf("saturation phase ran out of its %d planned predicts", len(calls))
	}
	ph.results = ph.results[:done]
	ph.rate = float64(done) / ph.wall.Seconds()
	return ph, nil
}

// counts tallies a phase's outcomes by kind.
type counts struct {
	predicts, updates, predictErrs, updateErrs, shed int
	hits, versionHits, versions, hotHits, hots       int
}

func (ph *phase) counts() counts {
	var c counts
	for _, r := range ph.results {
		if r.kind == kindUpdate {
			c.updates++
			if r.err != nil {
				c.updateErrs++
			}
			continue
		}
		c.predicts++
		if r.err != nil {
			c.predictErrs++
			if isShed(r.err) {
				c.shed++
			}
			continue
		}
		if r.pred.CacheHit {
			c.hits++
		}
		switch r.kind {
		case kindVersion:
			c.versions++
			if r.pred.CacheHit {
				c.versionHits++
			}
		case kindHit:
			c.hots++
			if r.pred.CacheHit {
				c.hotHits++
			}
		}
	}
	return c
}

// reconcile checks the client's counts against the server's own counter
// deltas over the phase. Every pair must agree exactly.
func (ph *phase) reconcile() error {
	c := ph.counts()
	a, z := ph.after, ph.before
	adoptions := a.SessionAdoptions - z.SessionAdoptions
	type check struct {
		name           string
		client, server uint64
	}
	checks := []check{
		{"predicts", uint64(c.predicts), a.Requests - z.Requests},
		{"predict errors", uint64(c.predictErrs), a.Errors - z.Errors},
		{"shed", uint64(c.shed), a.Shed - z.Shed},
		{"updates", uint64(c.updates), a.Updates - z.Updates},
		{"update errors", uint64(c.updateErrs), a.UpdateErrors - z.UpdateErrors},
		// Every predict looks its graph up in the cache once, as does an
		// update adopting its lineage from the cache.
		{"cache lookups", uint64(c.predicts) + adoptions, a.Cache.Hits - z.Cache.Hits + a.Cache.Misses - z.Cache.Misses},
	}
	if c.predictErrs == 0 {
		// Only answered predicts tell the client whether they hit.
		checks = append(checks, check{"cache hits", uint64(c.hits) + adoptions, a.Cache.Hits - z.Cache.Hits})
	}
	for _, ck := range checks {
		if ck.client != ck.server {
			return fmt.Errorf("phase %s: %s: client %d != metrics delta %d", ph.name, ck.name, ck.client, ck.server)
		}
	}
	if c.hotHits != c.hots || c.versionHits != c.versions {
		return fmt.Errorf("phase %s: warm predicts missed the cache: %d/%d pool hits, %d/%d version hits",
			ph.name, c.hotHits, c.hots, c.versionHits, c.versions)
	}
	return nil
}

// reference is the benchmark's own single-graph f64 forward.
func (b *serveBench) reference(inst datasets.Instance) ([]float64, error) {
	if ref, ok := b.refs[inst.G]; ok {
		return ref, nil
	}
	ctx, err := models.NewMegaContext([]datasets.Instance{inst}, models.MegaOptions{}, nil, modelConfig.Dim)
	if err != nil {
		return nil, err
	}
	ref := append([]float64(nil), b.model.Forward(ctx).Data...)
	b.refs[inst.G] = ref
	return ref, nil
}

// f32 answers must stay within the float32 envelope the models package
// asserts for whole-model forwards.
const (
	f32MaxULP    = 1 << 14
	f32MaxRelErr = 5e-3
	f32RelFloor  = 1e-2
	f64MaxAbsErr = 1e-9
)

// checkAnswers verifies every successful reply of the phase and returns
// the number of wrong answers. A predict must match the single-graph
// forward; an update's path length and fingerprint must match a fresh
// preprocessing of the mutated graph.
func (b *serveBench) checkAnswers(ph *phase) (int, error) {
	wrong := 0
	for _, r := range ph.results {
		if r.err != nil {
			continue
		}
		if r.kind == kindUpdate {
			want := r.lin.versions[r.version]
			prep, err := models.PrepareMega(want.G, models.MegaOptions{})
			if err != nil {
				return 0, err
			}
			if r.upd.Fingerprint != want.G.Fingerprint().String() || r.upd.PathLen != len(prep.Res.Path) {
				wrong++
			}
			continue
		}
		ref, err := b.reference(r.inst)
		if err != nil {
			return 0, err
		}
		if !b.matches(r.pred.Output, ref) {
			wrong++
		}
	}
	return wrong, nil
}

func (b *serveBench) matches(got, ref []float64) bool {
	if len(got) != len(ref) {
		return false
	}
	if b.p.Precision == serve.PrecisionF32 {
		g32 := make([]float32, len(got))
		for i, v := range got {
			g32[i] = float32(v)
		}
		return tensor.MeasureDivergence(g32, ref, f32RelFloor).Within(f32MaxULP, f32MaxRelErr) == nil
	}
	for i := range got {
		if math.Abs(got[i]-ref[i]) > f64MaxAbsErr {
			return false
		}
	}
	return true
}

// latencies returns the sorted from-due latencies of successful calls of
// the given kinds.
func (ph *phase) latencies(kinds ...reqKind) []time.Duration {
	var out []time.Duration
	for _, r := range ph.results {
		if r.err != nil {
			continue
		}
		for _, k := range kinds {
			if r.kind == k {
				out = append(out, r.lat)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (ph *phase) pacerLags() []time.Duration {
	out := make([]time.Duration, len(ph.results))
	for i, r := range ph.results {
		out[i] = r.lag
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var predictKinds = []reqKind{kindHit, kindFresh, kindVersion}

// verdict judges one capacity probe against the SLO. bad is the probe's
// worst use of a limit: the tail over the SLO, the pacer's lateness over
// its bound, the failures over their budget; a probe passes when bad is
// at most 1 and its backlog is not growing.
type verdict struct {
	rate, tail, failFrac, lag, bad float64
	growing, ok                    bool
}

func (b *serveBench) judge(ph *phase) verdict {
	c := ph.counts()
	v := verdict{rate: ph.rate, tail: math.Inf(1), lag: ms(ph.lagWindows())}
	if n := c.predicts + c.updates; n > 0 {
		v.failFrac = float64(c.predictErrs+c.updateErrs) / float64(n)
	}
	if t, ok := ph.tailWindows(b.p.TailQ); ok {
		v.tail = ms(t)
	} else if lat := ph.latencies(predictKinds...); len(lat) > 0 {
		// A probe at a low rate cannot fill its windows in the time it
		// has; judge it on the whole probe instead.
		v.tail = ms(quantile(lat, b.p.TailQ))
	}
	v.growing = backlogGrowing(ph)
	v.bad = math.Max(v.tail/b.p.SLOMs, math.Max(v.lag/ms(b.p.maxPacerLag()), v.failFrac/maxFailFrac))
	v.ok = v.bad <= 1 && !v.growing
	return v
}

// tailWindows is the median, over three consecutive windows of the phase,
// of each window's q-quantile of successful predict latencies: one stall
// of the machine spoils one window, not the figure. ok is false when a
// window lacks ten samples beyond the quantile.
func (ph *phase) tailWindows(q float64) (time.Duration, bool) {
	var ts []float64
	ok := true
	for w := 0; w < windows; w++ {
		sub := &phase{results: ph.results[w*len(ph.results)/windows : (w+1)*len(ph.results)/windows]}
		lat := sub.latencies(predictKinds...)
		if float64(len(lat))*(1-q) < 10 {
			ok = false
		}
		ts = append(ts, float64(quantile(lat, q)))
	}
	return time.Duration(median(ts)), ok
}

// lagWindows is the median over the phase's windows of the pacer's p99
// lateness.
func (ph *phase) lagWindows() time.Duration {
	var ls []float64
	for w := 0; w < windows; w++ {
		sub := &phase{results: ph.results[w*len(ph.results)/windows : (w+1)*len(ph.results)/windows]}
		ls = append(ls, float64(quantile(sub.pacerLags(), 0.99)))
	}
	return time.Duration(median(ls))
}

// backlogGrowing reports a queue that kept growing through the probe: the
// median latency of the last third of arrivals is more than twice that of
// the first third plus a millisecond.
func backlogGrowing(ph *phase) bool {
	n := len(ph.results)
	if n < 30 {
		return false
	}
	third := func(rs []result) float64 {
		var lat []time.Duration
		for _, r := range rs {
			if r.err == nil {
				lat = append(lat, r.lat)
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		if len(lat) == 0 {
			return math.Inf(1)
		}
		return ms(quantile(lat, 0.5))
	}
	return third(ph.results[2*n/3:]) > 2*third(ph.results[:n/3])+1
}

// capacity searches the highest rate meeting the SLO: geometric bisection
// between the fixed brackets, seeded with the high-rate phase as the first
// probe, then a linear interpolation of the probes' worst limit use
// between the last passing and the first failing probe, so the reported
// rate is continuous rather than a grid point. Each probe lasts probeDur,
// stretched by phaseDur.
func (b *serveBench) capacity(high verdict, probeDur time.Duration) (float64, []verdict, []*phase) {
	lo, hi := verdict{rate: b.p.CapLo}, verdict{rate: b.p.CapHi, bad: math.Inf(1)}
	if high.ok {
		lo = high
	} else {
		hi = high
	}
	var all []verdict
	var phases []*phase
	for i := 0; i < probes; i++ {
		rate := math.Sqrt(lo.rate * hi.rate)
		ph := b.run(fmt.Sprintf("probe%d", i), rate, b.plan(rate, b.p.phaseDur(rate, probeDur)))
		v := b.judge(ph)
		all = append(all, v)
		phases = append(phases, ph)
		if v.ok {
			lo = v
		} else {
			hi = v
		}
	}
	if !lo.ok {
		return 0, all, phases
	}
	if hi.bad <= 1 || math.IsInf(hi.bad, 0) {
		// The failing probe failed on a growing backlog alone, or no probe
		// failed: nothing to interpolate.
		return lo.rate, all, phases
	}
	frac := (1 - lo.bad) / (hi.bad - lo.bad)
	return lo.rate + frac*(hi.rate-lo.rate), all, phases
}

func isShed(err error) bool { return errors.Is(err, serve.ErrOverloaded) }

// runServe measures one serving workload: set-up (repeated, median),
// then a fixed low rate, a fixed high rate, the capacity search and the
// saturation phase on the last server built. Every phase must reconcile
// with the server's own counters, and every answer is checked.
func runServe(r *report, p serveParams, seed int64, budget time.Duration) error {
	var b *serveBench
	setups, err := repeatSetup(func() error {
		if b != nil {
			b.srv.Close()
		}
		var err error
		b, err = setupServe(p, seed)
		return err
	})
	if err != nil {
		return err
	}
	defer b.srv.Close()

	heap := startHeapSampler()
	low := b.run("low", p.LowRate, b.plan(p.LowRate, share(budget, lowShare)))
	runtime.GC()
	high := b.run("high", p.HighRate, b.plan(p.HighRate, p.phaseDur(p.HighRate, share(budget, highShare))))
	runtime.GC()
	capQPS, verdicts, probePhases := b.capacity(b.judge(high), share(budget, probeShare))
	runtime.GC()
	sat, err := b.saturate(saturationClients, share(budget, saturationShare))
	if err != nil {
		return err
	}
	peak := heap.Stop()

	phases := append([]*phase{low, high, sat}, probePhases...)
	for _, ph := range phases {
		if err := ph.reconcile(); err != nil {
			return fmt.Errorf("%w: %v", errUnreconciled, err)
		}
	}
	wrong := 0
	for _, ph := range phases {
		w, err := b.checkAnswers(ph)
		if err != nil {
			return err
		}
		wrong += w
		r.out.Attempted += len(ph.results)
	}
	// Overload errors inside the capacity search are its signal, not
	// failures; the other phases must have none.
	for _, ph := range []*phase{low, high, sat} {
		c := ph.counts()
		r.out.Failed += c.predictErrs + c.updateErrs
	}
	r.out.Failed += wrong
	if wrong > 0 {
		r.fail("%d wrong answers", wrong)
	}
	for _, ph := range []*phase{low, high} {
		if lag := ph.lagWindows(); lag > p.maxPacerLag() {
			r.fail("phase %s: pacer p99 lag %.2f ms exceeds %v: the measurement is invalid", ph.name, ms(lag), p.maxPacerLag())
		}
	}
	tail, ok := high.tailWindows(p.TailQ)
	if !ok {
		r.fail("phase high: too few samples for a p%g in each window", p.TailQ*100)
	}

	pred := high.latencies(predictKinds...)
	r.set("setup_s", "s", median(setups))
	r.set("throughput_per_s", "1/s", sat.rate)
	r.set("latency_p50_ms", "ms", ms(quantile(pred, 0.5)))
	r.set("alloc_kb_per_op", "KiB", float64(high.mem.alloc)/1024/float64(len(high.results)))

	// The report, by the names the metrics have across the repository.
	r.note("setup_s = %.4f s (median of %d set-ups: %v)", median(setups), len(setups), setups)
	for _, ph := range []*phase{low, high} {
		r.note("phase %s: %.0f req/s for %.1f s", ph.name, ph.rate, ph.wall.Seconds())
		lat := ph.latencies(predictKinds...)
		if ph == high {
			r.note("predict_p50_ms.high = %.4f ms (n=%d) -> latency_p50_ms", ms(quantile(lat, 0.5)), len(lat))
			r.note("predict_p%g_ms.high = %.4f ms (median over %d windows, n=%d)", p.TailQ*100, ms(tail), windows, len(lat))
		} else {
			latencyNotes(r, "predict", ph.name, lat)
		}
		if p.Churn {
			latencyNotes(r, "fresh_predict", ph.name, ph.latencies(kindFresh))
			latencyNotes(r, "version_predict", ph.name, ph.latencies(kindVersion))
			latencyNotes(r, "update", ph.name, ph.latencies(kindUpdate))
		}
		c := ph.counts()
		fails := c.predictErrs + c.updateErrs
		r.note("fail_frac.%s = %.6f ratio (%d of %d failed, shed or timed out)", ph.name, float64(fails)/float64(len(ph.results)), fails, len(ph.results))
		r.note("driver.pacer_lag_p99_ms.%s = %.4f ms (median over %d windows)", ph.name, ms(ph.lagWindows()), windows)
		r.note("serve.batch_size_mean.%s = %.3f, alloc %.2f KiB/op, gc %d cycles, %.3f ms paused", ph.name, batchMean(ph), float64(ph.mem.alloc)/1024/float64(len(ph.results)), ph.mem.gcs, ms(ph.mem.pause))
	}
	for _, v := range verdicts {
		r.note("capacity probe %.1f req/s: p%g %.3f ms, fail %.4f, pacer p99 lag %.3f ms, growing %v, limit use %.3f, ok %v", v.rate, p.TailQ*100, v.tail, v.failFrac, v.lag, v.growing, v.bad, v.ok)
	}
	r.note("capacity_qps = %.2f req/s (p%g <= %v, fail <= %g, no growing backlog; 0 when no probe met it)", capQPS, p.TailQ*100, p.slo(), maxFailFrac)
	satLat := sat.latencies(predictKinds...)
	r.note("saturation_qps = %.2f req/s (%d callers back to back for %.1f s, p50 %.4f ms, batch mean %.3f) -> throughput_per_s",
		sat.rate, saturationClients, sat.wall.Seconds(), ms(quantile(satLat, 0.5)), batchMean(sat))
	r.note("alloc_kb_per_op = %.3f KiB (high-rate phase)", float64(high.mem.alloc)/1024/float64(len(high.results)))
	r.note("peak_heap_mb = %.3f MiB (live heap after GC, sampled every 5 ms)", peak)
	r.note("wrong answers: %d", wrong)
	return nil
}

// latencyNotes reports a latency sample's median and the highest quantile
// with ten samples beyond it, with the sample count.
func latencyNotes(r *report, what, phase string, lat []time.Duration) {
	r.note("%s_p50_ms.%s = %.4f ms (n=%d)", what, phase, ms(quantile(lat, 0.5)), len(lat))
	if q := tailQuantile(len(lat)); q > 0.5 {
		r.note("%s_p%g_ms.%s = %.4f ms (n=%d)", what, q*100, phase, ms(quantile(lat, q)), len(lat))
	}
}

// batchMean is the phase's mean batch size from the server's counters.
func batchMean(ph *phase) float64 {
	a, z := ph.after, ph.before
	batches := a.Batches - z.Batches
	if batches == 0 {
		return 0
	}
	return (a.MeanBatchSize*float64(a.Batches) - z.MeanBatchSize*float64(z.Batches)) / float64(batches)
}
