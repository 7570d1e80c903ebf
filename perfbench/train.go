package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mega/internal/datasets"
	"mega/internal/models"
	"mega/internal/nn"
	"mega/internal/tensor"
	"mega/internal/train"
)

// trainParams is the paper's own training setting, scaled to the box:
// GT on the MEGA engine over synthetic ZINC.
var trainParams = struct {
	Dataset string `json:"dataset"`
	Train   int    `json:"train_graphs"`
	Val     int    `json:"val_graphs"`
	Dim     int    `json:"dim"`
	Layers  int    `json:"layers"`
	Heads   int    `json:"heads"`
	Batch   int    `json:"batch"`
}{"ZINC", 512, 64, 64, 4, 4, 64}

// trainEpochs is the number of epochs train.Run makes: one per 15 measured
// seconds, at least two so the loss can be seen to fall.
func trainEpochs(budget time.Duration) int { return max(2, int(budget.Seconds())/15) }

func trainDataset(seed int64) (*datasets.Dataset, error) {
	return datasets.Generate(trainParams.Dataset, datasets.Config{
		TrainSize: trainParams.Train, ValSize: trainParams.Val, TestSize: 1, Seed: seed,
	})
}

func trainOptions(seed int64, epochs int) train.Options {
	return train.Options{
		Model: "GT", Engine: models.EngineMega,
		Dim: trainParams.Dim, Layers: trainParams.Layers, Heads: trainParams.Heads,
		BatchSize: trainParams.Batch, Epochs: epochs, Seed: seed,
	}
}

// trainer is a training run assembled from the layers' public functions
// exactly as train.Run assembles it, so its step times and losses can be
// observed one step at a time.
type trainer struct {
	model     models.Model
	opt       *nn.Adam
	trainCtxs []*models.Context
	valCtxs   []*models.Context
}

// newTrainer builds the train-zinc model, optimizer and batch contexts.
func newTrainer(ds *datasets.Dataset, seed int64) (*trainer, error) {
	cfg := models.Config{
		Dim: trainParams.Dim, Layers: trainParams.Layers, Heads: trainParams.Heads,
		NodeTypes: ds.NumNodeTypes, EdgeTypes: ds.NumEdgeTypes, OutDim: 1, Seed: seed,
	}
	return newTrainerOn(ds.Train, ds.Val, cfg)
}

// newTrainerOn builds a GT trainer of the given shape over the instances.
func newTrainerOn(trainSet, valSet []datasets.Instance, cfg models.Config) (*trainer, error) {
	model, err := train.NewModel("GT", cfg)
	if err != nil {
		return nil, err
	}
	arena := tensor.NewArena()
	t := &trainer{model: model, opt: nn.NewAdam(model.Params(), 1e-3)}
	if t.trainCtxs, err = batchContexts(trainSet, cfg.Dim, arena); err != nil {
		return nil, err
	}
	if t.valCtxs, err = batchContexts(valSet, cfg.Dim, arena); err != nil {
		return nil, err
	}
	return t, nil
}

func batchContexts(insts []datasets.Instance, dim int, arena *tensor.Arena) ([]*models.Context, error) {
	var out []*models.Context
	for lo := 0; lo < len(insts); lo += trainParams.Batch {
		hi := min(lo+trainParams.Batch, len(insts))
		ctx, err := models.NewMegaContext(insts[lo:hi], models.MegaOptions{}, nil, dim)
		if err != nil {
			return nil, err
		}
		ctx.Scratch = arena
		out = append(out, ctx)
	}
	return out, nil
}

// step runs one optimizer step on ctx and returns its loss and duration.
func (t *trainer) step(ctx *models.Context, rec *spanRecorder, parent int) (float64, time.Duration) {
	t0 := time.Now()
	t.opt.ZeroGrad()
	sp := rec.start("train.forward", parent)
	out := t.model.Forward(ctx)
	loss := tensor.MAELoss(out, ctx.Targets)
	rec.end(sp)
	sp = rec.start("train.backward", parent)
	loss.Backward()
	ctx.Prof.Backward()
	rec.end(sp)
	sp = rec.start("train.optimizer", parent)
	t.opt.Step()
	rec.end(sp)
	return loss.Item(), time.Since(t0)
}

// epoch trains over every batch, then evaluates, as train.Run does.
func (t *trainer) epoch(rec *spanRecorder) (trainLoss, valLoss float64, steps []time.Duration) {
	for _, ctx := range t.trainCtxs {
		root := rec.start("train.step", -1)
		l, d := t.step(ctx, rec, root)
		rec.end(root)
		trainLoss += l
		steps = append(steps, d)
	}
	trainLoss /= float64(len(t.trainCtxs))
	valLoss, _ = train.Evaluate(datasets.TaskRegression, t.model, t.valCtxs)
	return trainLoss, valLoss, steps
}

// runTrain measures train-zinc: set-up (dataset and batch contexts,
// repeated, median), train.Run for the epochs, then its first epoch again
// step by step from the layers' public functions. The second run times
// each step and must reproduce the first run's losses bit for bit; the
// losses must be finite and falling.
func runTrain(r *report, seed int64, budget time.Duration) error {
	heap := startHeapSampler()
	var ds *datasets.Dataset
	var tr *trainer
	setups, err := repeatSetup(func() error {
		var err error
		if ds, err = trainDataset(seed); err != nil {
			return err
		}
		tr, err = newTrainer(ds, seed)
		return err
	})
	if err != nil {
		return err
	}

	runtime.GC()
	epochs := trainEpochs(budget)
	res, err := train.Run(ds, trainOptions(seed, epochs))
	if err != nil {
		return err
	}
	if len(res.Stats) != epochs || res.Diverged {
		return fmt.Errorf("train.Run finished %d of %d epochs (diverged %v)", len(res.Stats), epochs, res.Diverged)
	}
	epochWall := res.Stats[len(res.Stats)-1].WallTime

	runtime.GC()
	mem0 := readMem()
	trainLoss, valLoss, steps := tr.epoch(nil)
	mem := readMem().sub(mem0)
	peak := heap.Stop()
	if want := res.Stats[0]; trainLoss != want.TrainLoss || valLoss != want.ValLoss {
		r.fail("epoch 1 losses differ between two runs at one seed: train %v vs %v, val %v vs %v",
			trainLoss, want.TrainLoss, valLoss, want.ValLoss)
	}
	for _, s := range res.Stats {
		if math.IsNaN(s.TrainLoss) || math.IsInf(s.TrainLoss, 0) || math.IsNaN(s.ValLoss) || math.IsInf(s.ValLoss, 0) {
			r.fail("epoch %d loss is not finite: train %v, val %v", s.Epoch, s.TrainLoss, s.ValLoss)
		}
	}
	if first, last := res.Stats[0].TrainLoss, res.Stats[len(res.Stats)-1].TrainLoss; !(last < first) {
		r.fail("training loss did not fall: %v -> %v", first, last)
	}

	totals := sorted(steps)
	q := tailQuantile(len(totals))
	graphs := float64(trainParams.Train * epochs)
	r.out.Attempted = epochs*len(tr.trainCtxs) + len(steps)
	r.out.Failed = len(r.problems)
	r.set("setup_s", "s", median(setups))
	r.set("throughput_per_s", "1/s", graphs/epochWall.Seconds())
	r.set("latency_p50_ms", "ms", ms(quantile(totals, 0.5)))
	r.set("alloc_kb_per_op", "KiB", float64(mem.alloc)/1024/float64(len(steps)))

	// The report, by the names the metrics have across the repository.
	r.note("setup_s = %.4f s (median of %d set-ups)", median(setups), len(setups))
	r.note("train_graphs_per_s = %.3f graphs/s (%d epochs of %d graphs in %.3f s, validation included) -> throughput_per_s", graphs/epochWall.Seconds(), epochs, trainParams.Train, epochWall.Seconds())
	r.note("train_step_p50_ms = %.3f ms (n=%d steps) -> latency_p50_ms", ms(quantile(totals, 0.5)), len(totals))
	r.note("train_step_p%g_ms = %.3f ms (the highest quantile with ten steps beyond it)", q*100, ms(quantile(totals, q)))
	r.note("fail_frac = %.6f ratio (%d failed checks)", float64(r.out.Failed)/float64(r.out.Attempted), r.out.Failed)
	r.note("alloc_kb_per_op = %.1f KiB per training step", float64(mem.alloc)/1024/float64(len(steps)))
	r.note("peak_heap_mb = %.3f MiB (live heap after GC, sampled every 5 ms)", peak)
	for _, s := range res.Stats {
		r.note("epoch %d: train loss %.6f, val loss %.6f, val MAE %.6f, wall %.3f s", s.Epoch, s.TrainLoss, s.ValLoss, s.ValMetric, s.WallTime.Seconds())
	}
	r.note("runtime: %d gc cycles, %.3f ms pause in the stepwise epoch", mem.gcs, ms(mem.pause))
	return nil
}
