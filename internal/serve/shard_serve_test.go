package serve

import (
	"math"
	"testing"

	"mega/internal/datasets"
	"mega/internal/models"
)

// TestShardedServingMatchesUnsharded pins the serving-layer contract of
// the shard engine: predictions from a sharded forward are bit-identical
// to the single-engine forward (checkpoints round-trip parameters
// bit-exactly, so the direct model is a valid reference), and the shard
// metrics record the batch and its exchange traffic.
func TestShardedServingMatchesUnsharded(t *testing.T) {
	s, ds, model := trainedServer(t, Options{
		MaxBatch: 1, ShardWorkers: 2, ShardVertexThreshold: 1,
	})

	shardedBatches := 0
	for _, inst := range ds.Val[:4] {
		pred, err := s.Predict(inst)
		if err != nil {
			t.Fatalf("predict: %v", err)
		}
		want := directForward(t, model, models.EngineMega, inst, s.Meta().Config.Dim)
		for i := range want {
			if math.Float64bits(pred.Output[i]) != math.Float64bits(want[i]) {
				t.Fatalf("sharded output[%d] = %v, direct = %v (must be bit-identical)",
					i, pred.Output[i], want[i])
			}
		}
		shardedBatches++
	}

	snap := s.metrics.Snapshot(s.CacheStats(), false)
	// Every batch was over the 1-vertex threshold; the only legitimate
	// bail-out is a path too short to cut into 8 µchunks, which counts as
	// a fallback — so sharded + fallbacks must cover every batch, and at
	// least one molecule must genuinely have sharded.
	if snap.ShardedBatches+snap.ShardFallbacks != uint64(shardedBatches) {
		t.Errorf("sharded %d + fallbacks %d, want %d batches covered",
			snap.ShardedBatches, snap.ShardFallbacks, shardedBatches)
	}
	if snap.ShardedBatches == 0 {
		t.Fatal("no batch took the shard path")
	}
	if snap.ShardMessages == 0 || snap.ShardBytes == 0 {
		t.Errorf("sharded batches recorded no traffic: %d msgs, %d bytes",
			snap.ShardMessages, snap.ShardBytes)
	}
	if len(snap.ShardWorkerMs) != 2 {
		t.Errorf("shard worker timings = %v, want one entry per worker", snap.ShardWorkerMs)
	}
}

// TestShardFallbackCounterOnShortPath forces the unshardable case: a
// triangle's 3-row path cannot be cut into 8 µchunks, so a shard-eligible
// batch over it must fall back to the monolithic engine and count a
// shard_fallbacks on /metrics, so the fallback is never silent.
func TestShardFallbackCounterOnShortPath(t *testing.T) {
	s, _, _ := trainedServer(t, Options{
		MaxBatch: 1, ShardWorkers: 2, ShardVertexThreshold: 1,
	})
	tri, err := graphFromPairs(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	inst := datasets.Instance{
		G:        tri,
		NodeFeat: make([]int32, 3),
		EdgeFeat: make([]int32, 3),
	}
	pred, err := s.Predict(inst)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if len(pred.Output) == 0 || pred.Degraded {
		t.Fatalf("fallback must still answer exactly: %+v", pred)
	}
	snap := s.MetricsSnapshot(false)
	if snap.ShardFallbacks < 1 {
		t.Errorf("shard_fallbacks = %d, want >= 1", snap.ShardFallbacks)
	}
	if snap.ShardedBatches != 0 {
		t.Errorf("a 3-row path cannot shard, yet sharded_batches = %d", snap.ShardedBatches)
	}
}

// TestShardVertexThresholdGates verifies small batches bypass the shard
// engine entirely when under the vertex threshold.
func TestShardVertexThresholdGates(t *testing.T) {
	s, ds, _ := trainedServer(t, Options{
		MaxBatch: 1, ShardWorkers: 2, ShardVertexThreshold: 1 << 20,
	})
	if _, err := s.Predict(ds.Val[0]); err != nil {
		t.Fatalf("predict: %v", err)
	}
	snap := s.metrics.Snapshot(s.CacheStats(), false)
	if snap.ShardedBatches != 0 || snap.ShardFallbacks != 0 {
		t.Errorf("under-threshold batch touched the shard path: %+v", snap)
	}
}
