package models

import (
	"math"
	"sync"
	"testing"

	"mega/internal/tensor"
	"mega/internal/traverse"
)

// shardTestSetup builds a MEGA context plus a fresh GT over it. The small
// window keeps every chunk wider than ω at 8 µchunks.
func shardTestSetup(t *testing.T, nInst int) (*GT, *Context) {
	t.Helper()
	insts := testInstances(t, nInst)
	ctx, err := NewMegaContext(insts, MegaOptions{
		Traverse: traverse.Options{Window: 2},
	}, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	return NewGT(smallConfig()), ctx
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestShardForwardBitIdentical pins the engine's core contract: the sharded
// forward produces the model output bit for bit at every worker count.
func TestShardForwardBitIdentical(t *testing.T) {
	m, ctx := shardTestSetup(t, 6)
	want := m.Forward(ctx)
	for _, k := range []int{1, 2, 4, 8} {
		eng, err := NewShardEngine(m, ctx, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got := eng.Forward()
		if !bitsEqual(got.Data, want.Data) {
			t.Errorf("k=%d: sharded output differs from single engine", k)
		}
	}
}

// TestShardHaloTraffic pins the boundary exchange: 2(k-1) halo messages of
// ω·dim·8 bytes per layer, and zero inter-worker traffic at k=1.
func TestShardHaloTraffic(t *testing.T) {
	m, ctx := shardTestSetup(t, 6)
	layers := len(m.layers)
	for _, k := range []int{1, 2, 4, 8} {
		eng, err := NewShardEngine(m, ctx, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		eng.Forward()
		st := eng.Stats()
		wantMsgs := int64(layers * 2 * (k - 1))
		if st.HaloMessages != wantMsgs {
			t.Errorf("k=%d: halo messages = %d, want %d", k, st.HaloMessages, wantMsgs)
		}
		omega := eng.plan.omega
		if wantBytes := wantMsgs * int64(omega*eng.plan.dim*8); st.HaloBytes != wantBytes {
			t.Errorf("k=%d: halo bytes = %d, want %d", k, st.HaloBytes, wantBytes)
		}
		if k == 1 && st.ForwardMessages() != 0 {
			t.Errorf("k=1: expected zero exchange traffic, got %d messages", st.ForwardMessages())
		}
		if st.CollectMessages != int64(k) {
			t.Errorf("k=%d: collect messages = %d, want %d", k, st.CollectMessages, k)
		}
	}
}

// TestShardEngineRejectsInvalid covers the planner's validation paths.
func TestShardEngineRejectsInvalid(t *testing.T) {
	m, ctx := shardTestSetup(t, 6)
	for _, k := range []int{0, 3, 5, 16} {
		if _, err := NewShardEngine(m, ctx, k); err == nil {
			t.Errorf("k=%d: expected error", k)
		}
	}
	dglCtx, err := NewDGLContext(testInstances(t, 2), nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardEngine(m, dglCtx, 2); err == nil {
		t.Error("expected error for non-MEGA context")
	}
}

// TestShardReusableAcrossSteps runs two forwards through the same engine
// to confirm per-run state fully resets.
func TestShardReusableAcrossSteps(t *testing.T) {
	m, ctx := shardTestSetup(t, 4)
	eng, err := NewShardEngine(m, ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]float64(nil), eng.Forward().Data...)
	if second := eng.Forward(); !bitsEqual(second.Data, first) {
		t.Error("second forward over unchanged parameters differs from first")
	}
}

// TestShardConcurrentForwardsShareModel runs two engines (k=2 and k=4) and
// a plain m.Forward concurrently over one *GT. Workers read the model's
// parameters directly, so every output must still be bit-identical to a
// serial m.Forward; under -race this also pins that none of the three
// writes to shared model state.
func TestShardConcurrentForwardsShareModel(t *testing.T) {
	m, ctx := shardTestSetup(t, 6)
	want := m.Forward(ctx)
	var engs []*ShardEngine
	for _, k := range []int{2, 4} {
		eng, err := NewShardEngine(m, ctx, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		engs = append(engs, eng)
	}
	runs := []func() *tensor.Tensor{
		engs[0].Forward,
		engs[1].Forward,
		func() *tensor.Tensor { return m.Forward(ctx) },
	}
	outs := make([]*tensor.Tensor, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func(i int, run func() *tensor.Tensor) {
			defer wg.Done()
			outs[i] = run()
		}(i, run)
	}
	wg.Wait()
	for i, name := range []string{"k=2 engine", "k=4 engine", "m.Forward"} {
		if !bitsEqual(outs[i].Data, want.Data) {
			t.Errorf("%s: concurrent output differs from serial m.Forward", name)
		}
	}
}
