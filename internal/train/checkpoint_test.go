package train

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"path/filepath"
	"testing"

	"mega/internal/datasets"
	"mega/internal/models"
	"mega/internal/tensor"
)

func tinyConfig() models.Config {
	return models.Config{
		Dim: 16, Layers: 2, Heads: 2,
		NodeTypes: 8, EdgeTypes: 4, OutDim: 1, Seed: 7,
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	for _, name := range []string{"GCN", "GT", "GAT"} {
		orig, err := NewModel(name, tinyConfig())
		if err != nil {
			t.Fatalf("NewModel(%s): %v", name, err)
		}
		meta := Checkpoint{Model: name, Config: tinyConfig(), Task: datasets.TaskRegression, Dataset: "ZINC"}
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, meta, orig); err != nil {
			t.Fatalf("save %s: %v", name, err)
		}
		gotMeta, loaded, err := LoadCheckpoint(&buf)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		if gotMeta != meta {
			t.Errorf("%s: meta round-trip: got %+v want %+v", name, gotMeta, meta)
		}
		op, lp := orig.Params(), loaded.Params()
		if len(op) != len(lp) {
			t.Fatalf("%s: %d tensors loaded, want %d", name, len(lp), len(op))
		}
		for i := range op {
			for j, v := range op[i].Data {
				if lv := lp[i].Data[j]; lv != v {
					t.Fatalf("%s: tensor %d element %d: %v != %v", name, i, j, lv, v)
				}
			}
		}
	}
}

func TestCheckpointFileAndServingMatch(t *testing.T) {
	// A model trained for a couple of steps must survive the file round
	// trip with identical forward outputs.
	ds := datasets.ZINC(datasets.Config{TrainSize: 8, ValSize: 4, TestSize: 1, Seed: 3})
	res, err := Run(ds, Options{
		Model: "GT", Engine: models.EngineMega,
		Dim: 16, Layers: 1, Heads: 2, BatchSize: 4, Epochs: 1, Seed: 3,
	})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveCheckpointFile(path, res.Checkpoint(ds.Name), res.Model); err != nil {
		t.Fatalf("save file: %v", err)
	}
	meta, loaded, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatalf("load file: %v", err)
	}
	if meta.Model != "GT" || meta.Task != datasets.TaskRegression || meta.Dataset != "ZINC" {
		t.Errorf("meta = %+v", meta)
	}
	ctx, err := models.NewDGLContext(ds.Val[:2], nil, meta.Config.Dim)
	if err != nil {
		t.Fatalf("context: %v", err)
	}
	want := res.Model.Forward(ctx)
	got := loaded.Forward(ctx)
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("forward mismatch at %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}

// withHeaderField re-encodes a current-format checkpoint with one extra
// key in its header's config object, recomputing the CRC trailer — the
// shape of a file written while models.Config carried that field.
func withHeaderField(t *testing.T, data []byte, key string, value any) []byte {
	t.Helper()
	body := data[len(ckptMagic) : len(data)-ckptTrailerLen]
	n := binary.LittleEndian.Uint32(body)
	var header map[string]any
	if err := json.Unmarshal(body[4:4+n], &header); err != nil {
		t.Fatal(err)
	}
	header["config"].(map[string]any)[key] = value
	nh, err := json.Marshal(header)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(ckptMagic), binary.LittleEndian.AppendUint32(nil, uint32(len(nh)))...)
	out = append(append(out, nh...), body[4+n:]...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestCheckpointWithRetiredAttentionField: checkpoints from before the
// runtime attention selector was removed carry "Attention":"staged" in
// their config. They must still load — Config has no json tags, so the
// unknown key is ignored — and run the fused kernel, the only attention
// path that borrows arena scratch.
func TestCheckpointWithRetiredAttentionField(t *testing.T) {
	ds := datasets.ZINC(datasets.Config{TrainSize: 4, ValSize: 1, TestSize: 1, Seed: 5})
	cfg := tinyConfig()
	cfg.NodeTypes, cfg.EdgeTypes = ds.NumNodeTypes, ds.NumEdgeTypes
	orig, err := NewModel("GT", cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := Checkpoint{Model: "GT", Config: cfg, Task: datasets.TaskRegression, Dataset: "ZINC"}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, meta, orig); err != nil {
		t.Fatal(err)
	}
	data := withHeaderField(t, buf.Bytes(), "Attention", "staged")
	if !bytes.Contains(data, []byte(`"Attention":"staged"`)) {
		t.Fatal("header rewrite did not add the retired field")
	}
	gotMeta, loaded, err := LoadCheckpoint(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if gotMeta != meta {
		t.Errorf("meta = %+v, want %+v", gotMeta, meta)
	}

	ctx, err := models.NewMegaContext(ds.Train, models.MegaOptions{}, nil, meta.Config.Dim)
	if err != nil {
		t.Fatal(err)
	}
	want := orig.Forward(ctx)
	ctx.Scratch = tensor.NewArena()
	got := loaded.Forward(ctx)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("output %d: loaded %v, original %v", i, got.Data[i], want.Data[i])
		}
	}
	if s := ctx.Scratch.Stats(); s.F64.Borrows == 0 {
		t.Fatalf("loaded model never borrowed from the arena: %+v", s.F64)
	}
}

func TestLoadCheckpointRejectsGarbage(t *testing.T) {
	if _, _, err := LoadCheckpoint(bytes.NewReader([]byte("not a checkpoint at all"))); !errors.Is(err, ErrCkptMagic) {
		t.Errorf("garbage magic: err = %v, want ErrCkptMagic", err)
	}
	// Valid magic, truncated header.
	if _, _, err := LoadCheckpoint(bytes.NewReader([]byte("MEGACKP1\xff\xff"))); !errors.Is(err, ErrCkptHeader) {
		t.Errorf("truncated header: err = %v, want ErrCkptHeader", err)
	}
}

func TestNewModelRejectsUnknown(t *testing.T) {
	if _, err := NewModel("RNN", tinyConfig()); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("err = %v, want ErrUnknownModel", err)
	}
}
