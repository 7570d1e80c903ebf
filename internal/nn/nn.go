// Package nn provides the neural building blocks above the tensor engine:
// parameterised layers (linear, embedding, normalisation wrappers, MLP
// readout) and the Adam optimiser. Layers expose their trainable tensors
// through Params() so models can register everything with one optimiser.
package nn

import (
	"math"
	"math/rand"

	"mega/internal/compute"
	"mega/internal/tensor"
)

// Layer is anything with trainable parameters.
type Layer interface {
	Params() []*tensor.Tensor
}

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W *tensor.Tensor
	B *tensor.Tensor
}

var _ Layer = (*Linear)(nil)

// NewLinear constructs a Glorot-initialised in×out linear layer.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	std := math.Sqrt(2.0 / float64(in+out))
	return &Linear{
		W: tensor.Randn(rng, in, out, std).RequireGrad(),
		B: tensor.Zeros(1, out).RequireGrad(),
	}
}

// Forward applies the layer to x (rows×in).
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.AddRowVec(tensor.MatMul(x, l.W), l.B)
}

// Params implements Layer.
func (l *Linear) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }

// Embedding maps categorical IDs to dense rows of a trainable table.
type Embedding struct {
	Table *tensor.Tensor
}

var _ Layer = (*Embedding)(nil)

// NewEmbedding constructs a numTypes×dim embedding table.
func NewEmbedding(rng *rand.Rand, numTypes, dim int) *Embedding {
	return &Embedding{Table: tensor.Randn(rng, numTypes, dim, 0.1).RequireGrad()}
}

// Forward looks up the rows for ids.
func (e *Embedding) Forward(ids []int32) *tensor.Tensor {
	return tensor.EmbedRows(e.Table, ids)
}

// Params implements Layer.
func (e *Embedding) Params() []*tensor.Tensor { return []*tensor.Tensor{e.Table} }

// Norm wraps either LayerNorm or BatchNorm with trainable affine
// parameters; which one is selected by kind.
type Norm struct {
	Gamma *tensor.Tensor
	Beta  *tensor.Tensor
	kind  NormKind
}

var _ Layer = (*Norm)(nil)

// NormKind selects the normalisation flavour.
type NormKind int

// Normalisation flavours: GatedGCN uses batch norm, GT uses layer norm.
const (
	LayerNorm NormKind = iota + 1
	BatchNorm
)

// NewNorm constructs a normalisation layer over dim features.
func NewNorm(kind NormKind, dim int) *Norm {
	return &Norm{
		Gamma: tensor.Full(1, dim, 1).RequireGrad(),
		Beta:  tensor.Zeros(1, dim).RequireGrad(),
		kind:  kind,
	}
}

// Forward normalises x.
func (n *Norm) Forward(x *tensor.Tensor) *tensor.Tensor {
	if n.kind == BatchNorm {
		return tensor.BatchNorm(x, n.Gamma, n.Beta)
	}
	return tensor.LayerNorm(x, n.Gamma, n.Beta)
}

// Params implements Layer.
func (n *Norm) Params() []*tensor.Tensor { return []*tensor.Tensor{n.Gamma, n.Beta} }

// MLP is a two-layer ReLU perceptron used as the graph-level readout head.
type MLP struct {
	L1 *Linear
	L2 *Linear
}

var _ Layer = (*MLP)(nil)

// NewMLP constructs an in→hidden→out readout.
func NewMLP(rng *rand.Rand, in, hidden, out int) *MLP {
	return &MLP{L1: NewLinear(rng, in, hidden), L2: NewLinear(rng, hidden, out)}
}

// Forward applies the MLP.
func (m *MLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	return m.L2.Forward(tensor.ReLU(m.L1.Forward(x)))
}

// Params implements Layer.
func (m *MLP) Params() []*tensor.Tensor {
	return append(m.L1.Params(), m.L2.Params()...)
}

// CollectParams flattens the parameters of many layers.
func CollectParams(layers ...Layer) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range layers {
		out = append(out, l.Params()...)
	}
	return out
}

// CountParams returns the total number of scalar parameters, the "Parameter
// Volume" of Table I.
func CountParams(params []*tensor.Tensor) int {
	total := 0
	for _, p := range params {
		total += p.Size()
	}
	return total
}

// Adam is the Adam optimiser (Kingma & Ba) over a fixed parameter list.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	params  []*tensor.Tensor
	m, v    [][]float64
	step    int
	maxNorm float64
}

// NewAdam constructs an Adam optimiser with the given learning rate and
// default betas (0.9, 0.999). Gradients are clipped to global norm 5, the
// benchmark-suite default.
func NewAdam(params []*tensor.Tensor, lr float64) *Adam {
	a := &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		params:  params,
		m:       make([][]float64, len(params)),
		v:       make([][]float64, len(params)),
		maxNorm: 5,
	}
	for i, p := range params {
		a.m[i] = make([]float64, p.Size())
		a.v[i] = make([]float64, p.Size())
	}
	return a
}

// ZeroGrad clears every parameter gradient.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// Step applies one Adam update from the accumulated gradients. The squared
// gradient norm reduces per parameter through compute.ReduceSum's fixed
// partition (combined in parameter order), and the elementwise update fans
// out across the worker pool — both thread-count invariant.
func (a *Adam) Step() {
	a.step++
	// Global-norm gradient clipping.
	norm := 0.0
	for _, p := range a.params {
		grad := p.Grad
		norm += compute.ReduceSum(len(grad), func(lo, hi int) float64 {
			s := 0.0
			for e := lo; e < hi; e++ {
				s += grad[e] * grad[e]
			}
			return s
		})
	}
	norm = math.Sqrt(norm)
	clip := 1.0
	if a.maxNorm > 0 && norm > a.maxNorm {
		clip = a.maxNorm / norm
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.params {
		if p.Grad == nil {
			continue
		}
		m, v, grad, data := a.m[i], a.v[i], p.Grad, p.Data
		compute.ParallelGrain(len(data), 2048, func(lo, hi int) {
			for e := lo; e < hi; e++ {
				g := grad[e] * clip
				m[e] = a.Beta1*m[e] + (1-a.Beta1)*g
				v[e] = a.Beta2*v[e] + (1-a.Beta2)*g*g
				mh := m[e] / bc1
				vh := v[e] / bc2
				data[e] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
			}
		})
	}
}

// NumParams returns the total scalar parameter count under optimisation.
func (a *Adam) NumParams() int { return CountParams(a.params) }

// SetLR updates the learning rate (used by schedulers).
func (a *Adam) SetLR(lr float64) { a.LR = lr }

// PlateauScheduler halves (by Factor) the optimiser's learning rate when
// the monitored value stops improving for Patience epochs — the
// benchmark-suite training protocol (Dwivedi et al., the paper's [45]).
type PlateauScheduler struct {
	Opt      *Adam
	Factor   float64 // multiplier on plateau (default 0.5)
	Patience int     // epochs without improvement before decay (default 5)
	MinLR    float64 // stop decaying below this (default 1e-5)

	best   float64
	since  int
	inited bool
}

// NewPlateauScheduler wraps an optimiser with the default schedule.
func NewPlateauScheduler(opt *Adam) *PlateauScheduler {
	return &PlateauScheduler{Opt: opt, Factor: 0.5, Patience: 5, MinLR: 1e-5}
}

// Step observes one epoch's monitored value (typically validation loss)
// and returns true if it decayed the learning rate.
func (s *PlateauScheduler) Step(value float64) bool {
	if !s.inited || value < s.best {
		s.best = value
		s.inited = true
		s.since = 0
		return false
	}
	s.since++
	if s.since < s.Patience {
		return false
	}
	s.since = 0
	next := s.Opt.LR * s.Factor
	if next < s.MinLR {
		next = s.MinLR
	}
	if next == s.Opt.LR {
		return false
	}
	s.Opt.SetLR(next)
	return true
}
