// Package tensor provides the dense 2-D tensor and reverse-mode autograd
// engine underneath the GNN models — the stand-in for PyTorch in this
// reproduction (see DESIGN.md, substitutions). Tensors are row-major
// float64 matrices; scalars are 1×1 tensors. Every differentiable op
// returns a new tensor carrying a backward closure; Backward() runs a
// topological sweep accumulating gradients into .Grad.
//
// The op set is deliberately the minimum the GatedGCN and Graph Transformer
// models need: dense linear algebra, elementwise math, row softmax, indexed
// gather/segment ops for graph aggregation, shifted-row ops for MEGA's
// banded attention, and fused normalisation layers.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major matrix with optional gradient tracking.
type Tensor struct {
	rows, cols int
	// Data is the row-major backing array, exposed for cheap I/O; treat
	// as read-only outside this package unless the tensor is a leaf.
	Data []float64
	// Grad accumulates d(output)/d(this) during Backward; nil until used.
	Grad []float64

	requiresGrad bool
	parents      []*Tensor
	backFn       func()
}

// New creates a rows×cols tensor wrapping data (not copied). It panics if
// the size does not match: shape errors are programming errors, caught in
// tests, not runtime conditions to handle.
func New(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Tensor{rows: rows, cols: cols, Data: data}
}

// Zeros creates a zero-filled rows×cols tensor.
func Zeros(rows, cols int) *Tensor {
	return &Tensor{rows: rows, cols: cols, Data: make([]float64, rows*cols)}
}

// Full creates a rows×cols tensor filled with v.
func Full(rows, cols int, v float64) *Tensor {
	t := Zeros(rows, cols)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Randn creates a rows×cols tensor of N(0, std²) samples.
func Randn(rng *rand.Rand, rows, cols int, std float64) *Tensor {
	t := Zeros(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Scalar creates a 1×1 tensor.
func Scalar(v float64) *Tensor { return New(1, 1, []float64{v}) }

// Rows returns the row count.
func (t *Tensor) Rows() int { return t.rows }

// Cols returns the column count.
func (t *Tensor) Cols() int { return t.cols }

// Size returns rows*cols.
func (t *Tensor) Size() int { return len(t.Data) }

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.cols+j] }

// Set assigns element (i, j). Only meaningful on leaf tensors.
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.cols+j] = v }

// Item returns the single element of a 1×1 tensor.
func (t *Tensor) Item() float64 {
	if len(t.Data) != 1 {
		panic(fmt.Sprintf("tensor: Item on %dx%d tensor", t.rows, t.cols))
	}
	return t.Data[0]
}

// RequireGrad marks t as a trainable leaf and returns it.
func (t *Tensor) RequireGrad() *Tensor {
	t.requiresGrad = true
	return t
}

// RequiresGrad reports whether gradients flow into t.
func (t *Tensor) RequiresGrad() bool { return t.requiresGrad }

// ensureGrad allocates the gradient buffer on demand.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
}

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// Detach returns a gradient-free copy sharing no state with t.
func (t *Tensor) Detach() *Tensor {
	d := Zeros(t.rows, t.cols)
	copy(d.Data, t.Data)
	return d
}

// Clone returns a deep copy preserving requiresGrad (as a new leaf).
func (t *Tensor) Clone() *Tensor {
	c := t.Detach()
	c.requiresGrad = t.requiresGrad
	return c
}

// newResult builds an op output whose gradient tracking follows its parents.
func newResult(rows, cols int, parents ...*Tensor) *Tensor {
	out := Zeros(rows, cols)
	for _, p := range parents {
		if p.requiresGrad {
			out.requiresGrad = true
		}
	}
	if out.requiresGrad {
		out.parents = parents
	}
	return out
}

// Backward runs reverse-mode differentiation from t (which must be 1×1,
// a loss) and accumulates gradients into every reachable tensor with
// requiresGrad.
func (t *Tensor) Backward() {
	if len(t.Data) != 1 {
		panic(fmt.Sprintf("tensor: Backward on non-scalar %dx%d tensor", t.rows, t.cols))
	}
	// Topological order via iterative DFS.
	var order []*Tensor
	visited := make(map[*Tensor]bool)
	type frame struct {
		t    *Tensor
		next int
	}
	stack := []frame{{t: t}}
	visited[t] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.t.parents) {
			p := f.t.parents[f.next]
			f.next++
			if !visited[p] && p.requiresGrad {
				visited[p] = true
				stack = append(stack, frame{t: p})
			}
			continue
		}
		order = append(order, f.t)
		stack = stack[:len(stack)-1]
	}
	// order is children-before-parents already (post-order pushes leaves
	// first); reverse iteration runs parents last.
	t.ensureGrad()
	t.Grad[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backFn != nil {
			n.backFn()
		}
	}
}

// assertSameShape panics unless a and b have identical shapes.
func assertSameShape(op string, a, b *Tensor) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}

// isFinite reports whether every element is finite; used by tests and the
// trainer's divergence guard.
func (t *Tensor) IsFinite() bool {
	for _, v := range t.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
