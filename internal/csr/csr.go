// Package csr implements the Compressed Sparse Row storage format and its
// serial and multithreaded SpM×V kernels — the unsymmetric baseline every
// optimization in the paper is measured against.
package csr

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// Matrix is a sparse matrix in CSR form: Val holds the nonzero values in
// row-major order, ColIdx the matching column indices, and RowPtr[r] the
// offset of the first element of row r (RowPtr has length Rows+1).
type Matrix struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Val        []float64
}

// FromCOO builds a CSR matrix. Symmetric (lower-stored) input is expanded to
// a full general matrix first, because CSR is an unsymmetric format: this is
// exactly the redundancy the paper's symmetric formats remove.
func FromCOO(m *matrix.COO) *Matrix {
	src := m
	if m.Symmetric {
		src = m.ToGeneral()
	} else if !m.IsNormalized() {
		src = m.Clone().Normalize()
	}
	out := &Matrix{
		Rows:   src.Rows,
		Cols:   src.Cols,
		RowPtr: make([]int32, src.Rows+1),
		ColIdx: make([]int32, src.NNZ()),
		Val:    make([]float64, src.NNZ()),
	}
	for k := range src.Val {
		out.RowPtr[src.RowIdx[k]+1]++
	}
	for r := 0; r < src.Rows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	copy(out.ColIdx, src.ColIdx)
	copy(out.Val, src.Val)
	return out
}

// NNZ reports the stored nonzero count.
func (a *Matrix) NNZ() int { return len(a.Val) }

// Bytes reports the in-memory size per the paper's Eq. (1):
// 12·NNZ + 4·(N+1) with 8-byte values and 4-byte indices.
func (a *Matrix) Bytes() int64 {
	return int64(8*len(a.Val)) + int64(4*len(a.ColIdx)) + int64(4*len(a.RowPtr))
}

// RowNNZ reports the stored nonzeros of row r.
func (a *Matrix) RowNNZ(r int) int { return int(a.RowPtr[r+1] - a.RowPtr[r]) }

// MulVec computes y = A·x serially.
func (a *Matrix) MulVec(x, y []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("csr: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			a.Rows, a.Cols, len(x), len(y)))
	}
	mulRange(a, x, y, 0, int32(a.Rows))
}

// mulRange computes rows [lo, hi) of y = A·x. The slice headers are hoisted
// and each row walks its own reslice of ColIdx/Val, so the inner loop
// carries no index checks on the matrix arrays. The sum runs in storage
// order, which keeps y bitwise identical to the straightforward loop.
func mulRange(a *Matrix, x, y []float64, lo, hi int32) {
	rowPtr, colIdx, val := a.RowPtr, a.ColIdx, a.Val
	for r := lo; r < hi; r++ {
		cols := colIdx[rowPtr[r]:rowPtr[r+1]]
		vals := val[rowPtr[r]:rowPtr[r+1]]
		vals = vals[:len(cols)]
		sum := 0.0
		for j, c := range cols { // bce:inner
			sum += vals[j] * x[c]
		}
		y[r] = sum
	}
}

// MulMat computes Y = A·X serially for nv interleaved vectors
// (x[i*nv+v] is component v of row i).
func (a *Matrix) MulMat(x, y []float64, nv int) {
	if nv < 1 || len(x) != a.Cols*nv || len(y) != a.Rows*nv {
		panic(fmt.Sprintf("csr: MulMat dims: A is %dx%d, nv=%d, len(x)=%d, len(y)=%d",
			a.Rows, a.Cols, nv, len(x), len(y)))
	}
	mulMatRange(a, x, y, nv, 0, int32(a.Rows))
}

func mulMatRange(a *Matrix, x, y []float64, nv int, lo, hi int32) {
	for r := lo; r < hi; r++ {
		yr := y[int(r)*nv : int(r)*nv+nv]
		for v := range yr {
			yr[v] = 0
		}
		for j := a.RowPtr[r]; j < a.RowPtr[r+1]; j++ {
			ci := int(a.ColIdx[j]) * nv
			av := a.Val[j]
			xc := x[ci : ci+nv]
			for v := 0; v < nv; v++ {
				yr[v] += av * xc[v]
			}
		}
	}
}

// Parallel wraps a Matrix with an nnz-balanced row partition and a worker
// pool for multithreaded y = A·x. CSR needs no reduction phase: output rows
// are disjoint across threads.
type Parallel struct {
	A    *Matrix
	Part *partition.RowPartition
	pool *parallel.Pool

	// curX/curY are the operands of the MulVec in flight; mul is the worker
	// body over them, built once so a call allocates nothing.
	curX, curY []float64
	mul        func(tid int)
}

// NewParallel prepares a multithreaded kernel over pool (one partition per
// worker).
func NewParallel(a *Matrix, pool *parallel.Pool) *Parallel {
	p := &Parallel{
		A:    a,
		Part: partition.ByNNZ(a.RowPtr, pool.Size()),
		pool: pool,
	}
	p.mul = func(tid int) { mulRange(p.A, p.curX, p.curY, p.Part.Start[tid], p.Part.End[tid]) }
	return p
}

// MulVec computes y = A·x with one goroutine per partition.
func (p *Parallel) MulVec(x, y []float64) {
	if len(x) != p.A.Cols || len(y) != p.A.Rows {
		panic(fmt.Sprintf("csr: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			p.A.Rows, p.A.Cols, len(x), len(y)))
	}
	p.curX, p.curY = x, y
	p.pool.Run(p.mul)
	p.curX, p.curY = nil, nil
}

// MulMat computes Y = A·X for nv interleaved vectors, one goroutine per
// partition (rows are disjoint, so no reduction is needed).
func (p *Parallel) MulMat(x, y []float64, nv int) {
	if nv < 1 || len(x) != p.A.Cols*nv || len(y) != p.A.Rows*nv {
		panic(fmt.Sprintf("csr: MulMat dims: A is %dx%d, nv=%d, len(x)=%d, len(y)=%d",
			p.A.Rows, p.A.Cols, nv, len(x), len(y)))
	}
	p.pool.Run(func(tid int) {
		mulMatRange(p.A, x, y, nv, p.Part.Start[tid], p.Part.End[tid])
	})
}
