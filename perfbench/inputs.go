package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fuzzcheck"
	"repro/internal/gen"
	"repro/internal/matrix"
)

// matSpec names one suite matrix of a workload. Scrambled matrices get a
// seeded random relabelling on top of the generator's own: a scattered
// matrix stays scattered under any permutation, so the seed varies the
// layout without changing the class.
type matSpec struct {
	name     string
	scale    float64
	scramble bool
}

func (m matSpec) String() string { return fmt.Sprintf("%s@%g", m.name, m.scale) }

// input is one prepared matrix: its Matrix Market bytes (what set-up
// starts from), its serial SSS form for the reference products, and the
// seeded operands of the library phases.
type input struct {
	spec  matSpec
	mtx   []byte
	ref   *core.SSS
	n     int
	flops float64 // useful flops of one SpM×V: 2·logical nnz

	mv spmvCase
	cg solveCase
}

// prepare generates, optionally scrambles and serializes one matrix, and
// draws its operands from rng. None of this is timed.
func prepare(spec matSpec, rng *rand.Rand) (*input, error) {
	sp, err := gen.SpecByName(spec.name)
	if err != nil {
		return nil, err
	}
	coo, err := gen.Generate(sp, spec.scale)
	if err != nil {
		return nil, err
	}
	if spec.scramble {
		perm := make([]int32, coo.Rows)
		for i, v := range rng.Perm(coo.Rows) {
			perm[i] = int32(v)
		}
		if coo, err = coo.Permute(perm); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := matrix.WriteMatrixMarket(&buf, coo); err != nil {
		return nil, fmt.Errorf("serialize %v: %w", spec, err)
	}
	ref, err := core.FromCOO(coo)
	if err != nil {
		return nil, fmt.Errorf("convert %v: %w", spec, err)
	}
	in := &input{spec: spec, mtx: buf.Bytes(), ref: ref, n: ref.N, flops: 2 * float64(ref.LogicalNNZ())}
	in.mv = in.newSpMVCase(rng)
	in.cg = in.newSolveCase(rng)
	return in, nil
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// spmvTol is the differential rule the fuzz suite applies to every format:
// |y_i − ref_i| ≤ 1e-12·Σ_j|A_ij·x_j|, which admits any summation order and
// rejects a misplaced entry.
const spmvTol = 1e-12

// spmvCase is one seeded operand with its serial SSS reference product and
// the per-row yardstick Σ_j |A_ij·x_j| of the oracle.
type spmvCase struct {
	x, y, scale []float64
}

func (in *input) newSpMVCase(rng *rand.Rand) spmvCase {
	c := spmvCase{x: randVec(rng, in.n), y: make([]float64, in.n), scale: make([]float64, in.n)}
	a := in.ref
	a.MulVec(c.x, c.y)
	for r := 0; r < a.N; r++ {
		c.scale[r] += math.Abs(a.DValues[r] * c.x[r])
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			col, v := a.ColIdx[k], a.Val[k]
			c.scale[r] += math.Abs(v * c.x[col])
			c.scale[col] += math.Abs(v * c.x[r])
		}
	}
	return c
}

// check reports whether y matches the reference product under the fuzz
// suite's own comparison.
func (c spmvCase) check(y []float64) bool {
	return fuzzcheck.Compare(y, c.y, c.scale, spmvTol) == nil
}

// solveTol is the CG target; xTol bounds the error of the returned x
// against x*. The suite matrices are well conditioned, so a converged solve
// lands within ~1e-6 of x* (entries of x* lie in [−1, 1]); a wrong answer
// misses by orders of magnitude.
const (
	solveTol = 1e-8
	xTol     = 1e-4
)

// solveCase is one seeded solution x* with its right-hand side b = A·x*.
type solveCase struct {
	xStar, b []float64
}

func (in *input) newSolveCase(rng *rand.Rand) solveCase {
	c := solveCase{xStar: randVec(rng, in.n), b: make([]float64, in.n)}
	in.ref.MulVec(c.xStar, c.b)
	return c
}

// check reports whether x solves A·x = b.
func (c solveCase) check(x []float64) bool {
	if len(x) != len(c.xStar) {
		return false
	}
	for i, v := range x {
		if !(math.Abs(v-c.xStar[i]) <= xTol) {
			return false
		}
	}
	return true
}
