package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/csr"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/vec"
)

// Oracle bodies: the SpM×V loops in their original form — one loop per row
// that indexes RowPtr/ColIdx/Val through the matrix, the effective multiply
// testing c ≥ startT on every element. The production bodies hoist the
// slice headers, reslice each row and split it at startT; that must not
// change a single bit of y, so the tests below compare with ==.

func oracleSSSMulVec(s *SSS, x, y []float64) {
	if s.Kind == Skew {
		for r := range y {
			y[r] = 0
		}
	} else {
		for r := range y {
			y[r] = s.DValues[r] * x[r]
		}
	}
	for r := 0; r < s.N; r++ {
		xr := x[r]
		acc := 0.0
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			c := s.ColIdx[j]
			v := s.Val[j]
			acc += v * x[c]
			switch s.Kind {
			case Skew:
				y[c] -= v * xr
			case Structural:
				y[c] += s.UVal[j] * xr
			default:
				y[c] += v * xr
			}
		}
		y[r] += acc
	}
}

func oracleMultiplyNaive(k *Kernel, tid int, x []float64) {
	s := k.S
	local := k.LV.Vecs[tid]
	uval, sign := s.Val, 1.0
	if s.Kind != Sym {
		uval, sign = s.kindUval()
	}
	for r := k.Part.Start[tid]; r < k.Part.End[tid]; r++ {
		xr := x[r]
		acc := 0.0
		if s.DValues != nil {
			acc = s.DValues[r] * xr
		}
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			c := s.ColIdx[j]
			acc += s.Val[j] * x[c]
			if s.Kind == Sym {
				local[c] += s.Val[j] * xr
			} else {
				local[c] += sign * uval[j] * xr
			}
		}
		local[r] += acc
	}
}

func oracleMultiplyEffective(k *Kernel, tid int, x, y []float64) {
	s := k.S
	local := k.LV.Vecs[tid]
	startT := k.Part.Start[tid]
	uval, sign := s.Val, 1.0
	if s.Kind != Sym {
		uval, sign = s.kindUval()
	}
	for r := k.Part.Start[tid]; r < k.Part.End[tid]; r++ {
		xr := x[r]
		acc := 0.0
		if s.DValues != nil {
			acc = s.DValues[r] * xr
		}
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			c := s.ColIdx[j]
			acc += s.Val[j] * x[c]
			var t float64
			if s.Kind == Sym {
				t = s.Val[j] * xr
			} else {
				t = sign * uval[j] * xr
			}
			if c >= startT {
				y[c] += t
			} else {
				local[c] += t
			}
		}
		y[r] = acc
	}
}

func oracleColorBlocks(k *Kernel, blocks []int32, x, y []float64) {
	s := k.S
	part := k.sched.Part
	uval, sign := s.Val, 1.0
	if s.Kind != Sym {
		uval, sign = s.kindUval()
	}
	for _, b := range blocks {
		for r := part.Start[b]; r < part.End[b]; r++ {
			xr := x[r]
			acc := 0.0
			for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
				c := s.ColIdx[j]
				acc += s.Val[j] * x[c]
				if s.Kind == Sym {
					y[c] += s.Val[j] * xr
				} else {
					y[c] += sign * uval[j] * xr
				}
			}
			y[r] += acc
		}
	}
}

func oracleCSRMulVec(a *csr.Matrix, x, y []float64) {
	for r := 0; r < a.Rows; r++ {
		sum := 0.0
		for j := a.RowPtr[r]; j < a.RowPtr[r+1]; j++ {
			sum += a.Val[j] * x[a.ColIdx[j]]
		}
		y[r] = sum
	}
}

// oracleMulVec runs k's operation the original way: the oracle multiply
// followed by the method's reduction, which the original chain ran at every
// p (at p = 1 effective ranges and indexed fold nothing). It shares k's
// local vectors, which every reduction leaves zeroed.
func oracleMulVec(k *Kernel, x, y []float64) {
	var phases []func(int)
	switch k.Method {
	case Naive:
		phases = []func(int){
			func(tid int) { oracleMultiplyNaive(k, tid, x) },
			func(tid int) { k.LV.reduceNaiveT(tid, y) },
		}
	case EffectiveRanges:
		phases = []func(int){
			func(tid int) { oracleMultiplyEffective(k, tid, x, y) },
			func(tid int) { k.LV.reduceEffectiveT(tid, y) },
		}
	case Indexed:
		phases = []func(int){
			func(tid int) { oracleMultiplyEffective(k, tid, x, y) },
			func(tid int) { k.LV.reduceIndexedT(tid, y) },
		}
	case Colored:
		phases = []func(int){func(tid int) { k.diagInitT(tid, x, y) }}
		for c := 0; c < k.sched.NumColors; c++ {
			assign := k.sched.Assign[c]
			phases = append(phases, func(tid int) { oracleColorBlocks(k, assign[tid], x, y) })
		}
	}
	k.pool.RunPhases(phases...)
}

// oracleMatrices yields every suite matrix at a small scale in all three
// symmetry classes: the symmetric original, its skew-symmetric lower part
// and a structurally-symmetric copy with perturbed upper values.
func oracleMatrices(t *testing.T) map[string]*SSS {
	t.Helper()
	out := map[string]*SSS{}
	for _, sp := range gen.PaperSuite {
		m, err := gen.Generate(sp, 0.003)
		if err != nil {
			t.Fatal(err)
		}
		if out[sp.Name], err = FromCOO(m); err != nil {
			t.Fatal(err)
		}
		sk := matrix.NewCOO(m.Rows, m.Cols, m.NNZ())
		sk.Symmetric, sk.Skew = true, true
		for i := range m.Val {
			if m.RowIdx[i] != m.ColIdx[i] {
				sk.Add(int(m.RowIdx[i]), int(m.ColIdx[i]), m.Val[i])
			}
		}
		if out[sp.Name+"/skew"], err = FromCOO(sk); err != nil {
			t.Fatal(err)
		}
		g := m.ToGeneral()
		for i := range g.Val {
			if g.RowIdx[i] < g.ColIdx[i] {
				g.Val[i] *= 1 + 0.25*math.Sin(float64(i))
			}
		}
		if out[sp.Name+"/structural"], err = FromCOOStructural(g); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func assertBitwise(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: y[%d] = %v, oracle %v (diff %g)", what, i, got[i], want[i], got[i]-want[i])
		}
	}
}

// TestKernelBodiesMatchOracleBitwise: every rewritten body — serial SSS,
// naive, effective ranges, indexed and colored at p ∈ {1, 2, 3}, in every
// symmetry class — produces exactly the oracle's y, and MulVecDot's dot is
// exactly vec.Dot over the oracle's y.
func TestKernelBodiesMatchOracleBitwise(t *testing.T) {
	mats := oracleMatrices(t)
	for name, s := range mats {
		rng := rand.New(rand.NewSource(int64(len(name))))
		x := make([]float64, s.N)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, s.N)
		got := make([]float64, s.N)
		oracleSSSMulVec(s, x, want)
		s.MulVec(x, got)
		assertBitwise(t, name+" serial", got, want)

		for _, p := range []int{1, 2, 3} {
			pool := parallel.NewPool(p)
			for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
				what := name + " " + method.String() + " p=" + string(rune('0'+p))
				k, err := NewKernelOpts(s, method, pool, KernelOptions{})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				oracleMulVec(k, x, want)
				for i := range got {
					got[i] = math.NaN() // every element must be written
				}
				k.MulVec(x, got)
				assertBitwise(t, what+" MulVec", got, want)
				dot := k.MulVecDot(x, got)
				assertBitwise(t, what+" MulVecDot", got, want)
				if wantDot := vec.Dot(pool, x, want); dot != wantDot {
					t.Fatalf("%s: MulVecDot dot = %v, vec.Dot of oracle = %v", what, dot, wantDot)
				}
			}
			pool.Close()
		}
	}
}

// TestCSRBodyMatchesOracleBitwise: the CSR row body, serial and through
// the p-way partition, reproduces the original loop exactly.
func TestCSRBodyMatchesOracleBitwise(t *testing.T) {
	for _, sp := range gen.PaperSuite {
		m, err := gen.Generate(sp, 0.003)
		if err != nil {
			t.Fatal(err)
		}
		a := csr.FromCOO(m)
		rng := rand.New(rand.NewSource(int64(a.Rows)))
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, a.Rows)
		got := make([]float64, a.Rows)
		oracleCSRMulVec(a, x, want)
		a.MulVec(x, got)
		assertBitwise(t, sp.Name+" csr serial", got, want)
		for _, p := range []int{1, 2, 3} {
			pool := parallel.NewPool(p)
			for i := range got {
				got[i] = math.NaN()
			}
			csr.NewParallel(a, pool).MulVec(x, got)
			assertBitwise(t, sp.Name+" csr p="+string(rune('0'+p)), got, want)
			pool.Close()
		}
	}
}

// TestNewKernelRejectsUnsortedRows: the effective bodies split each row at
// the partition start, which is only correct when a row's columns ascend.
// NewKernelOpts must refuse a matrix that breaks that (or any other part of
// the row layout) instead of computing a wrong y.
func TestNewKernelRejectsUnsortedRows(t *testing.T) {
	good := func() *SSS {
		// Row 3 holds columns 0 and 2; row 2 holds column 1.
		return &SSS{
			N:       4,
			DValues: []float64{4, 4, 4, 4},
			RowPtr:  []int32{0, 0, 0, 1, 3},
			ColIdx:  []int32{1, 0, 2},
			Val:     []float64{1, 2, 3},
		}
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	if _, err := NewKernelOpts(good(), Indexed, pool, KernelOptions{}); err != nil {
		t.Fatalf("well-formed SSS rejected: %v", err)
	}
	cases := map[string]func(s *SSS){
		"descending columns": func(s *SSS) { s.ColIdx[1], s.ColIdx[2] = 2, 0 },
		"duplicate column":   func(s *SSS) { s.ColIdx[2] = 0 },
		"column on diagonal": func(s *SSS) { s.ColIdx[0] = 2 },
		"short Val":          func(s *SSS) { s.Val = s.Val[:2] },
		"row pointer overrun": func(s *SSS) {
			s.RowPtr = []int32{0, 0, 5, 1, 3}
		},
	}
	for name, breakIt := range cases {
		s := good()
		breakIt(s)
		for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Atomic, Colored} {
			_, err := NewKernelOpts(s, method, pool, KernelOptions{})
			if err == nil {
				t.Fatalf("%s: %v kernel accepted a malformed SSS", name, method)
			}
			if !strings.HasPrefix(err.Error(), "core: SSS") {
				t.Fatalf("%s: unexpected error %q", name, err)
			}
		}
	}
}

// TestP1DropsReduction: at p = 1 effective ranges and indexed have nothing
// to fold, so their MulVec is the multiply phase alone and MulVecDot adds
// only the dot sweep; naive keeps its reduction (its locals hold every
// write).
func TestP1DropsReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s, err := FromCOO(randomSymmetric(t, rng, 600, 5))
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(1)
	defer pool.Close()
	x := make([]float64, s.N)
	y := make([]float64, s.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for method, want := range map[ReductionMethod][2]int{
		Naive: {2, 2}, EffectiveRanges: {1, 2}, Indexed: {1, 2},
	} {
		k := NewKernel(s, method, pool)
		k.MulVecDot(x, y)
		if got := [2]int{len(k.phasesPlain), len(k.phasesDot)}; got != want {
			t.Fatalf("%v at p=1: (MulVec, MulVecDot) phases = %v, want %v", method, got, want)
		}
		kinds := k.phaseKinds(len(k.phasesDot))
		if method != Naive && kinds[1] != PhaseCompute {
			t.Fatalf("%v at p=1: dot sweep labeled %v, want compute", method, kinds[1])
		}
		if tr := k.Traffic(); method != Naive && (tr.RedBytes != 0 || tr.RedFlops != 0) {
			t.Fatalf("%v at p=1: traffic still prices a reduction: %+v", method, tr)
		}
	}
}
