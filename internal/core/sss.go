// Package core implements the paper's primary contribution: the symmetric
// sparse matrix-vector multiplication kernel over the SSS (Symmetric Sparse
// Skyline) format, multithreaded with per-thread local output vectors, and
// the three local-vector reduction strategies the paper compares —
// naive full-vector reduction, effective ranges (Batista et al.), and the
// proposed local-vectors indexing scheme.
package core

import (
	"fmt"

	"repro/internal/matrix"
)

// SymKind labels the symmetry class an SSS matrix represents. All three
// classes share the same index structure (dense diagonal + strict lower
// triangle in CSR); they differ only in how the upper triangle is implied.
type SymKind int

const (
	// Sym is the paper's case: A = Aᵀ, the transpose contribution reuses the
	// stored value unchanged.
	Sym SymKind = iota
	// Skew is A = -Aᵀ (PARS3): same storage as Sym, the transpose
	// contribution enters with flipped sign, and the diagonal is identically
	// zero — DValues is nil, the format does not store it.
	Skew
	// Structural is a structurally-symmetric-only matrix (Batista et al.):
	// the sparsity pattern is symmetric but values are not, so a second value
	// array UVal carries the upper-triangle values at the same index slots.
	Structural
)

// String implements fmt.Stringer.
func (k SymKind) String() string {
	switch k {
	case Sym:
		return "symmetric"
	case Skew:
		return "skew-symmetric"
	case Structural:
		return "structurally-symmetric"
	default:
		return fmt.Sprintf("SymKind(%d)", int(k))
	}
}

// SSS is a symmetric sparse matrix in Sparse Symmetric Skyline format: the
// main diagonal lives in DValues and the strict lower triangle in CSR layout
// (RowPtr/ColIdx/Val). Only the lower half is stored; the upper half is
// implied by the symmetry class Kind. For Skew matrices DValues is nil (the
// diagonal is identically zero); for Structural matrices UVal[j] holds the
// upper-triangle value A[c][r] mirroring the lower slot j at (r, c).
type SSS struct {
	N       int
	Kind    SymKind
	DValues []float64
	RowPtr  []int32
	ColIdx  []int32
	Val     []float64
	UVal    []float64 // Structural only; nil otherwise
}

// FromCOO builds an SSS matrix from symmetric lower-triangular COO storage.
// Missing diagonal entries are stored as explicit zeros in DValues, as the
// format requires a dense diagonal array. A COO with the Skew flag builds a
// Kind=Skew SSS: its diagonal must be absent or explicitly zero, and DValues
// stays nil — the skew-symmetric format does not store the diagonal at all.
func FromCOO(m *matrix.COO) (*SSS, error) {
	if !m.Symmetric {
		return nil, fmt.Errorf("core: SSS requires symmetric lower-triangular storage")
	}
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("core: SSS requires a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	src := m
	if !m.IsNormalized() {
		src = m.Clone().Normalize()
	}
	n := src.Rows
	s := &SSS{
		N:      n,
		RowPtr: make([]int32, n+1),
	}
	if m.Skew {
		s.Kind = Skew
	} else {
		s.DValues = make([]float64, n)
	}
	lower := 0
	for k := range src.Val {
		if src.RowIdx[k] == src.ColIdx[k] {
			if s.Kind == Skew {
				if src.Val[k] != 0 {
					return nil, fmt.Errorf("core: skew-symmetric matrix has nonzero diagonal entry (%d,%d)=%g",
						src.RowIdx[k], src.ColIdx[k], src.Val[k])
				}
				continue
			}
			s.DValues[src.RowIdx[k]] = src.Val[k]
		} else {
			lower++
		}
	}
	s.ColIdx = make([]int32, 0, lower)
	s.Val = make([]float64, 0, lower)
	for k := range src.Val {
		r, c := src.RowIdx[k], src.ColIdx[k]
		if r == c {
			continue
		}
		s.RowPtr[r+1]++
		s.ColIdx = append(s.ColIdx, c)
		s.Val = append(s.Val, src.Val[k])
	}
	for r := 0; r < n; r++ {
		s.RowPtr[r+1] += s.RowPtr[r]
	}
	return s, nil
}

// FromCOOStructural builds a Kind=Structural SSS from a general COO whose
// sparsity pattern is symmetric but whose values need not be: the strict
// lower triangle lands in Val, the diagonal in DValues, and each upper entry
// (c, r) with c < r lands in UVal at the slot of its lower mirror (r, c) —
// one index structure, two value arrays.
func FromCOOStructural(m *matrix.COO) (*SSS, error) {
	if m.Symmetric {
		return nil, fmt.Errorf("core: FromCOOStructural takes a general COO; use FromCOO for symmetric storage")
	}
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("core: SSS requires a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	src := m
	if !m.IsNormalized() {
		src = m.Clone().Normalize()
	}
	n := src.Rows
	s := &SSS{
		N:       n,
		Kind:    Structural,
		DValues: make([]float64, n),
		RowPtr:  make([]int32, n+1),
	}
	lower := 0
	for k := range src.Val {
		r, c := src.RowIdx[k], src.ColIdx[k]
		switch {
		case r == c:
			s.DValues[r] = src.Val[k]
		case r > c:
			lower++
		}
	}
	s.ColIdx = make([]int32, 0, lower)
	s.Val = make([]float64, 0, lower)
	for k := range src.Val {
		r, c := src.RowIdx[k], src.ColIdx[k]
		if r <= c {
			continue
		}
		s.RowPtr[r+1]++
		s.ColIdx = append(s.ColIdx, c)
		s.Val = append(s.Val, src.Val[k])
	}
	for r := 0; r < n; r++ {
		s.RowPtr[r+1] += s.RowPtr[r]
	}
	// Second pass: place every strictly upper entry at its mirror's slot.
	s.UVal = make([]float64, lower)
	filled := 0
	for k := range src.Val {
		r, c := src.RowIdx[k], src.ColIdx[k]
		if r >= c {
			continue
		}
		j, ok := s.findSlot(int32(c), int32(r))
		if !ok {
			return nil, fmt.Errorf("core: pattern not structurally symmetric: entry (%d,%d) has no mirror", r, c)
		}
		s.UVal[j] = src.Val[k]
		filled++
	}
	if filled != lower {
		return nil, fmt.Errorf("core: pattern not structurally symmetric: %d lower entries lack upper mirrors", lower-filled)
	}
	return s, nil
}

// findSlot binary-searches row r's slot for column c in the lower CSR.
func (s *SSS) findSlot(r, c int32) (int32, bool) {
	lo, hi := s.RowPtr[r], s.RowPtr[r+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s.ColIdx[mid] < c:
			lo = mid + 1
		case s.ColIdx[mid] > c:
			hi = mid
		default:
			return mid, true
		}
	}
	return 0, false
}

// checkRows verifies, in one pass over ColIdx, the layout the kernel bodies
// rely on: a well-formed row pointer over equally long ColIdx/Val (and
// UVal/DValues where the kind stores them), and every row's columns strictly
// ascending and strictly below the diagonal. FromCOO and FromCOOStructural
// always produce this layout; an SSS assembled by hand may not, and a body
// that splits its rows at the partition start would then compute a wrong y
// instead of failing.
func (s *SSS) checkRows() error {
	n := s.N
	if len(s.RowPtr) != n+1 || s.RowPtr[0] != 0 {
		return fmt.Errorf("core: SSS row pointer has length %d (want %d) or a nonzero start", len(s.RowPtr), n+1)
	}
	nnz := len(s.ColIdx)
	if int(s.RowPtr[n]) != nnz || len(s.Val) != nnz {
		return fmt.Errorf("core: SSS row pointer ends at %d, ColIdx has %d, Val has %d", s.RowPtr[n], nnz, len(s.Val))
	}
	if s.Kind == Structural && len(s.UVal) != nnz {
		return fmt.Errorf("core: structural SSS has %d upper values for %d lower slots", len(s.UVal), nnz)
	}
	if s.Kind != Skew && len(s.DValues) != n {
		return fmt.Errorf("core: SSS has %d diagonal values, want %d", len(s.DValues), n)
	}
	for r := 0; r < n; r++ {
		lo, hi := s.RowPtr[r], s.RowPtr[r+1]
		if lo > hi || int(hi) > nnz {
			return fmt.Errorf("core: SSS row pointer decreases or overruns ColIdx at row %d", r)
		}
		prev := int32(-1)
		for _, c := range s.ColIdx[lo:hi] {
			if c <= prev || c >= int32(r) {
				return fmt.Errorf("core: SSS row %d: columns must ascend strictly within [0, %d), got %d after %d", r, r, c, prev)
			}
			prev = c
		}
	}
	return nil
}

// NNZLower reports the stored strict-lower-triangle nonzeros.
func (s *SSS) NNZLower() int { return len(s.Val) }

// LogicalNNZ reports the nonzeros of the full operator: twice the stored
// lower triangle plus every stored diagonal slot (the format stores the
// diagonal densely; for Skew the diagonal is identically zero and absent).
func (s *SSS) LogicalNNZ() int { return 2*len(s.Val) + len(s.DValues) }

// Bytes reports the in-memory size: 8·|DValues| + 12·NNZ_lower + 8·|UVal| +
// 4·(N+1). For Kind=Sym this reduces to the paper's Eq. (2), 6·(NNZ+N)+4,
// for NNZ ≫ N; Skew drops the 8·N diagonal term, Structural adds an 8-byte
// upper value per stored lower slot.
func (s *SSS) Bytes() int64 {
	return int64(8*len(s.DValues)) + int64(12*len(s.Val)) +
		int64(8*len(s.UVal)) + int64(4*(s.N+1))
}

// MulVec computes y = A·x with the serial symmetric kernel (Alg. 2 in the
// paper): each stored lower element (r,c) contributes to both y[r] and y[c].
// The transpose contribution follows the symmetry class: unchanged for Sym,
// sign-flipped for Skew, taken from UVal for Structural.
func (s *SSS) MulVec(x, y []float64) {
	if len(x) != s.N || len(y) != s.N {
		panic(fmt.Sprintf("core: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			s.N, s.N, len(x), len(y)))
	}
	if s.Kind == Skew {
		for r := range y {
			y[r] = 0
		}
	} else {
		dv := s.DValues
		for r := range y {
			y[r] = dv[r] * x[r]
		}
	}
	rowPtr, colIdx, val := s.RowPtr, s.ColIdx, s.Val
	switch s.Kind {
	case Skew:
		for r := range y {
			cols := colIdx[rowPtr[r]:rowPtr[r+1]]
			vals := val[rowPtr[r]:rowPtr[r+1]]
			vals = vals[:len(cols)]
			xr := x[r]
			acc := 0.0
			for j, c := range cols { // bce:inner
				v := vals[j]
				acc += v * x[c]
				y[c] -= v * xr
			}
			y[r] += acc
		}
	case Structural:
		uval := s.UVal
		for r := range y {
			cols := colIdx[rowPtr[r]:rowPtr[r+1]]
			vals := val[rowPtr[r]:rowPtr[r+1]]
			vals = vals[:len(cols)]
			uvals := uval[rowPtr[r]:rowPtr[r+1]]
			uvals = uvals[:len(cols)]
			xr := x[r]
			acc := 0.0
			for j, c := range cols { // bce:inner
				acc += vals[j] * x[c]
				y[c] += uvals[j] * xr
			}
			y[r] += acc
		}
	default:
		for r := range y {
			cols := colIdx[rowPtr[r]:rowPtr[r+1]]
			vals := val[rowPtr[r]:rowPtr[r+1]]
			vals = vals[:len(cols)]
			xr := x[r]
			acc := 0.0
			for j, c := range cols { // bce:inner
				v := vals[j]
				acc += v * x[c]
				y[c] += v * xr
			}
			y[r] += acc
		}
	}
}

// ToCOO converts back to COO (for verification and round-trip tests):
// symmetric lower-triangular for Sym/Skew, expanded general for Structural
// (a structurally-symmetric operator has no triangular COO form). Zero
// diagonal slots are emitted only if emitZeroDiag is set; Skew never emits
// diagonal slots — the format has none.
func (s *SSS) ToCOO(emitZeroDiag bool) *matrix.COO {
	if s.Kind == Structural {
		m := matrix.NewCOO(s.N, s.N, 2*len(s.Val)+s.N)
		for r := 0; r < s.N; r++ {
			for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
				c := int(s.ColIdx[j])
				m.Add(r, c, s.Val[j])
				m.Add(c, r, s.UVal[j])
			}
			if s.DValues[r] != 0 || emitZeroDiag {
				m.Add(r, r, s.DValues[r])
			}
		}
		return m.Normalize()
	}
	m := matrix.NewCOO(s.N, s.N, len(s.Val)+s.N)
	m.Symmetric = true
	m.Skew = s.Kind == Skew
	for r := 0; r < s.N; r++ {
		for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
			m.Add(r, int(s.ColIdx[j]), s.Val[j])
		}
		if s.Kind != Skew && (s.DValues[r] != 0 || emitZeroDiag) {
			m.Add(r, r, s.DValues[r])
		}
	}
	return m.Normalize()
}
