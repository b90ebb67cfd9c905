package core

// Kind-generalized kernel bodies for the non-Sym symmetry classes.
//
// All three classes walk the identical lower-CSR structure; they differ only
// in the value the transpose (scatter) write uses and in whether a diagonal
// exists. The bodies below factor that difference into two parameters fixed
// at assembly time: uval, the array the transpose contribution reads, and
// sign, the factor it enters with.
//
//	Skew:       uval = Val,  sign = -1  (y[c] -= v·x[r]; no diagonal)
//	Structural: uval = UVal, sign = +1  (y[c] += A[c][r]·x[r])
//
// Skew therefore streams exactly the same bytes as the symmetric kernel —
// the sign flip is free — while Structural pays one extra 8-byte read per
// stored element, which Traffic() and the perfmodel account for. The Sym
// bodies in kernel.go/colored.go stay separate: the paper's measured kernel
// is not burdened with a dispatch it never needs.

// kindUval resolves the transpose value array and sign for a non-Sym matrix.
func (s *SSS) kindUval() (uval []float64, sign float64) {
	if s.Kind == Skew {
		return s.Val, -1
	}
	return s.UVal, 1
}

// multiplyNaiveKindT is multiplyNaiveT generalized over the symmetry class:
// every write goes to the thread's full-length local vector.
func (k *Kernel) multiplyNaiveKindT(tid int, x []float64) {
	s := k.S
	uval, sign := s.kindUval()
	rowPtr, colIdx, val, dv := s.RowPtr, s.ColIdx, s.Val, s.DValues
	local := k.LV.Vecs[tid]
	lo, hi := k.Part.Start[tid], k.Part.End[tid]
	for r := lo; r < hi; r++ {
		cols := colIdx[rowPtr[r]:rowPtr[r+1]]
		vals := val[rowPtr[r]:rowPtr[r+1]]
		vals = vals[:len(cols)]
		uvals := uval[rowPtr[r]:rowPtr[r+1]]
		uvals = uvals[:len(cols)]
		xr := x[r]
		acc := 0.0
		if dv != nil {
			acc = dv[r] * xr
		}
		for j, c := range cols { // bce:inner
			acc += vals[j] * x[c]
			local[c] += sign * uvals[j] * xr
		}
		local[r] += acc
	}
}

// multiplyEffectiveKindT is multiplyEffectiveT generalized over the symmetry
// class: rows inside the thread's partition write y directly, transposed
// contributions before the partition start go to the local vector. Each row
// splits at startT exactly like multiplyEffectiveT.
func (k *Kernel) multiplyEffectiveKindT(tid int, x, y []float64) {
	s := k.S
	uval, sign := s.kindUval()
	rowPtr, colIdx, val, dv := s.RowPtr, s.ColIdx, s.Val, s.DValues
	local := k.LV.Vecs[tid]
	lo, hi := k.Part.Start[tid], k.Part.End[tid]
	startT := lo
	for r := lo; r < hi; r++ {
		cols := colIdx[rowPtr[r]:rowPtr[r+1]]
		vals := val[rowPtr[r]:rowPtr[r+1]]
		vals = vals[:len(cols)]
		uvals := uval[rowPtr[r]:rowPtr[r+1]]
		uvals = uvals[:len(cols)]
		xr := x[r]
		acc := 0.0
		if dv != nil {
			acc = dv[r] * xr
		}
		split := len(cols)
		for j, c := range cols { // bce:inner
			if c >= startT {
				split = j
				break
			}
			acc += vals[j] * x[c]
			local[c] += sign * uvals[j] * xr
		}
		cols, vals, uvals = cols[split:], vals[split:], uvals[split:]
		vals, uvals = vals[:len(cols)], uvals[:len(cols)]
		for j, c := range cols { // bce:inner
			acc += vals[j] * x[c]
			y[c] += sign * uvals[j] * xr
		}
		// Same ordering argument as multiplyEffectiveT: transposed writes
		// target strictly earlier rows, so y[r] is still untouched here.
		y[r] = acc
	}
}

// colorBlocksKindT is colorBlocksT generalized over the symmetry class. The
// conflict schedule depends only on the index structure, which all classes
// share, so the same Schedule drives every kind.
func (k *Kernel) colorBlocksKindT(blocks []int32, x, y []float64) {
	s := k.S
	uval, sign := s.kindUval()
	rowPtr, colIdx, val := s.RowPtr, s.ColIdx, s.Val
	bStart, bEnd := k.sched.Part.Start, k.sched.Part.End
	for _, b := range blocks {
		for r := bStart[b]; r < bEnd[b]; r++ {
			cols := colIdx[rowPtr[r]:rowPtr[r+1]]
			vals := val[rowPtr[r]:rowPtr[r+1]]
			vals = vals[:len(cols)]
			uvals := uval[rowPtr[r]:rowPtr[r+1]]
			uvals = uvals[:len(cols)]
			xr := x[r]
			acc := 0.0
			for j, c := range cols { // bce:inner
				acc += vals[j] * x[c]
				y[c] += sign * uvals[j] * xr
			}
			y[r] += acc
		}
	}
}
