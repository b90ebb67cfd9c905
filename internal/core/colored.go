package core

// The Colored method executes the symmetric SpM×V without any reduction
// phase: a conflict-free block schedule (internal/color) guarantees that all
// blocks running concurrently have disjoint write sets, so every thread
// updates y in place. One RunPhases call chains a diagonal-init phase and
// one phase per color through the pool's spin barrier — the whole operation
// still costs a single coordinator handoff, like the reduction methods.
//
// The init phase exists because, unlike the effective-ranges multiply, a
// colored block cannot assume y[r] is untouched when it runs: transpose
// contributions from blocks of *earlier* colors may already have landed in
// its rows. Seeding y[r] = d_r·x_r up front turns every later write into a
// plain accumulation.

// assembleColored assembles the init → color₀ → … → colorₖ₋₁ phase list as
// closures over k.curX/k.curY (see Kernel.assemble); with dot non-nil a
// final phase leaves the xᵀy partials in dot[tid*DotStride], computed over
// the same uniform chunks as vec.Dot so the combined sum is bitwise
// identical to a dot of the finished output.
func (k *Kernel) assembleColored(dot []float64) []func(tid int) {
	phases := make([]func(int), 0, k.sched.NumColors+2)
	init := func(tid int) { k.diagInitT(tid, k.curX, k.curY) }
	if k.hubPlan != nil {
		init = func(tid int) { k.prefillHotT(tid, k.curX); k.diagInitT(tid, k.curX, k.curY) }
	}
	phases = append(phases, init)
	for c := 0; c < k.sched.NumColors; c++ {
		assign := k.sched.Assign[c]
		switch {
		case k.hubPlan != nil:
			phases = append(phases, func(tid int) { k.colorBlocksHubT(tid, assign[tid], k.curX, k.curY) })
		case k.S.Kind != Sym:
			phases = append(phases, func(tid int) { k.colorBlocksKindT(assign[tid], k.curX, k.curY) })
		default:
			phases = append(phases, func(tid int) { k.colorBlocksT(assign[tid], k.curX, k.curY) })
		}
	}
	if dot != nil {
		phases = append(phases, func(tid int) { dot[tid*DotStride] = k.dotChunkColoredT(tid, k.curX, k.curY) })
	}
	return phases
}

// diagInitT seeds thread tid's uniform row chunk with the diagonal
// contribution, overwriting whatever the previous operation left in y. A
// Skew matrix has no DValues array at all — its diagonal is identically
// zero — so the init writes plain zeros instead of reading through nil.
func (k *Kernel) diagInitT(tid int, x, y []float64) {
	s := k.S
	if s.DValues == nil {
		for r := k.initPart.Start[tid]; r < k.initPart.End[tid]; r++ {
			y[r] = 0
		}
		return
	}
	for r := k.initPart.Start[tid]; r < k.initPart.End[tid]; r++ {
		y[r] = s.DValues[r] * x[r]
	}
}

// colorBlocksT executes the given same-color blocks: both the row and the
// transpose contribution of every stored element go straight into y. The
// schedule guarantees no concurrently-running block writes any of the same
// elements.
func (k *Kernel) colorBlocksT(blocks []int32, x, y []float64) {
	s := k.S
	rowPtr, colIdx, val := s.RowPtr, s.ColIdx, s.Val
	bStart, bEnd := k.sched.Part.Start, k.sched.Part.End
	for _, b := range blocks {
		for r := bStart[b]; r < bEnd[b]; r++ {
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

// dotChunkColoredT computes the xᵀy partial over thread tid's uniform chunk.
func (k *Kernel) dotChunkColoredT(tid int, x, y []float64) float64 {
	sum := 0.0
	for r := k.initPart.Start[tid]; r < k.initPart.End[tid]; r++ {
		sum += x[r] * y[r]
	}
	return sum
}

// Colors reports the number of color phases of the schedule; zero for
// non-Colored kernels.
func (k *Kernel) Colors() int {
	if k.sched == nil {
		return 0
	}
	return k.sched.NumColors
}

// assembleColoredMat assembles the cached nv-wide SpMM phase list over the
// same schedule: the colored method needs no wide local vectors at all,
// each phase writes the interleaved output directly (multi-RHS costs zero
// extra reduction). nv ∈ {2, 4, 8} run register-blocked color bodies (see
// mulmat_blocked.go); other widths and hub plans run the generic body.
func (k *Kernel) assembleColoredMat(nv int) []func(tid int) {
	phases := make([]func(int), 0, k.sched.NumColors+1)
	init := func(tid int) { k.diagInitMatT(tid, nv) }
	if k.hubPlan != nil {
		init = func(tid int) { k.prefillHotMatT(tid, nv); k.diagInitMatT(tid, nv) }
	}
	phases = append(phases, init)
	for c := 0; c < k.sched.NumColors; c++ {
		assign := k.sched.Assign[c]
		var ph func(int)
		switch {
		case k.hubPlan != nil:
			ph = func(tid int) { k.colorBlocksMatHubT(tid, assign[tid], nv) }
		case nv == 2:
			ph = func(tid int) { k.colorBlocksMat2T(assign[tid]) }
		case nv == 4:
			ph = func(tid int) { k.colorBlocksMat4T(assign[tid]) }
		case nv == 8:
			ph = func(tid int) { k.colorBlocksMat8T(assign[tid]) }
		default:
			ph = func(tid int) { k.colorBlocksMatT(assign[tid], nv) }
		}
		phases = append(phases, ph)
	}
	return phases
}

// diagInitMatT seeds thread tid's uniform row chunk of the interleaved
// output with the diagonal contribution.
func (k *Kernel) diagInitMatT(tid, nv int) {
	s := k.S
	x, y := k.curX, k.curY
	for r := k.initPart.Start[tid]; r < k.initPart.End[tid]; r++ {
		d := s.DValues[r]
		ri := int(r) * nv
		for v := 0; v < nv; v++ {
			y[ri+v] = d * x[ri+v]
		}
	}
}

// colorBlocksMatT is the generic-nv colored SpMM color phase.
func (k *Kernel) colorBlocksMatT(blocks []int32, nv int) {
	s := k.S
	x, y := k.curX, k.curY
	part := k.sched.Part
	for _, b := range blocks {
		for r := part.Start[b]; r < part.End[b]; r++ {
			ri := int(r) * nv
			xr := x[ri : ri+nv]
			yr := y[ri : ri+nv]
			for j := s.RowPtr[r]; j < s.RowPtr[r+1]; j++ {
				ci := int(s.ColIdx[j]) * nv
				a := s.Val[j]
				xc := x[ci : ci+nv]
				yc := y[ci : ci+nv]
				for v := 0; v < nv; v++ {
					yr[v] += a * xc[v]
					yc[v] += a * xr[v]
				}
			}
		}
	}
}
