package core

import (
	"fmt"

	"repro/internal/color"
	"repro/internal/hub"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// ReductionMethod selects how per-thread local output vectors are combined
// into the final output vector after the multiplication phase.
type ReductionMethod int

const (
	// Naive gives every thread a full-length local vector; all writes go to
	// the local vector and a full p-vector reduction follows (Fig. 3b).
	Naive ReductionMethod = iota
	// EffectiveRanges (Batista et al.) writes rows inside the thread's own
	// partition directly to the output vector; only the conflicting region
	// [0, start_i) is buffered locally and reduced (Fig. 3c).
	EffectiveRanges
	// Indexed is the paper's contribution: like EffectiveRanges, but a sorted
	// (vid, idx) index built once per matrix/partition names exactly the
	// local-vector entries that are written, and the reduction touches only
	// those (Fig. 3d).
	Indexed
	// Atomic is an ablation comparator outside the paper's three methods:
	// no local vectors at all — conflicting writes go through lock-free
	// compare-and-swap updates on a shared accumulator (the Buluç et al.
	// fallback strategy; see atomic.go for why it loses).
	Atomic
	// Colored prevents write conflicts instead of repairing them (RACE-style
	// block coloring, internal/color): row blocks whose write sets are
	// disjoint share a color, execution runs one spin-barrier phase per
	// color, and every thread writes y directly — no local vectors and no
	// reduction phase at all, at the price of colors−1 extra barriers.
	Colored
)

// String implements fmt.Stringer.
func (m ReductionMethod) String() string {
	switch m {
	case Naive:
		return "naive"
	case EffectiveRanges:
		return "effective-ranges"
	case Indexed:
		return "indexed"
	case Atomic:
		return "atomic"
	case Colored:
		return "colored"
	default:
		return fmt.Sprintf("ReductionMethod(%d)", int(m))
	}
}

// IndexEntry names one conflicting local-vector element: local vector Vid,
// element index Idx. The paper stores both fields in four bytes each.
type IndexEntry struct {
	Vid int32
	Idx int32
}

// Kernel is a multithreaded symmetric SpM×V engine over the SSS format: an
// nnz-balanced row partition, per-thread local vectors sized according to
// the reduction method, and (for Indexed) the conflict index. Create with
// NewKernel; a Kernel is tied to the pool it was created with.
type Kernel struct {
	S      *SSS
	Method ReductionMethod
	Part   *partition.RowPartition
	LV     *LocalVectors

	pool *parallel.Pool
	p    int

	// Atomic-method state: the shared bit-pattern accumulator and the
	// uniform row split of its final conversion pass.
	acc           []uint64
	redPartAtomic *partition.RowPartition

	// Colored-method state: the conflict-free block schedule and the uniform
	// row split used by the diagonal-init and fused-dot phases.
	sched    *color.Schedule
	initPart *partition.RowPartition

	// dot holds the per-thread partial sums of MulVecDot, one cache line
	// apart, allocated on first use.
	dot []float64

	// wide holds the nv-wide local vectors of MulMat, sized lazily.
	wide *wideLocals

	// Hub-cached x access (see internal/hub): hubPlan carries the encoded
	// ColIdx copy and the slot→column table; hotX[tid] is worker tid's
	// private scalar hot window (length K), hotMat[tid] the interleaved
	// SpMM window (length K·nv, sized by assembleMat). Each worker refills
	// its own window at the start of its first phase, so the prefill rides
	// inside the existing handoff with no extra barrier.
	hubPlan *hub.Plan
	hotX    [][]float64
	hotMat  [][]float64

	// hier is the two-level reduction plan (hier.go), non-nil only when the
	// pool has multiple domains, the method keeps local vectors, and the
	// flat reduction was not forced. Single-domain kernels never build it,
	// which is what keeps them bitwise identical to the pre-domain code.
	hier *hierState

	// curX/curY are the operands of the operation in flight. The phase lists
	// are assembled once (phasesPlain in NewKernel, phasesDot on the first
	// MulVecDot, phasesMat on the first MulMat of a given nv) as closures
	// that read these fields, so repeated operations reuse the same closures
	// and the hot path allocates nothing. A Kernel has never supported
	// concurrent operations — it owns per-thread local vectors — so a single
	// operand slot is safe. Phases carry the barrier scope closing them
	// (parallel.Phase); flat lists are all-global.
	curX, curY  []float64
	phasesPlain []parallel.Phase
	phasesDot   []parallel.Phase

	// SpMM state: the phase list of the most recent MulMat vector count.
	// Switching nv reassembles; steady-state block solvers reuse it. SpMM
	// always reduces flat — the wide locals dwarf the staging windows, so
	// the hierarchical schedule has nothing to save there yet.
	phasesMat []parallel.Phase
	matNV     int

	// Interned trace span names for each phase list, built on first sampled
	// use (see obsmetrics.go).
	traceNamesPlain []obs.NameID
	traceNamesDot   []obs.NameID
	traceNamesMat   []obs.NameID

	// sampleHook, when set, receives every sampled operation's breakdown
	// (attribfeed.go). Only the sampled timedRun path consults it.
	sampleHook SampleHook
}

// KernelOptions carries the optional preprocessing products a Kernel can be
// built with.
type KernelOptions struct {
	// Hub enables hub-cached x access: the kernel walks Hub.Enc instead of
	// the matrix's ColIdx and serves encoded gathers from per-worker hot
	// windows (per-domain shared windows on a hierarchical kernel). Must
	// have been built by hub.Analyze over this matrix's structure. Not
	// supported by the Atomic method.
	Hub *hub.Plan

	// FlatReduction forces the single-level reduction even on a multi-domain
	// pool — the A/B baseline of the sharded experiment and the flat
	// comparator of the traffic model. The row partition stays domain-aligned
	// so the multiply phases are identical; only the reduction differs. No
	// effect on single-domain pools.
	FlatReduction bool
}

// NewKernel builds the parallel kernel. The partition is computed over the
// strict lower triangle row pointer, matching the paper's nnz-balanced
// row-wise assignment. For the Indexed method the symbolic analysis runs
// here, once, and is reused across multiplications.
func NewKernel(s *SSS, method ReductionMethod, pool *parallel.Pool) *Kernel {
	k, err := NewKernelOpts(s, method, pool, KernelOptions{})
	if err != nil {
		// Reachable only for Atomic over a non-Sym matrix or for an SSS whose
		// rows break the layout FromCOO produces; callers that may hand over
		// either should use NewKernelOpts.
		panic(err)
	}
	return k
}

// NewKernelOpts builds the parallel kernel with optional preprocessing
// products. It validates the options against the matrix and method instead
// of failing deep inside the pool.
func NewKernelOpts(s *SSS, method ReductionMethod, pool *parallel.Pool, opts KernelOptions) (*Kernel, error) {
	if s.Kind != Sym {
		// The atomic ablation encodes the symmetric update in its CAS loop,
		// and the hub bodies are specialized to the Sym scatter; neither has a
		// kind-generalized variant. Everything else does (kinds.go).
		if method == Atomic {
			return nil, fmt.Errorf("core: the atomic method supports only symmetric matrices, got %s", s.Kind)
		}
		if opts.Hub != nil {
			return nil, fmt.Errorf("core: hub caching supports only symmetric matrices, got %s", s.Kind)
		}
	}
	if opts.Hub != nil {
		if method == Atomic {
			return nil, fmt.Errorf("core: hub caching is not supported by the atomic method")
		}
		if len(opts.Hub.Enc) != len(s.ColIdx) {
			return nil, fmt.Errorf("core: hub plan encodes %d elements, matrix has %d",
				len(opts.Hub.Enc), len(s.ColIdx))
		}
	}
	if err := s.checkRows(); err != nil {
		return nil, err
	}
	p := pool.Size()
	d := pool.Domains()
	var part, domPart *partition.RowPartition
	if d > 1 {
		// Domain-aligned sharding: rows split across domains by nnz, then
		// among each domain's workers. Used for flat kernels too, so a
		// flat-vs-hierarchical comparison shares the exact multiply phase.
		wpd := make([]int, d)
		for dd := range wpd {
			lo, hi := pool.DomainWorkers(dd)
			wpd[dd] = hi - lo
		}
		part, domPart = partition.ByNNZDomains(s.RowPtr, wpd)
	} else {
		part = partition.ByNNZ(s.RowPtr, p)
	}
	k := &Kernel{
		S:       s,
		Method:  method,
		Part:    part,
		pool:    pool,
		p:       p,
		hubPlan: opts.Hub,
	}
	switch method {
	case Atomic:
		k.acc = make([]uint64, s.N)
		k.redPartAtomic = partition.Uniform(s.N, p)
	case Colored:
		k.sched = color.Build(s.N, s.RowPtr, s.ColIdx, p, color.Options{})
		k.initPart = partition.Uniform(s.N, p)
	default:
		var touched [][]int32
		if method == Indexed {
			touched = TouchedColumns(s, part, pool)
		}
		k.LV = NewLocalVectors(s.N, part, method, touched)
		// The hierarchical chain reuses the Sym multiply bodies directly, so
		// non-Sym kinds fall back to the flat reduction on multi-domain pools.
		if d > 1 && !opts.FlatReduction && s.Kind == Sym {
			k.hier = newHierState(k, domPart)
			xdomainBytes.Set(float64(k.hier.crossBytes))
		}
	}
	if k.hubPlan != nil {
		k.hotX = make([][]float64, p)
		if k.hier != nil {
			// One shared hot window per domain, cooperatively prefilled by
			// the domain's workers under the local barrier (hier.go).
			for dd := 0; dd < d; dd++ {
				w := make([]float64, k.hubPlan.K())
				lo, hi := pool.DomainWorkers(dd)
				for t := lo; t < hi; t++ {
					k.hotX[t] = w
				}
			}
		} else {
			for t := 0; t < p; t++ {
				k.hotX[t] = make([]float64, k.hubPlan.K())
			}
		}
	}
	k.phasesPlain = k.assemble(nil)
	return k, nil
}

// Hierarchical reports whether this kernel runs the two-level domain
// reduction (hier.go).
func (k *Kernel) Hierarchical() bool { return k.hier != nil }

// Hub reports the hub plan this kernel was built with; nil for plain
// kernels.
func (k *Kernel) Hub() *hub.Plan { return k.hubPlan }

// MulVec computes y = A·x: the parallel multiplication phase followed by the
// reduction phase selected by Method, chained through Pool.RunPhases so the
// whole operation costs one coordinator handoff. Local vectors are re-zeroed
// during the reduction, so repeated calls reuse all buffers without extra
// clearing. The phase list is prebuilt, so the call allocates nothing; the
// only telemetry cost when sampling is off is one atomic load.
func (k *Kernel) MulVec(x, y []float64) {
	k.checkDims(x, y)
	k.curX, k.curY = x, y
	if obs.SamplingEnabled() {
		k.timedRun(k.phasesPlain, k.phaseKinds(len(k.phasesPlain)), k.namesPlain(), phaseObs[k.Method], true, OpSpMV, 1)
	} else {
		k.pool.RunPhaseList(k.phasesPlain)
	}
	k.curX, k.curY = nil, nil
}

// MulVecDot computes y = A·x and returns xᵀ·y, the pᵀ·(A·p) inner product a
// CG iteration needs right after its SpM×V. The dot rides inside the
// reduction phase as per-thread partial sums combined after the barrier, so
// the pair costs the same single coordinator handoff as MulVec alone. The
// partials are combined in ascending thread order over parallel.Chunk
// ranges, making the result bitwise identical to vec.Dot(x, y) on the
// finished output.
func (k *Kernel) MulVecDot(x, y []float64) float64 {
	k.checkDims(x, y)
	if k.phasesDot == nil {
		k.dot = make([]float64, k.p*DotStride)
		k.phasesDot = k.assemble(k.dot)
	}
	k.curX, k.curY = x, y
	if obs.SamplingEnabled() {
		k.timedRun(k.phasesDot, k.phaseKinds(len(k.phasesDot)), k.namesDot(), phaseObs[k.Method], true, OpSpMVDot, 1)
	} else {
		k.pool.RunPhaseList(k.phasesDot)
	}
	k.curX, k.curY = nil, nil
	total := 0.0
	for t := 0; t < k.p; t++ {
		total += k.dot[t*DotStride]
	}
	return total
}

func (k *Kernel) checkDims(x, y []float64) {
	if len(x) != k.S.N || len(y) != k.S.N {
		panic(fmt.Sprintf("core: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			k.S.N, k.S.N, len(x), len(y)))
	}
}

// assemble builds the phase list for this kernel: the hierarchical chain
// when a two-level plan exists, the flat multiply→reduce chain otherwise.
func (k *Kernel) assemble(dot []float64) []parallel.Phase {
	if k.hier != nil {
		return k.assembleHier(dot)
	}
	return globalPhases(k.assembleFlat(dot))
}

// globalPhases wraps a flat phase list: every boundary is a whole-pool
// barrier, the semantics RunPhases always had.
func globalPhases(fns []func(tid int)) []parallel.Phase {
	out := make([]parallel.Phase, len(fns))
	for i, fn := range fns {
		out[i] = parallel.Phase{Fn: fn}
	}
	return out
}

// assembleFlat builds the flat multiply→reduce phase list as closures over
// k.curX/k.curY, the operand slots MulVec sets per call. The list is built
// once and reused for every operation, which is what keeps the hot path
// allocation-free. With dot non-nil the chain additionally leaves xᵀy
// partial sums in dot[tid*DotStride]. Effective ranges and indexed at p = 1
// have nothing to fold (LocalVectors.Folds), so their chain is the multiply
// alone, plus the dot sweep for MulVecDot.
func (k *Kernel) assembleFlat(dot []float64) []func(tid int) {
	switch k.Method {
	case Naive, EffectiveRanges, Indexed:
		phases := []func(int){k.multiplyPhase()}
		if dot != nil {
			return append(phases, k.LV.ReduceDotPhases(&k.curX, &k.curY, dot)...)
		}
		return append(phases, k.LV.ReducePhases(&k.curY)...)
	case Atomic:
		mult := func(tid int) { k.multiplyAtomicT(tid, k.curX) }
		if dot != nil {
			return []func(int){mult,
				func(tid int) { dot[tid*DotStride] = k.finalizeAtomicDotT(tid, k.curX, k.curY) }}
		}
		return []func(int){mult, func(tid int) { k.finalizeAtomicT(tid, k.curY) }}
	case Colored:
		return k.assembleColored(dot)
	default:
		panic("core: unknown reduction method " + k.Method.String())
	}
}

// multiplyPhase returns the flat multiply phase of a local-vector method,
// picked by symmetry class and hub plan.
func (k *Kernel) multiplyPhase() func(tid int) {
	if k.Method == Naive {
		switch {
		case k.S.Kind != Sym:
			return func(tid int) { k.multiplyNaiveKindT(tid, k.curX) }
		case k.hubPlan != nil:
			return func(tid int) { k.prefillHotT(tid, k.curX); k.multiplyNaiveHubT(tid, k.curX) }
		}
		return func(tid int) { k.multiplyNaiveT(tid, k.curX) }
	}
	switch {
	case k.S.Kind != Sym:
		return func(tid int) { k.multiplyEffectiveKindT(tid, k.curX, k.curY) }
	case k.hubPlan != nil:
		return func(tid int) { k.prefillHotT(tid, k.curX); k.multiplyEffectiveHubT(tid, k.curX, k.curY) }
	}
	return func(tid int) { k.multiplyEffectiveT(tid, k.curX, k.curY) }
}

// multiplyNaiveT runs thread tid's slice of Alg. 3's multiplication phase:
// every write, including the thread's own rows, goes to the thread's
// full-length local vector. The body follows the layout rules of DESIGN.md
// §7.1: hoisted slice headers and a per-row reslice of ColIdx/Val, so the
// inner loop carries no index checks on the matrix arrays.
func (k *Kernel) multiplyNaiveT(tid int, x []float64) {
	s := k.S
	rowPtr, colIdx, val, dv := s.RowPtr, s.ColIdx, s.Val, s.DValues
	local := k.LV.Vecs[tid]
	lo, hi := k.Part.Start[tid], k.Part.End[tid]
	for r := lo; r < hi; r++ {
		cols := colIdx[rowPtr[r]:rowPtr[r+1]]
		vals := val[rowPtr[r]:rowPtr[r+1]]
		vals = vals[:len(cols)]
		xr := x[r]
		acc := dv[r] * xr
		for j, c := range cols { // bce:inner
			v := vals[j]
			acc += v * x[c]
			local[c] += v * xr
		}
		local[r] += acc
	}
}

// multiplyEffectiveT runs thread tid's slice of the multiplication phase
// shared by the effective-ranges and indexed methods: rows within the
// thread's own partition write directly to y, and only transposed
// contributions that fall before the partition start are buffered in the
// local vector.
//
// Columns within a row ascend (NewKernelOpts checks it), so the columns
// below startT form a prefix of the row: the row runs as a local-vector loop
// that stops at the first column ≥ startT, then a branch-free y loop over
// the rest. Every element still adds into the same target in the same
// order as a single loop testing c ≥ startT per element would.
func (k *Kernel) multiplyEffectiveT(tid int, x, y []float64) {
	s := k.S
	rowPtr, colIdx, val, dv := s.RowPtr, s.ColIdx, s.Val, s.DValues
	local := k.LV.Vecs[tid]
	lo, hi := k.Part.Start[tid], k.Part.End[tid]
	startT := lo
	for r := lo; r < hi; r++ {
		cols := colIdx[rowPtr[r]:rowPtr[r+1]]
		vals := val[rowPtr[r]:rowPtr[r+1]]
		vals = vals[:len(cols)]
		xr := x[r]
		acc := dv[r] * xr
		split := len(cols)
		for j, c := range cols { // bce:inner
			if c >= startT {
				split = j
				break
			}
			v := vals[j]
			acc += v * x[c]
			local[c] += v * xr
		}
		cols, vals = cols[split:], vals[split:]
		vals = vals[:len(cols)]
		for j, c := range cols { // bce:inner
			v := vals[j]
			acc += v * x[c]
			y[c] += v * xr
		}
		// Rows are processed in ascending order and transposed writes
		// target strictly earlier rows (c < r), so y[r] has received no
		// contribution yet: plain assignment, no pre-zeroing of y needed.
		// Cross-thread contributions go through locals.
		y[r] = acc
	}
}

// IndexLen reports the number of conflict-index entries; zero for
// non-Indexed kernels.
func (k *Kernel) IndexLen() int {
	if k.LV == nil {
		return 0
	}
	return k.LV.IndexLen()
}

// EffectiveRegionSize reports the summed length of all effective regions.
func (k *Kernel) EffectiveRegionSize() int64 {
	if k.LV == nil {
		return 0
	}
	return k.LV.EffectiveRegionSize()
}

// EffectiveDensity reports the density d of the effective regions (Fig. 4).
func (k *Kernel) EffectiveDensity() float64 {
	if k.LV == nil {
		return 0
	}
	return k.LV.EffectiveDensity()
}
