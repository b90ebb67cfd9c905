package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// PhaseKind classifies one execution phase of a kernel operation for the
// timing breakdown: the multiply/compute work versus the reduction repairing
// write conflicts. Barrier/handoff time is whatever wall time neither kind
// accounts for.
type PhaseKind int

const (
	PhaseCompute PhaseKind = iota
	PhaseReduction
)

// PhaseTimes is the measured breakdown of one or more MulVec operations.
// Compute and Reduction are critical-path sums: per phase the slowest
// worker's in-phase time, summed over the phases of that kind. Barrier is
// the remaining wall time — spin-barrier crossings, the coordinator handoff,
// and worker-start skew. Per operation, Wall = Compute + Reduction + Barrier
// whenever Barrier is nonzero.
type PhaseTimes struct {
	Compute   time.Duration
	Reduction time.Duration
	Barrier   time.Duration
	Wall      time.Duration
	Phases    int // phase count of one operation (colored: 1 + colors)
	Ops       int // operations accumulated (1 from TimedMulVec; summed by Add)
}

// Add accumulates o into t for averaging over repeated operations: the
// durations sum, Ops counts the operations (the denominator of any average),
// and Phases carries the per-operation phase count, which is constant across
// operations of the same kernel.
func (t *PhaseTimes) Add(o PhaseTimes) {
	t.Compute += o.Compute
	t.Reduction += o.Reduction
	t.Barrier += o.Barrier
	t.Wall += o.Wall
	t.Phases = o.Phases
	ops := o.Ops
	if ops == 0 {
		ops = 1 // a hand-built single-operation breakdown counts as one
	}
	t.Ops += ops
}

// PerOp returns the per-operation average of an accumulated breakdown: every
// duration divided by Ops (a hand-built breakdown with Ops == 0 counts as
// one), with Ops reset to 1. All consumers that report "time per operation"
// must divide by Ops, not by an iteration count they happen to have on hand —
// the two disagree as soon as a breakdown is accumulated with Add.
func (t PhaseTimes) PerOp() PhaseTimes {
	ops := t.Ops
	if ops <= 1 {
		if t.Ops == 0 {
			t.Ops = 1
		}
		return t
	}
	d := time.Duration(ops)
	return PhaseTimes{
		Compute:   t.Compute / d,
		Reduction: t.Reduction / d,
		Barrier:   t.Barrier / d,
		Wall:      t.Wall / d,
		Phases:    t.Phases,
		Ops:       1,
	}
}

// phaseKinds labels an n-phase MulVec/MulVecDot list assembled by
// assemble(). Every reduction method runs multiply→reduce (the Atomic
// finalize pass counts as its reduction); a trailing fused-dot phase
// (Indexed MulVecDot) is compute work. The colored method runs the diagonal
// init plus one phase per color (plus the optional dot), all compute — zero
// reduction work by construction, which the timed path makes directly
// observable. Effective ranges and indexed at p = 1 run no reduction, so
// their lists are multiply (plus the dot sweep) only. A hierarchical list
// runs [prefill→]multiply (compute), then intra-domain combine and
// cross-domain fold (both reduction), with the Indexed fused-dot variant's
// trailing sweep again compute.
func (k *Kernel) phaseKinds(n int) []PhaseKind {
	kinds := make([]PhaseKind, n)
	if k.Method == Colored {
		return kinds // all PhaseCompute
	}
	if k.hier != nil {
		first := 1 // index of the first post-multiply phase
		if k.hubPlan != nil {
			first = 2
		}
		for i := first; i < n; i++ {
			kinds[i] = PhaseReduction
		}
		if k.Method == Indexed && n == first+3 {
			kinds[n-1] = PhaseCompute // trailing fused-dot sweep
		}
		return kinds
	}
	if n > 1 && (k.LV == nil || k.LV.Folds()) {
		kinds[1] = PhaseReduction
	}
	return kinds
}

// phaseKindsMat labels the SpMM phase list, which always reduces flat.
func (k *Kernel) phaseKindsMat(n int) []PhaseKind {
	kinds := make([]PhaseKind, n)
	if k.Method == Colored {
		return kinds
	}
	if n > 1 {
		kinds[1] = PhaseReduction
	}
	return kinds
}

// TimedMulVec computes y = A·x once while timing every phase on every
// worker, and returns the compute/reduction/barrier breakdown (Ops = 1).
// The wrapped phases add two clock reads per worker per phase — negligible
// next to the phases themselves but not free, so the plain MulVec stays
// unaffected. The breakdown is also fed into the obs metrics registry, and,
// when tracing is enabled, every phase is recorded as a per-worker trace
// span — TimedMulVec is the sampling hook the telemetry layer rides on.
func (k *Kernel) TimedMulVec(x, y []float64) PhaseTimes {
	k.checkDims(x, y)
	k.curX, k.curY = x, y
	pt := k.timedRun(k.phasesPlain, k.phaseKinds(len(k.phasesPlain)), k.namesPlain(), phaseObs[k.Method], true, OpSpMV, 1)
	k.curX, k.curY = nil, nil
	return pt
}

// TimedMulMat computes Y = A·X once for nv interleaved vectors while timing
// every phase on every worker — the SpMM counterpart of TimedMulVec; the
// breakdown feeds the symspmv_spmm_* metric families.
func (k *Kernel) TimedMulMat(x, y []float64, nv int) (PhaseTimes, error) {
	if err := k.checkMat(x, y, nv); err != nil {
		return PhaseTimes{}, err
	}
	if nv == 1 {
		return k.TimedMulVec(x, y), nil
	}
	if k.phasesMat == nil || k.matNV != nv {
		k.assembleMat(nv)
	}
	k.curX, k.curY = x, y
	pt := k.timedRun(k.phasesMat, k.phaseKindsMat(len(k.phasesMat)), k.namesMat(), spmmObs[k.Method], false, OpSpMM, nv)
	k.curX, k.curY = nil, nil
	return pt, nil
}

// timedRun executes one prebuilt phase list with per-worker timing, feeds
// the obs layer (mo's metrics always, trace spans when tracing is enabled,
// and — for hierarchical SpMV lists when domHist is set — the per-domain
// phase histograms), and returns the single-operation breakdown. Barrier
// scopes are preserved, so the timed run synchronizes exactly like the
// untimed one.
func (k *Kernel) timedRun(list []parallel.Phase, kinds []PhaseKind, names []obs.NameID, mo *methodObs, domHist bool, op OpClass, nv int) PhaseTimes {
	nph := len(list)
	durs := make([]int64, nph*k.p)
	wrapped := make([]parallel.Phase, nph)
	tracing := obs.TracingEnabled()
	for pi := range list {
		pi, ph := pi, list[pi].Fn
		wrapped[pi] = parallel.Phase{Scope: list[pi].Scope, Fn: func(tid int) {
			t0 := obs.Now()
			ph(tid)
			t1 := obs.Now()
			durs[pi*k.p+tid] = t1 - t0
			if tracing {
				obs.TraceSpan(tid, names[pi], t0, t1)
			}
		}}
	}
	t0 := obs.Now()
	k.pool.RunPhaseList(wrapped)
	wall := time.Duration(obs.Now() - t0)

	pt := PhaseTimes{Wall: wall, Phases: nph, Ops: 1}
	for pi := 0; pi < nph; pi++ {
		crit := int64(0)
		for tid := 0; tid < k.p; tid++ {
			if d := durs[pi*k.p+tid]; d > crit {
				crit = d
			}
		}
		switch kinds[pi] {
		case PhaseCompute:
			pt.Compute += time.Duration(crit)
		case PhaseReduction:
			pt.Reduction += time.Duration(crit)
		}
	}
	if worked := pt.Compute + pt.Reduction; wall > worked {
		pt.Barrier = wall - worked
	}
	if domHist && k.hier != nil {
		k.observeDomains(durs, nph)
	}
	mo.observe(pt)
	if k.sampleHook != nil {
		s := PhaseSample{Method: k.Method, Op: op, NV: nv, PT: pt,
			StartNs: t0, EndNs: t0 + int64(wall)}
		if k.hier != nil {
			s.DomComputeNs, s.DomReductionNs = k.domainPhaseNs(durs, nph)
		}
		k.sampleHook(s)
	}
	return pt
}

// observeDomains feeds the per-domain critical-path times of the multiply,
// intra-combine and cross-fold phases into the domain histograms. Phase
// indices follow assembleHier's layout: an optional hub prefill (folded into
// the multiply bucket), multiply, intra, cross/apply; a trailing Indexed dot
// sweep is not domain-structured and is skipped.
func (k *Kernel) observeDomains(durs []int64, nph int) {
	h := k.hier
	first := 0
	if k.hubPlan != nil {
		first = 1
	}
	for dd := 0; dd < h.d; dd++ {
		wlo, whi := h.domWlo[dd], h.domWhi[dd]
		crit := func(pi int) int64 {
			m := int64(0)
			for tid := wlo; tid < whi; tid++ {
				if d := durs[pi*k.p+tid]; d > m {
					m = d
				}
			}
			return m
		}
		mult := crit(first)
		if first > 0 {
			mult += crit(0) // prefill rides in the multiply bucket
		}
		h.domHist[dd][0].Observe(float64(mult) / 1e9)
		if first+1 < nph {
			h.domHist[dd][1].Observe(float64(crit(first+1)) / 1e9)
		}
		if first+2 < nph {
			h.domHist[dd][2].Observe(float64(crit(first+2)) / 1e9)
		}
	}
}
