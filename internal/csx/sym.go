package csx

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hub"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// SymMatrix is a CSX-Sym matrix: the strict lower triangle encoded as
// per-thread CSX blobs (substructures detected only in the lower half, each
// implying its symmetric counterpart), plus a dense diagonal array exactly
// like SSS. Units whose symmetric writes would straddle the thread's
// local/direct boundary are never encoded as substructures — the legality
// rule of Fig. 8 — so the multiply kernel decides local-vs-direct once per
// unit instead of once per element.
type SymMatrix struct {
	N       int
	DValues []float64
	Blobs   []*Blob
	Part    *partition.RowPartition
	Method  core.ReductionMethod
	LV      *core.LocalVectors

	nnzLower int

	// Hub caching (see internal/hub and NewSymHub): hub elements are
	// filtered out of the encoded blobs and carried in per-thread side
	// streams multiplied against private hot-x windows.
	hubPlan *hub.Plan
	hotX    [][]float64
	side    []symHubSide

	// dot holds the per-thread partial sums of MulVecDot, one cache line
	// apart, allocated on first use.
	dot []float64

	// curX/curY are the operands of the operation in flight. The phase
	// lists read them and are built on first use, so repeated operations
	// reuse the same closures and allocate nothing (as core.Kernel does).
	curX, curY  []float64
	phasesPlain []func(tid int)
	phasesDot   []func(tid int)
}

// NewSym encodes an SSS matrix into CSX-Sym with p per-thread blobs and the
// given local-vectors reduction method (the paper pairs CSX-Sym with the
// indexed reduction; Naive/EffectiveRanges are supported for ablations).
func NewSym(s *core.SSS, p int, method core.ReductionMethod, opts Options) *SymMatrix {
	if s.Kind != core.Sym {
		// The CSX-Sym encoder bakes the symmetric scatter into its unit
		// bodies; encoding a skew or structural matrix would silently compute
		// the wrong operator.
		panic(fmt.Sprintf("csx: NewSym supports only symmetric matrices, got %s", s.Kind))
	}
	part := partition.ByNNZ(s.RowPtr, p)
	sm := &SymMatrix{
		N:        s.N,
		DValues:  s.DValues,
		Blobs:    make([]*Blob, p),
		Part:     part,
		Method:   method,
		nnzLower: len(s.Val),
	}
	pool := parallel.NewPool(p)
	defer pool.Close()
	pool.Run(func(tid int) {
		el, lo, _ := buildElements(s.RowPtr, s.ColIdx, part.Start[tid], part.End[tid])
		sm.Blobs[tid] = encodeRange(el, s.Val[lo:], opts, part.Start[tid])
	})
	var touched [][]int32
	if method == core.Indexed {
		touched = core.TouchedColumns(s, part, pool)
	}
	sm.LV = core.NewLocalVectors(s.N, part, method, touched)
	return sm
}

// NNZLower reports the stored strict-lower-triangle nonzeros.
func (sm *SymMatrix) NNZLower() int { return sm.nnzLower }

// LogicalNNZ reports the nonzeros of the full symmetric operator (dense
// diagonal counted, as in SSS).
func (sm *SymMatrix) LogicalNNZ() int { return 2*sm.nnzLower + sm.N }

// Bytes reports the encoded size: ctl streams + values + dvalues. The
// local-vector index is the reduction phase's working set, not part of the
// matrix representation (Table I excludes it too).
func (sm *SymMatrix) Bytes() int64 {
	var sum int64
	for _, b := range sm.Blobs {
		sum += b.Bytes()
	}
	return sum + int64(8*sm.N)
}

// CompressionRatio reports 1 − Bytes/CSRBytes against the CSR size of the
// full operator (the Table I metric).
func (sm *SymMatrix) CompressionRatio() float64 {
	csrBytes := int64(12*sm.LogicalNNZ()) + int64(4*(sm.N+1))
	return 1 - float64(sm.Bytes())/float64(csrBytes)
}

// MaxSymCompressionRatio reports the Table I "C.R. (Max.)" bound: a
// hypothetical symmetric format storing only the 8-byte values of the lower
// triangle and diagonal, with no indexing information at all.
func MaxSymCompressionRatio(nnzLower, n int) float64 {
	logical := int64(2*nnzLower + n)
	csrBytes := 12*logical + int64(4*(n+1))
	symBytes := int64(8*nnzLower) + int64(8*n)
	return 1 - float64(symBytes)/float64(csrBytes)
}

// MulVec computes y = A·x on pool: the CSX-Sym multiplication phase (dual
// writes per stored element, unit-level local/direct routing) followed by
// the configured local-vectors reduction, chained through Pool.RunPhases so
// the pair costs one coordinator handoff.
func (sm *SymMatrix) MulVec(pool *parallel.Pool, x, y []float64) {
	sm.checkDims(pool, x, y)
	if sm.phasesPlain == nil {
		sm.phasesPlain = append([]func(int){sm.multiplyPhase}, sm.LV.ReducePhases(&sm.curY)...)
	}
	sm.curX, sm.curY = x, y
	pool.RunPhases(sm.phasesPlain...)
	sm.curX, sm.curY = nil, nil
}

// MulVecDot computes y = A·x and returns xᵀ·y, with the dot fused into the
// reduction phase exactly like core.Kernel.MulVecDot — the CG fast path for
// CSX-Sym kernels.
func (sm *SymMatrix) MulVecDot(pool *parallel.Pool, x, y []float64) float64 {
	sm.checkDims(pool, x, y)
	p := pool.Size()
	if sm.phasesDot == nil {
		sm.dot = make([]float64, p*core.DotStride)
		sm.phasesDot = append([]func(int){sm.multiplyPhase},
			sm.LV.ReduceDotPhases(&sm.curX, &sm.curY, sm.dot)...)
	}
	sm.curX, sm.curY = x, y
	pool.RunPhases(sm.phasesDot...)
	sm.curX, sm.curY = nil, nil
	total := 0.0
	for t := 0; t < p; t++ {
		total += sm.dot[t*core.DotStride]
	}
	return total
}

// multiplyPhase is the multiplication phase over the operand slots.
func (sm *SymMatrix) multiplyPhase(tid int) { sm.multiplyT(tid, sm.curX, sm.curY) }

func (sm *SymMatrix) checkDims(pool *parallel.Pool, x, y []float64) {
	if pool.Size() != len(sm.Blobs) {
		panic(fmt.Sprintf("csx: pool size %d != blob count %d", pool.Size(), len(sm.Blobs)))
	}
	if len(x) != sm.N || len(y) != sm.N {
		panic(fmt.Sprintf("csx: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			sm.N, sm.N, len(x), len(y)))
	}
}

// multiplyT runs thread tid's slice of the CSX-Sym multiplication phase.
func (sm *SymMatrix) multiplyT(tid int, x, y []float64) {
	b := sm.Blobs[tid]
	local := sm.LV.Vecs[tid]
	if sm.hubPlan != nil {
		sm.multiplyHubT(tid, x, y)
		return
	}
	if sm.Method == core.Naive {
		// Naive semantics: *every* write goes to the thread's
		// full-length local vector and the reduction overwrites y.
		// Passing the local as both output and local with a boundary
		// beyond every column routes all unit writes there.
		for r := b.StartRow; r < b.EndRow; r++ {
			local[r] = sm.DValues[r] * x[r]
		}
		mulBlobSym(b, int32(sm.N)+1, x, local, local)
		return
	}
	// Effective-ranges/indexed: initialize the own range with the
	// diagonal contribution; every subsequent write accumulates.
	for r := b.StartRow; r < b.EndRow; r++ {
		y[r] = sm.DValues[r] * x[r]
	}
	mulBlobSym(b, sm.Part.Start[tid], x, y, local)
}

// mulBlobSym is the CSX-Sym decode-multiply kernel. For every unit the
// symmetric (transposed) writes go either to the local vector (unit columns
// < boundary) or directly to y (unit columns ≥ boundary); the encoder
// guarantees no unit straddles.
func mulBlobSym(b *Blob, boundary int32, x, y, local []float64) {
	ctl := b.Ctl
	vals := b.Vals
	row := b.StartRow - 1
	col := int32(0)
	pos := 0
	i := 0
	for i < len(ctl) {
		flags := ctl[i]
		size := int(ctl[i+1])
		i += 2
		if flags&flagNR != 0 {
			if flags&flagRJMP != 0 {
				jump, n := readUvarint(ctl, i)
				i += n
				row += int32(jump) + 1
			} else {
				row++
			}
			col = 0
		}
		d, n := readUvarint(ctl, i)
		i += n
		col += int32(d)

		// Unit-level routing: all columns of a unit sit on one side.
		target := y
		if col < boundary {
			target = local
		}

		switch Pattern(flags & patternMask) {
		case Delta8:
			xr := x[row]
			v := vals[pos]
			sum := v * x[col]
			target[col] += v * xr
			for k := 1; k < size; k++ {
				col += int32(ctl[i])
				i++
				v = vals[pos+k]
				sum += v * x[col]
				target[col] += v * xr
			}
			y[row] += sum
			pos += size
		case Delta16:
			xr := x[row]
			v := vals[pos]
			sum := v * x[col]
			target[col] += v * xr
			for k := 1; k < size; k++ {
				col += int32(uint32(ctl[i]) | uint32(ctl[i+1])<<8)
				i += 2
				v = vals[pos+k]
				sum += v * x[col]
				target[col] += v * xr
			}
			y[row] += sum
			pos += size
		case Delta32:
			xr := x[row]
			v := vals[pos]
			sum := v * x[col]
			target[col] += v * xr
			for k := 1; k < size; k++ {
				col += int32(uint32(ctl[i]) | uint32(ctl[i+1])<<8 | uint32(ctl[i+2])<<16 | uint32(ctl[i+3])<<24)
				i += 4
				v = vals[pos+k]
				sum += v * x[col]
				target[col] += v * xr
			}
			y[row] += sum
			pos += size
		case Horizontal:
			xr := x[row]
			sum := 0.0
			for k := 0; k < size; k++ {
				v := vals[pos+k]
				c := col + int32(k)
				sum += v * x[c]
				target[c] += v * xr
			}
			y[row] += sum
			pos += size
			col += int32(size) - 1
		case Vertical:
			xv := x[col]
			tsum := 0.0
			for k := 0; k < size; k++ {
				v := vals[pos+k]
				r := row + int32(k)
				y[r] += v * xv
				tsum += v * x[r]
			}
			target[col] += tsum
			pos += size
		case Diagonal:
			for k := 0; k < size; k++ {
				v := vals[pos+k]
				r := row + int32(k)
				c := col + int32(k)
				y[r] += v * x[c]
				target[c] += v * x[r]
			}
			pos += size
		case AntiDiagonal:
			for k := 0; k < size; k++ {
				v := vals[pos+k]
				r := row + int32(k)
				c := col - int32(k)
				y[r] += v * x[c]
				target[c] += v * x[r]
			}
			pos += size
		case Block2:
			w := size / 2
			for rr := 0; rr < 2; rr++ {
				r := row + int32(rr)
				xr := x[r]
				sum := 0.0
				for k := 0; k < w; k++ {
					v := vals[pos]
					c := col + int32(k)
					sum += v * x[c]
					target[c] += v * xr
					pos++
				}
				y[r] += sum
			}
			col += int32(w) - 1
		case Block3:
			w := size / 3
			for rr := 0; rr < 3; rr++ {
				r := row + int32(rr)
				xr := x[r]
				sum := 0.0
				for k := 0; k < w; k++ {
					v := vals[pos]
					c := col + int32(k)
					sum += v * x[c]
					target[c] += v * xr
					pos++
				}
				y[r] += sum
			}
			col += int32(w) - 1
		default:
			panic(fmt.Sprintf("csx: unknown pattern %d in ctl stream", flags&patternMask))
		}
	}
}
