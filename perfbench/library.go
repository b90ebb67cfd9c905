package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	symspmv "repro"
)

// libFormat is one facade kernel the library phases build and time.
type libFormat struct {
	name string
	f    symspmv.Format
}

// libFormats are the kernels set-up builds and the SpM×V phase times, each
// at p = nproc; the serial SSS baseline (Matrix.MulVec) runs beside them.
var libFormats = []libFormat{
	{"csr", symspmv.CSR},
	{"sss-eff", symspmv.SSSEffective},
	{"sss-idx", symspmv.SSSIndexed},
	{"sss-color", symspmv.SSSColored},
	{"csx-sym", symspmv.CSXSym},
}

// libSet is one matrix made ready through the facade: parsed from its
// Matrix Market bytes, with one kernel per format of the set-up.
type libSet struct {
	a    *symspmv.Matrix
	kern map[string]symspmv.Kernel
}

func closeSets(sets []libSet) {
	for _, s := range sets {
		for _, k := range s.kern {
			k.Close()
		}
	}
}

// setupLib is the library workloads' set-up: from the Matrix Market bytes
// in memory to every kernel of formats built. With libFormats that is
// parsing, CSR conversion, the index and effective ranges, the coloring and
// the CSX-Sym encoding.
func setupLib(ins []*input, formats []libFormat, threads int) ([]libSet, error) {
	sets := make([]libSet, 0, len(ins))
	for _, in := range ins {
		a, err := symspmv.ReadMatrixMarket(bytes.NewReader(in.mtx))
		if err != nil {
			closeSets(sets)
			return nil, fmt.Errorf("parse %v: %w", in.spec, err)
		}
		s := libSet{a: a, kern: make(map[string]symspmv.Kernel)}
		sets = append(sets, s)
		for _, lf := range formats {
			k, err := a.Kernel(lf.f, symspmv.Threads(threads))
			if err != nil {
				closeSets(sets)
				return nil, fmt.Errorf("build %s for %v: %w", lf.name, in.spec, err)
			}
			s.kern[lf.name] = k
		}
	}
	return sets, nil
}

// setupRepeated runs set-up reps times from a collected heap and returns
// the median time with the last set, which the later phases use.
func setupRepeated(ins []*input, formats []libFormat, threads, reps int) ([]libSet, float64, error) {
	var times []float64
	var sets []libSet
	for r := 0; r < reps; r++ {
		closeSets(sets)
		sets = nil
		runtime.GC()
		t0 := time.Now()
		s, err := setupLib(ins, formats, threads)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		sets = s
	}
	return sets, median(times), nil
}

// tally counts checked operations and the ones that failed their oracle.
type tally struct{ attempted, failed int }

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// blockFlops sizes one timed block of SpM×V operations: enough work that
// the clock reads are noise, little enough that a round over every format
// and matrix stays short.
const blockFlops = 4e6

// mulCase is one SpM×V the round robin times; cases sharing a key are
// reported together.
type mulCase struct {
	key string
	in  *input
	mul func(x, y []float64)
}

// spmvCases lists the serial baseline and every kernel of sets, keyed by
// format name.
func spmvCases(ins []*input, sets []libSet, formats []libFormat) []mulCase {
	var cs []mulCase
	for m, in := range ins {
		cs = append(cs, mulCase{"serial", in, sets[m].a.MulVec})
		for _, lf := range formats {
			cs = append(cs, mulCase{lf.name, in, sets[m].kern[lf.name].MulVec})
		}
	}
	return cs
}

// roundRobin times the cases for d: each round runs one block of every case
// in a seeded order, so slow drift of the host lands on all cases alike. A
// key's round figure, appended to samples, is the useful flops of its
// blocks over their summed time in GFlop/s. Every block's output is checked
// against the serial reference. With a tracer, every block is a span named
// after its key.
func roundRobin(cases []mulCase, d time.Duration, rng *rand.Rand, tr *tracer, tl *tally, samples map[string][]float64) {
	ys := make([][]float64, len(cases))
	for i, c := range cases {
		ys[i] = make([]float64, c.in.n)
	}
	deadline := time.Now().Add(d)
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		secs := make(map[string]float64)
		flops := make(map[string]float64)
		for _, i := range rng.Perm(len(cases)) {
			c, y := cases[i], ys[i]
			batch := int(blockFlops/c.in.flops) + 1
			dt := tr.do("spmv."+c.key, func() {
				for b := 0; b < batch; b++ {
					c.mul(c.in.mv.x, y)
				}
			})
			secs[c.key] += dt.Seconds()
			flops[c.key] += float64(batch) * c.in.flops
			tl.add(c.in.mv.check(y))
			clear(y)
		}
		for k, s := range secs {
			samples[k] = append(samples[k], flops[k]/s/1e9)
		}
	}
}

// medians reduces each key's samples to their median.
func medians(samples map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for k, s := range samples {
		out[k] = median(s)
	}
	return out
}

// measureCG solves A·x = b to solveTol with SSS-indexed at p = nproc, one
// solve per matrix per round, for the given number of rounds. It returns
// each round's summed solve time in ms and the solver results, and checks
// every x against x*.
func measureCG(ins []*input, sets []libSet, rounds int, tr *tracer, tl *tally) ([]float64, []symspmv.CGResult) {
	var times []float64
	var results []symspmv.CGResult
	xs := make([][]float64, len(ins))
	for m, in := range ins {
		xs[m] = make([]float64, in.n)
	}
	for round := 0; round < rounds; round++ {
		total := 0.0
		for m, in := range ins {
			x := xs[m]
			clear(x)
			var res symspmv.CGResult
			var err error
			dt := tr.do("cg.solve", func() {
				res, err = symspmv.SolveCG(sets[m].kern["sss-idx"], in.cg.b, x, symspmv.CGOptions{Tol: solveTol})
			})
			tl.add(err == nil && res.Converged && in.cg.check(x))
			total += dt.Seconds() * 1e3
			results = append(results, res)
		}
		times = append(times, total)
	}
	return times, results
}
