package main

import (
	"bytes"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	symspmv "repro"
	"repro/internal/color"
	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/csx"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
	"repro/internal/serve"
)

// Shares of --seconds for the parts of a traced run.
const (
	tracedKernelShare   = 0.3
	tracedOverheadShare = 0.2 // untraced and traced CG and SpM×V, interleaved
	tracedServeShare    = 0.2
	tracedTuneShare     = 0.1 // timing the autotuned and fixed kernels
)

// The kernel layer's SSS methods, timed phase by phase through
// core.Kernel.TimedMulVec at one thread and at nproc.
var coreMethods = []struct {
	name string
	m    core.ReductionMethod
}{
	{"sss-eff", core.EffectiveRanges},
	{"sss-idx", core.Indexed},
	{"sss-color", core.Colored},
}

// built is one matrix set up layer by layer through the internal packages.
type built struct {
	in   *input
	sss  *core.SSS
	csr  *csr.Matrix
	core map[string]*core.Kernel // at nproc, by method name
	csx  *csx.SymMatrix
}

// runLayers is the traced run: every call into a layer is a span, and the
// per-layer metrics come from those spans and from the layers' own
// counters. Each metric sums over the workload's matrices.
func runLayers(ms *metrics, w workload, host hostRecord, lib, srvIns []*input, pools []*operandPool,
	plan []plannedReq, dir string, d time.Duration, rng *rand.Rand, tr *tracer, tl *tally) error {
	threads := runtime.GOMAXPROCS(0)
	ms.set("stream.triad_gbs.p1", "GB/s", host.TriadP1GBs)
	ms.set("stream.triad_gbs.pN", "GB/s", host.TriadPNGBs)

	poolN := parallel.NewPool(threads)
	defer poolN.Close()
	bs, err := layerSetup(ms, lib, poolN, tr)
	if err != nil {
		return err
	}
	if err := layerKernels(ms, bs, poolN, host, share(d, tracedKernelShare), rng, tr, tl); err != nil {
		return err
	}
	layerParallel(ms, poolN, host)

	if err := layerCG(ms, lib, share(d, tracedOverheadShare/2), w.cgRounds(share(d, tracedOverheadShare/2)), rng, tr, tl); err != nil {
		return err
	}
	if err := layerAutotune(ms, srvIns, share(d, tracedTuneShare), rng, tr, tl); err != nil {
		return err
	}

	sl := &stageLog{server: make(map[string]float64)}
	serve.SetLogger(slog.New(sl))
	srv, ids, _, err := openServe(srvIns, pools, dir, threads, tr, tl)
	if err != nil {
		return err
	}
	defer srv.stop()
	sl.reset() // drop the warm-up requests, whose ids the plan reuses
	runtime.GC()
	before, err := srv.scrape()
	if err != nil {
		return err
	}
	var res []reqResult
	var dur time.Duration
	tr.do("serve.loadgen", func() { res, dur = srv.runLoad(ids, pools, plan) })
	after, err := srv.scrape()
	if err != nil {
		return err
	}
	layerServe(ms, judge(res, dur, tl), res, before, after, sl)
	return nil
}

// layerSetup builds every matrix the way set-up does, one layer call at a
// time: parsing (matrix), SSS conversion and the three SSS kernels (core),
// CSR conversion (csr), the coloring on its own (color) and the CSX-Sym
// encoding (csx). Each reported figure is the layer's summed self time.
func layerSetup(ms *metrics, ins []*input, pool *parallel.Pool, tr *tracer) ([]*built, error) {
	p := pool.Size()
	var bs []*built
	var err error
	for _, in := range ins {
		b := &built{in: in, core: make(map[string]*core.Kernel)}
		tr.do("setup", func() {
			var coo *matrix.COO
			tr.do("matrix.ingest", func() { coo, err = matrix.ReadMatrixMarket(bytes.NewReader(in.mtx)) })
			if err != nil {
				return
			}
			tr.do("core.build.sss", func() { b.sss, err = core.FromCOO(coo) })
			if err != nil {
				return
			}
			tr.do("csr.build", func() { b.csr = csr.FromCOO(coo) })
			for _, cm := range coreMethods {
				tr.do("core.build."+cm.name, func() {
					b.core[cm.name], err = core.NewKernelOpts(b.sss, cm.m, pool, core.KernelOptions{})
				})
				if err != nil {
					return
				}
			}
			tr.do("color.build", func() { color.Build(b.sss.N, b.sss.RowPtr, b.sss.ColIdx, p, color.Options{}) })
			tr.do("csx.build", func() { b.csx = csx.NewSym(b.sss, p, core.Indexed, csx.DefaultOptions()) })
		})
		if err != nil {
			return nil, fmt.Errorf("set up %v: %w", in.spec, err)
		}
		bs = append(bs, b)
	}
	self := tr.selfTimes()
	for _, l := range setupLayers {
		ms.set(l.metric, "s", self[l.span].Seconds())
	}
	return bs, nil
}

// setupLayers maps set-up spans to their metrics.
var setupLayers = []struct{ span, metric string }{
	{"matrix.ingest", "matrix.ingest_s"},
	{"core.build.sss", "core.build_s.sss"},
	{"csr.build", "csr.build_s"},
	{"core.build.sss-eff", "core.build_s.sss-eff"},
	{"core.build.sss-idx", "core.build_s.sss-idx"},
	{"core.build.sss-color", "core.build_s.sss-color"},
	{"color.build", "color.build_s"},
	{"csx.build", "csx.build_s"},
}

// opSample is one timed operation's breakdown, in µs.
type opSample struct{ wall, mult, red, barrier float64 }

// kernelCase is one kernel the kernel layer times.
type kernelCase struct {
	key  string // format.p1 or format.pN
	span string
	b    *built
	core *core.Kernel // nil: timed as a whole through mul
	mul  func(x, y []float64)
}

// layerKernels times the SSS methods phase by phase at one thread and at
// nproc, and CSR and CSX-Sym whole at nproc, round-robin for d. It then
// sets each format's computed bytes per operation against its time, the
// measured triad and the perfmodel prediction.
func layerKernels(ms *metrics, bs []*built, poolN *parallel.Pool, host hostRecord, d time.Duration,
	rng *rand.Rand, tr *tracer, tl *tally) error {
	pool1 := parallel.NewPool(1)
	defer pool1.Close()
	var cases []kernelCase
	for _, b := range bs {
		for _, cm := range coreMethods {
			k1, err := core.NewKernelOpts(b.sss, cm.m, pool1, core.KernelOptions{})
			if err != nil {
				return err
			}
			cases = append(cases,
				kernelCase{key: cm.name + ".p1", span: "core.mulvec", b: b, core: k1},
				kernelCase{key: cm.name + ".pN", span: "core.mulvec", b: b, core: b.core[cm.name]})
		}
		pc := csr.NewParallel(b.csr, poolN)
		sm := b.csx
		cases = append(cases,
			kernelCase{key: "csr.pN", span: "csr.mulvec", b: b, mul: pc.MulVec},
			kernelCase{key: "csx-sym.pN", span: "csx.mulvec", b: b, mul: func(x, y []float64) { sm.MulVec(poolN, x, y) }})
	}

	samples := make([][]opSample, len(cases))
	ys := make([][]float64, len(cases))
	for i, c := range cases {
		ys[i] = make([]float64, c.b.in.n)
	}
	deadline := time.Now().Add(d)
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		for _, i := range rng.Perm(len(cases)) {
			c, y, x := cases[i], ys[i], cases[i].b.in.mv.x
			var s opSample
			if c.core != nil {
				var pt core.PhaseTimes
				tr.do(c.span, func() { pt = c.core.TimedMulVec(x, y) })
				s = opSample{us(pt.Wall), us(pt.Compute), us(pt.Reduction), us(pt.Barrier)}
			} else {
				s.wall = us(tr.do(c.span, func() { c.mul(x, y) }))
			}
			samples[i] = append(samples[i], s)
			tl.add(c.b.in.mv.check(y))
			clear(y)
		}
	}

	// Per-op medians of each component, summed over matrices per key.
	agg := make(map[string]*opSample)
	for i, c := range cases {
		a := agg[c.key]
		if a == nil {
			a = &opSample{}
			agg[c.key] = a
		}
		a.wall += median(pick(samples[i], func(s opSample) float64 { return s.wall }))
		a.mult += median(pick(samples[i], func(s opSample) float64 { return s.mult }))
		a.red += median(pick(samples[i], func(s opSample) float64 { return s.red }))
		a.barrier += median(pick(samples[i], func(s opSample) float64 { return s.barrier }))
	}
	for _, cm := range coreMethods {
		for _, p := range []string{"p1", "pN"} {
			a := agg[cm.name+"."+p]
			suffix := cm.name + "." + p
			ms.set("core.op_us."+suffix, "us", a.wall)
			ms.set("core.multiply_us."+suffix, "us", a.mult)
			ms.set("core.barrier_us."+suffix, "us", a.barrier)
			if cm.m != core.Colored {
				ms.set("core.reduction_us."+suffix, "us", a.red)
			}
		}
		a := agg[cm.name+".pN"]
		ms.set("core.barrier_share."+cm.name+".pN", "fraction", a.barrier/a.wall)
		if cm.m != core.Colored {
			ms.set("core.reduction_share."+cm.name+".pN", "fraction", a.red/a.wall)
		}
	}
	phases, colors := 0, 0
	for _, b := range bs {
		k := b.core["sss-color"]
		colors += k.Colors()
		phases += k.TimedMulVec(b.in.mv.x, make([]float64, b.in.n)).Phases
	}
	ms.set("core.phases.sss-color", "count", float64(phases))
	ms.set("color.colors", "count", float64(colors))

	// Bytes are computed from the data structures (core.Traffic through the
	// perfmodel costs), not counted by hardware.
	p := poolN.Size()
	pl := perfmodel.CalibratedHost(p, 1, host.TriadPNGBs)
	for _, f := range []string{"csr", "sss-eff", "sss-idx", "sss-color", "csx-sym"} {
		var bytes, model float64
		for _, b := range bs {
			var c perfmodel.SpMVCost
			switch f {
			case "csr":
				c = perfmodel.CSRCost(b.csr)
			case "csx-sym":
				c = perfmodel.CSXSymCost(b.csx, b.sss)
			default:
				c = perfmodel.SSSCost(b.core[f])
			}
			bytes += float64(c.MultBytes + c.RedBytes)
			model += c.Seconds(pl, p) * 1e6
		}
		meas := agg[f+".pN"].wall
		gbs := bytes / meas / 1e3
		ms.set("core.bytes_per_op."+f, "B", bytes)
		ms.set("core.achieved_gbs."+f, "GB/s", gbs)
		ms.set("core.roofline_frac."+f, "fraction", gbs/host.TriadPNGBs)
		ms.set("perfmodel.err."+f, "fraction", math.Abs(meas/model-1))
	}
	ms.note("core.bytes_per_op.* are computed from the data structures, not counted by hardware")
	return nil
}

func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

func pick(ss []opSample, f func(opSample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// layerParallel measures the pool's synchronization from outside: one
// dispatch is Pool.Run of an empty function; one barrier is RunPhases of two
// empty phases minus one dispatch. Both are medians over batches; the
// barrier cost perfmodel assumes is noted beside them.
func layerParallel(ms *metrics, pool *parallel.Pool, host hostRecord) {
	const batches, calls = 31, 200
	empty := func(int) {}
	perCall := func(fn func()) float64 {
		var xs []float64
		for b := 0; b < batches; b++ {
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				fn()
			}
			xs = append(xs, us(time.Since(t0))/calls)
		}
		return median(xs)
	}
	run := perCall(func() { pool.Run(empty) })
	two := perCall(func() { pool.RunPhases(empty, empty) })
	ms.set("parallel.dispatch_us", "us", run)
	ms.set("parallel.barrier_us", "us", two-run)
	pl := perfmodel.CalibratedHost(pool.Size(), 1, host.TriadPNGBs)
	ms.note("perfmodel prices one barrier at %.3g us at p=%d", pl.BarrierSeconds(pool.Size())*1e6, pool.Size())
}

// layerCG runs CG (cgRounds rounds in all) and SpM×V (for d in all)
// through the facade in alternating untraced and traced slices. The traced
// solves give the solver's split between the operator and the vector tail;
// the difference between the two sides is the tracing overhead on the
// end-to-end figures.
func layerCG(ms *metrics, ins []*input, d time.Duration, cgRounds int, rng *rand.Rand, tr *tracer, tl *tally) error {
	threads := runtime.GOMAXPROCS(0)
	idx := []libFormat{{"sss-idx", symspmv.SSSIndexed}}
	sets, _, err := setupRepeated(ins, idx, threads, 1)
	if err != nil {
		return err
	}
	defer closeSets(sets)
	const slices = 4
	var cgOff, cgOn, mvOff, mvOn []float64
	var results []symspmv.CGResult
	for s := 0; s < slices; s++ {
		var t *tracer
		if s%2 == 1 {
			t = tr
		}
		rounds, res := measureCG(ins, sets, max(1, cgRounds/slices), t, tl)
		mv := make(map[string][]float64)
		roundRobin(spmvCases(ins, sets, idx), d/slices, rng, t, tl, mv)
		g := median(mv["sss-idx"])
		if t == nil {
			cgOff, mvOff = append(cgOff, rounds...), append(mvOff, g)
		} else {
			cgOn, mvOn = append(cgOn, rounds...), append(mvOn, g)
			results = append(results, res...)
		}
	}
	ms.set("trace.overhead.cg_solve_ms.p50", "ms", median(cgOn)-median(cgOff))
	ms.set("trace.overhead.spmv_gflops.sss-idx", "GFlop/s", median(mvOn)-median(mvOff))

	// Per round of the workload's matrices, as cg_solve_ms is.
	var iters, total, spmv, vector float64
	for _, r := range results {
		iters += float64(r.Iterations)
		total += r.TotalTime.Seconds()
		spmv += r.SpMVTime.Seconds()
		vector += r.VectorTime.Seconds()
	}
	perRound := float64(len(ins)) / float64(len(results))
	ms.set("cg.iters", "count", iters*perRound)
	ms.set("cg.iter_us", "us", total/iters*1e6)
	ms.set("cg.vector_us", "us", vector/iters*1e6)
	ms.set("cg.operator_frac", "fraction", spmv/total)
	return nil
}

// tuneCalls is how many no-cache AutoKernel calls each serve matrix gets;
// the plans of repeated calls differ when candidates are close.
const tuneCalls = 2

// layerAutotune tunes each serve matrix tuneCalls times with no cache, then
// times every chosen kernel round-robin against every fixed format at
// nproc. Regret is 1 − chosen/best-fixed GFlop/s, averaged over calls.
func layerAutotune(ms *metrics, ins []*input, d time.Duration, rng *rand.Rand, tr *tracer, tl *tally) error {
	threads := runtime.GOMAXPROCS(0)
	sets, _, err := setupRepeated(ins, libFormats, threads, 1)
	if err != nil {
		return err
	}
	defer closeSets(sets)
	var tuneS, trials float64
	var cases []mulCase
	var chosen []symspmv.Kernel
	defer func() {
		for _, k := range chosen {
			k.Close()
		}
	}()
	var plans []string
	for m, in := range ins {
		var ts, ns []float64
		for c := 0; c < tuneCalls; c++ {
			var k symspmv.Kernel
			var dec *symspmv.Decision
			dt := tr.do("autotune.tune", func() {
				k, dec, err = symspmv.AutoKernel(sets[m].a, symspmv.AutoNoCache(), symspmv.AutoMaxThreads(threads))
			})
			if err != nil {
				return fmt.Errorf("autotune %v: %w", in.spec, err)
			}
			chosen = append(chosen, k)
			ts, ns = append(ts, dt.Seconds()), append(ns, float64(dec.Trials))
			plans = append(plans, fmt.Sprintf("%v: %v", in.spec, dec.Plan))
			cases = append(cases, mulCase{fmt.Sprintf("chosen.%d.%d", m, c), in, k.MulVec})
		}
		tuneS += median(ts)
		trials += median(ns)
		for _, lf := range libFormats {
			cases = append(cases, mulCase{fmt.Sprintf("fixed.%d.%s", m, lf.name), in, sets[m].kern[lf.name].MulVec})
		}
	}
	samples := make(map[string][]float64)
	roundRobin(cases, d, rng, tr, tl, samples)
	g := medians(samples)
	regret, n := 0.0, 0
	for m := range ins {
		best := 0.0
		for _, lf := range libFormats {
			if v := g[fmt.Sprintf("fixed.%d.%s", m, lf.name)]; v > best {
				best = v
			}
		}
		for c := 0; c < tuneCalls; c++ {
			regret += 1 - g[fmt.Sprintf("chosen.%d.%d", m, c)]/best
			n++
		}
	}
	ms.set("autotune.tune_s", "s", tuneS)
	ms.set("autotune.trials", "count", trials)
	ms.set("autotune.regret", "fraction", regret/float64(n))
	sort.Strings(plans)
	ms.note("autotune plans: %s", strings.Join(plans, "; "))
	return nil
}

// layerServe reports the served requests' latency tail and splits them by
// stage: queue, coalescing and
// solve from the server's stage histograms over the open loop, lanes per
// dispatch from its counters, and wire time — the client round trip less
// the server's stages: HTTP, JSON and waiting for a connection — from its
// request log.
func layerServe(ms *metrics, st serveStats, res []reqResult, before, after map[string]float64, sl *stageLog) {
	for _, s := range []struct{ stage, name string }{
		{"queue_wait", "serve.queue_ms.p50"},
		{"coalesce_wait", "serve.coalesce_ms.p50"},
		{"solve", "serve.solve_ms.p50"},
	} {
		ms.set(s.name, "ms", stageQuantile(before, after, s.stage, 0.5))
	}
	lanes := after["symspmv_serve_lanes_total"] - before["symspmv_serve_lanes_total"]
	disp := after["symspmv_serve_batch_size_count"] - before["symspmv_serve_batch_size_count"]
	ms.set("serve.lanes_per_dispatch", "count", lanes/disp)

	var wire []float64
	sl.mu.Lock()
	for i, r := range res {
		if srv, ok := sl.server[fmt.Sprintf("%032x", i+1)]; ok && r.err == nil {
			wire = append(wire, r.rtt.Seconds()*1e3-srv)
		}
	}
	sl.mu.Unlock()
	ms.set("serve.wire_ms.p50", "ms", median(wire))
	ms.set("serve.p90_ms", "ms", st.p90)
	ms.set("serve.tail_ms", "ms", st.tail)
	ms.note("serve.tail_ms is p%.1f of %d requests", st.pct, st.samples)
	ms.set("serve.rejected", "count", float64(st.rejected))
	ms.set("loadgen.lag_ms.p99", "ms", st.lagP99)
}
