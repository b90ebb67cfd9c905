package main

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// TestInjectedDelayIsAttributed stretches every call into one layer by 20%
// through the benchmark's own span wrapper, then checks that the per-layer
// report puts the added time on that layer and on no other. Injected and
// plain set-ups alternate from a collected heap, and each layer's figure is
// the median over pairs, so drift of the host lands on both sides.
func TestInjectedDelayIsAttributed(t *testing.T) {
	const layer, metric, stretch = "csx.build", "csx.build_s", 0.2
	in, err := prepare(matSpec{name: "consph", scale: 0.1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	setup := func(inject bool) map[string]float64 {
		runtime.GC()
		tr := newTracer()
		if inject {
			tr.inject = map[string]float64{layer: stretch}
		}
		var ms metrics
		if _, err := layerSetup(&ms, []*input{in}, pool, tr); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		for _, l := range setupLayers {
			out[l.metric] = ms.m[l.metric].Value
		}
		return out
	}
	base, slow := make(map[string][]float64), make(map[string][]float64)
	for pair := 0; pair < 9; pair++ {
		for k, v := range setup(false) {
			base[k] = append(base[k], v)
		}
		for k, v := range setup(true) {
			slow[k] = append(slow[k], v)
		}
	}
	added := make(map[string]float64)
	for _, l := range setupLayers {
		added[l.metric] = median(slow[l.metric]) - median(base[l.metric])
		t.Logf("%-22s base %8.4fs  injected %8.4fs  added %+8.4fs", l.metric,
			median(base[l.metric]), median(slow[l.metric]), added[l.metric])
	}
	if got := added[metric] / median(base[metric]); got < 0.1 || got > 0.35 {
		t.Errorf("%s grew by %.0f%%, want about %.0f%%", metric, 100*got, 100*stretch)
	}
	for _, l := range setupLayers {
		if l.metric != metric && added[l.metric] > added[metric]/2 {
			t.Errorf("%s gained %.4fs, half or more of the %.4fs injected into %s", l.metric, added[l.metric], added[metric], metric)
		}
	}
}

// TestOraclesRejectWrongAnswers checks that the SpM×V and CG oracles pass
// the reference answers and fail answers off by one misplaced entry.
func TestOraclesRejectWrongAnswers(t *testing.T) {
	in, err := prepare(matSpec{name: "parabolic_fem", scale: 0.01, scramble: true}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	y := append([]float64(nil), in.mv.y...)
	if !in.mv.check(y) {
		t.Fatal("SpM×V oracle rejects the reference product")
	}
	y[in.n/2] += 1e-9 * in.mv.scale[in.n/2]
	if in.mv.check(y) {
		t.Error("SpM×V oracle accepts a product with one entry moved")
	}
	x := append([]float64(nil), in.cg.xStar...)
	if !in.cg.check(x) {
		t.Fatal("CG oracle rejects x*")
	}
	x[0] += 10 * xTol
	if in.cg.check(x) {
		t.Error("CG oracle accepts a wrong solution")
	}
}
