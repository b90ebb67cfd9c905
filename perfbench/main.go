// Command perfbench is the repository's benchmark. One run drives one seeded
// workload through the public facade (package repro) and the serve layer,
// checks every output, and prints its metrics; the last line of standard
// output is one JSON object. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload structural --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with no spans; --trace
// 1 runs the per-layer measurements instead (see layers.go). The workloads
// and the reason for each are listed in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/serve"
)

// workload is one seeded input set. Each runs every phase: set-up, the
// round-robin SpM×V formats, CG solves and an open-loop serve phase; split
// gives each phase's share of --seconds and so where the workload puts its
// weight.
type workload struct {
	lib   []matSpec // set-up, SpM×V and CG matrices
	serve []matSpec // matrices the server loads; nil serves lib
	mix   serveMix
	split [3]float64 // SpM×V, CG, serve
	// cgRate is the CG rounds a run makes per second of its CG share, set
	// so the rounds about fill that share on a 2-vCPU Xeon VM. The count
	// depends on --seconds alone, never on speed, so cg_solve_ms.tail is
	// the same order statistic on every run of every commit.
	cgRate float64
	// setupReps is how many times a run sets up; setup_s is their median.
	// Cheap set-ups repeat more, so the median is as steady.
	setupReps int
	// serveSetup makes setup_s the server's loads of its matrices instead
	// of the library set-up. The server loads them again at the start of
	// every cycle, so the loads sample the whole run, as the other phases
	// do, and setup_s is their median.
	serveSetup bool
}

// The structural matrices keep SSS at 13–15 MB each, several times the
// summed L2 of small hosts, so the multiply streams from memory. The
// scattered ones average 5–7 nonzeros per row in a seeded random order and
// are small enough that their vectors stay in cache, so the reduction,
// barriers and CG vector tail carry a real share of each operation.
// serve-mix serves one small matrix of each class, both with about 8,300
// rows: a request's cost is mostly its n-long JSON vectors, so matched sizes
// put the latency median inside one mode rather than in the gap between two.
// The library workloads send the same stream (rate and solve share) to
// the matrix of their own class, in a short slice, because every workload
// reports the serve metrics.
var workloads = map[string]workload{
	"structural": {
		lib:       []matSpec{{name: "consph", scale: 0.35}, {name: "bmw7st_1", scale: 0.35}},
		serve:     []matSpec{{name: "consph", scale: 0.1}},
		mix:       serveMix{rate: 40, solveFrac: 0.1},
		split:     [3]float64{0.35, 0.4, 0.25},
		cgRate:    7,
		setupReps: 3,
	},
	"scattered": {
		lib:       []matSpec{{name: "G3_circuit", scale: 0.02, scramble: true}, {name: "thermal2", scale: 0.02, scramble: true}},
		serve:     []matSpec{{name: "parabolic_fem", scale: 0.05}},
		mix:       serveMix{rate: 40, solveFrac: 0.1},
		split:     [3]float64{0.35, 0.4, 0.25},
		cgRate:    36,
		setupReps: 7,
	},
	"serve-mix": {
		lib:        []matSpec{{name: "consph", scale: 0.1}, {name: "parabolic_fem", scale: 0.05}},
		serve:      []matSpec{{name: "consph", scale: 0.1}, {name: "parabolic_fem", scale: 0.016}},
		mix:        serveMix{rate: 40, solveFrac: 0.1},
		split:      [3]float64{0.2, 0.1, 0.7},
		cgRate:     30,
		serveSetup: true,
	},
}

// runLimit bounds a run: a benchmark that hangs must fail, not stall the
// caller.
const runLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects a run's figures; notes are extra context printed before
// the result line.
type metrics struct {
	m     map[string]metric
	notes []string
}

func (ms *metrics) set(name, unit string, v float64) {
	if ms.m == nil {
		ms.m = make(map[string]metric)
	}
	ms.m[name] = metric{v, unit}
}

func (ms *metrics) note(format string, args ...any) {
	ms.notes = append(ms.notes, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload to run: structural, scattered or serve-mix")
	seed := flag.Int64("seed", 1, "seed of the inputs, operands, arrivals and request mix")
	seconds := flag.Int("seconds", 20, "measured seconds of the run")
	trace := flag.Int("trace", 0, "1 runs the per-layer measurements instead of the end-to-end ones")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	if err := run(*name, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, w workload, seed int64, d time.Duration, traced bool) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	threads := runtime.GOMAXPROCS(0)
	host := probeHost(threads)
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)

	rng := rand.New(rand.NewSource(seed))
	lib, err := prepareAll(w.lib, rng)
	if err != nil {
		return err
	}
	srvIns := lib
	if w.serve != nil {
		if srvIns, err = prepareAll(w.serve, rng); err != nil {
			return err
		}
	}
	pools := make([]*operandPool, len(srvIns))
	for i, in := range srvIns {
		if pools[i], err = newOperandPool(in, rng); err != nil {
			return err
		}
	}

	var ms metrics
	tl := &tally{}
	if traced {
		tr := newTracer()
		plan := planLoad(rng, w.mix, len(srvIns), share(d, tracedServeShare))
		if err := runLayers(&ms, w, host, lib, srvIns, pools, plan, dir, d, rng, tr, tl); err != nil {
			return err
		}
		if err := tr.write(fmt.Sprintf(".bench_build/perfbench-trace-%s-%d.json", name, seed)); err != nil {
			return err
		}
	} else {
		plan := planLoad(rng, w.mix, len(srvIns), share(d, w.split[2]))
		if err := runEndToEnd(&ms, w, lib, srvIns, pools, plan, dir, d, rng, tl); err != nil {
			return err
		}
	}
	return report(ms, tl)
}

func share(d time.Duration, f float64) time.Duration { return time.Duration(f * float64(d)) }

// cgRounds is how many CG rounds w makes in a CG share of length d.
func (w workload) cgRounds(d time.Duration) int {
	return max(1, int(math.Round(w.cgRate*d.Seconds())))
}

func prepareAll(specs []matSpec, rng *rand.Rand) ([]*input, error) {
	ins := make([]*input, len(specs))
	for i, sp := range specs {
		in, err := prepare(sp, rng)
		if err != nil {
			return nil, fmt.Errorf("prepare %v: %w", sp, err)
		}
		ins[i] = in
	}
	return ins, nil
}

// cycles is how many times a run goes round its SpM×V and serve phases (CG
// runs in some of them; see cgSlices). Interference from other tenants
// comes in bursts of seconds; slicing each phase finely over the whole run
// exposes every metric to the same bursts, so one burst moves no single
// metric far. With few cycles one burst can cover a large part of a short
// serve phase and move its median.
const cycles = 12

// cgSlices is how many of the cycles run CG, evenly spaced, and cgWarm how
// long after the end of a serve slice its timed rounds may start. A serve
// slice leaves the CPUs mostly idle, and on a 2-vCPU VM the small solves of
// serve-mix then ran 3–4 times slower for up to about a second; ten such
// rounds put cg_solve_ms.tail (rank n−10) inside that episode on some runs
// and not on others. So each CG slice first runs untimed, checked rounds
// until cgWarm has passed (the SpM×V slice in between counts), and few
// slices keep that cost small.
const (
	cgSlices = 4
	cgWarm   = 1500 * time.Millisecond
)

// runEndToEnd measures the user-visible metrics with no spans recorded.
func runEndToEnd(ms *metrics, w workload, lib, srvIns []*input, pools []*operandPool, plan []plannedReq,
	dir string, d time.Duration, rng *rand.Rand, tl *tally) error {
	threads := runtime.GOMAXPROCS(0)
	reps := w.setupReps
	if w.serveSetup {
		reps = 1
	}
	sets, setupS, err := setupRepeated(lib, libFormats, threads, reps)
	if err != nil {
		return err
	}
	defer closeSets(sets)
	serve.SetLogger(slog.New(quietLog{}))
	srv, ids, loadS, err := openServe(srvIns, pools, dir, threads, nil, tl)
	if err != nil {
		return err
	}
	defer srv.stop()
	loads := []float64{loadS}

	cases := spmvCases(lib, sets, libFormats)
	mv := make(map[string][]float64)
	var rounds []float64
	var res []reqResult
	var served time.Duration
	chunk := share(d, w.split[2]) / cycles
	n := w.cgRounds(share(d, w.split[1]))
	idle := time.Now() // end of the last serve slice
	for c := 0; c < cycles; c++ {
		if w.serveSetup && c > 0 {
			t, err := srv.reload(pools, threads, tl)
			if err != nil {
				return err
			}
			loads = append(loads, t)
		}
		runtime.GC()
		roundRobin(cases, share(d, w.split[0])/cycles, rng, nil, tl, mv)
		if per := cycles / cgSlices; c%per == per/2 {
			k := c / per
			runtime.GC()
			for time.Since(idle) < cgWarm {
				measureCG(lib, sets, 1, nil, tl)
			}
			r, _ := measureCG(lib, sets, n*(k+1)/cgSlices-n*k/cgSlices, nil, tl)
			rounds = append(rounds, r...)
		}
		runtime.GC()
		part, dur := srv.runLoad(ids, pools, window(plan, time.Duration(c)*chunk, chunk))
		res, served = append(res, part...), served+dur
		idle = time.Now()
	}
	if w.serveSetup {
		setupS = median(loads)
	}
	ms.set("setup_s", "s", setupS)
	for name, g := range medians(mv) {
		ms.set("spmv_gflops."+name, "GFlop/s", g)
	}
	ms.set("cg_solve_ms.p50", "ms", median(rounds))
	t, pct := tail(rounds)
	ms.set("cg_solve_ms.tail", "ms", t)
	ms.note("cg_solve_ms.tail is p%.0f of %d rounds (one solve per matrix each)", pct, len(rounds))
	st := judge(res, served, tl)
	ms.set("serve_ok_rps", "1/s", st.okRPS)
	ms.set("serve_ms.p50", "ms", st.p50)
	// The serve tails stay out of the bounded metrics: on a shared 2-vCPU
	// host their run-to-run spread reached 0.4, above any usable bound.
	ms.note("%d requests at %.0f/s offered, %d refused; p90 %.4g ms; the highest percentile with ten beyond it, p%.1f, is %.4g ms",
		st.samples, w.mix.rate, st.rejected, st.p90, st.pct, st.tail)
	return nil
}

// window returns the arrivals of plan due in [from, from+d), with due times
// counted from from.
func window(plan []plannedReq, from, d time.Duration) []plannedReq {
	var out []plannedReq
	for _, p := range plan {
		if p.at >= from && p.at < from+d {
			p.at -= from
			out = append(out, p)
		}
	}
	return out
}

func report(ms metrics, tl *tally) error {
	names := make([]string, 0, len(ms.m))
	for n, m := range ms.m {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", n, m.Value)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, ms.m[n].Value, ms.m[n].Unit)
	}
	for _, n := range ms.notes {
		fmt.Println("note:", n)
	}
	fmt.Printf("checked %d operations, %d failed (fail_frac %.4g)\n", tl.attempted, tl.failed, float64(tl.failed)/float64(tl.attempted))
	b, err := json.Marshal(result{
		Correct:   tl.failed == 0 && tl.attempted > 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   ms.m,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
