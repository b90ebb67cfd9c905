package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// serveMix is the traffic a workload sends to the in-process server.
type serveMix struct {
	rate      float64 // Poisson arrivals per second
	solveFrac float64 // share of solve requests; the rest are spmv
}

// clientConns is the load generator's connection count per CPU. Two per
// CPU let a second same-matrix request reach the batcher while one is in
// the kernel, so coalescing can happen at all.
const clientConns = 2

// vectorsPerMatrix is the size of each matrix's pool of seeded operands;
// requests draw from it, so bodies and references are made before the run.
const vectorsPerMatrix = 4

// server is an in-process serve.Server on a loopback listener, driven over
// HTTP by one client with at most conns connections.
type server struct {
	reg    *serve.Registry
	http   *http.Server
	base   string
	client *http.Client
	done   chan error
	// ids and paths name the served matrices and their files.
	ids, paths []string
}

// startServer serves a fresh registry on 127.0.0.1. Every kernel is pinned
// by its load request, so the tuning cache stays off.
func startServer(threads, conns int) (*server, error) {
	opts := serve.DefaultOptions()
	opts.Threads = threads
	opts.TuneCacheDir = "off"
	reg := serve.NewRegistry(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		reg:  reg,
		http: &http.Server{Handler: serve.NewServer(reg, serve.ServerOptions{})},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for the serve loop to return and
// releases every kernel.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // a timeout here still leaves Serve returning below
	<-s.done
	s.client.CloseIdleConnections()
	s.reg.Close()
}

func (s *server) post(ctx context.Context, path string, body []byte, hdr http.Header) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// load registers every matrix file concurrently, pinned to SSS-indexed at
// threads, and returns once all loads answered 201.
func (s *server) load(ids, paths []string, threads int) error {
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"id": ids[i], "path": paths[i], "format": "sss-idx", "threads": threads})
			status, b, err := s.post(context.Background(), "/v1/matrices", body, nil)
			if err == nil && status != http.StatusCreated {
				err = fmt.Errorf("load %s: status %d: %s", ids[i], status, b)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *server) unload(ids []string) error {
	for _, id := range ids {
		req, err := http.NewRequest(http.MethodDelete, s.base+"/v1/matrices/"+id, nil)
		if err != nil {
			return err
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("unload %s: status %d", id, resp.StatusCode)
		}
	}
	return nil
}

// writeMatrices stores each input's Matrix Market bytes under dir, where the
// server's loads read them.
func writeMatrices(dir string, ins []*input) (ids, paths []string, err error) {
	for i, in := range ins {
		id := fmt.Sprintf("m%d-%s", i, in.spec.name)
		p := filepath.Join(dir, id+".mtx")
		if err := os.WriteFile(p, in.mtx, 0o644); err != nil {
			return nil, nil, err
		}
		ids, paths = append(ids, id), append(paths, p)
	}
	return ids, paths, nil
}

// plannedReq is one scheduled arrival of the open loop.
type plannedReq struct {
	at    time.Duration // due time from the start of the loop
	m     int           // matrix
	solve bool
	v     int // operand in the matrix's pool
}

// reqResult is what the client saw of one request.
type reqResult struct {
	lag    time.Duration // generator lateness: hand-off − due time
	rtt    time.Duration // hand-off → body read, connection wait included
	lat    time.Duration // due time → body read: the user's latency
	status int
	err    error
	ok     bool // answered 200 with a body that passed its oracle
}

// operandPool is one matrix's request bodies with their references.
type operandPool struct {
	spmv      []spmvCase
	solve     []solveCase
	spmvBody  [][]byte
	solveBody [][]byte
}

func newOperandPool(in *input, rng *rand.Rand) (*operandPool, error) {
	p := &operandPool{}
	for v := 0; v < vectorsPerMatrix; v++ {
		mc := in.newSpMVCase(rng)
		sc := in.newSolveCase(rng)
		mb, err := json.Marshal(map[string]any{"x": mc.x})
		if err != nil {
			return nil, err
		}
		sb, err := json.Marshal(map[string]any{"b": sc.b, "tol": solveTol})
		if err != nil {
			return nil, err
		}
		p.spmv, p.solve = append(p.spmv, mc), append(p.solve, sc)
		p.spmvBody, p.solveBody = append(p.spmvBody, mb), append(p.solveBody, sb)
	}
	return p, nil
}

// planLoad schedules round(mix.rate·d) arrivals uniformly at random over d
// — a Poisson process conditioned on its count, so every seed offers the
// same load — with exact shares of solves and of each matrix, dealt out in
// a seeded order.
func planLoad(rng *rand.Rand, mix serveMix, matrices int, d time.Duration) []plannedReq {
	n := int(math.Round(mix.rate * d.Seconds()))
	solves := int(math.Round(mix.solveFrac * float64(n)))
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * d.Seconds()
	}
	sort.Float64s(at)
	plan := make([]plannedReq, n)
	for i, k := range rng.Perm(n) {
		plan[i] = plannedReq{
			at:    time.Duration(at[i] * float64(time.Second)),
			m:     k % matrices,
			solve: k < solves,
			v:     rng.Intn(vectorsPerMatrix),
		}
	}
	return plan
}

// traceparent carries request i's id, so the server's request log names it.
func traceparent(i int) string {
	return fmt.Sprintf("00-%032x-%016x-01", i+1, 1)
}

// runLoad sends plan open-loop: one generator goroutine sleeps until each
// due time and hands the request to its own goroutine, which waits for one
// of the client's connections. Latency runs from the due time, so a stall
// also charges the requests queued behind it. It returns once every
// response is in, with the time that took; the responses are checked after
// that, so decoding them does not compete with the server for the CPUs.
func (s *server) runLoad(ids []string, pools []*operandPool, plan []plannedReq) ([]reqResult, time.Duration) {
	res := make([]reqResult, len(plan))
	bodies := make([][]byte, len(plan))
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range plan {
		if w := time.Until(start.Add(p.at)); w > 0 {
			time.Sleep(w)
		}
		lag := time.Since(start) - p.at
		wg.Add(1)
		go func(i int, p plannedReq) {
			defer wg.Done()
			sent := time.Since(start)
			path, body := "/v1/matrices/"+ids[p.m]+"/spmv", pools[p.m].spmvBody[p.v]
			if p.solve {
				path, body = "/v1/matrices/"+ids[p.m]+"/solve", pools[p.m].solveBody[p.v]
			}
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			defer cancel()
			status, b, err := s.post(ctx, path, body, http.Header{"Traceparent": {traceparent(i)}})
			done := time.Since(start)
			res[i] = reqResult{lag: lag, rtt: done - sent, lat: done - p.at, status: status, err: err}
			bodies[i] = b
		}(i, p)
	}
	wg.Wait()
	took := time.Since(start)
	for i, p := range plan {
		r := &res[i]
		r.ok = r.err == nil && r.status == http.StatusOK && checkBody(p, pools[p.m], bodies[i])
	}
	return res, took
}

// serveStats are the end-to-end figures of one open-loop run.
type serveStats struct {
	okRPS     float64
	p50, p90  float64 // ms
	tail, pct float64 // ms; pct is the tail's percentile
	samples   int
	rejected  int
	lagP99    float64 // ms
}

// requestTimeout bounds every request; a failed or refused request counts
// as this late, which misses any latency limit.
const requestTimeout = 60 * time.Second

// judge counts the checked responses and summarizes the run, which took
// dur. Failures and refusals count as attempted, and as requestTimeout
// late.
func judge(res []reqResult, dur time.Duration, tl *tally) serveStats {
	var st serveStats
	lats := make([]float64, 0, len(res))
	lags := make([]float64, 0, len(res))
	ok := 0
	for _, r := range res {
		lags = append(lags, r.lag.Seconds()*1e3)
		tl.add(r.ok)
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			st.rejected++
		}
		if !r.ok {
			lats = append(lats, requestTimeout.Seconds()*1e3)
			continue
		}
		ok++
		lats = append(lats, r.lat.Seconds()*1e3)
	}
	st.okRPS = float64(ok) / dur.Seconds()
	st.p50 = median(lats)
	st.p90 = quantile(lats, 0.9)
	st.tail, st.pct = tail(lats)
	st.samples = len(lats)
	st.lagP99 = quantile(lags, 0.99)
	return st
}

func checkBody(p plannedReq, pool *operandPool, body []byte) bool {
	if p.solve {
		var r struct {
			X         []float64 `json:"x"`
			Converged bool      `json:"converged"`
		}
		return json.Unmarshal(body, &r) == nil && r.Converged && pool.solve[p.v].check(r.X)
	}
	var r struct {
		Y []float64 `json:"y"`
	}
	return json.Unmarshal(body, &r) == nil && pool.spmv[p.v].check(r.Y)
}

// scrape reads the server's /metrics exposition into series → value.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// stageQuantile estimates the q-quantile, in ms, of one stage of
// symspmv_serve_stage_seconds over the interval between two scrapes,
// interpolating linearly inside the bucket that holds it.
func stageQuantile(before, after map[string]float64, stage string, q float64) float64 {
	prefix := `symspmv_serve_stage_seconds_bucket{stage="` + stage + `",le="`
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return math.NaN()
	}
	target := q * after[`symspmv_serve_stage_seconds_count{stage="`+stage+`"}`]
	target -= q * before[`symspmv_serve_stage_seconds_count{stage="`+stage+`"}`]
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target {
			frac := 0.0
			if b.cum > prev {
				frac = (target - prev) / (b.cum - prev)
			}
			return (lo + frac*(b.le-lo)) * 1e3
		}
		lo, prev = b.le, b.cum
	}
	return bs[len(bs)-1].le * 1e3
}

// openServe starts the server on ins and loads them once, returning the
// time the load took (see loadWarm).
func openServe(ins []*input, pools []*operandPool, dir string, threads int,
	tr *tracer, tl *tally) (*server, []string, float64, error) {
	srv, err := startServer(threads, clientConns*threads)
	if err != nil {
		return nil, nil, 0, err
	}
	if srv.ids, srv.paths, err = writeMatrices(dir, ins); err != nil {
		srv.stop()
		return nil, nil, 0, err
	}
	t, err := srv.loadWarm(pools, threads, tr, tl)
	if err != nil {
		srv.stop()
		return nil, nil, 0, err
	}
	return srv, srv.ids, t, nil
}

// loadWarm loads the server's matrices from a collected heap and returns
// the seconds until every load answered 201, then warms each matrix with
// one checked request of each kind. With a tracer the load is a span.
func (s *server) loadWarm(pools []*operandPool, threads int, tr *tracer, tl *tally) (float64, error) {
	runtime.GC()
	var err error
	t := tr.do("serve.load", func() { err = s.load(s.ids, s.paths, threads) })
	if err != nil {
		return 0, err
	}
	var warm []plannedReq
	for m := range pools {
		warm = append(warm, plannedReq{m: m}, plannedReq{m: m, solve: true})
	}
	res, _ := s.runLoad(s.ids, pools, warm)
	for _, r := range res {
		tl.add(r.ok)
	}
	return t.Seconds(), nil
}

// reload unloads the server's matrices and loads them again (see
// loadWarm).
func (s *server) reload(pools []*operandPool, threads int, tl *tally) (float64, error) {
	if err := s.unload(s.ids); err != nil {
		return 0, err
	}
	return s.loadWarm(pools, threads, nil, tl)
}

// stageLog collects the server's per-request log records, keyed by request
// id, so client round trips can be split into server time and wire time.
type stageLog struct {
	mu     sync.Mutex
	server map[string]float64 // request id → queue + coalesce + solve, ms
}

func (l *stageLog) reset() {
	l.mu.Lock()
	l.server = make(map[string]float64)
	l.mu.Unlock()
}

func (l *stageLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *stageLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *stageLog) WithGroup(string) slog.Handler            { return l }
func (l *stageLog) Handle(_ context.Context, r slog.Record) error {
	id, ms := "", 0.0
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "request":
			id = a.Value.String()
		case "queue_wait_ms", "coalesce_wait_ms", "solve_ms":
			ms += a.Value.Float64()
		}
		return true
	})
	l.mu.Lock()
	l.server[id] = ms
	l.mu.Unlock()
	return nil
}

// quietLog drops the request log, as a production server logging elsewhere
// would cost the request path only the level check.
type quietLog struct{}

func (quietLog) Enabled(context.Context, slog.Level) bool  { return false }
func (quietLog) Handle(context.Context, slog.Record) error { return nil }
func (q quietLog) WithAttrs([]slog.Attr) slog.Handler      { return q }
func (q quietLog) WithGroup(string) slog.Handler           { return q }
