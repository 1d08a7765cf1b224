package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"mocha/internal/obs"
	"mocha/pkg/mocha"
)

// warmupPasses fill the DAP code caches and the Go runtime's lazy state
// before anything is timed; users do not pay that cost per query.
const warmupPasses = 2

// qres is the outcome of one query of the mix.
type qres struct {
	stmt int  // 0-based statement index
	ok   bool // executed, not refused, rows matched the oracle
	// ms is the client-observed latency: send SQL -> last row + stats.
	ms float64
	// ttfrMS is send SQL -> first row (wire client only).
	ttfrMS float64
	stats  mocha.QueryStats
}

// runner is one set-up workload: data, oracle, cluster and the single
// client connection all load goes through.
type runner struct {
	w      workloadDef
	ds     *dataset
	cl     *mocha.Cluster
	client *mocha.Client // nil for Embedded workloads
	want   [6]rowDigest
	rng    *rand.Rand
	// connectUS is how long the one client connection took to open.
	connectUS float64
}

// setUp generates the data from the seed, computes the oracle, stands up
// the workload's cluster, opens the client connection and runs the
// warm-up passes. Everything here is what setup_s times.
func setUp(w workloadDef, seed int64, scale float64) (*runner, error) {
	ds, err := newDataset(seed, scale)
	if err != nil {
		return nil, err
	}
	want, err := ds.oracle()
	if err != nil {
		return nil, err
	}
	cl, err := ds.cluster(w.clusterConfig())
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, ds: ds, cl: cl, want: want, rng: rand.New(rand.NewSource(seed))}
	if err := r.connect(); err != nil {
		cl.Close()
		return nil, err
	}
	for i := 0; i < warmupPasses; i++ {
		for _, q := range r.pass(nil, nil, 0) {
			if !q.ok {
				r.close()
				return nil, fmt.Errorf("%s: warm-up Q%d failed or disagreed with the oracle", w.Name, q.stmt+1)
			}
		}
	}
	return r, nil
}

func (r *runner) connect() error {
	if r.w.Embedded {
		return nil
	}
	start := time.Now()
	c, err := r.cl.Connect()
	if err != nil {
		return fmt.Errorf("%s: connect: %w", r.w.Name, err)
	}
	r.connectUS = float64(time.Since(start).Nanoseconds()) / 1e3
	r.client = c
	return nil
}

func (r *runner) close() {
	if r.client != nil {
		r.client.Close()
	}
	r.cl.Close()
}

// pass runs the six statements once, in an order shuffled from the seed.
func (r *runner) pass(tr *tracer, parent *spanRef, n int) []qres {
	out := make([]qres, 0, 6)
	for _, stmt := range passOrder(r.rng) {
		var qid string
		if tr != nil {
			qid = fmt.Sprintf("%s/%d/q%d", r.w.Name, n, stmt+1)
		}
		out = append(out, r.query(stmt, tr, parent, qid))
	}
	return out
}

// query issues one statement, waits for the complete reply and checks
// its row multiset against the oracle. A failed, refused or wrong query
// is returned with ok=false and contributes no latency sample.
func (r *runner) query(stmt int, tr *tracer, parent *spanRef, qid string) qres {
	q := qres{stmt: stmt}
	sql := r.ds.sql[stmt]
	var rows []mocha.Tuple
	var err error

	root := tr.begin("client.query", parent, qid)
	start := time.Now()
	if r.client == nil {
		sp := tr.begin("client.execute", root, qid)
		var res *mocha.Result
		if res, err = r.cl.Execute(sql); err == nil {
			rows, q.stats = res.Rows, res.Stats
		}
		sp.end()
	} else {
		rows, err = r.stream(&q, sql, tr, root, qid)
	}
	q.ms = float64(time.Since(start).Nanoseconds()) / 1e6
	root.end()

	if err != nil {
		// A wire session is unusable after a mid-stream error.
		if r.client != nil {
			r.client.Close()
			r.client = nil
			_ = r.connect() // a failed reconnect fails the next query too
		}
	} else {
		var d digester
		for _, t := range rows {
			d.add(t)
		}
		q.ok = d.finish().equal(r.want[stmt])
	}
	root.count("ok", b2f(q.ok))
	root.count("rows", float64(len(rows)))
	root.count("latency_ms", q.ms)
	root.count("cvdt_bytes", float64(q.stats.CVDT))
	root.count("cvda_bytes", float64(q.stats.CVDA))
	root.count("code_bytes", float64(q.stats.CodeBytesShipped))
	root.count("classes_shipped", float64(q.stats.CodeClassesShipped))
	root.count("cache_hits", float64(q.stats.CacheHits))
	root.count("plan_ms", q.stats.PlanMS)
	root.count("deploy_ms", q.stats.DeployMS)
	root.count("db_ms", q.stats.DBMS)
	root.count("cpu_ms", q.stats.CPUMS)
	root.count("net_ms", q.stats.NetMS)
	root.count("join_ms", q.stats.JoinMS)
	return q
}

// stream runs one statement through the wire client: time to first row,
// drain, then the stats trailer.
func (r *runner) stream(q *qres, sql string, tr *tracer, root *spanRef, qid string) ([]mocha.Tuple, error) {
	if r.client == nil {
		return nil, fmt.Errorf("no client connection")
	}
	start := time.Now()
	sp := tr.begin("client.ttfr", root, qid)
	rs, err := r.client.Query(sql)
	var first mocha.Tuple
	if err == nil {
		first, err = rs.Next()
	}
	sp.end()
	if err != nil {
		return nil, err
	}
	q.ttfrMS = float64(time.Since(start).Nanoseconds()) / 1e6

	sp = tr.begin("client.drain", root, qid)
	var rows []mocha.Tuple
	for t := first; t != nil; {
		rows = append(rows, t)
		if t, err = rs.Next(); err != nil {
			break
		}
	}
	sp.end()
	if err != nil {
		return nil, err
	}

	sp = tr.begin("client.stats", root, qid)
	st, err := rs.Stats()
	sp.end()
	if err != nil {
		return nil, err
	}
	q.stats = *st
	return rows, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// measurement is a run of whole passes.
type measurement struct {
	passes  int
	elapsed time.Duration
	res     []qres
}

func (m *measurement) add(pass []qres) {
	m.passes++
	m.res = append(m.res, pass...)
}

func (m *measurement) failed() int {
	var n int
	for _, q := range m.res {
		if !q.ok {
			n++
		}
	}
	return n
}

// measure runs whole passes until the window closes, and at least
// minPasses of them.
func (r *runner) measure(window time.Duration, minPasses int) *measurement {
	m := &measurement{}
	start := time.Now()
	for m.passes < minPasses || time.Since(start) < window {
		m.add(r.pass(nil, nil, m.passes))
	}
	m.elapsed = time.Since(start)
	return m
}

// latencies returns the latency samples of the correct queries, per
// statement.
func (m *measurement) latencies() [6][]float64 {
	var by [6][]float64
	for _, q := range m.res {
		if q.ok {
			by[q.stmt] = append(by[q.stmt], q.ms)
		}
	}
	return by
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailP90Ratio is the p90, over all samples, of latency divided by the
// own statement's median: a mix-independent jitter/GC/stall signal. It
// is taken once over a run's pooled samples, at least 20 per statement
// (minPasses), so at least 12 lie beyond the p90.
func tailP90Ratio(by [6][]float64) float64 {
	var ratios []float64
	for _, xs := range by {
		med := median(xs)
		for _, x := range xs {
			ratios = append(ratios, x/med)
		}
	}
	return quantile(ratios, 0.9)
}

// cvdt is the sum of QueryStats.CVDT over the run; with one client the
// per-pass sum repeats exactly.
func (m *measurement) cvdt() int64 {
	var sum int64
	for _, q := range m.res {
		sum += q.stats.CVDT
	}
	return sum
}

// peakRSSMB is the process's ru_maxrss (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// statementMedians is the median client-observed latency of each
// statement (send SQL -> last row + stats), as client.qN_p50_ms.
func statementMedians(m *measurement) map[string]float64 {
	out := make(map[string]float64, 6)
	for i, xs := range m.latencies() {
		out["client."+queryLabels[i]+"_p50_ms"] = median(xs)
	}
	return out
}

// procSample is a point-in-time reading of process-level counters.
type procSample struct {
	cpu     time.Duration
	alloc   uint64
	gcPause uint64
	metrics map[string]int64
}

func (r *runner) sample() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU reading on failure
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gcPause: ms.PauseTotalNs,
		metrics: r.cl.Metrics().Snapshot(),
	}
}

// groupB accumulates the in-workload counts over the traced passes.
type groupB struct {
	passes  int
	cpu     time.Duration
	alloc   uint64
	gcPause uint64
	metrics map[string]int64 // summed snapshot deltas
	res     []qres
}

func (g *groupB) add(before, after procSample, pass []qres) {
	g.passes++
	g.cpu += after.cpu - before.cpu
	g.alloc += after.alloc - before.alloc
	g.gcPause += after.gcPause - before.gcPause
	if g.metrics == nil {
		g.metrics = make(map[string]int64)
	}
	for k, v := range after.metrics {
		g.metrics[k] += v - before.metrics[k]
	}
	g.res = append(g.res, pass...)
}

// tracedPasses runs pairs of one untraced and one traced pass under a
// client.session span, sampling the process and the cluster's metrics
// registry around each traced pass.
func (r *runner) tracedPasses(tr *tracer, pairs int) (untraced, traced *measurement, gb *groupB) {
	untraced, traced, gb = &measurement{}, &measurement{}, &groupB{}
	session := tr.begin("client.session", nil, "")
	session.count("connect_us", r.connectUS)
	for i := 0; i < pairs; i++ {
		untraced.add(r.pass(nil, nil, i))
		before := r.sample()
		pass := r.pass(tr, session, i)
		gb.add(before, r.sample(), pass)
		traced.add(pass)
	}
	session.end()
	return untraced, traced, gb
}

// metricsOut computes the group B per-layer metrics. highWater is the
// cluster's exec_mem_high_water_bytes gauge (a maximum, not a delta).
func (g *groupB) metricsOut(r *runner, highWater int64) map[string]float64 {
	n := float64(g.passes)
	var plan, deploy, db, cpu, net, join, ttfr, lat float64
	var cvda, code, hits, shipped int64
	var cvdt [6]int64
	for _, q := range g.res {
		cvdt[q.stmt] += q.stats.CVDT
		plan += q.stats.PlanMS
		deploy += q.stats.DeployMS
		db += q.stats.DBMS
		cpu += q.stats.CPUMS
		net += q.stats.NetMS
		join += q.stats.JoinMS
		cvda += q.stats.CVDA
		code += int64(q.stats.CodeBytesShipped)
		hits += int64(q.stats.CacheHits)
		shipped += int64(q.stats.CodeClassesShipped)
		if q.ok {
			ttfr += q.ttfrMS
			lat += q.ms
		}
	}
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	out := map[string]float64{
		"qpc.plan_ms":                plan / n,
		"qpc.deploy_ms":              deploy / n,
		"qpc.db_ms":                  db / n,
		"qpc.cpu_ms":                 cpu / n,
		"qpc.net_ms":                 net / n,
		"qpc.join_ms":                join / n,
		"qpc.cvda_bytes_per_pass":    float64(cvda) / n,
		"qpc.code_bytes_per_pass":    float64(code) / n,
		"dap.code_cache_hit_share":   share(float64(hits), float64(hits+shipped)),
		"netsim.dials_per_pass":      float64(g.metrics[obs.MNetsimDials]) / n,
		"netsim.bytes_per_pass":      float64(g.metrics[obs.MNetsimBytesSent]+g.metrics[obs.MNetsimBytesRecv]) / n,
		"exec.spill_events_per_pass": float64(g.metrics[obs.MExecSpillEvents]) / n,
		"exec.spill_bytes_per_pass":  float64(g.metrics[obs.MExecSpillBytes]) / n,
		"exec.mem_high_water_bytes":  float64(highWater),
		"vm.fastpath_runs_per_pass":  float64(g.metrics[obs.MVMFastpathRuns]) / n,
		"client.connect_us":          r.connectUS,
		"client.ttfr_share":          share(ttfr, lat),
		"proc.cpu_ms_per_pass":       float64(g.cpu.Nanoseconds()) / 1e6 / n,
		"proc.alloc_mb_per_pass":     float64(g.alloc) / (1 << 20) / n,
		"proc.gc_pause_ms_per_pass":  float64(g.gcPause) / 1e6 / n,
	}
	for i, q := range queryLabels {
		out["qpc.cvdt_bytes_"+q] = float64(cvdt[i]) / n
	}
	return out
}

// traceOverheadPct is the median, over the six statements, of the
// relative difference between a statement's traced and untraced median
// latency.
func traceOverheadPct(untraced, traced *measurement) float64 {
	u, t := untraced.latencies(), traced.latencies()
	var diffs []float64
	for i := range u {
		if len(u[i]) > 0 && len(t[i]) > 0 {
			diffs = append(diffs, 100*(median(t[i])-median(u[i]))/median(u[i]))
		}
	}
	if len(diffs) == 0 {
		return 0
	}
	return median(diffs)
}
