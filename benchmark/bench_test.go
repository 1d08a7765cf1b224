package main

import (
	"math"
	"os"
	"sort"
	"testing"
)

// smokeScale keeps the smoke test fast; the generator's minimum row
// counts still give every statement a non-empty result.
const smokeScale = 0.02

// TestInventory checks the name inventory against the benchmark
// contract's limits and BENCHMARK.json against the inventory.
func TestInventory(t *testing.T) {
	if err := checkInventory(); err != nil {
		t.Fatal(err)
	}
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from inventory.go; run `benchmark manifest -write` from the repository root")
	}
	for _, m := range perLayer {
		if m.Group != "A" && m.Group != "B" {
			t.Errorf("%s: group %q", m.Name, m.Group)
		}
		if m.Moves == "" || m.On == "" {
			t.Errorf("%s: no end-to-end metric or workload it should move", m.Name)
		}
	}
}

// smokeRun is one traced run of a workload at smoke scale: 2 passes (one
// untraced, one traced) and, optionally, every driver for one iteration.
type smokeRun struct {
	e2e, layers map[string]float64
	failed      int
	spans       []*span
}

func smoke(t *testing.T, w workloadDef, withDrivers bool) smokeRun {
	t.Helper()
	r, err := setUp(w, 42, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	tr := newTracer()
	untraced, traced, gb := r.tracedPasses(tr, 1)
	all := &measurement{passes: 2, elapsed: 1, res: append(untraced.res, traced.res...)}
	// newResult inside mergeSlices fails on a declared-but-unemitted or
	// emitted-but-undeclared end-to-end metric.
	res, err := mergeSlices([]*sliceReport{all.report(1)})
	if err != nil {
		t.Fatal(err)
	}
	out := smokeRun{
		e2e:    make(map[string]float64),
		layers: gb.metricsOut(r, 0),
		failed: all.failed(),
	}
	for k, v := range res.Metrics {
		out.e2e[k] = v.Value
	}
	out.layers["obs.trace_overhead_pct"] = traceOverheadPct(untraced, traced)
	for k, v := range statementMedians(all) {
		out.layers[k] = v
	}
	out.layers["proc.peak_rss_mb"] = peakRSSMB()
	if withDrivers {
		dm, err := runDrivers(&driverCtx{ds: r.ds, tr: tr})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range dm {
			out.layers[k] = v
		}
	}
	out.spans = tr.spans
	return out
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, declared, emitted []string) {
	t.Helper()
	sort.Strings(declared)
	have := map[string]bool{}
	for _, n := range emitted {
		have[n] = true
	}
	for _, n := range declared {
		if !have[n] {
			t.Errorf("%s metric %s is declared but not emitted", what, n)
		}
		delete(have, n)
	}
	for n := range have {
		t.Errorf("%s metric %s is emitted but not declared", what, n)
	}
}

// TestSmoke runs every workload for 2 passes at smoke scale, and every
// driver for one iteration: nothing fails, exactly the declared metrics
// are emitted, spans nest as documented, and the exact counts repeat on
// a second run with the same seed.
func TestSmoke(t *testing.T) {
	for i, w := range workloads {
		withDrivers := i == 0 // the drivers do not depend on the workload
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			a := smoke(t, w, withDrivers)
			if a.failed != 0 {
				t.Fatalf("failed_share = %d/12, want 0", a.failed)
			}
			var e2e []string
			for _, m := range endToEnd {
				e2e = append(e2e, m.Name)
			}
			sameNames(t, "end-to-end", e2e, keys(a.e2e))
			if withDrivers {
				sameNames(t, "per-layer", layerNames(""), keys(a.layers))
			} else {
				sameNames(t, "group B", layerNames("B"), keys(a.layers))
			}
			for _, share := range childCoverage(a.spans, "client.query") {
				if share < 0.95 {
					t.Errorf("a client.query span's children cover %.3f of it, want >= 0.95", share)
				}
			}
			if spilled := a.layers["exec.spill_events_per_pass"] > 0; spilled != (w.MemBudget > 0) {
				t.Errorf("exec.spill_events_per_pass = %v with budget %d", a.layers["exec.spill_events_per_pass"], w.MemBudget)
			}

			// The volume and the dial count are exact for a seed. The spill
			// counts are not pinned: two concurrent hash-join builds race
			// for the shared 48 KiB pool, so which side spills can differ
			// between runs on a loaded machine.
			b := smoke(t, w, false)
			if x, y := a.e2e["cvdt_bytes_per_pass"], b.e2e["cvdt_bytes_per_pass"]; x != y {
				t.Errorf("cvdt_bytes_per_pass: %v then %v with the same seed", x, y)
			}
			if x, y := a.layers["netsim.dials_per_pass"], b.layers["netsim.dials_per_pass"]; x != y {
				t.Errorf("netsim.dials_per_pass: %v then %v with the same seed", x, y)
			}
		})
	}
}

// TestOracleCatchesWrongRows corrupts one expected row of Q1: the next
// Q1 must count as failed, and an untouched statement must still pass.
func TestOracleCatchesWrongRows(t *testing.T) {
	w, _ := workloadByName("fast_dataship")
	r, err := setUp(w, 42, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	r.want[0][0] ^= 1
	if q := r.query(0, nil, nil, ""); q.ok {
		t.Error("Q1 passed against a corrupted expected row")
	}
	if q := r.query(1, nil, nil, ""); !q.ok {
		t.Error("Q2 failed although its expected rows are intact")
	}
	m := &measurement{}
	m.add(r.pass(nil, nil, 0))
	if m.failed() != 1 {
		t.Errorf("a pass with one corrupted statement counted %d failures, want 1", m.failed())
	}
}

// TestPassFloor: a window that is already closed still runs the floor.
func TestPassFloor(t *testing.T) {
	w, _ := workloadByName("fast_dataship")
	r, err := setUp(w, 42, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if m := r.measure(0, 3); m.passes != 3 || len(m.res) != 18 {
		t.Errorf("measure(0, 3) ran %d passes, %d queries; want 3, 18", m.passes, len(m.res))
	}
}

// TestTailPooledOverSlices: the tail is one p90 over the slices' pooled
// ratios against the pooled statement median, not a median of per-slice
// p90s.
func TestTailPooledOverSlices(t *testing.T) {
	slice := func(ms float64) *sliceReport {
		rep := &sliceReport{SetupS: 1, ElapsedS: 1, Passes: 5, Attempted: 30}
		for i := range rep.LatMS {
			rep.LatMS[i] = []float64{ms, ms, ms, ms, ms}
		}
		return rep
	}
	// Three steady slices and one twice as slow: every slice's own p90
	// ratio is 1, the pooled one sees the slow quarter.
	res, err := mergeSlices([]*sliceReport{slice(10), slice(10), slice(20), slice(10)})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["tail_p90_ratio"].Value; got != 2 {
		t.Errorf("tail_p90_ratio = %v, want 2", got)
	}
	if res.Attempted != 120 {
		t.Errorf("attempted = %d, want 120", res.Attempted)
	}
}

func TestCrossover(t *testing.T) {
	set := func(tCode, tData []float64, bCode, bData float64) *runSet {
		return &runSet{samples: map[string]map[string][]float64{
			codeSide: {"client.q1_p50_ms": tCode, "qpc.cvdt_bytes_q1": {bCode}},
			dataSide: {"client.q1_p50_ms": tData, "qpc.cvdt_bytes_q1": {bData}},
		}}
	}
	// 1 MB saved for 80 ms: 8e6 bit / 0.08 s = 100 Mbit/s.
	if v, note := set([]float64{90, 91}, []float64{10, 11}, 1e6, 2e6).crossover(0); note != "" || math.Abs(v-100) > 1e-9 {
		t.Errorf("crossover = %v %q, want 100", v, note)
	}
	if v, note := set([]float64{90}, []float64{10}, 2e6, 2e6).crossover(0); note != "" || v != 0 {
		t.Errorf("no bytes saved: crossover = %v %q, want 0", v, note)
	}
	if _, note := set([]float64{12, 9}, []float64{10, 11}, 1e6, 2e6).crossover(0); note == "" {
		t.Error("overlapping timings: want an unresolved note, got a figure")
	}
	if _, note := set([]float64{12}, []float64{10}, 1e6, 2e6).crossover(1); note == "" {
		t.Error("no inputs for q2: want a note, got a figure")
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"flat", []float64{100, 102, 99, 101, 100}, lower, vWithin},
		{"slower latency", []float64{120, 121, 119, 122, 120}, lower, vRegressed},
		{"faster latency", []float64{80, 81, 79, 82, 80}, lower, vBetter},
		{"lower throughput", []float64{80, 81, 79, 82, 80}, higher, vRegressed},
		{"higher throughput", []float64{120, 121, 119, 122, 120}, higher, vBetter},
		{"every run better, inside the bound", []float64{97, 98, 98.5, 97.5, 98}, lower, vBetter},
		{"spread wider than the bound", []float64{80, 125, 100, 70, 130}, lower, vUnresolved},
	} {
		if got := compareMetric(base, tc.b, tc.better, 0.10).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// layerNames returns the declared per-layer metric names of one group
// ("" = both).
func layerNames(group string) []string {
	var out []string
	for _, m := range perLayer {
		if group == "" || m.Group == group {
			out = append(out, m.Name)
		}
	}
	return out
}

// childCoverage returns, for every span named name, the share of its
// duration covered by the union of its direct children.
func childCoverage(spans []*span, name string) []float64 {
	kids := make(map[int][]*span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		dur := s.EndUS - s.StartUS
		if dur <= 0 {
			out = append(out, 1)
			continue
		}
		// Children of a span here never overlap (one client, sequential
		// phases), so their durations add.
		var covered int64
		for _, k := range kids[s.ID] {
			covered += k.EndUS - k.StartUS
		}
		out = append(out, float64(covered)/float64(dur))
	}
	return out
}

// TestIQRShareMatchesPython pins iqrShare to what Python's
// statistics.quantiles(xs, n=4) gives for the same ten values.
func TestIQRShareMatchesPython(t *testing.T) {
	xs := []float64{6.59, 6.72, 6.99, 6.67, 6.87, 6.69, 7.01, 6.54, 6.84, 6.77}
	// quantiles -> [6.65, 6.745, 6.9], median 6.745
	if got, want := iqrShare(xs), (6.9-6.65)/6.745; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}
