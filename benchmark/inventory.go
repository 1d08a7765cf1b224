package main

import (
	"fmt"
	"regexp"
	"strings"

	"mocha/pkg/mocha"
)

// This file is the single name inventory of the benchmark: every
// workload, every end-to-end metric and every per-layer metric is
// declared here and nowhere else. BENCHMARK.json is generated from it
// (`benchmark manifest -write`) and checked against it by the tests; the
// run loop and the drivers may only emit names declared here.

// runSeconds is the measured window of one contract run
// (BENCHMARK.json "run_seconds"). README.md, "Sizing", derives it from
// the driver's total time cap.
const runSeconds = 16

// benchCommand is how the driver starts one run from the checkout root.
var benchCommand = []string{"bash", "benchmark/run.sh"}

// benchPaths are the directories that hold the benchmark and nothing else.
var benchPaths = []string{"benchmark"}

const (
	lower  = "lower"
	higher = "higher"
)

// workloadDef is one link/strategy regime the Sequoia mix runs under.
type workloadDef struct {
	Name string
	// Why is the one-line rationale copied into BENCHMARK.json.
	Why string
	// Shaped selects the paper's 10 Mbps / 300 µs link; false = unshaped.
	Shaped   bool
	Strategy mocha.Strategy
	// MemBudget > 0 governs the QPC and every DAP (spilling operators).
	MemBudget int64
	// Embedded issues queries through Cluster.Execute (measured at the
	// QPC, as the paper did) instead of the wire client.
	Embedded bool
}

// spillBudget is the budget TestDifferentialSpillLadder pins for Q1–Q6:
// small enough that joins and aggregates spill, larger than any record.
const spillBudget = 48 << 10

var workloads = []workloadDef{
	{
		Name:   "lan10_auto",
		Why:    "paper testbed: 10 Mbps/300us link, auto placement, measured at the QPC; transfer sleeps, CVDT and deploy round trips decide it, codec/scan speed should not",
		Shaped: true, Strategy: mocha.StrategyAuto, Embedded: true,
	},
	{
		Name:     "fast_auto",
		Why:      "same optimizer on an unshaped link via the wire client; auto still ships code as at 10 Mbps, so a link-calibrated cost function must win here",
		Strategy: mocha.StrategyAuto,
	},
	{
		Name:     "fast_codeship",
		Why:      "unshaped link, forced code shipping: the MVM does nearly all the work, netsim and the batch codec almost none; the MVM rewrite shows here",
		Strategy: mocha.StrategyCodeShip,
	},
	{
		Name:     "fast_dataship",
		Why:      "unshaped link, forced data shipping: no MVM; storage scan, tuple/batch codec, exec operators and fixed per-query control plane do everything",
		Strategy: mocha.StrategyDataShip,
	},
	{
		Name:     "spill_dataship",
		Why:      "fast_dataship under a 48 KiB query-memory budget: the same join/agg operators on their spill path, read side by side with the in-memory run",
		Strategy: mocha.StrategyDataShip, MemBudget: spillBudget,
	},
}

// e2eDef is one end-to-end metric: what a user of the system sees.
type e2eDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression. README.md,
	// "Bounds", records the measured spreads they were derived from.
	Bound float64
}

var endToEnd = []e2eDef{
	{"setup_s", "s", lower, 0.25},             // data generation + oracle + cluster + connect + 2 warm-up passes; one set-up per slice
	{"qps", "1/s", higher, 0.25},              // verified queries / measured window
	{"tail_p90_ratio", "ratio", lower, 0.25},  // p90 over all samples of latency / own-statement median: jitter, GC, stalls
	{"cvdt_bytes_per_pass", "B", lower, 0.05}, // sum of QueryStats.CVDT over one pass: the paper's transmitted volume
}

// layerDef is one per-layer metric. Group A metrics come from direct
// timed loops over a layer's public functions (drivers*.go); group B
// metrics are counts read from what the program already returns while a
// workload runs traced.
type layerDef struct {
	Name, Unit, Better string
	Group              string // "A" or "B"
	// Moves / On / NotOn state, before measuring, what the layer metric
	// should move, on which workload, and where the prediction is no
	// change. Moves names the end-to-end metric, or the statement
	// medians (client.qN_p50_ms) through which the workload's qps moves.
	Moves, On, NotOn string
}

// sequoiaOps are the operators of the Sequoia mix, in ops.<op>_* order.
var sequoiaOps = []struct{ Key, Name, Moves string }{
	{"totalarea", "TotalArea", "client.q1_p50_ms"},
	{"totalperimeter", "TotalPerimeter", "client.q1_p50_ms"},
	{"clip", "Clip", "client.q2_p50_ms"},
	{"incrres", "IncrRes", "client.q3_p50_ms"},
	{"numvertices", "NumVertices", "client.q4_p50_ms"},
	{"totallength", "TotalLength", "client.q4_p50_ms"},
	{"avgenergy", "AvgEnergy", "client.q5_p50_ms client.q6_p50_ms"},
	{"diff", "Diff", "client.q5_p50_ms client.q6_p50_ms"},
}

var queryLabels = []string{"q1", "q2", "q3", "q4", "q5", "q6"}

var perLayer = buildPerLayer()

func buildPerLayer() []layerDef {
	var out []layerDef
	a := func(name, unit, better, moves, on, notOn string) {
		out = append(out, layerDef{name, unit, better, "A", moves, on, notOn})
	}
	b := func(name, unit, better, moves, on string) {
		out = append(out, layerDef{name, unit, better, "B", moves, on, ""})
	}
	const allQ = "client.q1..q6_p50_ms"

	// types: Tuple.AppendTo / DecodeTuple.
	a("types.tuple_encode_small_mb_s", "MB/s", higher, "client.q1_p50_ms client.q4_p50_ms", "fast_dataship", "fast_codeship")
	a("types.tuple_decode_small_mb_s", "MB/s", higher, "client.q1_p50_ms client.q4_p50_ms", "fast_dataship", "fast_codeship")
	a("types.tuple_decode_raster_mb_s", "MB/s", higher, "client.q2_p50_ms client.q3_p50_ms", "fast_dataship", "fast_codeship")

	// storage: heap scans through the buffer pool, B+tree point lookups.
	const stOn, stNot = "fast_dataship spill_dataship", "lan10_auto"
	a("storage.scan_graphs_rows_s", "rows/s", higher, "client.q1_p50_ms client.q4_p50_ms", stOn, stNot)
	a("storage.scan_graphs_mb_s", "MB/s", higher, "client.q1_p50_ms client.q4_p50_ms", stOn, stNot)
	a("storage.scan_rasters_mb_s", "MB/s", higher, "client.q2_p50_ms client.q3_p50_ms", stOn, stNot)
	a("storage.scan_graphs_smallpool_rows_s", "rows/s", higher, "client.q1_p50_ms client.q4_p50_ms", stOn, stNot)
	a("storage.pool_hit_share", "share", higher, "client.q1_p50_ms client.q4_p50_ms", stOn, stNot)
	a("storage.pool_hit_share_smallpool", "share", higher, "client.q1_p50_ms client.q4_p50_ms", stOn, stNot)
	a("storage.btree_search_ns", "ns", lower, "client.q1_p50_ms client.q4_p50_ms", stOn, stNot)

	// wire: batch codec, batch stream, raw framing.
	const wMoves = "client.q1..q4_p50_ms qps"
	a("wire.batch_encode_mb_s", "MB/s", higher, wMoves, "fast_dataship", "fast_codeship")
	a("wire.batch_decode_mb_s", "MB/s", higher, wMoves, "fast_dataship", "fast_codeship")
	a("wire.batch_decode_raster_mb_s", "MB/s", higher, wMoves, "fast_dataship", "fast_codeship")
	a("wire.batch_decode_allocs_per_tuple", "allocs/tuple", lower, wMoves, "fast_dataship", "fast_codeship")
	a("wire.batch_stream_mb_s", "MB/s", higher, wMoves, "fast_dataship", "fast_codeship")
	a("wire.frame_stream_mb_s", "MB/s", higher, wMoves, "fast_dataship", "fast_codeship")
	a("wire.frame_roundtrip_us", "us", lower, wMoves, "fast_dataship", "fast_codeship")

	// netsim: how much of the modelled link the shaper delivers.
	a("netsim.shaped_efficiency_10mbps", "share", higher, allQ, "lan10_auto", "fast_*")
	a("netsim.dial_us", "us", lower, allQ, "lan10_auto", "fast_*")

	// vm: interpreter loops and the code-cache-miss path.
	const vmOn, vmNot = "fast_codeship fast_auto", "fast_dataship spill_dataship"
	a("vm.loop_ns_per_instr", "ns", lower, allQ+" qps", vmOn, vmNot)
	a("vm.bytescan_mb_s", "MB/s", higher, allQ+" qps", vmOn, vmNot)
	a("vm.call_ns", "ns", lower, allQ+" qps", vmOn, vmNot)
	a("vm.verify_us", "us", lower, allQ+" qps", vmOn, vmNot)
	a("vm.decode_verify_us", "us", lower, allQ+" qps", vmOn, vmNot)

	// ops: each Sequoia operator, shipped (MVM) and native, on one row.
	for _, op := range sequoiaOps {
		a("ops."+op.Key+"_vm_ns", "ns", lower, op.Moves, "fast_codeship", "fast_dataship")
		a("ops."+op.Key+"_native_ns", "ns", lower, op.Moves, "fast_dataship", "fast_codeship")
	}
	a("ops.vm_over_native_geomean", "ratio", lower, allQ, "fast_codeship", "fast_dataship")

	// sqlparser / core / catalog: the fixed per-query front end.
	const feMoves = "client.q2_p50_ms client.q5_p50_ms client.q6_p50_ms"
	a("sqlparser.parse_us", "us", lower, feMoves, "fast_dataship", "lan10_auto")
	a("core.bind_us", "us", lower, feMoves, "fast_dataship", "lan10_auto")
	for _, q := range queryLabels {
		a("core.plan_us_"+q, "us", lower, feMoves, "fast_dataship", "lan10_auto")
	}
	a("catalog.resolve_release_ns", "ns", lower, feMoves, "fast_dataship", "lan10_auto")

	// exec: every operator fed by NewSource and drained by Run.
	const exMoves = "client.q1_p50_ms client.q5_p50_ms client.q6_p50_ms qps"
	for _, op := range []string{"filter", "project", "hashjoin", "hashagg", "sort", "topk", "gather", "prefetch"} {
		a("exec."+op+"_rows_s", "rows/s", higher, exMoves, "fast_dataship", "fast_codeship")
	}
	a("exec.hashjoin_spill_rows_s", "rows/s", higher, exMoves, "spill_dataship", "fast_codeship")
	a("exec.hashagg_spill_rows_s", "rows/s", higher, exMoves, "spill_dataship", "fast_codeship")
	a("exec.governor_acquire_ns", "ns", lower, exMoves, "spill_dataship", "fast_codeship")

	// qpc / dap: planning front door and per-fragment session set-up.
	const cpOn, cpNot = "lan10_auto fast_dataship", "client.q3_p50_ms anywhere"
	a("qpc.prepare_us", "us", lower, "client.q5_p50_ms client.q6_p50_ms", cpOn, cpNot)
	a("qpc.setup_roundtrips_per_fragment", "count", lower, "client.q5_p50_ms client.q6_p50_ms", cpOn, cpNot)
	a("qpc.setup_bytes_per_fragment", "B", lower, "client.q5_p50_ms client.q6_p50_ms", cpOn, cpNot)
	a("qpc.setup_us_unshaped", "us", lower, "client.q5_p50_ms client.q6_p50_ms", cpOn, cpNot)

	// Group B: in-workload counts of the traced passes. The *_ms sums
	// are the QPC's self-reported phases; they are known not to add up
	// (ROADMAP aim 4) and are a baseline for that fix, not a breakdown.
	for _, p := range []string{"plan", "deploy", "db", "cpu", "net", "join"} {
		b("qpc."+p+"_ms", "ms", lower, allQ, "every workload")
	}
	b("qpc.cvda_bytes_per_pass", "B", lower, allQ, "every workload")
	// cvdt_bytes_per_pass by statement: exact counts, and with
	// client.qN_p50_ms the inputs of core.crossover_mbps_qN.
	for _, q := range queryLabels {
		b("qpc.cvdt_bytes_"+q, "B", lower, "cvdt_bytes_per_pass client."+q+"_p50_ms", "lan10_auto fast_auto")
	}
	b("qpc.code_bytes_per_pass", "B", lower, "client.q5_p50_ms cvdt_bytes_per_pass", "lan10_auto")
	b("dap.code_cache_hit_share", "share", higher, "client.q5_p50_ms client.q6_p50_ms", "lan10_auto fast_codeship")
	b("netsim.dials_per_pass", "count", lower, allQ, "lan10_auto")
	b("netsim.bytes_per_pass", "B", lower, allQ+" cvdt_bytes_per_pass", "lan10_auto")
	b("exec.spill_events_per_pass", "count", lower, "qps", "spill_dataship")
	b("exec.spill_bytes_per_pass", "B", lower, "qps", "spill_dataship")
	b("exec.mem_high_water_bytes", "B", lower, "qps", "spill_dataship")
	b("vm.fastpath_runs_per_pass", "count", lower, allQ, "fast_codeship fast_auto")
	b("client.connect_us", "us", lower, "setup_s", "fast_*")
	b("client.ttfr_share", "share", lower, allQ, "fast_*")
	b("proc.cpu_ms_per_pass", "ms", lower, "qps", "every workload")
	b("proc.alloc_mb_per_pass", "MB", lower, "qps", "every workload")
	b("proc.gc_pause_ms_per_pass", "ms", lower, "qps", "every workload")
	b("obs.trace_overhead_pct", "%", lower, "none: harness self-check", "every workload")
	// Demoted from the end-to-end section: on a small shared machine
	// these do not repeat within a bound of 0.25 (README.md, "Demoted
	// metrics"). They keep their end-to-end definition.
	for _, q := range queryLabels {
		b("client."+q+"_p50_ms", "ms", lower, "qps", "every workload")
	}
	b("proc.peak_rss_mb", "MB", lower, "none: memory footprint", "every workload")
	return out
}

// derivedDef is a figure computed from the per-layer metrics of two
// workloads. No single run can report it, so it is not in
// BENCHMARK.json; `all` and `compare -layers` print it.
type derivedDef struct {
	Name, Unit, Better string
	// Moves / On / NotOn as in layerDef.
	Moves, On, NotOn string
}

// core.crossover_mbps_qN is the link speed below which code shipping
// beats data shipping for statement N (crossover.go): the ROADMAP's
// crossover figure, modelled. A faster MVM raises it, a faster codec
// lowers it.
var derived = buildDerived()

func buildDerived() []derivedDef {
	var out []derivedDef
	for _, q := range queryLabels {
		out = append(out, derivedDef{"core.crossover_mbps_" + q, "Mbit/s", higher,
			"client." + q + "_p50_ms", "fast_codeship fast_dataship", "lan10_auto"})
	}
	return out
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkInventory enforces the benchmark contract's limits on the
// inventory: counts, name and unit alphabets, uniqueness, bounds and the
// mandatory setup_s metric.
func checkInventory() error {
	if n := len(workloads); n < 2 || n > 8 {
		return fmt.Errorf("inventory: %d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		return fmt.Errorf("inventory: %d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		return fmt.Errorf("inventory: %d per-layer metrics, want 1..128", n)
	}
	if runSeconds < 1 || runSeconds > 60 {
		return fmt.Errorf("inventory: run_seconds %d outside 1..60", runSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("inventory: name %q outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			return fmt.Errorf("inventory: name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	metric := func(n, unit, better string) error {
		if err := name(n); err != nil {
			return err
		}
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("inventory: %s: unit %q outside [A-Za-z0-9_/%%.-]{1,16}", n, unit)
		}
		if better != lower && better != higher {
			return fmt.Errorf("inventory: %s: better=%q", n, better)
		}
		return nil
	}
	for _, w := range workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			return fmt.Errorf("inventory: workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var haveSetup bool
	for _, m := range endToEnd {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			return fmt.Errorf("inventory: %s: bound %g outside 0..0.25", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			haveSetup = m.Unit == "s" && m.Better == lower
		}
	}
	if !haveSetup {
		return fmt.Errorf("inventory: end-to-end metric setup_s (s, lower) is mandatory")
	}
	for _, m := range perLayer {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	for _, m := range derived {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	return nil
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
