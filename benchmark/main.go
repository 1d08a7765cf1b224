// Command benchmark is the repository's layered performance benchmark:
// the six-statement Sequoia mix under five link/strategy regimes, one
// closed-loop client, every result checked against an oracle; plus a
// traced mode that adds per-layer drivers and benchmark-side spans.
// README.md in this directory is the manual.
//
// Contract mode (what BENCHMARK.json's command runs, once per workload):
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. Everything meant for
// people goes to standard error.
//
// Other modes: `benchmark all` (every workload, untraced then traced,
// each in its own child process), `benchmark compare A B`,
// `benchmark manifest [-write]`, and `benchmark drivers`, the child
// process a traced run measures the group A drivers in.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mocha/internal/obs"
)

// slices is how many child processes an untraced run is split into. Each
// slice sets up once and measures for 1/slices of the window; the run
// reports setup_s and qps as the median over the slices and takes the
// latency tail over the slices' pooled samples. Run-to-run scatter on a
// small shared machine is mostly per-process state (where the heap and
// the threads land) and machine weather slower than a window; medians
// over fresh processes roughly halve it (README.md, "Sizing"), which
// other estimators over one process's samples did not.
const slices = 4

// minPasses is the floor of an untraced run: 20 passes are 120 queries
// and 20 samples per statement, so the p90 of the pooled latency ratios
// has 12 samples beyond it. A slice whose share of the window closes
// earlier keeps going until it has run its share of the floor.
const minPasses = 20

// tracePairs is how many untraced/traced pass pairs a traced run makes.
const tracePairs = 5

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's one-line output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envInfo stamps a result with where it was measured.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Commit     string  `json:"commit"`
}

func newEnvInfo(seed int64) envInfo {
	return envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: seed, Scale: defaultScale, Commit: gitCommit(),
	}
}

// runOpts are the settings of one contract run.
type runOpts struct {
	workload workloadDef
	seed     int64
	seconds  float64
	traced   bool
	// slice marks one child process of an untraced run: set up once,
	// measure for the whole of seconds, print a sliceReport.
	slice bool
	// driversFile, when set, is a driversReport a traced run reuses
	// instead of measuring the drivers itself (`benchmark all`).
	driversFile string
}

func main() {
	if err := checkInventory(); err != nil {
		fatal(err)
	}
	cmd, args := cmdRun, os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "all":
			cmd, args = cmdAll, args[1:]
		case "compare":
			cmd, args = cmdCompare, args[1:]
		case "manifest":
			cmd, args = cmdManifest, args[1:]
		case "drivers":
			cmd, args = cmdDrivers, args[1:]
		}
	}
	if err := cmd(args); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// benchDir is the benchmark's own directory; run.sh starts the binary
// from the checkout root.
func benchDir() string { return benchPaths[0] }

// tracePath is where a traced run writes its spans.
func tracePath() string { return filepath.Join(benchDir(), "out", "trace.json") }

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 42, "seed of the generated data and the statement order")
	seconds := fs.Float64("seconds", runSeconds, "measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced")
	slice := fs.Bool("slice", false, "internal: run as one slice (child process) of an untraced run")
	driversFile := fs.String("drivers", "", "internal: reuse this `benchmark drivers` report in a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", *name, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	o := runOpts{
		workload: w, seed: *seed, seconds: *seconds,
		traced: *trace == 1, slice: *slice, driversFile: *driversFile,
	}
	if o.slice {
		rep, err := runSlice(o)
		if err != nil {
			return err
		}
		return printJSON(rep)
	}
	run := runUntraced
	if o.traced {
		run = runTraced
	}
	res, err := run(o)
	if err != nil {
		return err
	}
	printSummary(os.Stderr, w.Name, res)
	return printJSON(res)
}

// printJSON prints v as one line, the last of standard output.
func printJSON(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// sliceReport is what one slice of an untraced run hands its parent.
type sliceReport struct {
	SetupS    float64 `json:"setup_s"`
	ElapsedS  float64 `json:"elapsed_s"`
	Passes    int     `json:"passes"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	CVDT      int64   `json:"cvdt_bytes"`
	// LatMS are the latency samples of the verified queries, per statement.
	LatMS [6][]float64 `json:"lat_ms"`
}

// runUntraced is the end-to-end run: slices child processes one after
// the other, each a fresh set-up plus its share of the window with
// tracing off.
func runUntraced(o runOpts) (*result, error) {
	var parts []*sliceReport
	for i := 0; i < slices; i++ {
		var part sliceReport
		if err := runChild(&part, childArgs(o.workload.Name, o.seed, o.seconds/slices, 0, "--slice")...); err != nil {
			return nil, err
		}
		parts = append(parts, &part)
	}
	return mergeSlices(parts)
}

// runSlice sets up once and runs whole passes for the window, and for
// its share of the run's pass floor.
func runSlice(o runOpts) (*sliceReport, error) {
	start := time.Now()
	r, err := setUp(o.workload, o.seed, defaultScale)
	if err != nil {
		return nil, err
	}
	defer r.close()
	setupS := time.Since(start).Seconds()
	m := r.measure(time.Duration(o.seconds*float64(time.Second)), (minPasses+slices-1)/slices)
	return m.report(setupS), nil
}

func (m *measurement) report(setupS float64) *sliceReport {
	return &sliceReport{
		SetupS: setupS, ElapsedS: m.elapsed.Seconds(), Passes: m.passes,
		Attempted: len(m.res), Failed: m.failed(), CVDT: m.cvdt(), LatMS: m.latencies(),
	}
}

// mergeSlices computes the end-to-end metrics of a run from its slices.
// setup_s and qps are medians over the slices (fresh processes); the
// volume per pass and the latency tail are taken over all of them.
func mergeSlices(parts []*sliceReport) (*result, error) {
	var setups, qps []float64
	var pooled [6][]float64
	var passes, attempted, failed int
	var cvdt int64
	for _, p := range parts {
		setups = append(setups, p.SetupS)
		qps = append(qps, float64(p.Attempted-p.Failed)/p.ElapsedS)
		for i, xs := range p.LatMS {
			pooled[i] = append(pooled[i], xs...)
		}
		passes += p.Passes
		attempted += p.Attempted
		failed += p.Failed
		cvdt += p.CVDT
	}
	return newResult(attempted, failed, map[string]float64{
		"setup_s":             median(setups),
		"qps":                 median(qps),
		"tail_p90_ratio":      tailP90Ratio(pooled),
		"cvdt_bytes_per_pass": float64(cvdt) / float64(passes),
	}, e2eUnits())
}

// runTraced is the per-layer run: interleaved untraced and traced passes
// of the workload (group B counts, spans, tracing overhead), then the
// group A drivers, then the spans are written out.
func runTraced(o runOpts) (*result, error) {
	r, err := setUp(o.workload, o.seed, defaultScale)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	untraced, traced, gb := r.tracedPasses(tr, tracePairs)
	all := &measurement{
		passes: untraced.passes + traced.passes,
		res:    append(append([]qres(nil), untraced.res...), traced.res...),
	}

	// The gauge is read from a snapshot: the repository's obsmetrics linter
	// counts a Gauge(name) call here as a second registration.
	metrics := gb.metricsOut(r, r.cl.Metrics().Snapshot()[obs.MExecMemHighWaterBytes])
	metrics["obs.trace_overhead_pct"] = traceOverheadPct(untraced, traced)
	for k, v := range statementMedians(all) {
		metrics[k] = v
	}
	metrics["proc.peak_rss_mb"] = peakRSSMB()
	r.close()

	// The drivers do not depend on the workload and must not inherit its
	// process's heap and caches: they are measured in a child process of
	// their own, or taken from the report `benchmark all` made once.
	var dr driversReport
	if o.driversFile != "" {
		err = readJSON(o.driversFile, &dr)
	} else {
		err = runChild(&dr, driversArgs(o.seed, o.seconds)...)
	}
	if err != nil {
		return nil, err
	}
	for k, v := range dr.Metrics {
		metrics[k] = v
	}
	tr.adopt(dr.Spans)

	if err := tr.write(tracePath(), o.workload.Name, newEnvInfo(o.seed)); err != nil {
		return nil, err
	}
	return newResult(len(all.res), all.failed(), metrics, layerUnits())
}

func e2eUnits() map[string]string {
	out := make(map[string]string, len(endToEnd))
	for _, m := range endToEnd {
		out[m.Name] = m.Unit
	}
	return out
}

func layerUnits() map[string]string {
	out := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = m.Unit
	}
	return out
}

// newResult packages metrics for output, insisting that exactly the
// declared names were emitted and that every value is a finite number.
func newResult(attempted, failed int, values map[string]float64, units map[string]string) (*result, error) {
	res := &result{
		Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(values)),
	}
	res.Correct = res.Failed == 0
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			return nil, fmt.Errorf("declared metric %s was not emitted", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v (%d of %d queries failed)", name, v, res.Failed, res.Attempted)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	for name := range values {
		if _, ok := units[name]; !ok {
			return nil, fmt.Errorf("emitted metric %s is not declared in inventory.go", name)
		}
	}
	return res, nil
}

// printSummary lists every metric by name and unit for people.
func printSummary(w *os.File, workload string, res *result) {
	fmt.Fprintf(w, "workload %s: correct=%v attempted=%d failed=%d failed_share=%.4f\n",
		workload, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
