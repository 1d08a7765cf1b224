package main

import (
	"flag"
	"fmt"
	"time"

	"mocha/internal/storage"
	"mocha/internal/types"
)

// Group A of the per-layer metrics: drivers. Each driver is a direct
// timed loop over one layer's public functions on the same generated
// data the workloads query, under a layer.<module>.<driver> span. A
// driver checks its own output (decoded what it encoded, shipped and
// native operators agree, …) and fails the run otherwise. The drivers
// run in a process of their own (`benchmark drivers`), so no workload's
// heap, caches or thread placement leaks into them.

// driver is one timed unit of a layer.
type driver struct {
	layer, name string
	// timed drivers run budgeted loops and are repeated every round; the
	// others have a fixed cost (one shaped megabyte, the session set-up's
	// query repetitions) and run once.
	timed bool
	run   func(c *driverCtx) (map[string]float64, error)
}

// drivers lists every group A driver, in layer order (bottom up).
func drivers() []driver {
	return []driver{
		{"types", "tuple_codec", true, driveTupleCodec},
		{"storage", "scan", true, driveStorageScan},
		{"storage", "btree", true, driveBTree},
		{"wire", "batch_codec", true, driveBatchCodec},
		{"wire", "batch_stream", true, driveBatchStream},
		{"wire", "frames", true, driveFrames},
		{"netsim", "shaper", false, driveShaper},
		{"netsim", "dial", true, driveDial},
		{"vm", "interpreter", true, driveInterpreter},
		{"vm", "load", true, driveProgramLoad},
		{"ops", "sequoia_ops", true, driveOps},
		{"core", "frontend", true, driveFrontend},
		{"exec", "operators", true, driveExecOperators},
		{"exec", "governor", true, driveGovernor},
		{"qpc", "prepare", true, drivePrepare},
		{"qpc", "session_setup", false, driveSessionSetup},
	}
}

// driverCtx is what a driver gets: the generated data and its budget.
type driverCtx struct {
	ds *dataset
	tr *tracer
	// budget is the time one timed loop may take in one round; 0 means
	// exactly one iteration, once (the smoke test).
	budget time.Duration

	// Rows of the generated tables, read once on first use.
	rows map[string][]types.Tuple
}

// The timed drivers run driverRounds times over, and every metric is
// the median over the rounds. The machine's speed moves between states
// that last seconds (README.md, "Sizing"), so a metric's samples repeat
// better spread over the whole driver phase than taken in one
// contiguous loop. Over the rounds a loop gets loopShare of the run's
// window: 56 loops make the phase ~0.6 windows plus the fixed drivers.
const (
	driverRounds = 5
	loopShare    = 0.01
)

// driversReport is what `benchmark drivers` prints: every group A metric
// and the layer.* spans they were measured under.
type driversReport struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []*span            `json:"spans"`
}

// cmdDrivers generates the seed's data and runs every driver over it.
func cmdDrivers(args []string) error {
	fs := flag.NewFlagSet("drivers", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "seed of the generated data")
	seconds := fs.Float64("seconds", runSeconds, "the run's window; a timed loop gets loopShare of it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := newDataset(*seed, defaultScale)
	if err != nil {
		return err
	}
	tr := newTracer()
	budget := time.Duration(*seconds * float64(time.Second) * loopShare / driverRounds)
	m, err := runDrivers(&driverCtx{ds: ds, tr: tr, budget: budget})
	if err != nil {
		return err
	}
	return printJSON(driversReport{Metrics: m, Spans: tr.spans})
}

// smoke reports whether the drivers run one iteration each.
func (c *driverCtx) smoke() bool { return c.budget == 0 }

// runDrivers runs the drivers, each under its span, and returns every
// group A metric as the median over the rounds that produced it.
func runDrivers(c *driverCtx) (map[string]float64, error) {
	rounds := driverRounds
	if c.smoke() {
		rounds = 1
	}
	samples := make(map[string][]float64)
	for round := 0; round < rounds; round++ {
		seen := make(map[string]bool)
		for _, d := range drivers() {
			if round > 0 && !d.timed {
				continue
			}
			sp := c.tr.begin("layer."+d.layer+"."+d.name, nil, "")
			m, err := d.run(c)
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("driver %s.%s: %w", d.layer, d.name, err)
			}
			for k, v := range m {
				if seen[k] {
					return nil, fmt.Errorf("driver %s.%s: metric %s emitted twice", d.layer, d.name, k)
				}
				seen[k] = true
				samples[k] = append(samples[k], v)
				sp.count(k, v)
			}
		}
	}
	out := make(map[string]float64, len(samples))
	for k, vs := range samples {
		out[k] = median(vs)
	}
	return out, nil
}

// loop calls fn until the loop budget is spent (at least once) and
// returns the iteration count and the elapsed time. Callers whose fn
// takes well under a microsecond batch several calls into one fn.
func (c *driverCtx) loop(fn func() error) (int, time.Duration, error) {
	start := time.Now()
	for n := 1; ; n++ {
		if err := fn(); err != nil {
			return n, time.Since(start), err
		}
		if el := time.Since(start); el >= c.budget {
			return n, el, nil
		}
	}
}

// table returns every row of a generated table of site i.
func (c *driverCtx) table(site int, name string) ([]types.Tuple, error) {
	if rows, ok := c.rows[name]; ok {
		return rows, nil
	}
	tbl, ok := c.ds.stores[site].Table(name)
	if !ok {
		return nil, fmt.Errorf("no generated table %s", name)
	}
	rows, err := scanAll(tbl)
	if err != nil {
		return nil, err
	}
	if c.rows == nil {
		c.rows = make(map[string][]types.Tuple)
	}
	c.rows[name] = rows
	return rows, nil
}

func scanAll(tbl *storage.Table) ([]types.Tuple, error) {
	it, err := tbl.Scan()
	if err != nil {
		return nil, err
	}
	var rows []types.Tuple
	for {
		t, _, err := it.Next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			return rows, nil
		}
		rows = append(rows, t)
	}
}

func wireBytes(rows []types.Tuple) int64 {
	var n int64
	for _, t := range rows {
		n += int64(t.WireSize())
	}
	return n
}

// mbPerS converts bytes moved over n iterations into MB/s (10^6 bytes).
func mbPerS(bytes int64, n int, el time.Duration) float64 {
	return float64(bytes) * float64(n) / 1e6 / el.Seconds()
}

func perS(items int64, n int, el time.Duration) float64 {
	return float64(items) * float64(n) / el.Seconds()
}

// nsPer is the time of one of the calls iterations made in el.
func nsPer(calls int64, el time.Duration) float64 {
	return float64(el.Nanoseconds()) / float64(calls)
}
