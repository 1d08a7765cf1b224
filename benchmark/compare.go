package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
)

// Verdicts of one metric x workload comparison.
const (
	vBetter     = "better"
	vWithin     = "within-bound"
	vRegressed  = "regressed"
	vUnresolved = "unresolved"
)

// comparison is one row of `benchmark compare`.
type comparison struct {
	workload, metric string
	medA, medB       float64
	// worse is the relative change of the median in the metric's bad
	// direction (negative = improved); spread the wider of the two
	// sides' interquartile range over its median.
	worse, spread, bound float64
	verdict              string
}

// iqrShare is the distance between the first and third quartile as a
// share of the median; 0 for fewer than two samples. The quartiles are
// those of Python's statistics.quantiles(xs, n=4), which the benchmark
// driver's acceptance check uses, so a spread printed here reads as the
// driver would read it.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(xs)
}

// compareMetric applies the rule of the choosing-metrics guide: a median
// worse by more than the bound is a regression; otherwise, when the
// run-to-run spread is wider than the bound, the pair is unresolved
// unless every run of B reads better than every run of A.
func compareMetric(a, b []float64, better string, bound float64) comparison {
	c := comparison{medA: median(a), medB: median(b), bound: bound}
	sign := 1.0
	if better == higher {
		sign = -1
	}
	c.worse = sign * (c.medB - c.medA) / c.medA
	c.spread = iqrShare(a)
	if s := iqrShare(b); s > c.spread {
		c.spread = s
	}
	allBetter := len(a) > 1 && len(b) > 1
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case c.worse > bound:
		c.verdict = vRegressed
	case allBetter || c.worse < -bound:
		c.verdict = vBetter
	case c.spread > bound:
		c.verdict = vUnresolved
	default:
		c.verdict = vWithin
	}
	return c
}

// compareSets compares every end-to-end metric of every workload both
// sets hold.
func compareSets(a, b *runSet) []comparison {
	var out []comparison
	for _, w := range workloads {
		for _, m := range endToEnd {
			xa, xb := a.samples[w.Name][m.Name], b.samples[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := compareMetric(xa, xb, m.Better, m.Bound)
			c.workload, c.metric = w.Name, m.Name
			out = append(out, c)
		}
	}
	return out
}

// cmdCompare prints, per end-to-end metric and workload, both medians,
// the change and the bound, and fails on any regression or on a higher
// failed share. A and B are result files or directories of them.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	layers := fs.Bool("layers", false, "also list per-layer metrics and derived figures (no bound, no verdict)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchmark compare [-layers] A B   (result files or directories of run-*.json)")
	}
	a, err := loadRunSet(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRunSet(fs.Arg(1))
	if err != nil {
		return err
	}
	var regressed, unresolved int
	fmt.Printf("%-15s %-22s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "worse%", "spread%", "bound%", "verdict")
	for _, c := range compareSets(a, b) {
		fmt.Printf("%-15s %-22s %14.4f %14.4f %+8.2f %8.2f %7.1f  %s\n",
			c.workload, c.metric, c.medA, c.medB, 100*c.worse, 100*c.spread, 100*c.bound, c.verdict)
		switch c.verdict {
		case vRegressed:
			regressed++
		case vUnresolved:
			unresolved++
		}
	}
	var failedUp int
	for _, w := range workloads {
		fa, fb := a.failedShare(w.Name), b.failedShare(w.Name)
		fmt.Printf("%-15s %-22s %14.6f %14.6f\n", w.Name, "failed_share", fa, fb)
		if fb > fa {
			failedUp++
		}
	}
	if *layers {
		for _, key := range append(workloadNames(), driversKey) {
			for _, m := range perLayer {
				xa, xb := a.samples[key][m.Name], b.samples[key][m.Name]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				ma, mb := median(xa), median(xb)
				change := 0.0
				if ma != 0 {
					change = 100 * (mb - ma) / ma
				}
				fmt.Printf("%-15s %-40s %16.4f %16.4f %+8.2f%% %s (%s is better)\n", key, m.Name, ma, mb, change, m.Unit, m.Better)
			}
		}
		fmt.Printf("derived from %s and %s\n", codeSide, dataSide)
		printDerived(os.Stdout, a, b)
	}
	fmt.Printf("%d regressed, %d unresolved, %d workloads with a higher failed_share\n", regressed, unresolved, failedUp)
	if regressed > 0 || failedUp > 0 {
		return fmt.Errorf("compare: %d regressed, %d workloads with a higher failed_share", regressed, failedUp)
	}
	return nil
}
