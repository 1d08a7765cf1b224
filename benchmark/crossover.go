package main

import (
	"fmt"
	"os"
)

// The crossover's two sides: the same statements on the same unshaped
// link, placed one way and the other.
const (
	codeSide = "fast_codeship"
	dataSide = "fast_dataship"
)

// crossover derives core.crossover_mbps_qN for statement stmt from the
// traced runs of a set: the bytes code shipping saves over the time it
// costs, both measured unshaped,
//
//	8 * (CVDT_dataship - CVDT_codeship) / (qN_p50_ms on fast_codeship - on fast_dataship)
//
// with every input the median over the set's runs. It is modelled, not
// timed on a shaped link. The figure is 0 when code shipping transmits
// no less, so never wins. There is no figure, and note says why, when
// the set lacks an input or when the time difference is not resolved:
// some run of fast_codeship was no slower than some run of
// fast_dataship.
func (s *runSet) crossover(stmt int) (mbps float64, note string) {
	q := queryLabels[stmt]
	tCode, tData := s.samples[codeSide]["client."+q+"_p50_ms"], s.samples[dataSide]["client."+q+"_p50_ms"]
	bCode, bData := s.samples[codeSide]["qpc.cvdt_bytes_"+q], s.samples[dataSide]["qpc.cvdt_bytes_"+q]
	if len(tCode) == 0 || len(tData) == 0 || len(bCode) == 0 || len(bData) == 0 {
		return 0, "no traced run of " + codeSide + " and " + dataSide
	}
	saved := median(bData) - median(bCode) // bytes
	if saved <= 0 {
		return 0, ""
	}
	for _, c := range tCode {
		for _, d := range tData {
			if c <= d {
				return 0, fmt.Sprintf("unresolved: a %s run (%.2f ms) was no slower than a %s run (%.2f ms)", codeSide, c, dataSide, d)
			}
		}
	}
	cost := median(tCode) - median(tData) // ms
	return 8 * saved / cost / 1e3, ""     // bits per ms = kbit/s
}

// printDerived prints the derived figures of one set, or of two side by
// side (b may be nil).
func printDerived(w *os.File, a, b *runSet) {
	for i, m := range derived {
		fmt.Fprintf(w, "  %-40s", m.Name)
		for _, s := range []*runSet{a, b} {
			if s == nil {
				continue
			}
			if v, note := s.crossover(i); note != "" {
				fmt.Fprintf(w, " (%s)", note)
			} else {
				fmt.Fprintf(w, " %16.4f", v)
			}
		}
		fmt.Fprintf(w, " %s (%s is better)\n", m.Unit, m.Better)
	}
}
