package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one benchmark-side trace record. Spans are taken around the
// calls this package makes into the system, never inside it; they stay
// in memory until the run ends. Self time of a span = its duration minus
// the part of that interval its children cover.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	// Query identifies the request the span belongs to
	// (workload/pass/statement); empty for layer.* driver spans.
	Query   string             `json:"query,omitempty"`
	StartUS int64              `json:"start_us"`
	EndUS   int64              `json:"end_us"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// tracer collects spans. A nil *tracer is the untraced run: begin
// returns nil and every method on a nil *spanRef is a no-op, so the run
// loop is written once. The harness is single-threaded (one client), so
// a tracer needs no lock.
type tracer struct {
	epoch time.Time
	spans []*span
}

type spanRef struct {
	tr *tracer
	s  *span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) begin(name string, parent *spanRef, query string) *spanRef {
	if tr == nil {
		return nil
	}
	s := &span{Name: name, Query: query, StartUS: time.Since(tr.epoch).Microseconds()}
	if parent != nil {
		s.Parent = parent.s.ID
	}
	s.ID = len(tr.spans) + 1
	tr.spans = append(tr.spans, s)
	return &spanRef{tr: tr, s: s}
}

func (r *spanRef) end() {
	if r != nil {
		r.s.EndUS = time.Since(r.tr.epoch).Microseconds()
	}
}

func (r *spanRef) count(key string, v float64) {
	if r == nil {
		return
	}
	if r.s.Counts == nil {
		r.s.Counts = make(map[string]float64)
	}
	r.s.Counts[key] = v
}

// adopt appends spans taken by another process (the drivers' child) as
// roots after this tracer's own: ids are renumbered, and their clock,
// which started with that process, is shifted to follow the last span
// here.
func (tr *tracer) adopt(spans []*span) {
	var shift int64
	for _, s := range tr.spans {
		if s.EndUS > shift {
			shift = s.EndUS
		}
	}
	for _, s := range spans {
		s.ID, s.Parent = len(tr.spans)+1, 0
		s.StartUS += shift
		s.EndUS += shift
		tr.spans = append(tr.spans, s)
	}
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string  `json:"workload"`
	Env      envInfo `json:"env"`
	Spans    []*span `json:"spans"`
}

// write stores the spans at path, creating its directory.
func (tr *tracer) write(path, workload string, env envInfo) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Env: env, Spans: tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
