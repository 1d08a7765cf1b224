package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is the unit of measurement: one timed piece of a query — a
// sequential phase, a per-site exchange, a DAP's set-up step, an
// operator — with the volumes it moved. A query's time and byte figures
// are sums over its spans and nothing else (qpc.summarize). Offsets are
// microseconds relative to the owning trace's start on the process that
// recorded the span; the QPC re-anchors DAP spans onto its own timeline
// when it assembles the cross-site trace. A DAP reports its spans inside
// its exec-stats record (wire.ExecStats), every field in order.
type Span struct {
	// Name is an Op* or Phase* name of names.go, which also says what
	// kind of time the duration is (ClassOf).
	Name string
	// Site is the site the span describes ("" for QPC-side work).
	Site string
	// StartMicros is the offset from the trace start.
	StartMicros int64
	// DurMicros is the span's duration.
	DurMicros int64
	// NetBytes is the data-plane volume the span moved over the network.
	// Summed across a query's spans this reproduces the CVDT measurement.
	NetBytes int64
	// DBBytes is the volume the span read from a data source (CVDA).
	DBBytes int64
	// CodeBytes is shipped operator code (deployment volume, not CVDT),
	// Classes the number of classes it made up, and CacheHits the classes
	// a fragment named that the site's code cache already held.
	CodeBytes int64
	Classes   int64
	CacheHits int64
	// Tuples is the tuple count the span carried (for operator spans:
	// rows produced).
	Tuples int64
	// RowsIn and Batches describe operator spans ("op:*"): tuples pulled
	// from children (for a scan, read from the source) and output batches
	// produced. Zero on phase spans.
	RowsIn  int64
	Batches int64
	// SpillBytes is the payload volume an operator wrote to temp-file
	// spill runs when its memory grant overflowed. Zero when the
	// operator stayed in memory.
	SpillBytes int64
	// Instrs is the MVM instructions the span's shipped code executed:
	// set on a DAP's flush span, for the whole fragment.
	Instrs int64
}

// Trace is the span timeline of one query, identified by an ID that the
// QPC propagates to every DAP session so remote spans can be stitched
// back into a single cross-site timeline.
type Trace struct {
	ID    string
	start time.Time

	mu    sync.Mutex
	spans []Span
}

// traceCounter disambiguates IDs minted in the same nanosecond.
var traceCounter atomic.Int64

// NewTraceID mints a process-unique query/trace identifier.
func NewTraceID() string {
	return fmt.Sprintf("q%08x-%04x", time.Now().UnixNano()&0xffffffff, traceCounter.Add(1)&0xffff)
}

// NewTrace starts a trace clock with the given ID (mint one with
// NewTraceID). An empty ID gets a fresh one.
func NewTrace(id string) *Trace { return NewTraceAt(id, time.Now()) }

// NewTraceAt is NewTrace with the clock started at start, for an owner
// whose first span began before it knew the trace's ID.
func NewTraceAt(id string, start time.Time) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	return &Trace{ID: id, start: start}
}

// Since returns the offset of t from the trace start in microseconds.
func (tr *Trace) Since(t time.Time) int64 { return t.Sub(tr.start).Microseconds() }

// Add records finished spans.
func (tr *Trace) Add(s ...Span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s...)
	tr.mu.Unlock()
}

// Interval returns the span [from, to) on the trace's clock, for the
// caller to fill in and Add. Sequential phases recorded this way, each
// from the instant the last one ended, partition their owner's time
// exactly.
func (tr *Trace) Interval(name, site string, from, to time.Time) Span {
	return Span{Name: name, Site: site, StartMicros: tr.Since(from), DurMicros: to.Sub(from).Microseconds()}
}

// SpanHandle is an in-flight span: its owner counts volumes straight
// into the embedded Span, and End records it on the trace. A span that
// is never ended — an attempt that failed — is never recorded, so
// nothing it counted reaches the query's figures.
type SpanHandle struct {
	Span
	tr      *Trace
	started time.Time
	done    atomic.Bool
}

// Begin starts a span at the current instant.
func (tr *Trace) Begin(name, site string) *SpanHandle {
	now := time.Now()
	return &SpanHandle{
		tr:      tr,
		started: now,
		Span:    Span{Name: name, Site: site, StartMicros: tr.Since(now)},
	}
}

// End finishes the span and records it. Safe to call more than once;
// only the first call records.
func (h *SpanHandle) End() {
	if h == nil || !h.done.CompareAndSwap(false, true) {
		return
	}
	h.DurMicros = time.Since(h.started).Microseconds()
	h.tr.Add(h.Span)
}

// Spans returns a copy of the recorded spans sorted by start offset
// (ties broken by site then name, keeping the order stable).
func (tr *Trace) Spans() []Span {
	tr.mu.Lock()
	out := make([]Span, len(tr.spans))
	copy(out, tr.spans)
	tr.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartMicros != out[j].StartMicros {
			return out[i].StartMicros < out[j].StartMicros
		}
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Each calls f on every recorded span, in the order they were recorded:
// for sums over the trace, which need no copy and no sort.
func (tr *Trace) Each(f func(Span)) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		f(s)
	}
}

// TakeSpans returns the recorded spans and clears the trace, for
// senders that report spans incrementally (the DAP reports at each EOS).
func (tr *Trace) TakeSpans() []Span {
	tr.mu.Lock()
	out := tr.spans
	tr.spans = nil
	tr.mu.Unlock()
	return out
}

// NetBytes sums the spans' network volumes: the query's CVDT.
func (tr *Trace) NetBytes() int64 {
	var n int64
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		n += s.NetBytes
	}
	return n
}

// DBBytes sums the spans' source-read volumes: the query's CVDA.
func (tr *Trace) DBBytes() int64 {
	var n int64
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		n += s.DBBytes
	}
	return n
}

// Render formats the trace as an aligned timeline table. Spans are
// ordered deterministically (site, then canonical phase order, then
// start) so renderings of the same plan are comparable across runs.
func (tr *Trace) Render() string {
	spans := tr.Spans()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Site != spans[j].Site {
			return spans[i].Site < spans[j].Site
		}
		ri, rj := phaseRank(spans[i].Name), phaseRank(spans[j].Name)
		if ri != rj {
			return ri < rj
		}
		if spans[i].Name != spans[j].Name {
			return spans[i].Name < spans[j].Name
		}
		return spans[i].StartMicros < spans[j].StartMicros
	})
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: %d spans\n", tr.ID, len(spans))
	rows := make([][6]string, 0, len(spans))
	header := [6]string{"span", "site", "start", "dur", "net bytes", "tuples"}
	widths := [6]int{}
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, s := range spans {
		site := s.Site
		if site == "" {
			site = "qpc"
		}
		row := [6]string{
			s.Name, site,
			fmt.Sprintf("%.1fms", float64(s.StartMicros)/1000),
			fmt.Sprintf("%.1fms", float64(s.DurMicros)/1000),
			fmt.Sprintf("%d", s.NetBytes),
			fmt.Sprintf("%d", s.Tuples),
		}
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
		rows = append(rows, row)
	}
	line := func(cells [6]string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

// phaseRank orders span names by execution phase for rendering: the
// wall phases, a site's exchanges, its DAP's set-up, then operators and
// recovery events by name.
func phaseRank(name string) int {
	if i := slices.Index(WallPhases, name); i >= 0 {
		return i
	}
	n := len(WallPhases)
	switch {
	case name == PhaseDeploy:
		return n
	case strings.HasPrefix(name, "keys:"):
		return n + 1
	case name == PhaseStream:
		return n + 2
	case strings.HasPrefix(name, "dap:"):
		return n + 3
	}
	return n + 4
}
