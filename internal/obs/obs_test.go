package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(3)
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil snapshot = %v, want nil", snap)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if got := bucketOf(1 << 62); got != histBuckets-1 {
		t.Errorf("bucketOf(2^62) = %d, want %d", got, histBuckets-1)
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 110 {
		t.Fatalf("count=%d sum=%d, want 5/110", h.Count(), h.Sum())
	}
	if got := h.Mean(); got != 22 {
		t.Fatalf("mean = %v, want 22", got)
	}
	p50 := h.Quantile(0.5)
	if p50 <= 0 || p50 > 4 {
		t.Fatalf("p50 = %v, want in (0,4]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 64 || p99 > 128 {
		t.Fatalf("p99 = %v, want in bucket (64,128]", p99)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int64(0); j < 1000; j++ {
				h.Observe(j)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestSnapshotAndRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("qpc_queries_total").Add(3)
	r.Gauge("dap_sessions_open").Set(2)
	r.Histogram("qpc_query_ms").Observe(10)
	snap := r.Snapshot()
	if snap["qpc_queries_total"] != 3 || snap["dap_sessions_open"] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap["qpc_query_ms.count"] != 1 || snap["qpc_query_ms.sum"] != 10 {
		t.Fatalf("histogram series missing: %v", snap)
	}
	out := r.Render()
	if !strings.Contains(out, "qpc_queries_total 3\n") {
		t.Fatalf("render missing counter:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("render not sorted: %q >= %q", lines[i-1], lines[i])
		}
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("")
	if tr.ID == "" {
		t.Fatal("empty trace ID")
	}
	h := tr.Begin("deploy", "site1")
	h.CodeBytes += 512
	h.End()
	h.End() // second End is a no-op
	tr.Add(Span{Name: "stream", Site: "site1", NetBytes: 100, Tuples: 4})
	tr.Add(Span{Name: "stream", Site: "site2", NetBytes: 50, Tuples: 2})
	if got := tr.NetBytes(); got != 150 {
		t.Fatalf("NetBytes = %d, want 150", got)
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	out := tr.Render()
	for _, want := range []string{"deploy", "stream", "site1", "site2", "3 spans"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTraceTakeSpans(t *testing.T) {
	tr := NewTrace("t1")
	tr.Add(Span{Name: "dap:db"})
	if got := len(tr.TakeSpans()); got != 1 {
		t.Fatalf("first take = %d spans, want 1", got)
	}
	if got := len(tr.TakeSpans()); got != 0 {
		t.Fatalf("second take = %d spans, want 0", got)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestSpanHandleDuration(t *testing.T) {
	tr := NewTrace("t")
	h := tr.Begin("stream", "site1")
	time.Sleep(2 * time.Millisecond)
	h.End()
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].DurMicros < 1000 {
		t.Fatalf("spans = %+v, want one span >= 1ms", spans)
	}
}

func TestDebugMuxMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("wire_frames_sent").Add(9)
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "wire_frames_sent 9") {
		t.Fatalf("metrics body = %q", body)
	}
}
