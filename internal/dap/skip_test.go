package dap

import (
	"fmt"
	"strings"
	"testing"

	"mocha/internal/core"
	"mocha/internal/obs"
)

// TestStartSkipsDeliveredPrefix places one stream again past every
// prefix length that matters: none, one tuple, half the stream, all of
// it (the EOS alone), and one tuple more than the fragment produces. The
// DAP runs the fragment from its beginning every time and only the tail
// crosses the wire — TUPLE_BATCH frames closed by one EOS, which is all
// a BatchReader accepts — while the flush span reports the whole stream
// exactly as the clean run's does. A count past the end, or a negative
// one, is an ERROR frame, never a short EOS.
func TestStartSkipsDeliveredPrefix(t *testing.T) {
	reg := obs.NewRegistry()
	conn, _ := testDAP(t, Config{BatchBytes: 16, Metrics: reg})
	frag, rel := avgEnergyFragment(t)
	startFragment(t, conn, &core.Start{Fragment: frag}, nil, rel)
	clean, cleanStats := readStream(t, conn, frag.OutSchema)
	flushOf := func(spans []obs.Span) obs.Span {
		for _, sp := range spans {
			if sp.Name == obs.PhaseDapFlush {
				return sp
			}
		}
		t.Fatal("report has no flush span")
		return obs.Span{}
	}
	cleanFlush := flushOf(cleanStats.Spans)
	if len(clean) != 10 || cleanFlush.Tuples != 10 {
		t.Fatalf("clean run streamed %d rows, flush span %+v", len(clean), cleanFlush)
	}

	for _, tc := range []struct {
		skip    int64
		refused string // the ERROR frame's text; empty for a stream
	}{
		{skip: 0}, {skip: 1}, {skip: 5}, {skip: 10},
		{skip: 11, refused: "produced 10 tuples, fewer than the 11 its START skips"},
		{skip: -1, refused: "negative"},
	} {
		t.Run(fmt.Sprintf("skip=%d", tc.skip), func(t *testing.T) {
			tuples, bytes := reg.Counter(obs.MDapTuplesSent).Value(), reg.Counter(obs.MDapBytesSent).Value()
			resumes := reg.Counter(obs.MDapStreamResumes).Value()
			startFragment(t, conn, &core.Start{Skip: tc.skip, Fragment: frag}, nil)
			if tc.refused != "" {
				if msg := streamError(t, conn); !strings.Contains(msg, tc.refused) {
					t.Errorf("error %q, want it to say %q", msg, tc.refused)
				}
				return
			}
			rows, stats := readStream(t, conn, frag.OutSchema)
			if fmt.Sprint(rows) != fmt.Sprint(clean[tc.skip:]) {
				t.Errorf("streamed %v, want the clean run's tail %v", rows, clean[tc.skip:])
			}
			var tail int64
			for _, tup := range rows {
				tail += int64(tup.WireSize())
			}
			if got, want := reg.Counter(obs.MDapTuplesSent).Value()-tuples, int64(len(rows)); got != want {
				t.Errorf("dap_tuples_sent grew by %d, want %d", got, want)
			}
			if got := reg.Counter(obs.MDapBytesSent).Value() - bytes; got != tail {
				t.Errorf("dap_bytes_sent grew by %d, want the tail's %d", got, tail)
			}
			if got := flushOf(stats.Spans); got.NetBytes != cleanFlush.NetBytes || got.Tuples != cleanFlush.Tuples {
				t.Errorf("flush span %d B / %d tuples, clean run's %d B / %d", got.NetBytes, got.Tuples, cleanFlush.NetBytes, cleanFlush.Tuples)
			}
			if got, want := reg.Counter(obs.MDapStreamResumes).Value()-resumes, min(tc.skip, 1); got != want {
				t.Errorf("dap_stream_resumes grew by %d, want %d", got, want)
			}
		})
	}
}
