package dap

import (
	"fmt"
	"strings"
	"testing"

	"mocha/internal/core"
	"mocha/internal/exec"
	"mocha/internal/obs"
	"mocha/internal/types"
	"mocha/internal/wire"
)

// TestStartSkipsDeliveredPrefix places one stream again past every
// prefix length that matters: none, one tuple, half the stream, all of
// it (the EOS alone), and one tuple more than the fragment produces. The
// DAP runs the fragment from its beginning every time and only the tail
// crosses the wire — TUPLE_BATCH frames closed by one EOS, which is all
// a BatchReader accepts — while the flush span reports the whole stream
// exactly as the clean run's does. A count past the end, or a negative
// one, is an ERROR frame, never a short EOS. Every case runs on both of
// the DAP's bodies: a fragment lowered onto the operator tree, and one
// that lowers to no operator and is forwarded as stored bytes.
func TestStartSkipsDeliveredPrefix(t *testing.T) {
	reg := obs.NewRegistry()
	conn, _ := testDAP(t, Config{BatchBytes: 16, Metrics: reg})
	tree, rel := avgEnergyFragment(t)
	if _, ok := exec.Forwarded(tree); ok {
		t.Fatal("the AvgEnergy fragment would be forwarded")
	}
	forwarded := rasterRows()
	if _, ok := exec.Forwarded(forwarded); !ok {
		t.Fatal("the extraction-only fragment would not be forwarded")
	}
	type body struct {
		name  string
		frag  *core.Fragment
		clean []types.Tuple
		flush obs.Span
	}
	bodies := []*body{{name: "tree", frag: tree}, {name: "forwarded", frag: forwarded}}
	for _, b := range bodies {
		startFragment(t, conn, &core.Start{Fragment: b.frag}, nil, rel)
		var stats wire.ExecStats
		b.clean, stats = readStream(t, conn, b.frag.OutSchema)
		b.flush = flushOf(t, stats.Spans)
		if len(b.clean) != 10 || b.flush.Tuples != 10 {
			t.Fatalf("%s: clean run streamed %d rows, flush span %+v", b.name, len(b.clean), b.flush)
		}
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
			for _, b := range bodies {
				t.Run(b.name, func(t *testing.T) {
					tuples, bytes := reg.Counter(obs.MDapTuplesSent).Value(), reg.Counter(obs.MDapBytesSent).Value()
					resumes := reg.Counter(obs.MDapStreamResumes).Value()
					startFragment(t, conn, &core.Start{Skip: tc.skip, Fragment: b.frag}, nil)
					if tc.refused != "" {
						if msg := streamError(t, conn); !strings.Contains(msg, tc.refused) {
							t.Errorf("error %q, want it to say %q", msg, tc.refused)
						}
						return
					}
					rows, stats := readStream(t, conn, b.frag.OutSchema)
					if fmt.Sprint(rows) != fmt.Sprint(b.clean[tc.skip:]) {
						t.Errorf("streamed %v, want the clean run's tail %v", rows, b.clean[tc.skip:])
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
					if got := flushOf(t, stats.Spans); got.NetBytes != b.flush.NetBytes || got.Tuples != b.flush.Tuples {
						t.Errorf("flush span %d B / %d tuples, clean run's %d B / %d", got.NetBytes, got.Tuples, b.flush.NetBytes, b.flush.Tuples)
					}
					if got, want := reg.Counter(obs.MDapStreamResumes).Value()-resumes, min(tc.skip, 1); got != want {
						t.Errorf("dap_stream_resumes grew by %d, want %d", got, want)
					}
				})
			}
		})
	}
}

// flushOf returns a report's flush span.
func flushOf(t *testing.T, spans []obs.Span) obs.Span {
	t.Helper()
	for _, sp := range spans {
		if sp.Name == obs.PhaseDapFlush {
			return sp
		}
	}
	t.Fatal("report has no flush span")
	return obs.Span{}
}

// rasterRows is a fragment of testDAP's Rasters table that lowers to no
// operator: its rows, image first.
func rasterRows() *core.Fragment {
	schema := types.NewSchema(
		types.Column{Name: "image", Kind: types.KindRaster},
		types.Column{Name: "time", Kind: types.KindInt},
	)
	return &core.Fragment{
		Site: "test", Table: "Rasters", Cols: []int{1, 0}, InSchema: schema, SemiJoinCol: -1,
		Chain: core.Chain{
			Projections: []core.Output{
				{Name: "image", Expr: core.NewCol(0, types.KindRaster)},
				{Name: "time", Expr: core.NewCol(1, types.KindInt)},
			},
		},
		OutSchema: schema,
	}
}
