package wire

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/types"
)

// Round-trips for the placement-bearing wire objects: the START
// document carrying a shard's partition coordinates, and the EOS stats
// echoing them back. The START rides XML with omitempty attributes, the
// stats a binary record, and the canonical forms (identifier-shaped
// names, non-negative coordinates, Of > 0 marking a partitioned stream)
// must survive encode/decode unchanged. Arbitrary runes are the fuzzer's business (FuzzFrame);
// the generators here produce the shapes the QPC actually sends.

func TestQuickActivateRoundTrip(t *testing.T) {
	f := func(q uint32, frag, part, of uint8) bool {
		in := core.Start{
			Stream: fmt.Sprintf("q%08x/%d", q, frag), Trace: fmt.Sprintf("q%08x", q),
			Part: int(part), Of: int(of),
			Fragment: &core.Fragment{Site: "site1", Table: "Rasters__p1", SemiJoinCol: -1},
		}
		data, err := EncodeXML(&in)
		if err != nil {
			return false
		}
		var out core.Start
		if err := DecodeXML(data, &out); err != nil {
			return false
		}
		return out.Stream == in.Stream && out.Trace == in.Trace && out.Part == in.Part && out.Of == in.Of &&
			out.Fragment != nil && out.Fragment.Table == in.Fragment.Table && out.Fragment.SemiJoinCol == -1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickExecStatsShardEchoRoundTrip(t *testing.T) {
	f := func(site uint16, part, of uint8, sent, read int64) bool {
		in := ExecStats{
			Site: fmt.Sprintf("site%d", site), Part: int(part), Of: int(of),
			Spans: []obs.Span{{Name: obs.PhaseDapFlush, NetBytes: sent, RowsIn: read}},
		}
		data, err := in.MarshalBinary()
		if err != nil {
			return false
		}
		var out ExecStats
		if err := out.UnmarshalBinary(data); err != nil {
			return false
		}
		return out.Site == in.Site && out.Part == in.Part && out.Of == in.Of &&
			len(out.Spans) == 1 && out.Spans[0] == in.Spans[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExecStatsSpansRoundTrip pins the shard-stats payload a gathered
// partition stream actually carries: partition coordinates plus the
// DAP-side trace spans, all surviving the record's hop.
func TestExecStatsSpansRoundTrip(t *testing.T) {
	spans := []obs.Span{
		{Name: "dap:exec", Site: "site2", StartMicros: 10, DurMicros: 250,
			NetBytes: 4096, DBBytes: 8192, Tuples: 17, Batches: 2},
		{Name: "dap:code", Site: "site2", CodeBytes: 321, Classes: 1, CacheHits: 2, SpillBytes: 64, RowsIn: 5},
	}
	in := ExecStats{Site: "site2", Part: 2, Of: 3, Spans: spans}
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out ExecStats
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	got := out.Spans
	if len(got) != len(spans) {
		t.Fatalf("got %d spans, want %d", len(got), len(spans))
	}
	for i := range spans {
		if got[i] != spans[i] {
			t.Errorf("span %d diverged:\n in  %+v\n out %+v", i, spans[i], got[i])
		}
	}
	data, _ = (&ExecStats{Site: "site2"}).MarshalBinary()
	out = ExecStats{Spans: spans}
	if err := out.UnmarshalBinary(data); err != nil || out.Spans != nil || len(data) != 11 {
		t.Errorf("empty span list should take one byte and decode to nil: %x (err %v)", data, err)
	}
}

// TestBatchWriterTargetGranularity pins the flush-threshold override
// (dap.Config.BatchBytes): a small target flushes per few tuples, and a
// non-positive target restores the default (one flush for the whole
// stream).
func TestBatchWriterTargetGranularity(t *testing.T) {
	rows := make([]types.Tuple, 64)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(i), types.String_("some padding payload")}
	}
	send := func(target int) int {
		var sink countSender
		w := NewBatchWriter(&sink)
		w.SetTarget(target)
		for _, tup := range rows {
			if err := w.Write(tup); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if w.Tuples != int64(len(rows)) || w.DataBytes == 0 {
			t.Fatalf("target %d: wrote %d tuples, %d B", target, w.Tuples, w.DataBytes)
		}
		return sink.frames
	}
	if fine := send(64); fine < 8 {
		t.Errorf("64 B target produced only %d frames", fine)
	}
	if coarse := send(0); coarse != 1 {
		t.Errorf("default target produced %d frames, want 1", coarse)
	}
}

type countSender struct{ frames int }

func (c *countSender) Send(MsgType, []byte) error { c.frames++; return nil }

// TestActivateUnpartitionedStaysBare pins the wire form of the common
// case: the START of an unpartitioned fragment carries no part/of
// attributes at all, an untraced one no trace, and a first placement no
// skip.
func TestActivateUnpartitionedStaysBare(t *testing.T) {
	data, err := EncodeXML(&core.Start{Stream: "q1/0", Fragment: &core.Fragment{Table: "Rasters", SemiJoinCol: -1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, attr := range []string{"part=", "of=", "trace=", "skip="} {
		if strings.Contains(string(data), attr) {
			t.Errorf("unpartitioned start leaked %q: %s", attr, data)
		}
	}
	var out core.Start
	if err := DecodeXML(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Stream != "q1/0" || out.Part != 0 || out.Of != 0 || out.Fragment == nil {
		t.Errorf("bare start decoded to %+v", out)
	}
}
