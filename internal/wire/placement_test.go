package wire

import (
	"bytes"
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
// echoing them back. Both ride XML with omitempty attributes, so the
// canonical forms (identifier-shaped names, non-negative coordinates,
// Of > 0 marking a partitioned stream) must survive encode/decode
// unchanged. Arbitrary runes are the fuzzer's business (FuzzFrame);
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
		data, err := EncodeXML(&in)
		if err != nil {
			return false
		}
		var out ExecStats
		if err := DecodeXML(data, &out); err != nil {
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
// DAP-side trace spans, all surviving the XML hop.
func TestExecStatsSpansRoundTrip(t *testing.T) {
	spans := []obs.Span{
		{Name: "dap:exec", Site: "site2", StartMicros: 10, DurMicros: 250,
			NetBytes: 4096, DBBytes: 8192, Tuples: 17, Batches: 2},
		{Name: "dap:code", Site: "site2", CodeBytes: 321, Classes: 1, CacheHits: 2, SpillBytes: 64, RowsIn: 5},
	}
	in := ExecStats{Site: "site2", Part: 2, Of: 3, Spans: spans}
	data, err := EncodeXML(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out ExecStats
	if err := DecodeXML(data, &out); err != nil {
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
	data, _ = EncodeXML(&ExecStats{Site: "site2"})
	out = ExecStats{}
	if err := DecodeXML(data, &out); err != nil || out.Spans != nil || bytes.Contains(data, []byte("span")) {
		t.Errorf("empty span list should stay off the wire and decode to nil: %s (err %v)", data, err)
	}
}

// TestBatchWriterTargetGranularity pins the flush-threshold override a
// partitioned DAP uses for finer replay granularity: a small target
// flushes per few tuples, and a non-positive target restores the
// default (one flush for the whole stream).
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

// TestBatchReaderRebind pins what a continued stream relies on: the one
// reader moves to the new connection with its place in the stream and
// the tuples it had decoded but not delivered, discards a replayed frame
// it already holds, and still refuses a gap.
func TestBatchReaderRebind(t *testing.T) {
	batch := func(from int) []byte {
		return EncodeBatch([]types.Tuple{
			{types.Int(int32(from)), types.String_("a")},
			{types.Int(int32(from + 1)), types.String_("b")},
		})
	}
	stats, _ := EncodeXML(ExecStats{Site: "site1"})
	// The first connection dies after frame 1; one of its tuples is out.
	r := NewBatchReader(NewConn(&byteConn{r: bytes.NewReader(frame(MsgSeqBatch, AppendSeq(1, batch(1))))}), fuzzSchema)
	if first, err := r.Next(); err != nil || int(first[0].(types.Int)) != 1 {
		t.Fatalf("first tuple: %v, %v", first, err)
	}
	// The second replays frame 1 (a duplicate), then carries on.
	stream := append(frame(MsgSeqBatch, AppendSeq(1, batch(1))), frame(MsgSeqBatch, AppendSeq(2, batch(3)))...)
	stream = append(stream, frame(MsgSeqEOS, AppendSeq(3, stats))...)
	r.Rebind(NewConn(&byteConn{r: bytes.NewReader(stream)}))
	var got []int
	for {
		tup, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			break
		}
		got = append(got, int(tup[0].(types.Int)))
	}
	if fmt.Sprint(got) != "[2 3 4]" || r.Seq != 3 || r.EOSPayload == nil {
		t.Fatalf("rebound reader delivered %v up to frame %d", got, r.Seq)
	}
	// Rebound past a frame it never saw, the reader reports the gap.
	r = NewBatchReader(NewConn(&byteConn{r: bytes.NewReader(nil)}), fuzzSchema)
	r.Seq = 1
	r.Rebind(NewConn(&byteConn{r: bytes.NewReader(frame(MsgSeqBatch, AppendSeq(3, batch(5))))}))
	if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("err = %v, want a sequence gap", err)
	}
}

// TestActivateUnpartitionedStaysBare pins the wire form of the common
// case: the START of an unpartitioned fragment carries no part/of
// attributes at all, and an untraced one no trace.
func TestActivateUnpartitionedStaysBare(t *testing.T) {
	data, err := EncodeXML(&core.Start{Stream: "q1/0", Fragment: &core.Fragment{Table: "Rasters", SemiJoinCol: -1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, attr := range []string{"part=", "of=", "trace="} {
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
