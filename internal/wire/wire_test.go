package wire

import (
	"net"
	"strings"
	"testing"
	"testing/quick"

	"mocha/internal/obs"
	"mocha/internal/types"
)

func pipeConns() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		done <- a.Send(MsgQuery, []byte("SELECT 1"))
	}()
	typ, payload, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgQuery || string(payload) != "SELECT 1" {
		t.Errorf("got %v %q", typ, payload)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if a.BytesOut() != int64(5+8) || b.BytesIn() != int64(5+8) {
		t.Errorf("byte accounting: out=%d in=%d, want 13", a.BytesOut(), b.BytesIn())
	}
}

func TestEmptyPayload(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	go a.Send(MsgClose, nil)
	typ, payload, err := b.Recv()
	if err != nil || typ != MsgClose || len(payload) != 0 {
		t.Errorf("got %v %v %v", typ, payload, err)
	}
}

func TestExpectAndErrors(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	go a.Send(MsgAck, nil)
	if _, err := b.Expect(MsgAck); err != nil {
		t.Fatal(err)
	}
	go a.SendError(&RemoteError{Msg: "boom"})
	if _, err := b.Expect(MsgAck); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("expected remote error, got %v", err)
	}
	go a.Send(MsgHello, nil)
	if _, err := b.Expect(MsgAck); err == nil {
		t.Error("wrong type accepted")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	a, _ := pipeConns()
	defer a.Close()
	big := make([]byte, MaxFrameSize+1)
	if err := a.Send(MsgTupleBatch, big); err == nil {
		t.Error("oversize send accepted")
	}
}

func TestRecvOnClosedConn(t *testing.T) {
	a, b := pipeConns()
	a.Close()
	if _, _, err := b.Recv(); err == nil {
		t.Error("recv on closed peer should fail")
	}
}

var testSchema = types.NewSchema(
	types.Column{Name: "time", Kind: types.KindInt},
	types.Column{Name: "location", Kind: types.KindRectangle},
	types.Column{Name: "image", Kind: types.KindRaster},
)

func testTuple(i int) types.Tuple {
	px := make([]byte, 16)
	for j := range px {
		px[j] = byte(i + j)
	}
	return types.Tuple{
		types.Int(int32(i)),
		types.Rectangle{XMin: float32(i), YMin: 0, XMax: float32(i + 1), YMax: 1},
		types.NewRaster(4, 4, px),
	}
}

func TestBatchRoundTrip(t *testing.T) {
	tuples := []types.Tuple{testTuple(1), testTuple(2), testTuple(3)}
	payload := EncodeBatch(tuples)
	got, err := DecodeBatch(testSchema, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d tuples", len(got))
	}
	for i := range got {
		if got[i].String() != tuples[i].String() {
			t.Errorf("tuple %d: %v != %v", i, got[i], tuples[i])
		}
	}
}

func TestDecodeBatchErrors(t *testing.T) {
	if _, err := DecodeBatch(testSchema, nil); err == nil {
		t.Error("nil batch accepted")
	}
	if _, err := DecodeBatch(testSchema, []byte{0, 0, 0, 2, 1}); err == nil {
		t.Error("truncated batch accepted")
	}
	// Trailing bytes.
	payload := append(EncodeBatch([]types.Tuple{testTuple(1)}), 0xFF)
	if _, err := DecodeBatch(testSchema, payload); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestBatchStreaming(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	const n = 100
	go func() {
		w := NewBatchWriter(a)
		w.target = 64 // force many batches
		for i := 0; i < n; i++ {
			if err := w.Write(testTuple(i)); err != nil {
				a.SendError(err)
				return
			}
		}
		if err := w.Flush(); err != nil {
			return
		}
		stats, _ := EncodeXML(&ExecStats{Site: "test", Spans: []obs.Span{{Name: obs.PhaseDapFlush, Tuples: n}}})
		a.Send(MsgEOS, stats)
	}()
	r := NewBatchReader(b, testSchema)
	var count int
	for {
		tup, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			break
		}
		if int32(tup[0].(types.Int)) != int32(count) {
			t.Fatalf("tuple %d out of order: %v", count, tup)
		}
		count++
	}
	if count != n {
		t.Errorf("received %d tuples, want %d", count, n)
	}
	var stats ExecStats
	if err := DecodeXML(r.EOSPayload, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Site != "test" || len(stats.Spans) != 1 || stats.Spans[0].Tuples != n {
		t.Errorf("stats lost: %+v", stats)
	}
	// Next after EOS keeps returning nil.
	if tup, err := r.Next(); tup != nil || err != nil {
		t.Error("Next after EOS should return nil, nil")
	}
}

func TestBatchStreamError(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	go func() {
		w := NewBatchWriter(a)
		w.Write(testTuple(1))
		w.Flush()
		a.SendError(&RemoteError{Msg: "source failed"})
	}()
	r := NewBatchReader(b, testSchema)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "source failed") {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestControlPayloadRoundTrips(t *testing.T) {
	ack := StartAck{Need: []string{"abc", "def"}}
	data, err := EncodeXML(&ack)
	if err != nil {
		t.Fatal(err)
	}
	var back StartAck
	if err := DecodeXML(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Need) != 2 || back.Need[1] != "def" {
		t.Errorf("start ack lost: %+v", back)
	}

	// The warm case: nothing needed, nothing listed.
	data, _ = EncodeXML(&StartAck{})
	var back2 StartAck
	if err := DecodeXML(data, &back2); err != nil || len(back2.Need) != 0 {
		t.Errorf("empty ack %s decoded to %+v (err %v)", data, back2, err)
	}
}

func TestSchemaMsgRoundTrip(t *testing.T) {
	data, err := EncodeXML(ResultSchema{Schema: testSchema})
	if err != nil {
		t.Fatal(err)
	}
	var back ResultSchema
	if err := DecodeXML(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Schema.Equal(testSchema) {
		t.Errorf("schema round trip: %v != %v", back.Schema, testSchema)
	}
	// Refused: an unknown kind, a column without one, a foreign root.
	for _, doc := range []string{
		`<schema><column name="x" kind="WEIRD"></column></schema>`,
		`<schema><column name="x"></column></schema>`,
		`<table><column name="x" kind="INT"></column></table>`,
	} {
		if err := DecodeXML([]byte(doc), new(ResultSchema)); err == nil {
			t.Errorf("accepted %s", doc)
		}
	}
}

func TestQuickBatchRoundTrip(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindString},
	)
	f := func(vals []int32, strs []string) bool {
		n := min(len(vals), len(strs))
		tuples := make([]types.Tuple, n)
		for i := 0; i < n; i++ {
			tuples[i] = types.Tuple{types.Int(vals[i]), types.String_(strs[i])}
		}
		got, err := DecodeBatch(s, EncodeBatch(tuples))
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i][0].(types.Int) != types.Int(vals[i]) || got[i][1].(types.String_) != types.String_(strs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
