package wire

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"

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
	reg := obs.NewRegistry()
	a.Instrument(reg, "a")
	b.Instrument(reg, "b")
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
	out, in := reg.Counter("a"+obs.MWireBytesSentSuffix).Value(), reg.Counter("b"+obs.MWireBytesRecvSuffix).Value()
	if out != 5+8 || in != 5+8 {
		t.Errorf("byte accounting: out=%d in=%d, want 13", out, in)
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

// TestBindAbortsInFlightIO: cancelling a bound connection's context
// unblocks a Recv already waiting on a silent peer, and the Recv and
// every later call fail with the context's error; once released, the
// connection no longer follows the context.
func TestBindAbortsInFlightIO(t *testing.T) {
	a, b := pipeConns()
	defer b.Close()
	defer a.Close()
	ctx, cancel := context.WithCancel(context.Background())
	release := a.Bind(ctx)
	defer release()
	errc := make(chan error, 1)
	go func() {
		_, _, err := a.Recv()
		errc <- err
	}()
	// A pipe write returns once the reader has taken the bytes: the Recv
	// is then in flight, waiting for the rest of the frame header.
	if _, err := b.raw.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Recv after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock a Recv in flight")
	}
	go drain(b)
	if err := a.Send(MsgTupleBatch, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Send after cancel = %v, want context.Canceled", err)
	}

	c, d := pipeConns()
	defer d.Close()
	defer c.Close()
	ctx, cancel = context.WithCancel(context.Background())
	c.Bind(ctx)()
	cancel()
	go drain(d)
	if err := c.Send(MsgTupleBatch, nil); err != nil {
		t.Errorf("Send on a released connection after cancel = %v", err)
	}
}

// drain reads c's frames until it fails.
func drain(c *Conn) {
	for {
		if _, _, err := c.Recv(); err != nil {
			return
		}
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
		stats, _ := (&ExecStats{Site: "test", Spans: []obs.Span{{Name: obs.PhaseDapFlush, Tuples: n}}}).MarshalBinary()
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
	if err := stats.UnmarshalBinary(r.EOSPayload); err != nil {
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
