package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"mocha/internal/types"
)

// The data path's two promises, pinned: a decoded tuple stays what it
// was however many frames follow it and whatever the sender does with
// its buffer (ownership), and a shipped byte is copied — and a frame
// allocated — once per hop (the budgets below).

var pathSchema = types.NewSchema(
	types.Column{Name: "id", Kind: types.KindInt},
	types.Column{Name: "name", Kind: types.KindString},
	types.Column{Name: "note", Kind: types.KindBytes},
	types.Column{Name: "ring", Kind: types.KindPolygon},
	types.Column{Name: "net", Kind: types.KindGraph},
	types.Column{Name: "image", Kind: types.KindRaster},
)

func pathTuple(i int) types.Tuple {
	pts := []types.Point{{X: float32(i), Y: 1}, {X: 2, Y: float32(i)}, {X: 3, Y: 3}}
	return types.Tuple{
		types.Int(int32(i)), types.String_(fmt.Sprintf("row-%d", i)), types.Bytes(fmt.Sprintf("note %d", i)),
		types.NewPolygon(pts), types.NewGraph(pts, []types.GraphEdge{{A: 0, B: 1}, {A: 1, B: 2}}),
		types.NewRaster(5, 4, bytes.Repeat([]byte{byte(i)}, 20)),
	}
}

// retainingSink is a sequenced sink the way the DAP's is: it stamps the
// slot of the frame it is handed, keeps that very frame for replay, and
// sends it — unless it has no connection, when it only keeps it.
type retainingSink struct {
	conn   *Conn
	frames [][]byte
}

func (s *retainingSink) Send(t MsgType, body []byte) error {
	return s.SendSeqFrame(t, AppendSeq(0, body))
}

func (s *retainingSink) SendSeqFrame(t MsgType, frame []byte) error {
	StampSeq(frame, uint64(len(s.frames)+1))
	s.frames = append(s.frames, frame)
	if s.conn == nil {
		return nil
	}
	if t == MsgEOS {
		return s.conn.Send(MsgSeqEOS, frame)
	}
	return s.conn.Send(MsgSeqBatch, frame)
}

// readAll drains r and returns every tuple, kept exactly as delivered.
func readAll(t *testing.T, r *BatchReader) []types.Tuple {
	t.Helper()
	var got []types.Tuple
	for {
		tup, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			return got
		}
		got = append(got, tup)
	}
}

// wantPathTuples checks got, tuple by tuple and byte by byte, against
// what was written: the first of them were decoded many frames ago.
func wantPathTuples(t *testing.T, got []types.Tuple, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("read %d tuples, want %d", len(got), n)
	}
	for i, tup := range got {
		if want := pathTuple(i).AppendTo(nil); !bytes.Equal(tup.AppendTo(nil), want) {
			t.Errorf("tuple %d read back as %v after the frames behind it arrived", i, tup)
		}
	}
}

// TestBatchTuplesOutliveTheirFrames streams 40 tuples in some thirty
// frames. The receiver keeps every tuple as delivered and compares them
// only at the end — batch N after batches N+1… were received into their
// own bodies and, on the plain stream, after the writer encoded every
// later batch into the one buffer it reuses. Run it under -race: the
// sender goroutine's buffer and the receiver's tuples must share nothing.
func TestBatchTuplesOutliveTheirFrames(t *testing.T) {
	const n = 40
	stream := func(t *testing.T, sink func(*Conn) FrameSender) {
		a, b := pipeConns()
		defer a.Close()
		defer b.Close()
		go func() {
			s := sink(a)
			w := NewBatchWriter(s)
			w.SetTarget(200)
			for i := 0; i < n; i++ {
				if err := w.Write(pathTuple(i)); err != nil {
					return
				}
			}
			if w.Flush() == nil {
				s.Send(MsgEOS, nil)
			}
		}()
		r := NewBatchReader(b, pathSchema)
		wantPathTuples(t, readAll(t, r), n)
	}
	t.Run("plain", func(t *testing.T) { stream(t, func(c *Conn) FrameSender { return c }) })
	t.Run("sequenced", func(t *testing.T) { stream(t, func(c *Conn) FrameSender { return &retainingSink{conn: c} }) })

	// A retained-window replay: the first connection breaks inside frame
	// 4, with tuples of frame 3 decoded but not yet delivered; the reader
	// is rebound to a connection that replays the window from frame 3.
	t.Run("rebind", func(t *testing.T) {
		sink := &retainingSink{}
		w := NewBatchWriter(sink)
		w.SetTarget(600)
		for i := 0; i < n; i++ {
			if err := w.Write(pathTuple(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := sink.Send(MsgEOS, nil); err != nil {
			t.Fatal(err)
		}
		onWire := func(frames [][]byte) []byte {
			var out []byte
			for i, f := range frames {
				typ := MsgSeqBatch
				if seq, _, _ := CutSeq(f); int(seq) == len(sink.frames) && i == len(frames)-1 {
					typ = MsgSeqEOS
				}
				out = append(out, frame(typ, f)...)
			}
			return out
		}
		first := onWire(sink.frames[:4])
		r := NewBatchReader(NewConn(&byteConn{r: bytes.NewReader(first[:len(first)-9])}), pathSchema)
		var got []types.Tuple
		for {
			tup, err := r.Next()
			if err != nil {
				break // the cut inside frame 4
			}
			got = append(got, tup)
		}
		if r.Seq != 3 {
			t.Fatalf("reader holds frame %d at the break, want 3", r.Seq)
		}
		r.Rebind(NewConn(&byteConn{r: bytes.NewReader(onWire(sink.frames[2:]))}))
		wantPathTuples(t, append(got, readAll(t, r)...), n)
		if r.DupBytes == 0 {
			t.Error("the replayed frame 3 was not discarded as a duplicate")
		}
	})
}

// graphRows are Graphs-shaped rows (name STRING, graph GRAPH): what the
// benchmark's wire.batch_decode_allocs_per_tuple decodes.
func graphRows(n int) ([]types.Tuple, types.Schema) {
	rows := make([]types.Tuple, n)
	pts := []types.Point{{X: 1, Y: 1}, {X: 2, Y: 5}, {X: 7, Y: 3}, {X: 4, Y: 4}}
	for i := range rows {
		rows[i] = types.Tuple{types.String_(fmt.Sprintf("drainage-%04d", i)),
			types.NewGraph(pts, []types.GraphEdge{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}})}
	}
	return rows, types.NewSchema(types.Column{Name: "name", Kind: types.KindString}, types.Column{Name: "graph", Kind: types.KindGraph})
}

// TestDecodeBatchAllocBudget: three allocations per Graphs tuple — the
// string's bytes, and the boxes of the string and of the graph's slice
// header — plus two per batch, the tuple index and the slab of values.
// No per-tuple slice, no copy of the graph.
func TestDecodeBatchAllocBudget(t *testing.T) {
	const n = 500
	rows, schema := graphRows(n)
	payload := EncodeBatch(rows)
	allocs := testing.AllocsPerRun(20, func() {
		if got, err := DecodeBatch(schema, payload); err != nil || len(got) != n {
			t.Fatalf("decoded %d tuples: %v", len(got), err)
		}
	})
	if allocs > 3*n+2 {
		t.Errorf("DecodeBatch of %d Graphs tuples allocates %.0f times, budget %d", n, allocs, 3*n+2)
	}
}

// TestDecodeBatchHostileCount: a count the payload cannot hold costs an
// index and a slab no larger than the payload could fill.
func TestDecodeBatchHostileCount(t *testing.T) {
	_, schema := graphRows(0)
	payload := binary.BigEndian.AppendUint32(nil, 0xffffffff)
	payload = append(payload, 0, 0, 0, 1, 'x')
	if got := allocatedBytes(func() {
		if _, err := DecodeBatch(schema, payload); err == nil {
			t.Error("a batch of 4 billion tuples in 9 bytes decoded")
		}
	}); got > 4<<10 {
		t.Errorf("hostile tuple count cost %d bytes", got)
	}
}

// allocatedBytes is the heap f allocates.
func allocatedBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRecvAllocatesBodyOnce: once a connection has delivered a body of
// some size, every frame no larger is read into one allocation of
// exactly its length — no geometric regrowth, no second buffer.
func TestRecvAllocatesBodyOnce(t *testing.T) {
	const body, frames = DefaultBatchBytes, 12
	one := frame(MsgTupleBatch, make([]byte, body))
	c := NewConn(&byteConn{r: bytes.NewReader(bytes.Repeat(one, frames+1))})
	if _, p, err := c.Recv(); err != nil || len(p) != body {
		t.Fatalf("first frame: %d bytes, %v", len(p), err)
	}
	var recvErr error
	allocs := testing.AllocsPerRun(frames-1, func() {
		if _, p, err := c.Recv(); err != nil || len(p) != body || cap(p) != body {
			recvErr = fmt.Errorf("frame of %d bytes (cap %d): %v", len(p), cap(p), err)
		}
	})
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if allocs != 1 {
		t.Errorf("a steady-state Recv allocates %.0f times, want 1: the body", allocs)
	}
}

// TestRecvGuardsUnprovenClaims is the over-allocation defence, measured:
// a first frame claiming 64 MiB with ten bytes behind it fails having
// allocated no more than two initial buffers — and so does the same lie
// told after an honest 256 KiB frame, which earned trust only for
// bodies up to its own size.
func TestRecvGuardsUnprovenClaims(t *testing.T) {
	var lie [frameHeaderSize]byte
	binary.BigEndian.PutUint32(lie[:4], MaxFrameSize)
	lie[4] = byte(MsgTupleBatch)
	hostile := append(lie[:], "only ten b"...)
	honest := frame(MsgTupleBatch, make([]byte, DefaultBatchBytes))
	for name, lead := range map[string]int{"first frame": 0, "after an honest frame": 1} {
		c := NewConn(&byteConn{r: bytes.NewReader(append(bytes.Repeat(honest, lead), hostile...))})
		for i := 0; i < lead; i++ {
			if _, _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		got := allocatedBytes(func() {
			if _, _, err := c.Recv(); err == nil {
				t.Errorf("%s: a 64 MiB frame arrived in ten bytes", name)
			}
		})
		if got > 128<<10 {
			t.Errorf("%s: a 64 MiB claim with 10 bytes behind it cost %d bytes, want <= 128 KiB", name, got)
		}
	}
}

// addrSender records where each payload it is sent starts.
type addrSender struct{ starts []*byte }

func (s *addrSender) Send(_ MsgType, p []byte) error {
	s.starts = append(s.starts, &p[0])
	return nil
}

// TestBatchWriterCopiesOncePerFrame: between Write and the sink a tuple's
// bytes are written once. On the sequenced path the frame the sink is
// handed is the frame it stamps, keeps and sends — one allocation of
// exactly slot + payload, no AppendSeq copy; on the plain path every
// frame after the first is encoded into the same buffer.
func TestBatchWriterCopiesOncePerFrame(t *testing.T) {
	rows, _ := graphRows(64)
	write := func(w *BatchWriter) {
		for _, r := range rows {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	size := len(EncodeBatch(rows))

	sink := &retainingSink{}
	seq := NewBatchWriter(sink)
	write(seq) // grows pending and the sink's index
	sink.frames = sink.frames[:0]
	// One allocation of slot + payload, rounded up to its size class: two
	// buffers, or a regrown one, would be twice that.
	if got, want := allocatedBytes(func() { write(seq) }), uint64(SeqSlot+size); got < want || got > want*5/4 {
		t.Errorf("a sequenced frame of %d payload bytes cost %d bytes of allocation, want %d", size, got, want)
	}
	if f := sink.frames[0]; len(f) != SeqSlot+size || !bytes.Equal(f[SeqSlot:], EncodeBatch(rows)) {
		t.Errorf("retained frame is %d bytes, want the stamped slot and the %d-byte batch", len(f), size)
	} else if seq, _, _ := CutSeq(f); seq != 1 {
		t.Errorf("retained frame carries sequence number %d, want 1", seq)
	}

	var plain addrSender
	pw := NewBatchWriter(&plain)
	write(pw)
	if allocs := testing.AllocsPerRun(10, func() { write(pw) }); allocs != 0 {
		t.Errorf("a plain frame after the first allocates %.0f times, want 0: the buffer is reused", allocs)
	}
	for _, p := range plain.starts[1:] {
		if p != plain.starts[0] {
			t.Fatal("plain frames were not encoded into one reused buffer")
		}
	}
}
