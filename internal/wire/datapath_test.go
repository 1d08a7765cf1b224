package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"mocha/internal/types"
)

// The data path's two promises, pinned: a decoded tuple stays what it
// was however many frames follow it and whatever the sender does with
// its buffer (ownership), and a shipped byte is copied once per hop (the
// budgets below).

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
// own bodies, after the writer encoded every later batch into the one
// buffer it reuses. Run it under -race: the sender goroutine's buffer and
// the receiver's tuples must share nothing.
func TestBatchTuplesOutliveTheirFrames(t *testing.T) {
	const n = 40
	t.Run("plain", func(t *testing.T) {
		a, b := pipeConns()
		defer a.Close()
		defer b.Close()
		go func() {
			w := NewBatchWriter(a)
			w.SetTarget(200)
			for i := 0; i < n; i++ {
				if err := w.Write(pathTuple(i)); err != nil {
					return
				}
			}
			if w.Flush() == nil {
				a.Send(MsgEOS, nil)
			}
		}()
		r := NewBatchReader(b, pathSchema)
		wantPathTuples(t, readAll(t, r), n)
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

// TestDecodeBatchAllocBudget: two allocations per Graphs tuple — the
// string's bytes and its box — plus three per batch: the tuple index,
// the slab of values and the slab of payload headers, which the
// pointer-shaped graphs point to and box for free. No per-tuple slice,
// no copy of the graph. (Three a tuple while a graph was slice-shaped.)
func TestDecodeBatchAllocBudget(t *testing.T) {
	const n = 500
	rows, schema := graphRows(n)
	payload := EncodeBatch(rows)
	allocs := testing.AllocsPerRun(20, func() {
		if got, err := DecodeBatch(schema, payload); err != nil || len(got) != n {
			t.Fatalf("decoded %d tuples: %v", len(got), err)
		}
	})
	if allocs > 2*n+3 {
		t.Errorf("DecodeBatch of %d Graphs tuples allocates %.0f times, budget %d", n, allocs, 2*n+3)
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

// TestRecvStagesUnprovenClaims: on a fresh connection a first 256 KiB
// frame is staged in pooled chunks as it arrives and then allocated once,
// at exactly its length — not grown 64 KiB at a time (≈ 1.75× the body).
// The chunk pool is warmed on another connection first, as any stream
// before it in the process would have.
func TestRecvStagesUnprovenClaims(t *testing.T) {
	const body = DefaultBatchBytes
	one := frame(MsgTupleBatch, make([]byte, body))
	warm := NewConn(&byteConn{r: bytes.NewReader(one)})
	if _, _, err := warm.Recv(); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	c := NewConn(&byteConn{r: bytes.NewReader(one)})
	defer c.Close()
	var p []byte
	var err error
	got := allocatedBytes(func() { _, p, err = c.Recv() })
	if err != nil || len(p) != body || cap(p) != body {
		t.Fatalf("first frame of %d bytes (cap %d): %v", len(p), cap(p), err)
	}
	if got > body+4<<10 {
		t.Errorf("a first %d-byte frame allocated %d bytes, want <= %d", body, got, body+4<<10)
	}
}

// TestConnReusesBuffers: a connection's buffered reader and writer go
// back to the pool at Close, and the next NewConn takes them — it
// allocates no buffer of its own.
func TestConnReusesBuffers(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	NewConn(a).Close()
	var c *Conn
	got := allocatedBytes(func() { c = NewConn(b) })
	defer c.Close()
	if got >= connBufSize {
		t.Errorf("NewConn after a Close allocated %d bytes: a buffer of its own", got)
	}
}

// TestCloseRacesRecvAndSend closes a connection while a Recv waits on a
// silent peer and a Send is blocked writing to a peer that does not
// read. Both fail; later calls fail with net.ErrClosed; and the buffers
// Close handed back, which the next connection takes and uses at once,
// are never touched by the old one again. Run it under -race: a late
// touch is a race with the new owner.
func TestCloseRacesRecvAndSend(t *testing.T) {
	big := make([]byte, 2*connBufSize) // larger than the writer's buffer: written through
	for i := 0; i < 50; i++ {
		a, peer := net.Pipe()
		c := NewConn(a)
		errs := make(chan error, 2)
		go func() { _, _, err := c.Recv(); errs <- err }()
		go func() { errs <- c.Send(MsgTupleBatch, big) }()
		time.Sleep(time.Millisecond) // let both block, usually
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		// The next connection takes the pooled buffers and uses them while
		// the old calls unwind.
		x, y := pipeConns()
		go func() { x.Send(MsgAck, []byte("next")) }()
		if _, p, err := y.Recv(); err != nil || string(p) != "next" {
			t.Fatalf("the next connection read %q, %v", p, err)
		}
		for range 2 {
			if err := <-errs; err == nil {
				t.Fatal("a Recv or Send in flight at Close succeeded")
			}
		}
		if _, _, err := c.Recv(); !errors.Is(err, net.ErrClosed) {
			t.Errorf("Recv after Close: %v, want net.ErrClosed", err)
		}
		if err := c.Send(MsgAck, nil); !errors.Is(err, net.ErrClosed) {
			t.Errorf("Send after Close: %v, want net.ErrClosed", err)
		}
		x.Close()
		y.Close()
		peer.Close()
	}
}

// recordSender keeps a copy of every payload it is sent.
type recordSender struct{ frames [][]byte }

func (s *recordSender) Send(_ MsgType, p []byte) error {
	s.frames = append(s.frames, bytes.Clone(p))
	return nil
}

// addrSender records where each payload it is sent starts.
type addrSender struct{ starts []*byte }

func (s *addrSender) Send(_ MsgType, p []byte) error {
	s.starts = append(s.starts, &p[0])
	return nil
}

// TestBatchWriterCopiesOncePerFrame: between Write and the sink a tuple's
// bytes are written once, and every frame after the first is encoded
// into the same buffer — a tuple written decoded (Write) or as its
// columns' encodings (WriteEncoded, a forwarded record's path), which
// make the same frames.
func TestBatchWriterCopiesOncePerFrame(t *testing.T) {
	rows, _ := graphRows(64)
	encoded := make([][][]byte, len(rows))
	for i, r := range rows {
		for _, v := range r {
			encoded[i] = append(encoded[i], v.AppendTo(nil))
		}
	}
	entries := map[string]func(w *BatchWriter, i int) error{
		"decoded": func(w *BatchWriter, i int) error { return w.Write(rows[i]) },
		"encoded": func(w *BatchWriter, i int) error { return w.WriteEncoded(encoded[i]...) },
	}
	frames := map[string][]byte{}
	for _, name := range []string{"decoded", "encoded"} {
		t.Run(name, func(t *testing.T) {
			write := func(w *BatchWriter) {
				for i := range rows {
					if err := entries[name](w, i); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			var plain addrSender
			pw := NewBatchWriter(&plain)
			pw.SetTarget(2 << 10)
			write(pw)
			if allocs := testing.AllocsPerRun(10, func() { write(pw) }); allocs != 0 {
				t.Errorf("a frame after the first allocates %.0f times, want 0: the buffer is reused", allocs)
			}
			for _, p := range plain.starts[1:] {
				if p != plain.starts[0] {
					t.Fatal("frames were not encoded into one reused buffer")
				}
			}
			var rec recordSender
			rw := NewBatchWriter(&rec)
			rw.SetTarget(2 << 10)
			write(rw)
			frames[name] = bytes.Join(rec.frames, []byte{'|'})
			pw.Release()
			rw.Release()
		})
	}
	if !bytes.Equal(frames["decoded"], frames["encoded"]) {
		t.Error("Write and WriteEncoded framed the same tuples differently")
	}
}
