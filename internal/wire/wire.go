// Package wire implements MOCHA's communications infrastructure. The
// paper (section 3.9.2) reports that Java RMI was too slow and fragile
// and that the prototype built its own protocol directly on network
// sockets; this package is that protocol: length-prefixed frames with a
// one-byte message type, binary tuple batches, XML control payloads (the
// paper encodes plans and metadata as XML documents), and binary records
// for the measurements that end a stream (record.go).
package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mocha/internal/obs"
)

// MsgType identifies the kind of a frame.
type MsgType uint8

// Protocol message types. A retired type's number is never reused, so a
// frame from an older peer is refused as MSG(n), not misread.
const (
	MsgHello MsgType = iota + 1
	MsgHelloAck
	MsgQuery        // client → QPC: SQL text
	MsgResultSchema // QPC → client: result schema (XML)
	MsgDeployCode   // QPC → DAP: serialized MVM program a START_ACK asked for
	_               // 6: was CODE_CHECK
	_               // 7: was CODE_CHECK_ACK
	_               // 8: was DEPLOY_PLAN
	_               // 9: was ACTIVATE
	MsgTupleBatch   // data stream (DAP → QPC, QPC → client): batch of schema-encoded tuples
	MsgSemiJoinKeys // QPC → DAP: join-key set, right behind a semi-join START
	MsgEOS          // end of tuple stream, carries the execution's or query's stats (binary record)
	MsgError        // carries an error string; terminates the request
	MsgAck          // bare acknowledgement; no exchange uses one now, the frame benchmark does
	MsgClose
	MsgProcCall   // QPC → DAP: procedural request (XML), section 3.2
	MsgProcResult // DAP → QPC: procedural response (XML)
	MsgSeqBatch   // was the DAP's sequenced batch; no exchange sends one now, the frame benchmark names it
	MsgSeqEOS     // was the DAP's sequenced EOS; no exchange sends one now, the frame benchmark names it
	_             // 20: was RESUME
	_             // 21: was RESUME_ACK
	_             // 22: was CODE_INVALIDATE
	_             // 23: was CODE_INVALIDATE_ACK
	MsgStart      // QPC → DAP: run this fragment, past the tuples already held (XML <start>)
	MsgStartAck   // DAP → QPC: the classes it must be sent first
)

var msgNames = map[MsgType]string{
	MsgHello: "HELLO", MsgHelloAck: "HELLO_ACK", MsgQuery: "QUERY",
	MsgResultSchema: "RESULT_SCHEMA", MsgDeployCode: "DEPLOY_CODE",
	MsgTupleBatch: "TUPLE_BATCH", MsgSemiJoinKeys: "SEMIJOIN_KEYS",
	MsgEOS: "EOS", MsgError: "ERROR", MsgAck: "ACK", MsgClose: "CLOSE",
	MsgProcCall: "PROC_CALL", MsgProcResult: "PROC_RESULT",
	MsgSeqBatch: "SEQ_BATCH", MsgSeqEOS: "SEQ_EOS",
	MsgStart: "START", MsgStartAck: "START_ACK",
}

func (t MsgType) String() string {
	if n, ok := msgNames[t]; ok {
		return n
	}
	return fmt.Sprintf("MSG(%d)", uint8(t))
}

// MaxFrameSize bounds a single frame (header excluded). Large tuple
// streams are split into batches well under this limit.
const MaxFrameSize = 64 << 20

// frameHeaderSize is the per-frame overhead: 4-byte length + 1-byte type.
const frameHeaderSize = 5

// Conn is a framed connection. Reads and writes each are internally
// serialized, so one reader goroutine and one writer goroutine may share
// a Conn.
//
// A Conn is unbounded by default (every frame operation may block
// forever, matching the seed behaviour). SetFrameTimeout bounds each
// frame read/write so a stalled or dead peer fails the operation
// instead of hanging; Bind ties the connection to a context, whose
// deadline becomes an absolute cut-off and whose cancellation aborts
// in-flight I/O.
//
// Its buffered reader and writer are borrowed from a process pool and
// go back at Close; rmu and wmu guard them, so Close waits for a Recv
// or Send in flight — closing the transport first unblocks it — and
// any later call finds them gone and fails with net.ErrClosed.
type Conn struct {
	raw    net.Conn
	br     *bufio.Reader // nil once closed; guarded by rmu
	bw     *bufio.Writer // nil once closed; guarded by wmu
	closed atomic.Bool

	rmu, wmu   sync.Mutex
	rhdr, whdr [frameHeaderSize]byte // header scratch under rmu, wmu: a local escapes, one allocation per frame
	maxBody    int                   // largest frame body delivered so far; guarded by rmu

	readTimeout  atomic.Int64 // per-frame read bound, ns; 0 = none
	writeTimeout atomic.Int64 // per-frame write bound, ns; 0 = none
	deadline     atomic.Int64 // absolute cut-off, unix ns; 0 = none
	abortErr     atomic.Value // error: set once the bound context ends

	metrics atomic.Pointer[connMetrics]
}

// connMetrics holds cached registry handles so the per-frame hot path is
// a few atomic adds.
type connMetrics struct {
	framesSent, framesRecv *obs.Counter
	bytesSent, bytesRecvd  *obs.Counter
	timeouts               *obs.Counter
}

// Instrument attaches process-level counters for the connection's frame
// traffic under the given name prefix: <prefix>_frames_sent/_frames_recv,
// <prefix>_bytes_sent/_bytes_recv, and <prefix>_frame_timeouts. A nil
// registry detaches the counters but keeps them safe to hit.
func (c *Conn) Instrument(r *obs.Registry, prefix string) {
	c.metrics.Store(&connMetrics{
		framesSent: r.Counter(prefix + obs.MWireFramesSentSuffix),
		framesRecv: r.Counter(prefix + obs.MWireFramesRecvSuffix),
		bytesSent:  r.Counter(prefix + obs.MWireBytesSentSuffix),
		bytesRecvd: r.Counter(prefix + obs.MWireBytesRecvSuffix),
		timeouts:   r.Counter(prefix + obs.MWireFrameTimeoutsSuffix),
	})
}

// connBufSize is the size of a connection's buffered reader and writer.
const connBufSize = 64 << 10

// The process pools a connection's buffers and a first frame's staging
// chunks come from. Each is a bounded free list, not a sync.Pool: what
// it returns does not depend on the collector, and a full list drops
// what is handed back. The bounds are what an idle process keeps: the
// buffers of 64 connections (8 MiB, more than a QPC holds open to its
// sites at a time) and one 1 MiB claim's chunks. Nothing a pool lends is
// ever aliased by a decoded value (DESIGN §3.9): a frame body is always
// fresh memory.
var (
	readerPool = newPool[*bufio.Reader](64)
	writerPool = newPool[*bufio.Writer](64)
	chunkPool  = newPool[[]byte](16)
)

// pool is a bounded free list safe for concurrent use.
type pool[T any] chan T

func newPool[T any](n int) pool[T] { return make(pool[T], n) }

// get returns a pooled item, or ok=false when the pool is empty.
func (p pool[T]) get() (v T, ok bool) {
	select {
	case v = <-p:
		return v, true
	default:
		return v, false
	}
}

// put hands v back; a full pool drops it.
func (p pool[T]) put(v T) {
	select {
	case p <- v:
	default:
	}
}

// NewConn wraps a transport connection.
func NewConn(c net.Conn) *Conn {
	br, ok := readerPool.get()
	if ok {
		br.Reset(c)
	} else {
		br = bufio.NewReaderSize(c, connBufSize)
	}
	bw, ok := writerPool.get()
	if ok {
		bw.Reset(c)
	} else {
		bw = bufio.NewWriterSize(c, connBufSize)
	}
	return &Conn{raw: c, br: br, bw: bw}
}

// SetFrameTimeout bounds each subsequent frame operation: a read that
// sees no complete frame within the read bound, or a write the peer does
// not drain within the write bound, fails with a timeout error instead
// of blocking forever. Zero disables the corresponding bound.
func (c *Conn) SetFrameTimeout(read, write time.Duration) {
	c.readTimeout.Store(int64(read))
	c.writeTimeout.Store(int64(write))
}

// Bind ties the connection to ctx until release is called: the context
// deadline becomes the connection's absolute cut-off (the per-query
// deadline), and cancellation immediately unblocks in-flight frame I/O
// and fails subsequent operations with the context's error. The
// returned release must be called; it does not clear the deadline.
func (c *Conn) Bind(ctx context.Context) (release func()) {
	if d, ok := ctx.Deadline(); ok {
		c.deadline.Store(d.UnixNano())
	}
	stop := context.AfterFunc(ctx, func() {
		c.abortErr.Store(ctx.Err())
		// Expire any I/O already blocked in the kernel/pipe.
		c.raw.SetDeadline(time.Now())
	})
	return func() { stop() }
}

// opDeadline computes the deadline for one frame operation: the earlier
// of now+timeout and the absolute connection deadline. The zero time
// means unbounded.
func (c *Conn) opDeadline(timeout time.Duration) time.Time {
	var dl time.Time
	if timeout > 0 {
		dl = time.Now().Add(timeout)
	}
	if abs := c.deadline.Load(); abs != 0 {
		at := time.Unix(0, abs)
		if dl.IsZero() || at.Before(dl) {
			dl = at
		}
	}
	return dl
}

// aborted returns the bound context's error once it has fired.
func (c *Conn) aborted() error {
	if err, ok := c.abortErr.Load().(error); ok {
		return err
	}
	return nil
}

// describeIO rewrites raw timeout errors into something a user can act
// on, and surfaces a bound context's cancellation as that error. A zero
// MsgType means the frame type is not yet known (header read).
func (c *Conn) describeIO(op string, t MsgType, dl time.Time, err error) error {
	if err == nil {
		return nil
	}
	label := op
	if t != 0 {
		label = fmt.Sprintf("%s %v", op, t)
	}
	if aerr := c.aborted(); aerr != nil {
		return fmt.Errorf("wire: %s: %w", label, aerr)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if m := c.metrics.Load(); m != nil {
			m.timeouts.Inc()
		}
		return fmt.Errorf("wire: %s: peer did not respond by %s (stalled or dead): %w",
			label, dl.Format("15:04:05.000"), err)
	}
	return fmt.Errorf("wire: %s: %w", label, err)
}

// Send writes one frame and flushes it.
func (c *Conn) Send(t MsgType, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("wire: %v frame of %d bytes exceeds limit", t, len(payload))
	}
	if err := c.aborted(); err != nil {
		return fmt.Errorf("wire: send %v: %w", t, err)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.bw == nil {
		return fmt.Errorf("wire: send %v: %w", t, net.ErrClosed)
	}
	dl := c.opDeadline(time.Duration(c.writeTimeout.Load()))
	if err := c.raw.SetWriteDeadline(dl); err != nil {
		return fmt.Errorf("wire: send %v: %w", t, err)
	}
	hdr := c.whdr[:]
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	if _, err := c.bw.Write(hdr); err != nil {
		return c.describeIO("send", t, dl, err)
	}
	if _, err := c.bw.Write(payload); err != nil {
		return c.describeIO("send", t, dl, err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.describeIO("send", t, dl, err)
	}
	if m := c.metrics.Load(); m != nil {
		m.framesSent.Inc()
		m.bytesSent.Add(int64(frameHeaderSize + len(payload)))
	}
	return nil
}

// Recv reads one frame.
func (c *Conn) Recv() (MsgType, []byte, error) {
	if err := c.aborted(); err != nil {
		return 0, nil, fmt.Errorf("wire: recv: %w", err)
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.br == nil {
		return 0, nil, fmt.Errorf("wire: recv: %w", net.ErrClosed)
	}
	dl := c.opDeadline(time.Duration(c.readTimeout.Load()))
	if err := c.raw.SetReadDeadline(dl); err != nil {
		return 0, nil, fmt.Errorf("wire: recv: %w", err)
	}
	hdr := c.rhdr[:]
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		return 0, nil, c.describeIO("recv header", 0, dl, err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	t := MsgType(hdr[4])
	if n > MaxFrameSize {
		return 0, nil, fmt.Errorf("wire: incoming %v frame of %d bytes exceeds limit", t, n)
	}
	payload, err := readFrameBody(c.br, int(n), c.maxBody)
	if err != nil {
		return 0, nil, c.describeIO("recv body of", t, dl, err)
	}
	c.maxBody = max(c.maxBody, int(n))
	if m := c.metrics.Load(); m != nil {
		m.framesRecv.Inc()
		m.bytesRecvd.Add(int64(frameHeaderSize) + int64(n))
	}
	return t, payload, nil
}

// readFrameBody reads an n-byte payload without trusting n for the
// allocation: a corrupt or hostile length prefix must cost no more
// memory than the bytes that actually arrive. A length no larger than
// trusted — a body this connection has already delivered in full — is
// allocated at once, so a stream's frames after its first cost one
// allocation each. A larger claim is staged in pooled chunks as its
// bytes arrive, and only once all of them have is the body allocated,
// at exactly its length.
func readFrameBody(r io.Reader, n, trusted int) ([]byte, error) {
	if n <= max(stageChunk, trusted) {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	var chunks [][]byte
	defer func() {
		for _, c := range chunks {
			chunkPool.put(c)
		}
	}()
	for got := 0; got < n; {
		c, ok := chunkPool.get()
		if !ok {
			c = make([]byte, stageChunk)
		}
		chunks = append(chunks, c)
		step := min(stageChunk, n-got)
		if _, err := io.ReadFull(r, c[:step]); err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		got += step
	}
	buf := make([]byte, 0, n)
	for _, c := range chunks {
		buf = append(buf, c[:min(stageChunk, n-len(buf))]...)
	}
	return buf, nil
}

// stageChunk is the size of the chunks an unproven length claim is
// staged in, and the largest body read without staging on a connection
// that has delivered none larger.
const stageChunk = 64 << 10

// Expect receives one frame and requires it to be of the given type. An
// incoming MsgError is surfaced as the remote error it carries.
func (c *Conn) Expect(want MsgType) ([]byte, error) {
	t, payload, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if t == MsgError {
		return nil, &RemoteError{Msg: string(payload)}
	}
	if t != want {
		return nil, fmt.Errorf("wire: expected %v, got %v", want, t)
	}
	return payload, nil
}

// SendError sends an error frame; transmission failures are ignored since
// the connection is already failing.
func (c *Conn) SendError(err error) {
	_ = c.Send(MsgError, []byte(err.Error()))
}

// Close closes the underlying transport and hands the connection's
// buffers back to the pool once no Recv or Send is using them. Closing
// the transport first unblocks one in flight; every later call fails
// with an error wrapping net.ErrClosed.
func (c *Conn) Close() error {
	if c.closed.Swap(true) {
		return c.raw.Close()
	}
	err := c.raw.Close()
	c.rmu.Lock()
	br := c.br
	c.br = nil
	c.rmu.Unlock()
	c.wmu.Lock()
	bw := c.bw
	c.bw = nil
	c.wmu.Unlock()
	br.Reset(nil)
	bw.Reset(nil)
	readerPool.put(br)
	writerPool.put(bw)
	return err
}

// RemoteError is an error reported by the peer via a MsgError frame.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "remote: " + e.Msg }
