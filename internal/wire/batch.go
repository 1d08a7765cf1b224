package wire

import (
	"encoding/binary"
	"fmt"

	"mocha/internal/types"
)

// Tuple batching. Rather than allocating fresh objects per tuple (the
// inefficiency the paper calls out in RMI-based transfer), tuples are
// packed schema-encoded into batches and decoded in bulk at the receiver.

// DefaultBatchBytes is the target payload size at which a BatchWriter
// flushes.
const DefaultBatchBytes = 256 << 10

// EncodeBatch packs tuples into one TupleBatch payload, in memory of
// exactly its size.
func EncodeBatch(tuples []types.Tuple) []byte {
	size := 4
	for _, t := range tuples {
		size += t.WireSize()
	}
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(tuples)))
	for _, t := range tuples {
		buf = t.AppendTo(buf)
	}
	return buf
}

// DecodeBatch unpacks a TupleBatch payload under the given schema. The
// tuples are windows into payload (types.DecodeValue has the rule) and
// into one slab of values and one of payload headers: payload must not
// be written again.
func DecodeBatch(s types.Schema, payload []byte) ([]types.Tuple, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("wire: batch too short")
	}
	n := int(binary.BigEndian.Uint32(payload))
	off := 4
	// The count is attacker-controlled; cap the pre-allocation and let
	// append (and a further slab) follow the tuples that actually decode.
	prealloc := min(n, 4096, len(payload))
	cols, hdrs := len(s.Columns), s.Headers()
	tuples := make([]types.Tuple, 0, prealloc)
	var slab types.Slab
	for i := 0; i < n; i++ {
		slab.Reserve(prealloc, cols, hdrs)
		t, used, err := slab.DecodeTuple(s, payload[off:])
		if err != nil {
			return nil, fmt.Errorf("wire: batch tuple %d: %w", i, err)
		}
		off += used
		tuples = append(tuples, t)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("wire: batch has %d trailing bytes", len(payload)-off)
	}
	return tuples, nil
}

// FrameSender is the sink a BatchWriter flushes frames into. Send must
// be done with payload when it returns: the writer encodes its next
// batch into the same memory.
type FrameSender interface {
	Send(t MsgType, payload []byte) error
}

// framePool lends BatchWriter frames: a stream's frame goes back when
// the stream ends (Release), and the next stream's writer encodes into
// it. An idle process keeps at most 64 frames, one per stream it had
// open at once, each at most maxPooledFrame.
var framePool = newPool[[]byte](64)

// BatchWriter streams tuples over a connection, flushing a TupleBatch
// frame whenever the pending payload reaches the target size. A tuple is
// encoded into the frame when it is written, and the frame's count is
// filled in when it is sent: the writer holds bytes, not tuples.
type BatchWriter struct {
	conn   FrameSender
	target int
	frame  []byte // the pending batch, behind room for its count; reused for the next
	count  int    // tuples in frame
	// DataBytes accumulates the tuple payload bytes sent (excluding
	// framing), i.e. the volume-of-data-transmitted contribution.
	DataBytes int64
	// Tuples counts tuples sent.
	Tuples int64
}

// NewBatchWriter returns a writer targeting the default batch size.
func NewBatchWriter(c FrameSender) *BatchWriter {
	return &BatchWriter{conn: c, target: DefaultBatchBytes}
}

// SetTarget overrides the flush threshold. Values <= 0 restore the
// default.
func (w *BatchWriter) SetTarget(n int) {
	if n <= 0 {
		n = DefaultBatchBytes
	}
	w.target = n
}

// Write encodes one tuple into the pending batch, flushing if the batch
// is full.
func (w *BatchWriter) Write(t types.Tuple) error {
	_, err := w.Append(t)
	return err
}

// Append is Write returning the tuple's encoding, which stays valid
// until the writer's next call: a caller that needs the row's bytes —
// the QPC's result digest — reads them here instead of encoding the
// row again. A failed flush returns the encoding with its error.
func (w *BatchWriter) Append(t types.Tuple) ([]byte, error) {
	w.open()
	start := len(w.frame)
	w.frame = t.AppendTo(w.frame)
	row := w.frame[start:len(w.frame):len(w.frame)]
	return row, w.added()
}

// WriteEncoded is Write for a tuple already in its wire encoding, given
// as the encodings of its columns in order: a forwarded record's column
// bytes, which are copied into the pending batch once.
func (w *BatchWriter) WriteEncoded(cols ...[]byte) error {
	w.open()
	for _, c := range cols {
		w.frame = append(w.frame, c...)
	}
	return w.added()
}

// open makes room for the pending batch's count, in a pooled frame when
// the writer has none.
func (w *BatchWriter) open() {
	if w.frame == nil {
		if f, ok := framePool.get(); ok && cap(f) >= w.target {
			w.frame = f
		} else {
			w.frame = make([]byte, 0, w.target+w.target/4)
		}
	}
	if len(w.frame) == 0 {
		w.frame = append(w.frame, 0, 0, 0, 0)
	}
}

// added counts the tuple just encoded and flushes a full batch.
func (w *BatchWriter) added() error {
	w.count++
	w.Tuples++
	if len(w.frame)-4 >= w.target {
		return w.Flush()
	}
	return nil
}

// Flush sends the pending tuples, if any, as one batch.
func (w *BatchWriter) Flush() error {
	if w.count == 0 {
		return nil
	}
	binary.BigEndian.PutUint32(w.frame, uint32(w.count))
	err := w.conn.Send(MsgTupleBatch, w.frame)
	w.DataBytes += int64(len(w.frame) - 4)
	w.frame, w.count = w.frame[:0], 0
	return err
}

// Release ends the writer's stream: its frame, with any tuples not
// flushed, goes back to the pool — unless a large tuple grew it past
// maxPooledFrame, which the pool does not keep.
func (w *BatchWriter) Release() {
	if w.frame != nil && cap(w.frame) <= maxPooledFrame {
		framePool.put(w.frame[:0])
	}
	w.frame, w.count = nil, 0
}

// maxPooledFrame is the largest frame Release hands back to the pool.
const maxPooledFrame = 4 * DefaultBatchBytes

// BatchReader consumes a tuple stream terminated by an EOS frame.
type BatchReader struct {
	conn   *Conn
	schema types.Schema
	buf    []types.Tuple
	pos    int
	done   bool
	// EOSPayload holds the payload of the terminating EOS frame (the
	// sender's execution stats) once the stream ends.
	EOSPayload []byte
}

// NewBatchReader reads tuples of the given schema from c.
func NewBatchReader(c *Conn, s types.Schema) *BatchReader {
	return &BatchReader{conn: c, schema: s}
}

// Next returns the next tuple, or (nil, nil) at end of stream.
func (r *BatchReader) Next() (types.Tuple, error) {
	for r.pos >= len(r.buf) {
		if r.done {
			return nil, nil
		}
		t, payload, err := r.conn.Recv()
		if err != nil {
			return nil, err
		}
		switch t {
		case MsgTupleBatch:
			r.buf, err = DecodeBatch(r.schema, payload)
			if err != nil {
				return nil, err
			}
			r.pos = 0
		case MsgEOS:
			r.done = true
			r.EOSPayload = payload
			return nil, nil
		case MsgError:
			return nil, &RemoteError{Msg: string(payload)}
		default:
			return nil, fmt.Errorf("wire: unexpected %v in tuple stream", t)
		}
	}
	t := r.buf[r.pos]
	r.pos++
	return t, nil
}
