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

// EncodeBatch packs tuples into one TupleBatch payload.
func EncodeBatch(tuples []types.Tuple) []byte {
	return appendBatch(nil, tuples)
}

// appendBatch encodes tuples as a TupleBatch payload, into buf when it
// has the room and else into new memory of exactly the size.
func appendBatch(buf []byte, tuples []types.Tuple) []byte {
	size := 4
	for _, t := range tuples {
		size += t.WireSize()
	}
	if cap(buf) < size {
		buf = make([]byte, 0, size)
	}
	buf = binary.BigEndian.AppendUint32(buf[:0], uint32(len(tuples)))
	for _, t := range tuples {
		buf = t.AppendTo(buf)
	}
	return buf
}

// DecodeBatch unpacks a TupleBatch payload under the given schema. The
// tuples are windows into payload (types.DecodeValue has the rule) and
// into one slab of values: payload must not be written again.
func DecodeBatch(s types.Schema, payload []byte) ([]types.Tuple, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("wire: batch too short")
	}
	n := int(binary.BigEndian.Uint32(payload))
	off := 4
	// The count is attacker-controlled; cap the pre-allocation and let
	// append (and a further slab) follow the tuples that actually decode.
	prealloc := min(n, 4096, len(payload))
	cols := len(s.Columns)
	tuples := make([]types.Tuple, 0, prealloc)
	slab := make([]types.Object, prealloc*cols)
	for i := 0; i < n; i++ {
		if len(slab) < cols {
			slab = make([]types.Object, prealloc*cols)
		}
		t := types.Tuple(slab[:cols:cols])
		used, err := types.DecodeTupleInto(t, s, payload[off:])
		if err != nil {
			return nil, fmt.Errorf("wire: batch tuple %d: %w", i, err)
		}
		off += used
		tuples, slab = append(tuples, t), slab[cols:]
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

// BatchWriter streams tuples over a connection, flushing a TupleBatch
// frame whenever the pending payload reaches the target size.
type BatchWriter struct {
	conn    FrameSender
	target  int
	pending []types.Tuple
	bytes   int
	frame   []byte // the last frame sent, reused for the next
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

// Write queues one tuple, flushing if the batch is full.
func (w *BatchWriter) Write(t types.Tuple) error {
	w.pending = append(w.pending, t)
	w.bytes += t.WireSize()
	w.Tuples++
	if w.bytes >= w.target {
		return w.Flush()
	}
	return nil
}

// Flush sends any pending tuples as one batch, encoded once into the
// writer's frame.
func (w *BatchWriter) Flush() error {
	if len(w.pending) == 0 {
		return nil
	}
	w.frame = appendBatch(w.frame, w.pending)
	err := w.conn.Send(MsgTupleBatch, w.frame)
	w.DataBytes += int64(w.bytes)
	clear(w.pending) // the tuples' frames must not stay reachable from here
	w.pending = w.pending[:0]
	w.bytes = 0
	return err
}

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
