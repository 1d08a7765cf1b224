package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"mocha/internal/obs"
)

// Measurement records. The two EOS payloads carry measurements, not
// plans or metadata: a DAP's exec-stats (ExecStats) and the QPC's
// query-stats trailer to its client (qpc.QueryStats). Both are binary
// records: a version byte, then the type's fields in declaration order —
// integers as zig-zag varints, float64s as their 8 IEEE bits (little
// endian), strings and lists as a uvarint length and their contents.
// There are no field tags: a type and its codec change together, and a
// field the codec does not carry fails the round trip that fills every
// field (qpc's TestStatsRecordsCarryEveryField).

// recordVersion leads every record; a reader refuses any other.
const recordVersion = 1

// RecordWriter builds one record.
type RecordWriter struct{ buf []byte }

// NewRecordWriter starts a record with room for about size bytes.
func NewRecordWriter(size int) *RecordWriter {
	return &RecordWriter{buf: append(make([]byte, 0, size), recordVersion)}
}

// Int appends an integer.
func (w *RecordWriter) Int(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Float appends a float64's bits.
func (w *RecordWriter) Float(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Count appends a length (RecordReader.Count).
func (w *RecordWriter) Count(n int) { w.buf = binary.AppendUvarint(w.buf, uint64(n)) }

// String appends a length-prefixed string.
func (w *RecordWriter) String(s string) {
	w.Count(len(s))
	w.buf = append(w.buf, s...)
}

// Bytes returns the record.
func (w *RecordWriter) Bytes() []byte { return w.buf }

// RecordReader reads one record back. Its first failure sticks: every
// later read returns zero, and Close reports it.
type RecordReader struct {
	what string // the payload's name, for errors
	data []byte
	str  string // data as one string, so every decoded string is a window into it
	off  int
	err  error
}

// NewRecordReader opens the record data, a payload named what.
func NewRecordReader(what string, data []byte) *RecordReader {
	r := &RecordReader{what: what, data: data, str: string(data), off: 1}
	switch {
	case len(data) == 0:
		r.fail("empty")
	case data[0] != recordVersion:
		r.fail(fmt.Sprintf("version %d, want %d", data[0], recordVersion))
	}
	return r
}

func (r *RecordReader) fail(why string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: %s record: %s", r.what, why)
	}
	r.off = len(r.data)
}

// Int reads an integer.
func (r *RecordReader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail(fmt.Sprintf("truncated integer at byte %d", r.off))
		return 0
	}
	r.off += n
	return v
}

// Float reads a float64.
func (r *RecordReader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data)-r.off < 8 {
		r.fail(fmt.Sprintf("truncated float at byte %d", r.off))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// String reads a length-prefixed string.
func (r *RecordReader) String() string {
	n := r.Count(1)
	s := r.str[r.off : r.off+n]
	r.off += n
	return s
}

// Count reads a length: of a list whose every element takes at least
// minBytes bytes, or of a string (minBytes 1). A length the rest of the
// record cannot hold fails the read, so nothing the caller sizes by it
// outgrows the input.
func (r *RecordReader) Count(minBytes int) int {
	if r.err != nil {
		return 0
	}
	at := r.off
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(fmt.Sprintf("truncated length at byte %d", at))
		return 0
	}
	r.off += n
	if v > uint64((len(r.data)-r.off)/minBytes) {
		r.fail(fmt.Sprintf("length %d at byte %d overruns the record", v, at))
		return 0
	}
	return int(v)
}

// Close ends the read: the record must have been consumed exactly.
func (r *RecordReader) Close() error {
	if r.err == nil && r.off != len(r.data) {
		r.fail(fmt.Sprintf("%d trailing bytes", len(r.data)-r.off))
	}
	return r.err
}

// spanFields is how many fields a span record holds, each at least a
// byte: the floor Count uses to bound a span list by the input.
const spanFields = 14

func (w *RecordWriter) span(s *obs.Span) {
	w.String(s.Name)
	w.String(s.Site)
	w.Int(s.StartMicros)
	w.Int(s.DurMicros)
	w.Int(s.NetBytes)
	w.Int(s.DBBytes)
	w.Int(s.CodeBytes)
	w.Int(s.Classes)
	w.Int(s.CacheHits)
	w.Int(s.Tuples)
	w.Int(s.RowsIn)
	w.Int(s.Batches)
	w.Int(s.SpillBytes)
	w.Int(s.Instrs)
}

func (r *RecordReader) span(s *obs.Span) {
	s.Name = r.String()
	s.Site = r.String()
	s.StartMicros = r.Int()
	s.DurMicros = r.Int()
	s.NetBytes = r.Int()
	s.DBBytes = r.Int()
	s.CodeBytes = r.Int()
	s.Classes = r.Int()
	s.CacheHits = r.Int()
	s.Tuples = r.Int()
	s.RowsIn = r.Int()
	s.Batches = r.Int()
	s.SpillBytes = r.Int()
	s.Instrs = r.Int()
}

// MarshalBinary encodes the report as its EOS record.
func (es *ExecStats) MarshalBinary() ([]byte, error) {
	w := NewRecordWriter(16 + len(es.Site) + len(es.Trace) + 40*len(es.Spans))
	w.String(es.Site)
	w.String(es.Trace)
	w.Int(int64(es.Part))
	w.Int(int64(es.Of))
	w.Count(len(es.Spans))
	for i := range es.Spans {
		w.span(&es.Spans[i])
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes an EOS record into the report.
func (es *ExecStats) UnmarshalBinary(data []byte) error {
	r := NewRecordReader("exec-stats", data)
	es.Site = r.String()
	es.Trace = r.String()
	es.Part = int(r.Int())
	es.Of = int(r.Int())
	es.Spans = nil
	if n := r.Count(spanFields); n > 0 {
		es.Spans = make([]obs.Span, n)
		for i := range es.Spans {
			r.span(&es.Spans[i])
		}
	}
	return r.Close()
}
