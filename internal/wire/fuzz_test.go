package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/types"
)

// byteConn feeds a fixed byte stream to a Conn; writes vanish.
type byteConn struct{ r *bytes.Reader }

func (c *byteConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *byteConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *byteConn) Close() error                     { return nil }
func (c *byteConn) LocalAddr() net.Addr              { return fuzzAddr{} }
func (c *byteConn) RemoteAddr() net.Addr             { return fuzzAddr{} }
func (c *byteConn) SetDeadline(time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(time.Time) error { return nil }

type fuzzAddr struct{}

func (fuzzAddr) Network() string { return "fuzz" }
func (fuzzAddr) String() string  { return "fuzz" }

// frame assembles one raw frame: 4-byte length, 1-byte type, payload.
func frame(t MsgType, payload []byte) []byte {
	buf := make([]byte, 0, frameHeaderSize+len(payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, byte(t))
	return append(buf, payload...)
}

var fuzzSchema = types.NewSchema(
	types.Column{Name: "a", Kind: types.KindInt},
	types.Column{Name: "s", Kind: types.KindString},
)

// fuzzRasterSchema is the second schema FuzzFrame decodes every batch
// under: a raster's size is the product of two lengths off the wire.
var fuzzRasterSchema = types.NewSchema(
	types.Column{Name: "a", Kind: types.KindInt},
	types.Column{Name: "image", Kind: types.KindRaster},
)

// FuzzFrame throws arbitrary byte streams at the frame decoder and, for
// frames that parse, at the payload decoders behind it. The decoders
// must reject garbage with an error — never panic, hang, or allocate
// proportionally to a hostile length prefix rather than to the bytes
// that actually arrived.
func FuzzFrame(f *testing.F) {
	// Well-formed frames.
	hello, _ := EncodeXML(Hello{Role: "qpc", Site: "site1"})
	f.Add(frame(MsgHello, hello))
	stats, _ := EncodeXML(ExecStats{Site: "site1", Spans: []obs.Span{{Name: obs.OpScan, Site: "site1", DurMicros: 40, DBBytes: 512, Tuples: 7, RowsIn: 7}}})
	f.Add(frame(MsgEOS, stats))
	batch := EncodeBatch([]types.Tuple{
		{types.Int(1), types.String_("x")},
		{types.Int(2), types.String_("longer value")},
	})
	f.Add(frame(MsgTupleBatch, batch))
	f.Add(frame(MsgAck, nil))
	// Resumable-stream frames: sequence-numbered batches and EOS.
	f.Add(frame(MsgSeqBatch, AppendSeq(1, batch)))
	f.Add(frame(MsgSeqEOS, AppendSeq(2, stats)))
	// Placement-bearing frames: a shard's START with its partition
	// coordinates, the ack asking for two classes, and an EOS echoing the
	// coordinates back.
	cutFrag := &core.Fragment{
		Site: "site1", Table: "Rasters", SemiJoinCol: -1,
		CutPoint: "below=[call AvgEnergy]", CutAlts: 3,
	}
	start, _ := EncodeXML(core.Start{Stream: "q0/0", Trace: "q0", Part: 1, Of: 4, Fragment: cutFrag})
	f.Add(frame(MsgStart, start))
	startAck, _ := EncodeXML(StartAck{Need: []string{"deadbeefcafef00d", "0123456789abcdef"}})
	f.Add(frame(MsgStartAck, startAck))
	shardStats, _ := EncodeXML(ExecStats{Site: "site1", Part: 1, Of: 4, Spans: []obs.Span{
		{Name: obs.PhaseDapStart, Site: "site1", DurMicros: 12, CacheHits: 1},
		{Name: obs.PhaseDapFlush, Site: "site1", StartMicros: 30, DurMicros: 5, NetBytes: 99, Tuples: 3}}})
	f.Add(frame(MsgSeqEOS, AppendSeq(3, shardStats)))
	// A START that re-places a broken stream names the last frame held;
	// its ack continues from the next one, and asks for nothing — an ack
	// that does both is the peer's to refuse, the decoder's only to read.
	again, _ := EncodeXML(core.Start{Stream: "q0/0", Trace: "q0", After: 7, Fragment: cutFrag})
	f.Add(frame(MsgStart, again))
	contAck, _ := EncodeXML(StartAck{From: 8})
	f.Add(frame(MsgStartAck, contAck))
	bothAck, _ := EncodeXML(StartAck{From: 8, Need: []string{"deadbeefcafef00d"}})
	f.Add(frame(MsgStartAck, bothAck))
	// Release-rollback frames: a cache invalidation naming withdrawn
	// content digests and its drop-count acknowledgement.
	inval, _ := EncodeXML(CodeInvalidate{Digests: []string{"deadbeefcafef00d", "0123456789abcdef"}})
	f.Add(frame(MsgCodeInvalidate, inval))
	invalAck, _ := EncodeXML(CodeInvalidateAck{Dropped: 2})
	f.Add(frame(MsgCodeInvalidateAck, invalAck))
	// The START above carries a cut-annotated fragment (and with it the
	// dag-cut feature gate); the same document demanding a feature this
	// build does not implement must be refused with an error, not
	// misread. An unpartitioned, untraced START is the common case.
	f.Add(frame(MsgStart, []byte(strings.Replace(string(start),
		`requires="dag-cut"`, `requires="dag-cut time-travel"`, 1))))
	bareStart, _ := EncodeXML(core.Start{Stream: "q1/1", Fragment: &core.Fragment{Site: "site2", Table: "Rasters2", SemiJoinCol: 0}})
	f.Add(frame(MsgStart, bareStart))
	// Result-schema frames: a well-formed schema and one naming a kind
	// the type system does not have, which the decoder must refuse.
	resultSchema, _ := EncodeXML(ResultSchema{Schema: fuzzSchema})
	f.Add(frame(MsgResultSchema, resultSchema))
	f.Add(frame(MsgResultSchema, []byte(strings.Replace(string(resultSchema), `kind="INT"`, `kind="WEIRD"`, 1))))
	// Malformed: truncated header, truncated body, hostile length prefix,
	// unknown type, huge tuple count with no tuples, multiple frames,
	// and seq frames truncated inside the sequence-number prefix.
	f.Add([]byte{0, 0})
	f.Add(frame(MsgTupleBatch, batch)[:7])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(MsgTupleBatch), 1, 2, 3})
	f.Add(frame(MsgType(200), []byte("junk")))
	f.Add(frame(MsgTupleBatch, []byte{0xff, 0xff, 0xff, 0xff}))
	f.Add(append(frame(MsgAck, nil), frame(MsgTupleBatch, batch)...))
	f.Add(frame(MsgSeqBatch, AppendSeq(1, batch)[:5]))
	f.Add(frame(MsgSeqBatch, nil))
	f.Add(frame(MsgSeqEOS, []byte{0, 0, 0}))
	f.Add(frame(MsgSeqBatch, AppendSeq(^uint64(0), []byte{0xff, 0xff})))
	// One tuple whose raster header is ff×8: width × height wraps negative.
	// It used to pass the length guard and panic on the slice — one corrupt
	// frame took the receiving process down.
	f.Add(frame(MsgTupleBatch, append([]byte{0, 0, 0, 1, 0, 0, 0, 7}, bytes.Repeat([]byte{0xff}, 8)...)))
	f.Add(frame(MsgTupleBatch, EncodeBatch([]types.Tuple{{types.Int(7), types.NewRaster(2, 2, []byte{1, 2, 3, 4})}})))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(&byteConn{r: bytes.NewReader(data)})
		for {
			typ, payload, err := c.Recv()
			if err != nil {
				// Any error is fine; the stream just has to end in a
				// recognizable failure, not a panic.
				if len(data) == 0 && !errors.Is(err, io.EOF) {
					t.Fatalf("empty stream should be clean EOF, got %v", err)
				}
				return
			}
			if len(payload) > MaxFrameSize {
				t.Fatalf("Recv returned %d-byte payload past the frame limit", len(payload))
			}
			switch typ {
			case MsgTupleBatch:
				for _, schema := range []types.Schema{fuzzSchema, fuzzRasterSchema} {
					if tuples, err := DecodeBatch(schema, payload); err == nil {
						// A batch that decodes must round-trip.
						if !bytes.Equal(EncodeBatch(tuples), payload) {
							t.Fatal("decoded batch does not re-encode to its payload")
						}
					}
				}
			case MsgHello:
				var h Hello
				_ = DecodeXML(payload, &h)
			case MsgEOS:
				var s ExecStats
				_ = DecodeXML(payload, &s)
			case MsgSeqBatch:
				if seq, body, err := CutSeq(payload); err == nil {
					if tuples, err := DecodeBatch(fuzzSchema, body); err == nil {
						if !bytes.Equal(frame(MsgSeqBatch, AppendSeq(seq, EncodeBatch(tuples))), frame(MsgSeqBatch, payload)) {
							t.Fatal("decoded seq batch does not re-encode to its payload")
						}
					}
				}
			case MsgSeqEOS:
				if _, body, err := CutSeq(payload); err == nil {
					var s ExecStats
					_ = DecodeXML(body, &s)
				}
			case MsgStart:
				// Fragment decode gate: garbage and unknown-feature
				// documents must fail with an error, never panic.
				var st core.Start
				_ = DecodeXML(payload, &st)
			case MsgStartAck:
				// An ack that decodes keeps its resume point and its wants
				// through a re-encode.
				var a, b StartAck
				if DecodeXML(payload, &a) == nil {
					doc, err := EncodeXML(&a)
					if err != nil || DecodeXML(doc, &b) != nil || a.From != b.From || !slices.Equal(a.Need, b.Need) {
						t.Fatalf("start-ack %+v re-encoded to %q (err %v), decoding to %+v", a, doc, err, b)
					}
				}
			case MsgCodeInvalidate:
				var ci CodeInvalidate
				_ = DecodeXML(payload, &ci)
			case MsgCodeInvalidateAck:
				var ca CodeInvalidateAck
				_ = DecodeXML(payload, &ca)
			case MsgResultSchema:
				var m ResultSchema
				_ = DecodeXML(payload, &m)
			}
		}
	})
}

// TestRecvHostileLengthPrefix pins the over-allocation defence outside
// the fuzzer: a header promising MaxFrameSize with almost no data behind
// it must fail with a truncation error, and quickly.
func TestRecvHostileLengthPrefix(t *testing.T) {
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrameSize)
	hdr[4] = byte(MsgTupleBatch)
	data := append(hdr[:], []byte("only ten b")...)
	c := NewConn(&byteConn{r: bytes.NewReader(data)})
	_, _, err := c.Recv()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF for truncated giant frame, got %v", err)
	}
}

// TestRecvRejectsOversizedFrame: a length prefix beyond MaxFrameSize is
// rejected from the header alone, before any body is read.
func TestRecvRejectsOversizedFrame(t *testing.T) {
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrameSize+1)
	hdr[4] = byte(MsgTupleBatch)
	c := NewConn(&byteConn{r: bytes.NewReader(hdr[:])})
	_, _, err := c.Recv()
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("exceeds limit")) {
		t.Fatalf("want frame-limit error, got %v", err)
	}
}
