package types

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// rasterHeader is an 8-byte raster header followed by tail.
func rasterHeader(w, h uint32, tail ...byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, w)
	return append(binary.BigEndian.AppendUint32(b, h), tail...)
}

// TestDecodeRasterRefusesHeaderThatWraps: the two dimensions are
// attacker-controlled uint32s; ff ff ff ff ff ff ff ff used to wrap the
// size negative, pass the length guard and panic on the slice. Every
// such header is an error, from DecodeValue and from FromPayload.
func TestDecodeRasterRefusesHeaderThatWraps(t *testing.T) {
	for _, hdr := range [][]byte{
		rasterHeader(0xffffffff, 0xffffffff),
		rasterHeader(0xffffffff, 0xffffffff, 1, 2, 3),
		rasterHeader(0x80000000, 0x80000000),
		rasterHeader(0xffffffff, 0x80000001, make([]byte, 64)...),
		rasterHeader(1, 0xffffffff),
		rasterHeader(3, 3, 1, 2, 3, 4, 5, 6, 7, 8), // one pixel short
	} {
		if v, n, err := DecodeValue(KindRaster, hdr); err == nil {
			t.Errorf("DecodeValue(% x) = %v, %d; want an error", hdr[:8], v, n)
		}
		if r, err := FromPayload(KindRaster, hdr); err == nil {
			t.Errorf("FromPayload(RASTER, % x) = %v; want an error", hdr[:8], r)
		}
	}
	// A zero dimension makes any other one valid: there are no pixels.
	if v, n, err := DecodeValue(KindRaster, rasterHeader(0, 0xffffffff, 9)); err != nil || n != 8 || v.WireSize() != 8 {
		t.Errorf("0-wide raster = %v, %d, %v; want an 8-byte value", v, n, err)
	}
}

// FuzzDecodeValue: whatever the bytes, DecodeValue returns an error or a
// value that stays inside the input and whose encoding round-trips —
// never a panic. ValueSize, which a forwarding reader checks records
// with instead of decoding them, agrees with it on every input: the same
// size, or the same error.
func FuzzDecodeValue(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range allKinds {
		f.Add(uint8(k), randomValue(rng, k, 24).AppendTo(nil))
	}
	f.Add(uint8(KindRaster), rasterHeader(0xffffffff, 0xffffffff))
	f.Add(uint8(KindRaster), rasterHeader(0x80000000, 0x80000000, 1))
	f.Add(uint8(KindPolygon), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(KindGraph), []byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(KindBytes), []byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		k := Kind(kind)
		v, n, err := DecodeValue(k, data)
		size, sizeErr := ValueSize(k, data)
		if fmt.Sprint(err) != fmt.Sprint(sizeErr) || (err == nil && size != n) {
			t.Fatalf("%v: DecodeValue took %d bytes (%v), ValueSize sized %d (%v)", k, n, err, size, sizeErr)
		}
		if err != nil {
			return
		}
		if n < 0 || n > len(data) || v.Kind() != k || v.WireSize() != n {
			t.Fatalf("%v: consumed %d of %d bytes into a %v of wire size %d", k, n, len(data), v.Kind(), v.WireSize())
		}
		enc := v.AppendTo(nil)
		// A bool decodes from any non-zero byte and encodes as 1.
		if k != KindBool && !bytes.Equal(enc, data[:n]) {
			t.Fatalf("%v: % x decoded and re-encoded as % x", k, data[:n], enc)
		}
		again, m, err := DecodeValue(k, enc)
		if err != nil || m != n || !bytes.Equal(again.AppendTo(nil), enc) {
			t.Fatalf("%v: re-decoding % x: %d bytes, %v", k, enc, m, err)
		}
	})
}

// TestDecodedLargeValuesAliasTheirBuffer pins the ownership rule at its
// source: a decoded polygon, graph, raster or byte string is a window
// into the buffer it came from, clipped so that nothing appended to it
// can reach its neighbour; small values are copies.
func TestDecodedLargeValuesAliasTheirBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	schema := NewSchema(
		Column{Name: "id", Kind: KindInt}, Column{Name: "name", Kind: KindString},
		Column{Name: "b", Kind: KindBytes}, Column{Name: "p", Kind: KindPolygon},
		Column{Name: "g", Kind: KindGraph}, Column{Name: "r", Kind: KindRaster},
	)
	var want Tuple
	for _, c := range schema.Columns {
		v := randomValue(rng, c.Kind, 16)
		for c.Kind.IsLarge() && v.WireSize() <= 8 { // an empty payload shares no byte to observe
			v = randomValue(rng, c.Kind, 16)
		}
		want = append(want, v)
	}
	buf := want.AppendTo(nil)
	got, n, err := DecodeTuple(schema, buf)
	if err != nil || n != len(buf) {
		t.Fatalf("DecodeTuple: %d of %d bytes, %v", n, len(buf), err)
	}
	for i, v := range got {
		lg, ok := v.(Large)
		if !ok {
			continue
		}
		p := lg.Payload()
		if cap(p) != len(p) {
			t.Errorf("column %d: payload has %d spare bytes of its neighbour's", i, cap(p)-len(p))
		}
	}
	for i := range buf {
		buf[i] ^= 0xff
	}
	for i, v := range got {
		_, large := v.(Large)
		if same := bytes.Equal(v.AppendTo(nil), want[i].AppendTo(nil)); same == large {
			t.Errorf("column %d (%v): unchanged=%v after its buffer was overwritten, large=%v", i, v.Kind(), same, large)
		}
	}
}

// TestFromPayloadCopiesOutOfMVMMemory: the one decode whose source is
// reused — a shipped aggregate may keep writing the buffer it returned.
// The hand-over case is the same payload through DecodeValue: whole, and
// the memory itself — what a scalar operator does with a buffer nobody
// else can reach (ops.TestScalarHandsOverItsOwnResult is its other half).
func TestFromPayloadCopiesOutOfMVMMemory(t *testing.T) {
	mem := NewRaster(2, 2, []byte{1, 2, 3, 4}).AppendTo(nil)
	v, err := FromPayload(KindRaster, mem)
	if err != nil {
		t.Fatal(err)
	}
	own, n, err := DecodeValue(KindRaster, mem)
	if err != nil || n != len(mem) {
		t.Fatalf("DecodeValue in place: %d of %d bytes, %v", n, len(mem), err)
	}
	mem[8] = 99
	if got := v.(Raster).At(0, 0); got != 1 {
		t.Errorf("raster pixel followed MVM memory: %d", got)
	}
	if got := own.(Raster).At(0, 0); got != 99 {
		t.Errorf("handed-over raster is a copy: pixel %d", got)
	}
}
