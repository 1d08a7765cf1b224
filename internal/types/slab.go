package types

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// header is a polygon's, graph's or raster's payload header. The value
// itself is a struct of one pointer to it, so it is pointer-shaped: an
// Object holds it in its data word and boxing it allocates nothing. A
// decoded value's header comes from a Slab, one block per batch.
type header struct{ b []byte }

// data returns the payload; the zero value's is empty.
func (h *header) data() []byte {
	if h == nil {
		return nil
	}
	return h.b
}

// HasHeader reports whether a decoded value of kind k points to a
// payload header: polygons, graphs and rasters.
func (k Kind) HasHeader() bool {
	return k == KindPolygon || k == KindGraph || k == KindRaster
}

// slabBytes is the size of the byte blocks Slab.Copy carves from.
const slabBytes = 32 << 10

// Slab is the memory a run of decoded rows lives in: their values, the
// headers of their large values and, for a reader that must copy them
// out of a reused buffer, the bytes those values window. Each comes
// from a block a whole batch shares, so the rows of a batch cost one
// allocation of each, not one per row. A kept row keeps its blocks
// reachable; nothing is ever written into a block twice. The zero Slab
// is empty and allocates as it is used.
type Slab struct {
	vals  []Object
	hdrs  []header
	bytes []byte
}

// Reserve readies s for rows more rows of cols values, hdrs of them
// with payload headers (Kind.HasHeader): a block with too little left
// for one more row is replaced by one sized for all of them.
func (s *Slab) Reserve(rows, cols, hdrs int) {
	if len(s.vals) < cols {
		s.vals = make([]Object, max(rows, 1)*cols)
	}
	if len(s.hdrs) < hdrs {
		s.hdrs = make([]header, max(rows, 1)*hdrs)
	}
}

// Tuple carves a tuple of n values; one of none is empty, not nil.
func (s *Slab) Tuple(n int) Tuple {
	if len(s.vals) < n || s.vals == nil {
		s.vals = make([]Object, n)
	}
	t := Tuple(s.vals[:n:n])
	s.vals = s.vals[n:]
	return t
}

// Copy returns a copy of b carved from the slab's byte block. A copy of
// more than a quarter block gets an allocation of its own, so a raster
// neither wastes the block nor shares one.
func (s *Slab) Copy(b []byte) []byte {
	if len(b) > len(s.bytes) {
		if len(b) > slabBytes/4 {
			return bytes.Clone(b)
		}
		s.bytes = make([]byte, slabBytes)
	}
	out := s.bytes[:len(b):len(b)]
	copy(out, b)
	s.bytes = s.bytes[len(b):]
	return out
}

// Decode is DecodeValue with a large value's header carved from the
// slab.
func (s *Slab) Decode(k Kind, data []byte) (Object, int, error) {
	n, err := ValueSize(k, data)
	if err != nil {
		return nil, 0, err
	}
	v := data[:n:n]
	switch k {
	case KindNull:
		return Null{}, 0, nil
	case KindBool:
		return Bool(v[0] != 0), n, nil
	case KindInt:
		return Int(int32(binary.BigEndian.Uint32(v))), n, nil
	case KindDouble:
		return Double(math.Float64frombits(binary.BigEndian.Uint64(v))), n, nil
	case KindString:
		return String_(v[4:]), n, nil
	case KindBytes:
		return Bytes(v[4:]), n, nil
	case KindPoint:
		return Point{
			X: math.Float32frombits(binary.BigEndian.Uint32(v)),
			Y: math.Float32frombits(binary.BigEndian.Uint32(v[4:])),
		}, n, nil
	case KindRectangle:
		return Rectangle{
			XMin: math.Float32frombits(binary.BigEndian.Uint32(v)),
			YMin: math.Float32frombits(binary.BigEndian.Uint32(v[4:])),
			XMax: math.Float32frombits(binary.BigEndian.Uint32(v[8:])),
			YMax: math.Float32frombits(binary.BigEndian.Uint32(v[12:])),
		}, n, nil
	case KindPolygon:
		return Polygon{s.header(v)}, n, nil
	case KindGraph:
		return Graph{s.header(v)}, n, nil
	default: // KindRaster: ValueSize refused every kind not named here
		return Raster{s.header(v)}, n, nil
	}
}

// header carves a payload header for b.
func (s *Slab) header(b []byte) *header {
	if len(s.hdrs) == 0 {
		s.hdrs = make([]header, 1)
	}
	h := &s.hdrs[0]
	s.hdrs = s.hdrs[1:]
	h.b = b
	return h
}

// DecodeTuple decodes one tuple of schema sc from the front of data,
// carved from the slab, and returns it and the bytes consumed; its
// large values alias data.
func (s *Slab) DecodeTuple(sc Schema, data []byte) (Tuple, int, error) {
	t := s.Tuple(len(sc.Columns))
	var off int
	for i, c := range sc.Columns {
		v, n, err := s.Decode(c.Kind, data[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("column %q: %w", c.Name, err)
		}
		t[i] = v
		off += n
	}
	return t, off, nil
}

// Headers counts the schema's columns with payload headers.
func (s Schema) Headers() int {
	n := 0
	for _, c := range s.Columns {
		if c.Kind.HasHeader() {
			n++
		}
	}
	return n
}
