package types

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"math"
	"strings"
)

// Column describes one attribute of a middleware relation. In every
// XML document that carries a schema it is <column name="…" kind="…">.
type Column struct {
	Name string `xml:"name,attr"`
	Kind Kind   `xml:"kind,attr"`
}

// UnmarshalXML decodes a <column>, refusing one without a kind.
func (c *Column) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	type plain Column
	if err := d.DecodeElement((*plain)(c), &start); err != nil {
		return err
	}
	return RequireAttr(start, "kind")
}

// Schema is an ordered list of columns describing the tuples of a
// relation as exposed through the middleware (the "middleware schema"
// into which DAPs map source data).
type Schema struct {
	Columns []Column `xml:"column"`
}

// NewSchema builds a schema from alternating name/kind pairs.
func NewSchema(cols ...Column) Schema { return Schema{Columns: cols} }

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Columns) }

// ColumnIndex returns the index of the named column (case-insensitive),
// or -1 when absent.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// String renders the schema as "(name KIND, ...)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports whether two schemas have identical column names and kinds.
func (s Schema) Equal(o Schema) bool {
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i, c := range s.Columns {
		if c != o.Columns[i] {
			return false
		}
	}
	return true
}

// Tuple is one middleware row: a slice of objects positionally matching a
// schema.
type Tuple []Object

// WireSize returns the total encoded size of the tuple in bytes. This is
// the quantity summed into VDA/VDT for the volume reduction factor.
func (t Tuple) WireSize() int {
	var n int
	for _, o := range t {
		n += o.WireSize()
	}
	return n
}

// AppendTo appends the schema-driven wire encoding of every attribute.
func (t Tuple) AppendTo(buf []byte) []byte {
	for _, o := range t {
		buf = o.AppendTo(buf)
	}
	return buf
}

// String renders the tuple for display.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, o := range t {
		parts[i] = o.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// DecodeValue decodes a single value of the given kind from the front of
// data, returning the value and the number of bytes consumed. A polygon,
// graph, raster or byte string is not copied: it is a capacity-clipped
// sub-slice of data and lives as long as data, which must not be written
// again (FromPayload, whose source may be, copies first).
func DecodeValue(k Kind, data []byte) (Object, int, error) {
	switch k {
	case KindNull:
		return Null{}, 0, nil
	case KindBool:
		if len(data) < 1 {
			return nil, 0, errShort(k, 1, len(data))
		}
		return Bool(data[0] != 0), 1, nil
	case KindInt:
		if len(data) < 4 {
			return nil, 0, errShort(k, 4, len(data))
		}
		return Int(int32(binary.BigEndian.Uint32(data))), 4, nil
	case KindDouble:
		if len(data) < 8 {
			return nil, 0, errShort(k, 8, len(data))
		}
		return Double(math.Float64frombits(binary.BigEndian.Uint64(data))), 8, nil
	case KindString:
		n, err := varLen(k, data)
		if err != nil {
			return nil, 0, err
		}
		return String_(data[4 : 4+n]), 4 + n, nil
	case KindBytes:
		n, err := varLen(k, data)
		if err != nil {
			return nil, 0, err
		}
		return Bytes(data[4 : 4+n : 4+n]), 4 + n, nil
	case KindPoint:
		if len(data) < 8 {
			return nil, 0, errShort(k, 8, len(data))
		}
		return Point{
			X: math.Float32frombits(binary.BigEndian.Uint32(data)),
			Y: math.Float32frombits(binary.BigEndian.Uint32(data[4:])),
		}, 8, nil
	case KindRectangle:
		if len(data) < 16 {
			return nil, 0, errShort(k, 16, len(data))
		}
		return Rectangle{
			XMin: math.Float32frombits(binary.BigEndian.Uint32(data)),
			YMin: math.Float32frombits(binary.BigEndian.Uint32(data[4:])),
			XMax: math.Float32frombits(binary.BigEndian.Uint32(data[8:])),
			YMax: math.Float32frombits(binary.BigEndian.Uint32(data[12:])),
		}, 16, nil
	case KindPolygon:
		if len(data) < 4 {
			return nil, 0, errShort(k, 4, len(data))
		}
		n := int(binary.BigEndian.Uint32(data))
		sz := 4 + 8*n
		if len(data) < sz {
			return nil, 0, errShort(k, sz, len(data))
		}
		p, err := PolygonFromPayload(data[:sz:sz])
		return p, sz, err
	case KindGraph:
		if len(data) < 4 {
			return nil, 0, errShort(k, 4, len(data))
		}
		nv := int(binary.BigEndian.Uint32(data))
		eoff := 4 + 8*nv
		if len(data) < eoff+4 {
			return nil, 0, errShort(k, eoff+4, len(data))
		}
		ne := int(binary.BigEndian.Uint32(data[eoff:]))
		sz := eoff + 4 + 8*ne
		if len(data) < sz {
			return nil, 0, errShort(k, sz, len(data))
		}
		g, err := GraphFromPayload(data[:sz:sz])
		return g, sz, err
	case KindRaster:
		if len(data) < 8 {
			return nil, 0, errShort(k, 8, len(data))
		}
		w, h := int(binary.BigEndian.Uint32(data)), int(binary.BigEndian.Uint32(data[4:]))
		n, ok := pixelCount(w, h, len(data)-8)
		if !ok {
			return nil, 0, fmt.Errorf("types: %v value declares %dx%d pixels, have %d bytes", k, w, h, len(data))
		}
		return Raster{payload: data[: 8+n : 8+n]}, 8 + n, nil
	}
	return nil, 0, fmt.Errorf("types: cannot decode kind %v", k)
}

// DecodeTuple decodes one tuple according to the schema from the front of
// data, returning the tuple and bytes consumed; its large values alias data.
func DecodeTuple(s Schema, data []byte) (Tuple, int, error) {
	t := make(Tuple, len(s.Columns))
	var off int
	for i, c := range s.Columns {
		v, n, err := DecodeValue(c.Kind, data[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("column %q: %w", c.Name, err)
		}
		t[i] = v
		off += n
	}
	return t, off, nil
}

// FromPayload reconstructs a typed object of kind k from a payload the
// caller does not own. Scalar kinds are decoded from their wire form;
// large kinds validate the payload structurally, on a copy — the source
// may be written again (MVM memory: a shipped aggregate may return a
// buffer it keeps in a global) or belong to somebody else (a read-only
// result aliasing an argument); the XML driver and the plan decoder,
// off the per-tuple path, take the copy too. The one caller that owns
// its payload and cannot afford one — a scalar operator handed the buffer
// its own invocation allocated — validates it where it lies with
// DecodeValue instead and keeps it (ops/bridge.go, "Who owns the bytes").
func FromPayload(k Kind, payload []byte) (Object, error) {
	if k.IsLarge() {
		payload = bytes.Clone(payload)
	}
	v, n, err := DecodeValue(k, payload)
	if err != nil {
		return nil, err
	}
	if n != len(payload) {
		return nil, fmt.Errorf("types: %v payload has %d trailing bytes", k, len(payload)-n)
	}
	return v, nil
}

func varLen(k Kind, data []byte) (int, error) {
	if len(data) < 4 {
		return 0, errShort(k, 4, len(data))
	}
	n := int(binary.BigEndian.Uint32(data))
	if len(data) < 4+n {
		return 0, errShort(k, 4+n, len(data))
	}
	return n, nil
}

func errShort(k Kind, want, have int) error {
	return fmt.Errorf("types: %v value needs %d bytes, have %d", k, want, have)
}
