package types

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Object is the root of the middleware type hierarchy (MWObject in the
// paper). Every value handled by the QPC, the DAPs and the client
// implements it. Objects are immutable once constructed.
type Object interface {
	// Kind returns the middleware kind of the value.
	Kind() Kind
	// WireSize returns the exact number of bytes AppendTo will produce.
	// The optimizer's volume accounting (VDA, VDT and hence the VRF)
	// is computed from WireSize.
	WireSize() int
	// AppendTo appends the value's wire encoding to buf and returns the
	// extended slice. The encoding carries no kind tag; decoding is
	// schema-driven.
	AppendTo(buf []byte) []byte
	// String renders the value for result display.
	String() string
}

// Small is implemented by small objects (MWSmallObject): values cheap
// enough to compare and hash, usable as join and grouping keys.
type Small interface {
	Object
	// Equal reports value equality with another object of the same kind.
	Equal(Object) bool
	// Less reports strict ordering below another object of the same kind.
	Less(Object) bool
	// Hash returns a stable hash of the value, for hash joins and grouping.
	Hash() uint64
}

// Large is implemented by large objects (MWLargeObject): bulk values such
// as polygons, graphs and raster images whose payload bytes the MVM
// operates on directly. Polygons, graphs and rasters are pointer-shaped
// — one pointer to a payload header — so an Object holds one without a
// heap box (slab.go).
type Large interface {
	Object
	// Payload returns the value's wire encoding; the slice must not be
	// modified by the caller.
	Payload() []byte
}

// Null is the absence of a value.
type Null struct{}

// Kind implements Object.
func (Null) Kind() Kind { return KindNull }

// WireSize implements Object.
func (Null) WireSize() int { return 0 }

// AppendTo implements Object.
func (Null) AppendTo(buf []byte) []byte { return buf }

// String implements Object.
func (Null) String() string { return "NULL" }

// Equal implements Small.
func (Null) Equal(o Object) bool { return o != nil && o.Kind() == KindNull }

// Less implements Small.
func (Null) Less(Object) bool { return false }

// Hash implements Small.
func (Null) Hash() uint64 { return 0 }

// Bool is the middleware boolean type.
type Bool bool

// Kind implements Object.
func (Bool) Kind() Kind { return KindBool }

// WireSize implements Object.
func (Bool) WireSize() int { return 1 }

// AppendTo implements Object.
func (b Bool) AppendTo(buf []byte) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// String implements Object.
func (b Bool) String() string {
	if b {
		return "true"
	}
	return "false"
}

// Equal implements Small.
func (b Bool) Equal(o Object) bool { ob, ok := o.(Bool); return ok && ob == b }

// Less implements Small.
func (b Bool) Less(o Object) bool { ob, ok := o.(Bool); return ok && !bool(b) && bool(ob) }

// Hash implements Small.
func (b Bool) Hash() uint64 {
	if b {
		return 0x9e3779b97f4a7c15
	}
	return 0x2545f4914f6cdd1d
}

// Int is the middleware 32-bit integer type (4 bytes on the wire, as in
// the paper's Rasters schema where time and band are 4-byte integers).
type Int int32

// Kind implements Object.
func (Int) Kind() Kind { return KindInt }

// WireSize implements Object.
func (Int) WireSize() int { return 4 }

// AppendTo implements Object.
func (i Int) AppendTo(buf []byte) []byte {
	return binary.BigEndian.AppendUint32(buf, uint32(i))
}

// String implements Object.
func (i Int) String() string { return fmt.Sprintf("%d", int32(i)) }

// Equal implements Small.
func (i Int) Equal(o Object) bool { oi, ok := o.(Int); return ok && oi == i }

// Less implements Small.
func (i Int) Less(o Object) bool { oi, ok := o.(Int); return ok && i < oi }

// Hash implements Small.
func (i Int) Hash() uint64 { return mix64(uint64(uint32(i))) }

// Double is the middleware double-precision floating point type.
type Double float64

// Kind implements Object.
func (Double) Kind() Kind { return KindDouble }

// WireSize implements Object.
func (Double) WireSize() int { return 8 }

// AppendTo implements Object.
func (d Double) AppendTo(buf []byte) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(float64(d)))
}

// String implements Object.
func (d Double) String() string { return fmt.Sprintf("%g", float64(d)) }

// Equal implements Small.
func (d Double) Equal(o Object) bool { od, ok := o.(Double); return ok && od == d }

// Less implements Small.
func (d Double) Less(o Object) bool { od, ok := o.(Double); return ok && d < od }

// Hash implements Small.
func (d Double) Hash() uint64 { return mix64(math.Float64bits(float64(d))) }

// String_ is the middleware string type. The trailing underscore avoids
// colliding with the method name String required by fmt.Stringer.
type String_ string

// Kind implements Object.
func (String_) Kind() Kind { return KindString }

// WireSize implements Object.
func (s String_) WireSize() int { return 4 + len(s) }

// AppendTo implements Object.
func (s String_) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// String implements Object.
func (s String_) String() string { return string(s) }

// Equal implements Small.
func (s String_) Equal(o Object) bool { os, ok := o.(String_); return ok && os == s }

// Less implements Small.
func (s String_) Less(o Object) bool { os, ok := o.(String_); return ok && s < os }

// Hash implements Small.
func (s String_) Hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Bytes is the middleware raw byte-array type, used for opaque large
// values such as text documents or audio.
type Bytes []byte

// Kind implements Object.
func (Bytes) Kind() Kind { return KindBytes }

// WireSize implements Object.
func (b Bytes) WireSize() int { return 4 + len(b) }

// AppendTo implements Object.
func (b Bytes) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// String implements Object.
func (b Bytes) String() string { return fmt.Sprintf("BYTES[%d]", len(b)) }

// Payload implements Large. The payload of a Bytes value is the raw byte
// content without the length prefix.
func (b Bytes) Payload() []byte { return b }

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
