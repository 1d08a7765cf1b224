// Package types implements the MOCHA middleware type system described in
// section 3.7 of the paper. Every attribute flowing through the middleware
// is an Object: a value that knows how to serialize itself onto the network
// with a fixed, compact wire format. The type system is partitioned into
// small objects (numbers, strings, points, rectangles) and large objects
// (polygons, graphs, rasters), mirroring the MWSmallObject / MWLargeObject
// split of the paper's Java prototype.
//
// Wire sizes deliberately match the byte accounting used in the paper's
// evaluation: integers are 4 bytes, doubles 8 bytes, rectangles 16 bytes
// (four float32 coordinates) and rasters are an 8-byte header followed by
// one byte per pixel, so that a (time, location, AvgEnergy) result row is
// exactly 28 bytes, as in section 2.2.
package types

import (
	"encoding/xml"
	"fmt"
)

// Kind identifies a middleware data type. It doubles as the wire tag used
// when values are encoded with self-describing framing.
type Kind uint8

// The middleware type kinds. KindNull through KindString are small scalar
// types; KindPoint and KindRectangle are small spatial types; the remaining
// kinds are large objects.
const (
	KindNull Kind = iota
	KindBool
	KindInt    // 32-bit signed integer, 4 bytes on the wire
	KindDouble // IEEE-754 float64, 8 bytes on the wire
	KindString // length-prefixed UTF-8
	KindBytes  // length-prefixed raw bytes
	KindPoint  // two float32 coordinates, 8 bytes
	KindRectangle
	KindPolygon
	KindGraph
	KindRaster

	numKinds
)

var kindNames = [...]string{
	KindNull:      "NULL",
	KindBool:      "BOOL",
	KindInt:       "INT",
	KindDouble:    "DOUBLE",
	KindString:    "STRING",
	KindBytes:     "BYTES",
	KindPoint:     "POINT",
	KindRectangle: "RECTANGLE",
	KindPolygon:   "POLYGON",
	KindGraph:     "GRAPH",
	KindRaster:    "RASTER",
}

// String returns the SQL-facing name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("KIND(%d)", uint8(k))
}

// Valid reports whether k names a defined middleware kind.
func (k Kind) Valid() bool { return k < numKinds }

// IsLarge reports whether values of this kind are large objects in the
// sense of the MWLargeObject interface: variable-sized payloads that can
// dominate network cost.
func (k Kind) IsLarge() bool {
	switch k {
	case KindPolygon, KindGraph, KindRaster, KindBytes, KindString:
		return true
	}
	return false
}

// FixedWireSize returns the wire size in bytes for fixed-size kinds and
// -1 for variable-sized kinds.
func (k Kind) FixedWireSize() int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt:
		return 4
	case KindDouble:
		return 8
	case KindPoint:
		return 8
	case KindRectangle:
		return 16
	}
	return -1
}

// KindByName resolves a SQL type name (case-sensitive, upper case) to a
// Kind. It returns false when the name is unknown.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name && n != "" {
			return Kind(k), true
		}
	}
	return KindNull, false
}

// MarshalText writes the kind's name. With UnmarshalText it makes Kind
// its own codec in every XML document that carries one (schemas, plan
// expressions, aggregates), so no document parses kind names itself.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name, refusing one it does not know.
func (k *Kind) UnmarshalText(text []byte) error {
	v, ok := KindByName(string(text))
	if !ok {
		return fmt.Errorf("types: unknown kind %q", text)
	}
	*k = v
	return nil
}

// RequireAttr refuses an element that lacks the named attribute. A kind
// attribute needs it: encoding/xml leaves the field of an absent
// attribute at its zero value, and the zero Kind is the valid NULL.
func RequireAttr(start xml.StartElement, name string) error {
	for _, a := range start.Attr {
		if a.Name.Local == name {
			return nil
		}
	}
	return fmt.Errorf("types: <%s> has no %s attribute", start.Name.Local, name)
}
