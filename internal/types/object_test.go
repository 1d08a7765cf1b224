package types

import (
	"encoding/xml"
	"math"
	"testing"
	"testing/quick"
)

func TestKindNames(t *testing.T) {
	cases := []struct {
		k    Kind
		name string
	}{
		{KindNull, "NULL"}, {KindBool, "BOOL"}, {KindInt, "INT"},
		{KindDouble, "DOUBLE"}, {KindString, "STRING"}, {KindBytes, "BYTES"},
		{KindPoint, "POINT"}, {KindRectangle, "RECTANGLE"},
		{KindPolygon, "POLYGON"}, {KindGraph, "GRAPH"}, {KindRaster, "RASTER"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.name {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.name)
		}
		k, ok := KindByName(c.name)
		if !ok || k != c.k {
			t.Errorf("KindByName(%q) = %v, %v", c.name, k, ok)
		}
		// The text codec every XML document uses round-trips the name.
		text, _ := c.k.MarshalText()
		var back Kind
		if err := back.UnmarshalText(text); err != nil || back != c.k || string(text) != c.name {
			t.Errorf("Kind %v text round trip = %q -> %v (err %v)", c.k, text, back, err)
		}
	}
	if _, ok := KindByName("NOPE"); ok {
		t.Error("KindByName accepted unknown name")
	}
	for _, bad := range []string{"NOPE", "", "int", "KIND(200)"} {
		if err := new(Kind).UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText accepted %q", bad)
		}
	}
	if Kind(200).Valid() {
		t.Error("Kind(200) should be invalid")
	}
}

func TestFixedWireSizes(t *testing.T) {
	// These sizes are load-bearing: the paper's volume accounting (28-byte
	// result rows in section 2.2) depends on them.
	if got := KindInt.FixedWireSize(); got != 4 {
		t.Errorf("INT wire size = %d, want 4", got)
	}
	if got := KindRectangle.FixedWireSize(); got != 16 {
		t.Errorf("RECTANGLE wire size = %d, want 16", got)
	}
	if got := KindDouble.FixedWireSize(); got != 8 {
		t.Errorf("DOUBLE wire size = %d, want 8", got)
	}
	if got := KindRaster.FixedWireSize(); got != -1 {
		t.Errorf("RASTER should be variable-sized, got %d", got)
	}
}

func roundTrip(t *testing.T, o Object) Object {
	t.Helper()
	buf := o.AppendTo(nil)
	if len(buf) != o.WireSize() {
		t.Fatalf("%v: WireSize()=%d but encoded %d bytes", o, o.WireSize(), len(buf))
	}
	v, n, err := DecodeValue(o.Kind(), buf)
	if err != nil {
		t.Fatalf("decode %v: %v", o, err)
	}
	if n != len(buf) {
		t.Fatalf("decode %v consumed %d of %d bytes", o, n, len(buf))
	}
	return v
}

func TestScalarRoundTrip(t *testing.T) {
	objs := []Object{
		Null{}, Bool(true), Bool(false), Int(0), Int(-1), Int(math.MaxInt32),
		Int(math.MinInt32), Double(0), Double(-3.25), Double(math.Inf(1)),
		String_(""), String_("hello world"), Bytes(nil), Bytes{1, 2, 3},
		Point{1.5, -2.5}, Rectangle{-1, -2, 3, 4},
	}
	for _, o := range objs {
		v := roundTrip(t, o)
		if sv, ok := o.(Small); ok {
			if !sv.Equal(v) {
				t.Errorf("round trip of %v produced %v", o, v)
			}
		}
	}
}

func TestQuickIntRoundTrip(t *testing.T) {
	f := func(x int32) bool {
		v := roundTrip(t, Int(x))
		return v.(Int) == Int(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDoubleRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		v := roundTrip(t, Double(x))
		return math.Float64bits(float64(v.(Double))) == math.Float64bits(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		v := roundTrip(t, String_(s))
		return string(v.(String_)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRectangleHashEqual(t *testing.T) {
	f := func(a, b [4]float32) bool {
		ra := Rectangle{a[0], a[1], a[2], a[3]}
		rb := Rectangle{b[0], b[1], b[2], b[3]}
		if ra.Equal(rb) && ra.Hash() != rb.Hash() {
			return false // equal values must hash equally
		}
		return ra.Equal(ra)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSmallOrdering(t *testing.T) {
	if !Int(1).Less(Int(2)) || Int(2).Less(Int(1)) || Int(1).Less(Int(1)) {
		t.Error("Int ordering broken")
	}
	if !String_("a").Less(String_("b")) {
		t.Error("String ordering broken")
	}
	if !Bool(false).Less(Bool(true)) || Bool(true).Less(Bool(false)) {
		t.Error("Bool ordering broken")
	}
	if !(Point{1, 0}).Less(Point{1, 1}) || (Point{2, 0}).Less(Point{1, 9}) {
		t.Error("Point ordering broken")
	}
	if !(Rectangle{0, 0, 1, 1}).Less(Rectangle{0, 0, 1, 2}) {
		t.Error("Rectangle ordering broken")
	}
}

func TestCrossKindComparisons(t *testing.T) {
	// Comparisons across kinds are defined to be false, never a panic.
	if Int(1).Equal(Double(1)) || Int(1).Less(String_("x")) {
		t.Error("cross-kind comparison should be false")
	}
}

func TestDecodeShortBuffers(t *testing.T) {
	for _, k := range []Kind{KindBool, KindInt, KindDouble, KindString, KindBytes, KindPoint, KindRectangle, KindPolygon, KindGraph, KindRaster} {
		if _, _, err := DecodeValue(k, nil); err == nil && k != KindNull {
			t.Errorf("DecodeValue(%v, nil) should fail", k)
		}
	}
	// Declared length exceeding the buffer must error, not panic.
	if _, _, err := DecodeValue(KindString, []byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("oversized string length accepted")
	}
}

// TestSchemaXML pins the <column name kind> element a schema has in
// every document and the two refusals its decoder owes them all.
func TestSchemaXML(t *testing.T) {
	in := NewSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "shape", Kind: KindPolygon})
	data, err := xml.Marshal(struct {
		XMLName xml.Name `xml:"s"`
		Schema
	}{Schema: in})
	if err != nil {
		t.Fatal(err)
	}
	const want = `<s><column name="id" kind="INT"></column><column name="shape" kind="POLYGON"></column></s>`
	if string(data) != want {
		t.Fatalf("schema XML = %s, want %s", data, want)
	}
	var out Schema
	if err := xml.Unmarshal(data, &out); err != nil || !out.Equal(in) {
		t.Errorf("schema decoded to %v (err %v), want %v", out, err, in)
	}
	for _, bad := range []string{
		`<s><column name="id" kind="WEIRD"></column></s>`,
		`<s><column name="id"></column></s>`,
	} {
		if err := xml.Unmarshal([]byte(bad), new(Schema)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}
