package types

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func gradientRaster(w, h int) Raster {
	px := make([]byte, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			px[y*w+x] = byte((x + y) % 256)
		}
	}
	return NewRaster(w, h, px)
}

func TestRasterBasics(t *testing.T) {
	r := gradientRaster(8, 4)
	if r.Width() != 8 || r.Height() != 4 {
		t.Fatalf("dims = %dx%d", r.Width(), r.Height())
	}
	if r.WireSize() != 8+32 {
		t.Errorf("wire size = %d, want 40", r.WireSize())
	}
	if r.At(3, 2) != 5 {
		t.Errorf("At(3,2) = %d, want 5", r.At(3, 2))
	}
}

func TestRasterRoundTrip(t *testing.T) {
	r := gradientRaster(5, 7)
	v := roundTrip(t, r).(Raster)
	if v.Width() != 5 || v.Height() != 7 || v.At(4, 6) != r.At(4, 6) {
		t.Error("raster round trip corrupted pixels")
	}
}

func TestNewRasterPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRaster with wrong pixel count should panic")
		}
	}()
	NewRaster(2, 2, []byte{1, 2, 3})
}

func TestRasterFromPayloadValidation(t *testing.T) {
	if _, err := RasterFromPayload([]byte{1}); err == nil {
		t.Error("short payload accepted")
	}
	bad := make([]byte, 8)
	bad[3] = 10 // declares 10x0... header says width 10 height 0 → size ok
	if _, err := RasterFromPayload(bad); err != nil {
		t.Errorf("10x0 raster should be structurally valid: %v", err)
	}
	bad2 := []byte{0, 0, 0, 2, 0, 0, 0, 2, 1, 2} // 2x2 declared, 2 pixels
	if _, err := RasterFromPayload(bad2); err == nil {
		t.Error("inconsistent pixel count accepted")
	}
}

func TestAvgEnergy(t *testing.T) {
	r := NewRaster(2, 2, []byte{0, 100, 100, 200})
	if got := r.AvgEnergy(); got != 100 {
		t.Errorf("avg = %g, want 100", got)
	}
	if got := NewRaster(0, 0, nil).AvgEnergy(); got != 0 {
		t.Errorf("empty avg = %g, want 0", got)
	}
}

func TestClip(t *testing.T) {
	r := gradientRaster(10, 10)
	c := r.Clip(2, 3, 4, 5)
	if c.Width() != 4 || c.Height() != 5 {
		t.Fatalf("clip dims = %dx%d", c.Width(), c.Height())
	}
	for y := 0; y < 5; y++ {
		for x := 0; x < 4; x++ {
			if c.At(x, y) != r.At(x+2, y+3) {
				t.Fatalf("clip pixel (%d,%d) mismatch", x, y)
			}
		}
	}
	// Window clamped to bounds.
	c2 := r.Clip(8, 8, 10, 10)
	if c2.Width() != 2 || c2.Height() != 2 {
		t.Errorf("clamped clip dims = %dx%d, want 2x2", c2.Width(), c2.Height())
	}
	// Negative origin clamps to zero.
	c3 := r.Clip(-5, -5, 3, 3)
	if c3.Width() != 3 || c3.Height() != 3 || c3.At(0, 0) != r.At(0, 0) {
		t.Error("negative-origin clip mishandled")
	}
}

func TestQuickClipReducesVolume(t *testing.T) {
	// Property (data-reducing operator): a clip never has more pixels
	// than its source.
	f := func(w8, h8, x8, y8, cw8, ch8 uint8) bool {
		w, h := int(w8%32)+1, int(h8%32)+1
		r := gradientRaster(w, h)
		c := r.Clip(int(x8%40), int(y8%40), int(cw8%40), int(ch8%40))
		return c.WireSize() <= r.WireSize()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIncrRes(t *testing.T) {
	r := gradientRaster(4, 4)
	big := r.IncrRes(2)
	if big.Width() != 8 || big.Height() != 8 {
		t.Fatalf("IncrRes dims = %dx%d", big.Width(), big.Height())
	}
	// Data-inflating: 4x the pixel volume (the paper's Q3 factor).
	if got, want := len(big.Pixels()), 4*len(r.Pixels()); got != want {
		t.Errorf("inflated pixels = %d, want %d", got, want)
	}
	// Pixel replication: every source pixel becomes a 2x2 block of itself.
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if big.At(x, y) != r.At(x/2, y/2) {
				t.Fatalf("IncrRes(2) pixel (%d,%d) = %d, want source (%d,%d) = %d", x, y, big.At(x, y), x/2, y/2, r.At(x/2, y/2))
			}
		}
	}
	// k<1 degrades to identity.
	same := r.IncrRes(0)
	if !bytes.Equal(same.Payload(), r.Payload()) {
		t.Error("IncrRes(0) should be identity")
	}
	// Shapes with nothing to replicate, and the zero value.
	for _, e := range []Raster{NewRaster(0, 0, nil), NewRaster(0, 3, nil), NewRaster(3, 0, nil), {}} {
		if got := e.IncrRes(3); got.Width() != 3*e.Width() || got.Height() != 3*e.Height() || len(got.Pixels()) != 0 {
			t.Errorf("IncrRes(3) of empty %v = %v", e, got)
		}
		if got := e.Rotate90(); got.Width() != e.Height() || got.Height() != e.Width() {
			t.Errorf("Rotate90 of empty %v = %v", e, got)
		}
	}
}

func TestQuickIncrResInterpolationBounded(t *testing.T) {
	// Property: replication invents no pixel value — output pixel (x, y)
	// is source pixel (x/k, y/k), for any shape and factor.
	f := func(seed uint8, w, h, k uint8) bool {
		w, h, k = w%7, h%7, k%5
		px := make([]byte, int(w)*int(h))
		for i := range px {
			px[i] = byte(int(seed)*7 + i*31)
		}
		src := NewRaster(int(w), int(h), px)
		big := src.IncrRes(int(k))
		kk := max(int(k), 1)
		if big.Width() != int(w)*kk || big.Height() != int(h)*kk {
			return false
		}
		for y := 0; y < big.Height(); y++ {
			for x := 0; x < big.Width(); x++ {
				if big.At(x, y) != src.At(x/kk, y/kk) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotate90(t *testing.T) {
	r := NewRaster(3, 2, []byte{
		1, 2, 3,
		4, 5, 6,
	})
	rot := r.Rotate90()
	if rot.Width() != 2 || rot.Height() != 3 {
		t.Fatalf("rotated dims = %dx%d", rot.Width(), rot.Height())
	}
	want := []byte{
		4, 1,
		5, 2,
		6, 3,
	}
	for i, p := range rot.Pixels() {
		if p != want[i] {
			t.Fatalf("rotated pixels = %v, want %v", rot.Pixels(), want)
		}
	}
	// Four rotations are the identity.
	r4 := r.Rotate90().Rotate90().Rotate90().Rotate90()
	for i, p := range r4.Pixels() {
		if p != r.Pixels()[i] {
			t.Fatal("four rotations should be identity")
		}
	}
	// Average energy is rotation-invariant (same multiset of pixels).
	if math.Abs(r.AvgEnergy()-rot.AvgEnergy()) > 1e-12 {
		t.Error("rotation changed average energy")
	}
}

func TestTupleEncodingMatchesPaperAccounting(t *testing.T) {
	// Section 2.2: a (time INT, location RECTANGLE, avg DOUBLE) result row
	// is exactly 28 bytes.
	tup := Tuple{Int(7), Rectangle{0, 0, 1, 1}, Double(42.5)}
	if got := tup.WireSize(); got != 28 {
		t.Fatalf("result row wire size = %d, want 28", got)
	}
	s := NewSchema(
		Column{"time", KindInt},
		Column{"location", KindRectangle},
		Column{"avg", KindDouble},
	)
	buf := tup.AppendTo(nil)
	dec, n, err := DecodeTuple(s, buf)
	if err != nil || n != 28 {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if !dec[0].(Small).Equal(tup[0]) || !dec[1].(Small).Equal(tup[1]) || !dec[2].(Small).Equal(tup[2]) {
		t.Errorf("decoded tuple %v != %v", dec, tup)
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := NewSchema(Column{"time", KindInt}, Column{"image", KindRaster})
	if s.Arity() != 2 {
		t.Error("arity")
	}
	if s.ColumnIndex("IMAGE") != 1 || s.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex case-insensitivity or missing handling broken")
	}
	if s.String() != "(time INT, image RASTER)" {
		t.Errorf("schema string = %q", s.String())
	}
	if !s.Equal(s) || s.Equal(NewSchema(Column{"time", KindInt})) {
		t.Error("schema equality broken")
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	s := NewSchema(Column{"a", KindInt}, Column{"b", KindDouble})
	if _, _, err := DecodeTuple(s, []byte{0, 0, 0, 1}); err == nil {
		t.Error("truncated tuple accepted")
	}
}

func TestFromPayload(t *testing.T) {
	r := gradientRaster(3, 3)
	got, err := FromPayload(KindRaster, r.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if got.(Raster).At(1, 1) != r.At(1, 1) {
		t.Error("FromPayload corrupted raster")
	}
	if _, err := FromPayload(KindInt, []byte{0, 0, 0, 1, 99}); err == nil {
		t.Error("trailing bytes accepted")
	}
}
