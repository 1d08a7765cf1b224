package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Raster is the large object type for satellite raster images: a
// width×height grid of one-byte energy samples. Wire format: 4-byte
// width, 4-byte height, then width*height pixel bytes — so a 1024×1024
// raster occupies 1 MB plus an 8-byte header, matching the paper's
// Rasters table.
type Raster struct {
	h *header
}

// NewRaster builds a raster from dimensions and pixel data. It panics if
// len(pixels) != w*h, which always indicates a programming error.
func NewRaster(w, h int, pixels []byte) Raster {
	r, px := newRaster(w, h)
	if len(pixels) != len(px) {
		panic(fmt.Sprintf("types.NewRaster: %dx%d raster needs %d pixels, got %d", w, h, len(px), len(pixels)))
	}
	copy(px, pixels)
	return r
}

// newRaster allocates a zeroed w×h raster and hands back its pixel bytes:
// an operator writes its result once, in place, then hands the raster on.
// Like NewRaster it panics on dimensions the header cannot carry.
func newRaster(w, h int) (Raster, []byte) {
	n, ok := pixelCount(w, h, math.MaxInt32)
	if !ok || int64(w) > math.MaxUint32 || int64(h) > math.MaxUint32 {
		panic(fmt.Sprintf("types: %dx%d raster is too large", w, h))
	}
	buf := make([]byte, 8+n)
	binary.BigEndian.PutUint32(buf, uint32(w))
	binary.BigEndian.PutUint32(buf[4:], uint32(h))
	return Raster{&header{buf}}, buf[8:]
}

// pixelCount returns w*h when that is at most max. Dimensions come off
// the wire, so the product is bounded before it is formed, never after.
func pixelCount(w, h, max int) (int, bool) {
	if w < 0 || h < 0 || (w > 0 && h > max/w) {
		return 0, false
	}
	return w * h, true
}

// Kind implements Object.
func (Raster) Kind() Kind { return KindRaster }

// WireSize implements Object.
func (r Raster) WireSize() int { return len(r.h.data()) }

// AppendTo implements Object.
func (r Raster) AppendTo(buf []byte) []byte { return append(buf, r.h.data()...) }

// String implements Object.
func (r Raster) String() string {
	return fmt.Sprintf("RASTER[%dx%d]", r.Width(), r.Height())
}

// Payload implements Large.
func (r Raster) Payload() []byte { return r.h.data() }

// Width returns the raster width in pixels.
func (r Raster) Width() int {
	if len(r.h.data()) < 4 {
		return 0
	}
	return int(binary.BigEndian.Uint32(r.h.data()))
}

// Height returns the raster height in pixels.
func (r Raster) Height() int {
	if len(r.h.data()) < 8 {
		return 0
	}
	return int(binary.BigEndian.Uint32(r.h.data()[4:]))
}

// Pixels returns the raw pixel bytes in row-major order. The slice must
// not be modified.
func (r Raster) Pixels() []byte {
	if len(r.h.data()) < 8 {
		return nil
	}
	return r.h.data()[8:]
}

// At returns the pixel at column x, row y.
func (r Raster) At(x, y int) byte { return r.h.data()[8+y*r.Width()+x] }

// AvgEnergy returns the mean pixel value — the paper's running example of
// a data-reducing projection (1 MB image → 8-byte double).
func (r Raster) AvgEnergy() float64 {
	px := r.Pixels()
	if len(px) == 0 {
		return 0
	}
	var sum uint64
	for _, p := range px {
		sum += uint64(p)
	}
	return float64(sum) / float64(len(px))
}

// Clip returns the sub-raster covered by the pixel-space clipping window
// [x0, x0+w) × [y0, y0+h), the paper's Q2 operator. The window is clamped
// to the raster bounds.
func (r Raster) Clip(x0, y0, w, h int) Raster {
	rw, rh := r.Width(), r.Height()
	x0 = clampInt(x0, 0, rw)
	y0 = clampInt(y0, 0, rh)
	w = clampInt(w, 0, rw-x0)
	h = clampInt(h, 0, rh-y0)
	out, dst := newRaster(w, h)
	src := r.Pixels()
	for y := 0; y < h; y++ {
		copy(dst[y*w:(y+1)*w], src[(y0+y)*rw+x0:])
	}
	return out
}

// IncrRes returns a raster whose resolution is increased by the integer
// factor k (k < 1 counts as 1) by pixel replication, byte for byte what
// the shipped IncrRes class computes — the paper's Q3 data-inflating
// operator (k=2 quadruples the byte size).
func (r Raster) IncrRes(k int) Raster {
	if k < 1 {
		k = 1
	}
	w, h := r.Width(), r.Height()
	nw := w * k
	out, dst := newRaster(nw, h*k)
	src := r.Pixels()
	for y := 0; y < h; y++ { // expand the row once, then copy it k-1 times
		first, row, i := dst[y*k*nw:y*k*nw+nw], src[y*w:(y+1)*w], 0
		if k == 2 { // four pixels to one 8-byte store: abcd → aabbccdd
			for ; len(row) >= 4; row, i = row[4:], i+8 {
				v := uint64(binary.LittleEndian.Uint32(row))
				v = (v | v<<16) & 0x0000FFFF0000FFFF
				v = (v | v<<8) & 0x00FF00FF00FF00FF
				binary.LittleEndian.PutUint64(first[i:], v|v<<8)
			}
		}
		for _, p := range row {
			for end := i + k; i < end; i++ {
				first[i] = p
			}
		}
		for rep := 1; rep < k; rep++ {
			copy(dst[(y*k+rep)*nw:], first)
		}
	}
	return out
}

// Rotate90 returns the raster rotated 90 degrees clockwise — an example of
// a visualization-oriented data-inflating style operator from section 4
// (same size, repeatedly applied near the client).
func (r Raster) Rotate90() Raster {
	w, h := r.Width(), r.Height()
	out, dst := newRaster(h, w)
	src := r.Pixels()
	for y := 0; y < h; y++ {
		// (x, y) in source maps to (h-1-y, x) in destination.
		i := h - 1 - y
		for _, p := range src[y*w : (y+1)*w] {
			dst[i] = p
			i += h
		}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
