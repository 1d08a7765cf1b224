package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// BenchmarkInterpreterLoop measures raw instruction throughput with the
// sum-of-1..N loop (8 instructions per iteration).
func BenchmarkInterpreterLoop(b *testing.B) {
	p := MustAssemble(`
program sum
func eval args=1 locals=2
  pushi 0
  store 0
  pushi 1
  store 1
loop:
  load 1
  arg 0
  gt
  jnz done
  load 0
  load 1
  addi
  store 0
  load 1
  pushi 1
  addi
  store 1
  jmp loop
done:
  load 0
  ret
end`)
	m := New(Limits{})
	args := []Value{IntVal(1000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(p, 0, nil, args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkByteScan measures the ldu8 inner loop over a 64 KB buffer —
// the hot path of every shipped raster operator.
func BenchmarkByteScan(b *testing.B) {
	p := MustAssemble(`
program scan
func eval args=1 locals=3
  pushi 0
  store 0
  pushi 0
  store 1
  arg 0
  blen
  store 2
loop:
  load 1
  load 2
  ge
  jnz done
  load 0
  arg 0
  load 1
  ldu8
  addi
  store 0
  load 1
  pushi 1
  addi
  store 1
  jmp loop
done:
  load 0
  ret
end`)
	m := New(Limits{})
	buf := make([]byte, 64<<10)
	args := []Value{BytesVal(buf)}
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(p, 0, nil, args); err != nil {
			b.Fatal(err)
		}
	}
}

// stridedSrc is IncrRes's strided pass on its own: every source row
// goes to k places of its k-fold wide output row, a pixel per
// iteration of a one-block loop (out[o] = src[s]; o += k; s++).
const stridedSrc = `
program strided
func eval args=3 locals=9
  ; args: 0=pixels (w*h bytes) 1=w 2=k
  ; locals: 0=out 1=k 2=w 3=row 4=srow 5=j 6=o 7=s 8=end
  arg 2
  pushi 0
  addi
  store 1
  arg 1
  pushi 0
  addi
  store 2
  arg 0
  blen
  load 1
  muli
  bnew
  store 0
yloop:
  load 4
  arg 0
  blen
  ge
  jnz done
  load 4
  load 2
  addi
  store 8
  pushi 0
  store 5
jloop:
  load 5
  load 1
  ge
  jnz ynext
  load 3
  load 5
  addi
  store 6
  load 4
  store 7
xloop:
  load 0
  load 6
  arg 0
  load 7
  ldu8
  stu8
  pop
  load 6
  load 1
  addi
  store 6
  load 7
  pushi 1
  addi
  store 7
  load 7
  load 8
  lt
  jnz xloop
  load 5
  pushi 1
  addi
  store 5
  jmp jloop
ynext:
  load 3
  load 2
  load 1
  muli
  addi
  store 3
  load 8
  store 4
  jmp yloop
done:
  load 0
  ret
end`

// BenchmarkStridedCopy measures IncrRes's strided pass over a 228×228
// raster at k = 2: the strided-copy loop kernel.
func BenchmarkStridedCopy(b *testing.B) {
	p := MustAssemble(stridedSrc)
	m := New(Limits{})
	const w = 228
	pix := make([]byte, w*w)
	for i := range pix {
		pix[i] = byte(i)
	}
	args := []Value{BytesVal(pix), IntVal(w), IntVal(2)}
	b.SetBytes(w * w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(p, 0, nil, args); err != nil {
			b.Fatal(err)
		}
	}
}

// shoelaceSrc is the shipped Area operator's function: the shoelace sum
// over a ring's vertices, a rotated loop with a float body.
const shoelaceSrc = `
program shoelace
const zero float 0
const half float 0.5
func eval args=1 locals=5
  arg 0
  pushi 0
  ldi32
  store 0
  load 0
  pushi 3
  lt
  jnz empty
  const zero
  store 2
  load 0
  pushi 1
  subi
  pushi 8
  muli
  pushi 4
  addi
  store 3
  pushi 0
  store 1
loop:
  load 1
  load 0
  ge
  jnz done
  pushi 4
  load 1
  pushi 8
  muli
  addi
  store 4
  arg 0
  load 3
  ldf32
  arg 0
  load 4
  pushi 4
  addi
  ldf32
  mulf
  arg 0
  load 4
  ldf32
  arg 0
  load 3
  pushi 4
  addi
  ldf32
  mulf
  subf
  load 2
  addf
  store 2
  load 4
  store 3
  load 1
  pushi 1
  addi
  store 1
  jmp loop
done:
  load 2
  host absf
  const half
  mulf
  ret
empty:
  const zero
  ret
end`

// ring is a polygon payload: n, then n (x, y) float32 vertices on a circle.
func ring(n int) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(n))
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(float32(100*math.Cos(a))))
		buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(float32(100*math.Sin(a))))
	}
	return buf
}

// BenchmarkShoelace measures the area loop over a 64-vertex ring and an
// 8-vertex one, where what a kernel spends on entry shows: a float
// kernel of the cross product's shape.
func BenchmarkShoelace(b *testing.B) { benchRings(b, shoelaceSrc) }

// benchRings runs src's eval over rings of 64 and of 8 vertices.
func benchRings(b *testing.B, src string) {
	p := MustAssemble(src)
	for _, n := range []int{64, 8} {
		b.Run(fmt.Sprintf("vertices=%d", n), func(b *testing.B) {
			m := New(Limits{})
			args := []Value{BytesVal(ring(n))}
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(p, 0, nil, args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// perimeterSrc is the shipped Perimeter operator's function: the ring's
// edge lengths summed, through dup and host sqrt.
const perimeterSrc = `
program perimeter
const zero float 0
func eval args=1 locals=5
  arg 0
  pushi 0
  ldi32
  store 0
  load 0
  pushi 2
  lt
  jnz empty
  const zero
  store 2
  load 0
  pushi 1
  subi
  pushi 8
  muli
  pushi 4
  addi
  store 3
  pushi 0
  store 1
loop:
  load 1
  load 0
  ge
  jnz done
  pushi 4
  load 1
  pushi 8
  muli
  addi
  store 4
  arg 0
  load 4
  ldf32
  arg 0
  load 3
  ldf32
  subf
  dup
  mulf
  arg 0
  load 4
  pushi 4
  addi
  ldf32
  arg 0
  load 3
  pushi 4
  addi
  ldf32
  subf
  dup
  mulf
  addf
  host sqrt
  load 2
  addf
  store 2
  load 4
  store 3
  load 1
  pushi 1
  addi
  store 1
  jmp loop
done:
  load 2
  ret
empty:
  const zero
  ret
end`

// BenchmarkPerimeter measures the perimeter loop over a 64-vertex ring
// and an 8-vertex one: a float kernel of the hypotenuse's shape.
func BenchmarkPerimeter(b *testing.B) { benchRings(b, perimeterSrc) }

// totalLengthSrc is the shipped TotalLength operator's function: each
// edge's two ends read by index, their distance summed.
const totalLengthSrc = `
program totallength
const zero float 0
func eval args=1 locals=6
  arg 0
  pushi 0
  ldi32
  pushi 8
  muli
  pushi 4
  addi
  store 1
  arg 0
  load 1
  ldi32
  store 0
  load 1
  pushi 4
  addi
  store 1
  pushi 0
  store 2
  const zero
  store 3
loop:
  load 2
  load 0
  ge
  jnz done
  arg 0
  load 1
  load 2
  pushi 8
  muli
  addi
  ldi32
  pushi 8
  muli
  pushi 4
  addi
  store 4
  arg 0
  load 1
  load 2
  pushi 8
  muli
  addi
  pushi 4
  addi
  ldi32
  pushi 8
  muli
  pushi 4
  addi
  store 5
  arg 0
  load 4
  ldf32
  arg 0
  load 5
  ldf32
  subf
  dup
  mulf
  arg 0
  load 4
  pushi 4
  addi
  ldf32
  arg 0
  load 5
  pushi 4
  addi
  ldf32
  subf
  dup
  mulf
  addf
  host sqrt
  load 3
  addf
  store 3
  load 2
  pushi 1
  addi
  store 2
  jmp loop
done:
  load 3
  ret
end`

// BenchmarkTotalLength measures the edge loop over a 64-edge graph, the
// 64-vertex ring's edges: a float kernel gathering each edge's ends.
func BenchmarkTotalLength(b *testing.B) {
	p := MustAssemble(totalLengthSrc)
	g := ring(64)
	g = binary.BigEndian.AppendUint32(g, 64)
	for i := uint32(0); i < 64; i++ {
		g = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(g, i), (i+1)%64)
	}
	m := New(Limits{})
	args := []Value{BytesVal(g)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(p, 0, nil, args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallOverhead measures function-call frames.
func BenchmarkCallOverhead(b *testing.B) {
	p := MustAssemble(`
program calls
func inner args=1 locals=0
  arg 0
  ret
end
func eval args=1 locals=0
  arg 0
  call inner
  ret
end`)
	m := New(Limits{})
	args := []Value{IntVal(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(p, p.FuncIndex("eval"), nil, args); err != nil {
			b.Fatal(err)
		}
	}
}

const verifyBenchSrc = `
program big
const zero float 0
func eval args=1 locals=3
  const zero
  store 2      ; acc
  pushi 0
  store 1      ; i
  arg 0
  blen
  store 0      ; n
loop:
  load 1
  load 0
  ge
  jnz done
  load 2
  arg 0
  load 1
  ldf32
  addf
  store 2
  load 1
  pushi 4
  addi
  store 1
  jmp loop
done:
  load 2
  ret
end`

// BenchmarkVerify measures the full static ladder — structural pass,
// call-graph pass and dataflow fixpoint — on a realistic float-raster
// reduction loop.
func BenchmarkVerify(b *testing.B) {
	p := MustAssemble(verifyBenchSrc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures what a DAP pays once per cached release on
// top of decode and verification: compiling the verified program (the
// one BenchmarkVerify verifies) to closures.
func BenchmarkCompile(b *testing.B) {
	blob := MustAssemble(verifyBenchSrc).Encode()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := Decode(blob)
		if err == nil {
			err = Verify(p)
		}
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := p.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}
