package vm

import "testing"

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
