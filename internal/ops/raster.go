package ops

import (
	"fmt"

	"mocha/internal/types"
	"mocha/internal/vm"
)

// Raster operator definitions: AvgEnergy (the paper's running example of
// a data-reducing projection), Clip (Q2), IncrRes (Q3, data-inflating)
// and Rotate90 (a visualization operator with VRF exactly 1).

const avgEnergySrc = `
program AvgEnergy version 1.0
const zero float 0
func eval args=1 locals=3
  ; locals: 0=sum 1=off 2=len
  pushi 0
  store 0
  pushi 8
  store 1
  arg 0
  blen
  store 2
  load 2
  pushi 8
  le
  jnz empty
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
  i2f
  load 2
  pushi 8
  subi
  i2f
  divf
  ret
empty:
  const zero
  ret
end`

const clipSrc = `
program Clip version 1.1
func clampi args=3 locals=0
  ; clampi(v, lo, hi)
  arg 0
  arg 1
  lt
  jz chkhi
  arg 1
  ret
chkhi:
  arg 0
  arg 2
  gt
  jz ok
  arg 2
  ret
ok:
  arg 0
  ret
end
func eval args=2 locals=8
  ; args: 0=raster payload, 1=rectangle payload (pixel coordinates)
  ; locals: 0=w 1=h 2=x0 3=y0 4=w2 5=h2 6=out 7=y
  arg 0
  pushi 0
  ldi32
  store 0
  arg 0
  pushi 4
  ldi32
  store 1
  ; x0 = clamp(int(rect.xmin), 0, w)
  arg 1
  pushi 0
  ldf32
  f2i
  pushi 0
  load 0
  call clampi
  store 2
  ; y0 = clamp(int(rect.ymin), 0, h)
  arg 1
  pushi 4
  ldf32
  f2i
  pushi 0
  load 1
  call clampi
  store 3
  ; w2 = clamp(int(rect.xmax), x0, w) - x0
  arg 1
  pushi 8
  ldf32
  f2i
  load 2
  load 0
  call clampi
  load 2
  subi
  store 4
  ; h2 = clamp(int(rect.ymax), y0, h) - y0
  arg 1
  pushi 12
  ldf32
  f2i
  load 3
  load 1
  call clampi
  load 3
  subi
  store 5
  ; out = bnew(8 + w2*h2), write header
  load 4
  load 5
  muli
  pushi 8
  addi
  bnew
  store 6
  load 6
  pushi 0
  load 4
  sti32
  pop
  load 6
  pushi 4
  load 5
  sti32
  pop
  pushi 0
  store 7
yloop:
  load 7
  load 5
  ge
  jnz done
  ; out[8 + y*w2 ...] = w2 bytes of src from 8 + (y+y0)*w + x0
  load 6
  load 7
  load 4
  muli
  pushi 8
  addi
  arg 0
  load 7
  load 3
  addi
  load 0
  muli
  load 2
  addi
  pushi 8
  addi
  load 4
  bcopy
  pop
  load 7
  pushi 1
  addi
  store 7
  jmp yloop
done:
  load 6
  ret
end`

const incrResSrc = `
program IncrRes version 1.1
func eval args=2 locals=13
  ; args: 0=raster payload, 1=scale factor k (int)
  ; locals: 0=w 1=h 2=k 3=nw 4=nh 5=out 6=y 7=row 8=srow 9=j 10=o 11=s 12=end
  arg 0
  pushi 0
  ldi32
  store 0
  arg 0
  pushi 4
  ldi32
  store 1
  ; k is an int from here on, proven once
  arg 1
  pushi 0
  addi
  store 2
  load 2
  pushi 1
  lt
  jz kok
  pushi 1
  store 2
kok:
  load 0
  load 2
  muli
  store 3
  load 1
  load 2
  muli
  store 4
  load 3
  load 4
  muli
  pushi 8
  addi
  bnew
  store 5
  load 5
  pushi 0
  load 3
  sti32
  pop
  load 5
  pushi 4
  load 4
  sti32
  pop
  ; row, srow: where output row y*k and source row y start
  pushi 8
  store 7
  pushi 8
  store 8
yloop:
  load 6
  load 1
  ge
  jnz done
  load 8
  load 0
  addi
  store 12
  ; pass j of k puts the source row at row+j, row+j+k, row+j+2k, ...
  pushi 0
  store 9
jloop:
  load 9
  load 2
  ge
  jnz copies
  load 7
  load 9
  addi
  store 10
  load 8
  store 11
  load 11
  load 12
  ge
  jnz jnext
xloop:
  load 5
  load 10
  arg 0
  load 11
  ldu8
  stu8
  pop
  load 10
  load 2
  addi
  store 10
  load 11
  pushi 1
  addi
  store 11
  load 11
  load 12
  lt
  jnz xloop
jnext:
  load 9
  pushi 1
  addi
  store 9
  jmp jloop
copies:
  ; the expanded row, k-1 times more
  load 7
  store 10
  pushi 1
  store 9
cloop:
  load 10
  load 3
  addi
  store 10
  load 9
  load 2
  ge
  jnz ynext
  load 5
  load 10
  load 5
  load 7
  load 3
  bcopy
  pop
  load 9
  pushi 1
  addi
  store 9
  jmp cloop
ynext:
  load 10
  store 7
  load 12
  store 8
  load 6
  pushi 1
  addi
  store 6
  jmp yloop
done:
  load 5
  ret
end`

const rotate90Src = `
program Rotate90 version 1.0
func eval args=1 locals=5
  ; locals: 0=w 1=h 2=out 3=y 4=x
  arg 0
  pushi 0
  ldi32
  store 0
  arg 0
  pushi 4
  ldi32
  store 1
  load 0
  load 1
  muli
  pushi 8
  addi
  bnew
  store 2
  ; rotated raster is h wide, w tall
  load 2
  pushi 0
  load 1
  sti32
  pop
  load 2
  pushi 4
  load 0
  sti32
  pop
  pushi 0
  store 3
yloop:
  load 3
  load 1
  ge
  jnz done
  pushi 0
  store 4
xloop:
  load 4
  load 0
  ge
  jnz ynext
  ; out[8 + x*h + (h-1-y)] = src[8 + y*w + x]
  load 2
  load 4
  load 1
  muli
  load 1
  pushi 1
  subi
  load 3
  subi
  addi
  pushi 8
  addi
  arg 0
  load 3
  load 0
  muli
  load 4
  addi
  pushi 8
  addi
  ldu8
  stu8
  pop
  load 4
  pushi 1
  addi
  store 4
  jmp xloop
ynext:
  load 3
  pushi 1
  addi
  store 3
  jmp yloop
done:
  load 2
  ret
end`

func rasterArg(args []types.Object, i int, op string) (types.Raster, error) {
	r, ok := args[i].(types.Raster)
	if !ok {
		return types.Raster{}, fmt.Errorf("ops: %s: argument %d is %v, want RASTER", op, i, args[i].Kind())
	}
	return r, nil
}

func nativeAvgEnergy(args []types.Object) (types.Object, error) {
	r, err := rasterArg(args, 0, "AvgEnergy")
	if err != nil {
		return nil, err
	}
	return types.Double(r.AvgEnergy()), nil
}

func nativeClip(args []types.Object) (types.Object, error) {
	r, err := rasterArg(args, 0, "Clip")
	if err != nil {
		return nil, err
	}
	win, ok := args[1].(types.Rectangle)
	if !ok {
		return nil, fmt.Errorf("ops: Clip: argument 1 is %v, want RECTANGLE", args[1].Kind())
	}
	// Clamp corners exactly as the shipped MVM implementation does, so
	// native and VM execution produce identical rasters.
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	w, h := r.Width(), r.Height()
	x0 := clamp(int(win.XMin), 0, w)
	y0 := clamp(int(win.YMin), 0, h)
	x1 := clamp(int(win.XMax), x0, w)
	y1 := clamp(int(win.YMax), y0, h)
	return r.Clip(x0, y0, x1-x0, y1-y0), nil
}

func nativeIncrRes(args []types.Object) (types.Object, error) {
	r, err := rasterArg(args, 0, "IncrRes")
	if err != nil {
		return nil, err
	}
	k, ok := args[1].(types.Int)
	if !ok {
		return nil, fmt.Errorf("ops: IncrRes: argument 1 is %v, want INT", args[1].Kind())
	}
	// A result the shipped class could not allocate is refused here too.
	if n := int64(max(k, 1)); int64(r.WireSize()) > vm.DefaultLimits.MaxAlloc/n/n {
		return nil, fmt.Errorf("ops: IncrRes: %v scaled by %d exceeds %d bytes", r, k, vm.DefaultLimits.MaxAlloc)
	}
	return r.IncrRes(int(k)), nil
}

func nativeRotate90(args []types.Object) (types.Object, error) {
	r, err := rasterArg(args, 0, "Rotate90")
	if err != nil {
		return nil, err
	}
	return r.Rotate90(), nil
}

func rasterDefs() []*Def {
	return []*Def{
		{
			Name: "AvgEnergy", URI: "mocha://ops/AvgEnergy#1.0",
			Args: []types.Kind{types.KindRaster}, Ret: types.KindDouble,
			ResultBytes: 8, CPUCostPerByte: 1.0,
			Native: nativeAvgEnergy, Source: avgEnergySrc,
		},
		{
			Name: "Clip", URI: "mocha://ops/Clip#1.0",
			Args: []types.Kind{types.KindRaster, types.KindRectangle}, Ret: types.KindRaster,
			ResultRatio: 0.2, CPUCostPerByte: 1.0,
			Native: nativeClip, Source: clipSrc,
		},
		{
			Name: "IncrRes", URI: "mocha://ops/IncrRes#1.0",
			Args: []types.Kind{types.KindRaster, types.KindInt}, Ret: types.KindRaster,
			ResultRatio: 4.0, CPUCostPerByte: 4.0,
			Native: nativeIncrRes, Source: incrResSrc,
		},
		{
			Name: "Rotate90", URI: "mocha://ops/Rotate90#1.0",
			Args: []types.Kind{types.KindRaster}, Ret: types.KindRaster,
			ResultRatio: 1.0, CPUCostPerByte: 1.5,
			Native: nativeRotate90, Source: rotate90Src,
		},
	}
}
