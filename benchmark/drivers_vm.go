package main

import (
	"fmt"
	"math"
	"time"

	"mocha/internal/ops"
	"mocha/internal/types"
	"mocha/internal/vm"
)

// The three interpreter probes: the sum-of-1..N loop (8 instructions per
// iteration, no memory), the ldu8 byte scan that is the inner loop of
// every shipped raster operator, and a function that makes one call.
const (
	sumLoopSrc = `
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
end`
	byteScanSrc = `
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
end`
	callSrc = `
program calls
func inner args=1 locals=0
  arg 0
  ret
end
func eval args=1 locals=0
  arg 0
  call inner
  ret
end`
)

// driveInterpreter times the MVM's dispatch loop, byte scan and call
// frames on verified programs (the path every DAP runs).
func driveInterpreter(c *driverCtx) (map[string]float64, error) {
	out := make(map[string]float64)
	m := vm.New(vm.Limits{})
	assemble := func(src string) (*vm.Program, int, error) {
		p, err := vm.Assemble(src)
		if err != nil {
			return nil, 0, err
		}
		return p, p.FuncIndex("eval"), nil
	}

	const sumTo = 1000
	p, fn, err := assemble(sumLoopSrc)
	if err != nil {
		return nil, err
	}
	args := []vm.Value{vm.IntVal(sumTo)}
	n, el, err := c.loop(func() error {
		v, err := m.Run(p, fn, nil, args)
		if err == nil && v.I != sumTo*(sumTo+1)/2 {
			err = fmt.Errorf("sum loop returned %d", v.I)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out["vm.loop_ns_per_instr"] = nsPer(int64(n)*m.LastRunInstrs, el)

	const scanBytes = 64 << 10
	if p, fn, err = assemble(byteScanSrc); err != nil {
		return nil, err
	}
	buf := make([]byte, scanBytes)
	for i := range buf {
		buf[i] = 1
	}
	args = []vm.Value{vm.BytesVal(buf)}
	n, el, err = c.loop(func() error {
		v, err := m.Run(p, fn, nil, args)
		if err == nil && v.I != scanBytes {
			err = fmt.Errorf("byte scan summed %d", v.I)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out["vm.bytescan_mb_s"] = mbPerS(scanBytes, n, el)

	const callsPerIter = 1000
	if p, fn, err = assemble(callSrc); err != nil {
		return nil, err
	}
	args = []vm.Value{vm.IntVal(1)}
	n, el, err = c.loop(func() error {
		for i := 0; i < callsPerIter; i++ {
			if _, err := m.Run(p, fn, nil, args); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["vm.call_ns"] = nsPer(int64(n)*callsPerIter, el)
	if m.CheckedRuns != 0 {
		return nil, fmt.Errorf("%d runs left the verified fast path", m.CheckedRuns)
	}
	return out, nil
}

// driveProgramLoad times what a DAP pays on a code-cache miss for a real
// shipped class (AvgEnergy): the verification ladder alone, and decode +
// verify of the serialized program.
func driveProgramLoad(c *driverCtx) (map[string]float64, error) {
	def, ok := ops.Builtins().Lookup("AvgEnergy")
	if !ok {
		return nil, fmt.Errorf("no AvgEnergy operator")
	}
	blob := def.Program().Encode()
	p, err := vm.Decode(blob)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	n, el, err := c.loop(func() error { return vm.Verify(p) })
	if err != nil {
		return nil, err
	}
	out["vm.verify_us"] = nsPer(int64(n), el) / 1e3
	n, el, err = c.loop(func() error {
		p, err := vm.Decode(blob)
		if err != nil {
			return err
		}
		return vm.Verify(p)
	})
	if err != nil {
		return nil, err
	}
	out["vm.decode_verify_us"] = nsPer(int64(n), el) / 1e3
	return out, nil
}

// opArgs returns the arguments each Sequoia operator gets in the mix,
// taken from the first generated row of the table its query reads.
func opArgs(c *driverCtx) (map[string][]types.Object, error) {
	first := func(site int, table string, col int) (types.Object, error) {
		rows, err := c.table(site, table)
		if err != nil {
			return nil, err
		}
		return rows[0][col], nil
	}
	polygon, err := first(0, "Polygons", 1)
	if err != nil {
		return nil, err
	}
	graph, err := first(0, "Graphs", 1)
	if err != nil {
		return nil, err
	}
	image, err := first(0, "Rasters", 3)
	if err != nil {
		return nil, err
	}
	joinImage, err := first(0, "Rasters1", 3)
	if err != nil {
		return nil, err
	}
	dim := float32(c.ds.cfg.RasterDim)
	window := types.Rectangle{XMax: dim, YMax: float32(c.ds.cfg.RasterDim / 5)} // Q2's clip window
	return map[string][]types.Object{
		"TotalArea":      {polygon},
		"TotalPerimeter": {polygon},
		"Clip":           {image, window},
		"IncrRes":        {image, types.Int(2)},
		"NumVertices":    {graph},
		"TotalLength":    {graph},
		"AvgEnergy":      {joinImage},
		"Diff":           {types.Double(101.5), types.Double(99.25)},
	}, nil
}

// boundOp is one operator instance reduced to "evaluate once on args".
type boundOp func(args []types.Object) (types.Object, error)

// bindOp binds an operator's shipped (MVM) or native implementation.
// An aggregate evaluates as Reset + Update + Summarize on the one row.
func bindOp(def *ops.Def, useVM bool) (boundOp, error) {
	if def.Aggregate {
		var agg *ops.Aggregate
		var err error
		if useVM {
			agg, err = ops.NewVMAggregate(vm.New(vm.Limits{}), def.Program(), def.Ret)
		} else {
			agg, err = ops.NewNativeAggregate(def)
		}
		if err != nil {
			return nil, err
		}
		return func(args []types.Object) (types.Object, error) {
			if err := agg.Reset(); err != nil {
				return nil, err
			}
			if err := agg.Update(args); err != nil {
				return nil, err
			}
			return agg.Summarize()
		}, nil
	}
	var s *ops.Scalar
	var err error
	if useVM {
		s, err = ops.NewVMScalar(vm.New(vm.Limits{}), def.Program(), def.Ret)
	} else {
		s, err = ops.NewNativeScalar(def)
	}
	if err != nil {
		return nil, err
	}
	return s.Call, nil
}

// driveOps times every operator of the mix on one generated row, shipped
// and native, and checks that the two agree.
func driveOps(c *driverCtx) (map[string]float64, error) {
	args, err := opArgs(c)
	if err != nil {
		return nil, err
	}
	reg := ops.Builtins()
	out := make(map[string]float64)
	logRatio := 0.0
	for _, op := range sequoiaOps {
		def, ok := reg.Lookup(op.Name)
		if !ok {
			return nil, fmt.Errorf("no operator %s", op.Name)
		}
		var ns [2]float64
		var results [2]string
		for i, useVM := range []bool{true, false} {
			fn, err := bindOp(def, useVM)
			if err != nil {
				return nil, err
			}
			// Cheap operators run in batches so the clock reads do not
			// dominate; one untimed call picks the batch size.
			perIter := int64(1)
			probe := time.Now()
			if _, err := fn(args[op.Name]); err != nil {
				return nil, fmt.Errorf("%s: %w", op.Name, err)
			}
			if !c.smoke() && time.Since(probe) < 20*time.Microsecond {
				perIter = 256
			}
			var last types.Object
			n, el, err := c.loop(func() error {
				for k := int64(0); k < perIter; k++ {
					v, err := fn(args[op.Name])
					if err != nil {
						return err
					}
					last = v
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", op.Name, err)
			}
			ns[i] = nsPer(int64(n)*perIter, el)
			results[i] = string(last.AppendTo(nil))
		}
		if results[0] != results[1] {
			return nil, fmt.Errorf("%s: shipped and native results differ", op.Name)
		}
		out["ops."+op.Key+"_vm_ns"] = ns[0]
		out["ops."+op.Key+"_native_ns"] = ns[1]
		logRatio += math.Log(ns[0] / ns[1])
	}
	out["ops.vm_over_native_geomean"] = math.Exp(logRatio / float64(len(sequoiaOps)))
	return out, nil
}
