package ops

import (
	"fmt"

	"mocha/internal/types"
)

// Graph operator definitions over the Sequoia drainage networks:
// NumVertices and TotalLength, the complex predicates of Q4.

const numVerticesSrc = `
program NumVertices version 1.0
func eval args=1 locals=0
  arg 0
  pushi 0
  ldi32
  ret
end`

const totalLengthSrc = `
program TotalLength version 1.0
const zero float 0
func eval args=1 locals=6
  ; graph payload: [nv][verts: 8 bytes each][ne][edges: 8 bytes each]
  ; locals: 0=ne 1=ebase 2=i 3=sum 4=aoff 5=boff
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
  ; aoff = 4 + 8 * edgeA,  boff = 4 + 8 * edgeB
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
  ; sum += sqrt((ax-bx)^2 + (ay-by)^2)
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

func graphArg(args []types.Object, i int, op string) (types.Graph, error) {
	g, ok := args[i].(types.Graph)
	if !ok {
		return types.Graph{}, fmt.Errorf("ops: %s: argument %d is %v, want GRAPH", op, i, args[i].Kind())
	}
	return g, nil
}

func nativeNumVertices(args []types.Object) (types.Object, error) {
	g, err := graphArg(args, 0, "NumVertices")
	if err != nil {
		return nil, err
	}
	return types.Int(int32(g.NumVertices())), nil
}

func nativeTotalLength(args []types.Object) (types.Object, error) {
	g, err := graphArg(args, 0, "TotalLength")
	if err != nil {
		return nil, err
	}
	sum, err := g.Length()
	if err != nil {
		return nil, fmt.Errorf("ops: TotalLength: %w", err)
	}
	return types.Double(sum), nil
}

func graphDefs() []*Def {
	return []*Def{
		{
			Name: "NumVertices", URI: "mocha://ops/NumVertices#1.0",
			Args: []types.Kind{types.KindGraph}, Ret: types.KindInt,
			ResultBytes: 4, CPUCostPerByte: 0.01,
			Native: nativeNumVertices, Source: numVerticesSrc,
		},
		{
			Name: "TotalLength", URI: "mocha://ops/TotalLength#1.0",
			Args: []types.Kind{types.KindGraph}, Ret: types.KindDouble,
			ResultBytes: 8, CPUCostPerByte: 0.6,
			Native: nativeTotalLength, Source: totalLengthSrc,
		},
	}
}
