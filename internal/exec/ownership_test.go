package exec

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/types"
)

// frameSource delivers tuples the way a remote stream does — each batch
// decoded from its own frame, its large values windows into that frame —
// and then does what no real frame ever suffers: the moment the next
// batch is asked for, it overwrites the previous frame. An operator that
// kept a row of that batch without detaching it now reads garbage, so
// "outlives its input frames" is checked by value, not by GC luck.
type frameSource struct {
	base
	schema types.Schema
	frames [][]byte // each a run of encoded tuples
	last   []byte
}

func newFrameSource(schema types.Schema, perFrame int, rows []types.Tuple) *frameSource {
	s := &frameSource{schema: schema}
	for len(rows) > 0 {
		n := min(perFrame, len(rows))
		var frame []byte
		for _, r := range rows[:n] {
			frame = r.AppendTo(frame)
		}
		s.frames, rows = append(s.frames, frame), rows[n:]
	}
	return s
}

func (s *frameSource) Open(context.Context) error { return nil }
func (s *frameSource) Close() error               { return nil }

func (s *frameSource) NextBatch() ([]types.Tuple, error) {
	for i := range s.last {
		s.last[i] = 0xee
	}
	if len(s.frames) == 0 {
		s.last = nil
		return nil, nil
	}
	s.last, s.frames = s.frames[0], s.frames[1:]
	var batch []types.Tuple
	for off := 0; off < len(s.last); {
		t, n, err := types.DecodeTuple(s.schema, s.last[off:])
		if err != nil {
			return nil, err
		}
		batch, off = append(batch, t), off+n
	}
	return batch, nil
}

// TestDetachSharesNothing: a detached row is the same row in memory of
// its own — overwriting the frame it was decoded from does not reach it.
func TestDetachSharesNothing(t *testing.T) {
	rows := ownedRows(3)
	src := newFrameSource(ownedSchema, 3, rows)
	batch, err := src.NextBatch()
	if err != nil || len(batch) != 3 {
		t.Fatalf("batch of %d: %v", len(batch), err)
	}
	kept := []types.Tuple{detach(batch[0]), detach(batch[1]), detach(batch[2])}
	if _, err := src.NextBatch(); err != nil { // overwrites the frame
		t.Fatal(err)
	}
	for i, row := range kept {
		if !bytes.Equal(row.AppendTo(nil), rows[i].AppendTo(nil)) {
			t.Errorf("detached row %d followed its frame: %v", i, row)
		}
		if bytes.Equal(batch[i].AppendTo(nil), rows[i].AppendTo(nil)) {
			t.Errorf("row %d was not a window into its frame to begin with", i)
		}
	}
}

var ownedSchema = types.NewSchema(
	types.Column{Name: "k", Kind: types.KindInt},
	types.Column{Name: "image", Kind: types.KindRaster},
	types.Column{Name: "note", Kind: types.KindBytes},
)

func ownedRows(n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		px := bytes.Repeat([]byte{byte(i + 1)}, 12)
		rows[i] = types.Tuple{types.Int(i % 5), types.NewRaster(4, 3, px), types.Bytes(fmt.Sprintf("row %d", i))}
	}
	return rows
}

// encodeNow is the sink a real tree ends in: a row is encoded the
// moment it is emitted, while the frames under it are still whole.
func encodeNow(t *testing.T, root Operator, ops []Operator) []string {
	t.Helper()
	var got []string
	tree := &Tree{Root: NewEmit("op:emit", root, func(tup types.Tuple) error {
		got = append(got, string(tup.AppendTo(nil)))
		return nil
	}), Ops: ops}
	if err := Run(context.Background(), tree, nil); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestJoinBuildOutlivesItsFrames: every build frame is overwritten
// before the first probe row arrives, and the joined rows still carry
// the build side's rasters and byte strings intact.
func TestJoinBuildOutlivesItsFrames(t *testing.T) {
	rows := ownedRows(12)
	probe := NewSource("op:remote[0]", slicePull(intRows(0, 1, 2, 3, 4)), 2)
	build := newFrameSource(ownedSchema, 3, rows)
	join := NewHashJoin("op:hashjoin", probe, build, 0, 0, "probe", "build", false, nil, 4)
	got := encodeNow(t, join, nil)

	var want []string
	for k := 0; k < 5; k++ {
		for _, r := range rows {
			if int(r[0].(types.Int)) == k {
				want = append(want, string(append(types.Tuple{types.Int(k)}, r...).AppendTo(nil)))
			}
		}
	}
	if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
		t.Errorf("joined rows differ once the build frames are gone:\n got %q\nwant %q", got, want)
	}
}

// TestSpilledJoinRowsOutliveTheJoin: a spilled join reads each row it
// emits back from its spill file into memory of its own that nothing
// writes again, so rows kept past later emissions and past the join's
// Close — which closes the file — still carry every raster and byte
// string intact, while the frames both inputs came from are overwritten.
func TestSpilledJoinRowsOutliveTheJoin(t *testing.T) {
	// Enough probe rows that every probe partition spans several blocks.
	probe, build := ownedRows(200), ownedRows(5)
	join := func(gov *Governor) *HashJoin {
		return NewHashJoin("op:hashjoin", newFrameSource(ownedSchema, 3, probe), newFrameSource(ownedSchema, 2, build),
			0, 0, "probe", "build", false, gov.Grant("op:hashjoin"), 4)
	}
	want := encodeNow(t, join(nil), nil)
	spilled := join(NewGovernor(512, obs.NewRegistry()))
	kept := collect(t, spilled, nil)
	if spilled.Stats().Spills == 0 {
		t.Fatal("512 B budget did not force a spill")
	}
	var got []string
	for _, row := range kept {
		got = append(got, string(row.AppendTo(nil)))
	}
	if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
		t.Errorf("spilled rows differ once the join is closed:\n got %q\nwant %q", got, want)
	}
}

// TestTopKAndSortOutliveTheirFrames: the rows a top-k or a sort holds
// back come from frames overwritten long before it emits them.
func TestTopKAndSortOutliveTheirFrames(t *testing.T) {
	rows := ownedRows(12)
	keys := []core.OrderSpec{{Col: 0}}
	sorted := make([]types.Tuple, len(rows))
	copy(sorted, rows)
	if err := core.SortTuples(sorted, keys); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range sorted {
		want = append(want, string(r.AppendTo(nil)))
	}
	for name, op := range map[string]Operator{
		"sort": NewSort("op:sort", newFrameSource(ownedSchema, 3, rows), keys, 4),
		"topk": NewTopK("op:topk", newFrameSource(ownedSchema, 3, rows), keys, 7, 4),
	} {
		got, w := encodeNow(t, op, nil), want
		if name == "topk" {
			w = want[:7]
		}
		if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", w) {
			t.Errorf("%s: rows differ once their frames are gone:\n got %q\nwant %q", name, got, w)
		}
	}
}
