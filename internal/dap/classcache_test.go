package dap

import (
	"strings"
	"testing"

	"mocha/internal/catalog"
	"mocha/internal/core"
	"mocha/internal/ops"
	"mocha/internal/types"
	"mocha/internal/vm"
)

// TestDAPRefusesBlobTheAckDidNotAskFor: a DEPLOY_CODE blob must be the
// release its code ref pins, by digest and by class name. Any other
// blob ends the stream in an ERROR frame that names both releases, and
// is not cached. A cached digest under another class's name is not that
// class: the ack asks for it, and the blob that arrives is refused.
func TestDAPRefusesBlobTheAckDidNotAskFor(t *testing.T) {
	conn, srv := testDAP(t, Config{})
	frag, rel := avgEnergyFragment(t)
	refuse := func(what string, ref core.CodeRef) {
		t.Helper()
		asked := *frag
		asked.Code = []core.CodeRef{ref}
		shipped := &catalog.Release{Digest: ref.Checksum, Blob: rel.Blob}
		if need := startFragment(t, conn, &core.Start{Fragment: &asked}, nil, shipped); len(need) != 1 || need[0] != ref.Checksum {
			t.Fatalf("%s: ack asked for %v, want [%s]", what, need, ref.Checksum)
		}
		want := "class AvgEnergy release " + rel.Digest + " arrived where the ack asked for " + ref.Name + " release " + ref.Checksum
		if msg := streamError(t, conn); !strings.Contains(msg, want) {
			t.Errorf("%s: got %q, want an error carrying %q", what, msg, want)
		}
	}

	refuse("another digest", core.CodeRef{Name: rel.Class, Checksum: "0123456789abcdef"})
	if srv.HasClass(rel.Class, rel.Digest) {
		t.Error("a blob the ack did not ask for was cached")
	}
	if rows := deployAndRun(t, conn, frag, rel); len(rows) != 10 {
		t.Fatalf("the release asked for streamed %d rows, want 10", len(rows))
	}
	refuse("another class", core.CodeRef{Name: "PeakEnergy", Checksum: rel.Digest})
	if hits, misses := srv.CacheStats(); hits != 0 || misses != 3 {
		t.Errorf("cache stats = %d/%d, want 0/3", hits, misses)
	}
}

// TestEvictedClassStillRuns: a START resolves each code ref once. A
// class found cached when the DAP acked runs even if loading the other
// class the ack asked for evicts it before the fragment binds.
func TestEvictedClassStillRuns(t *testing.T) {
	conn, srv := testDAP(t, Config{})
	reg := ops.Builtins()
	repo := catalog.NewRepository()
	var rels []*catalog.Release
	for _, name := range []string{"AvgEnergy", "Rotate90"} {
		d, _ := reg.Lookup(name)
		rel, err := repo.PutProgram(d.Program())
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	avg, rot := rels[0], rels[1]
	// Room for either class, never for both.
	srv.classes = newLRU[*vm.Program](len(avg.Blob) + len(rot.Blob) - 1)
	warm, _ := avgEnergyFragment(t)
	deployAndRun(t, conn, warm, avg)

	frag := *warm
	frag.Projections = []core.Output{
		{Name: "time", Expr: core.NewCol(0, types.KindInt)},
		{Name: "avg", Expr: &core.PExpr{
			Kind: core.ExprCall, Func: "AvgEnergy", Ret: types.KindDouble,
			Args: []*core.PExpr{{Kind: core.ExprCall, Func: "Rotate90", Ret: types.KindRaster,
				Args: []*core.PExpr{core.NewCol(1, types.KindRaster)}}},
		}},
	}
	frag.Code = []core.CodeRef{{Name: avg.Class, Checksum: avg.Digest}, {Name: rot.Class, Checksum: rot.Digest}}
	if need := startFragment(t, conn, &core.Start{Fragment: &frag}, nil, rot); len(need) != 1 || need[0] != rot.Digest {
		t.Fatalf("ack asked for %v, want Rotate90's %s alone", need, rot.Digest)
	}
	rows, _ := readStream(t, conn, frag.OutSchema)
	if len(rows) != 10 {
		t.Fatalf("streamed %d rows, want 10", len(rows))
	}
	for i, row := range rows {
		if float64(row[1].(types.Double)) != float64(10*i) {
			t.Errorf("row %d: avg = %v, want %d", i, row[1], 10*i)
		}
	}
	if srv.HasClass(avg.Class, avg.Digest) || !srv.HasClass(rot.Class, rot.Digest) {
		t.Error("loading Rotate90 did not evict AvgEnergy")
	}
}
