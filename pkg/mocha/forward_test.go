package mocha

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"mocha/internal/core"
	"mocha/internal/dap"
	"mocha/internal/exec"
	"mocha/internal/obs"
	"mocha/internal/storage"
	"mocha/internal/types"
	"mocha/internal/wire"
)

// treeOnly is an access driver with only the AccessDriver methods, so a
// DAP over it runs every fragment on the operator tree.
type treeOnly struct{ dap.AccessDriver }

// rawStream is what a DAP put on the wire for one START: every
// TUPLE_BATCH payload as sent, and the report its EOS carried.
type rawStream struct {
	frames [][]byte
	stats  wire.ExecStats
}

// span returns the report's span of the given name.
func (s rawStream) span(name string) obs.Span {
	for _, sp := range s.stats.Spans {
		if sp.Name == name {
			return sp
		}
	}
	return obs.Span{}
}

// startRaw runs one fragment on a fresh DAP over driver and returns the
// raw stream.
func startRaw(t *testing.T, driver dap.AccessDriver, frag *core.Fragment, batchBytes int) rawStream {
	t.Helper()
	srv := dap.New(dap.Config{Site: frag.Site, Driver: driver, BatchBytes: batchBytes})
	qpcSide, dapSide := net.Pipe()
	go srv.HandleConn(dapSide)
	conn := wire.NewConn(qpcSide)
	defer conn.Close()
	req, err := wire.EncodeXML(&core.Start{Stream: "forward/0", Fragment: frag})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.MsgStart, req); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.MsgStartAck); err != nil {
		t.Fatal(err)
	}
	var out rawStream
	for {
		typ, payload, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case wire.MsgTupleBatch:
			out.frames = append(out.frames, payload)
		case wire.MsgEOS:
			if err := out.stats.UnmarshalBinary(payload); err != nil {
				t.Fatal(err)
			}
			return out
		default:
			t.Fatalf("%v %q in the stream", typ, payload)
		}
	}
}

// keyPhase is the key phase of a semi-join over frag, as the QPC starts
// it: the same extraction projected onto one small column — the last,
// so the projection is not $0 when the extraction is wider.
func keyPhase(frag *core.Fragment) *core.Fragment {
	k := -1
	for i, c := range frag.InSchema.Columns {
		switch c.Kind {
		case types.KindPolygon, types.KindGraph, types.KindRaster, types.KindBytes:
		default:
			k = i
		}
	}
	if k < 0 {
		return nil
	}
	kind := frag.InSchema.Columns[k].Kind
	return &core.Fragment{
		Site: frag.Site, Table: frag.Table, Cols: frag.Cols, InSchema: frag.InSchema, SemiJoinCol: -1,
		Projections: []core.Output{{Name: "key", Expr: core.NewCol(k, kind)}},
		OutSchema:   types.NewSchema(types.Column{Name: "key", Kind: kind}),
	}
}

// TestForwardingMatchesTree runs every fragment of the dag-cut,
// spill48k, range3 and paper-shape ladders that lowers to no operator,
// under data shipping, and the semi-join key-phase START over each,
// through both of the DAP's bodies — forwarded as stored bytes, and on
// the operator tree — at the default batch size and at 1 KiB: the
// TUPLE_BATCH payloads, byte for byte and frame for frame, the flush
// span's counts and the scan's source bytes must be the same. (A scan
// under a pushed LIMIT reads ahead on the tree, so its source bytes are
// compared only without one.)
func TestForwardingMatchesTree(t *testing.T) {
	checked := 0
	check := func(label string, cl *Cluster, sql string) {
		cl.SetStrategy(StrategyDataShip)
		res, err := cl.Execute(sql)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		units := exec.BindPlan(res.Plan, func(replicas []string) string { return replicas[0] }).Units
		if strings.Contains(label, "limit") && units[0].Frag.Limit == 0 {
			t.Fatalf("%s: the LIMIT was not pushed to the fragment", label)
		}
		for _, u := range units {
			frag := u.Frag
			if _, ok := exec.Forwarded(frag); !ok {
				continue
			}
			store := cl.stores[frag.Site]
			for phase, f := range []*core.Fragment{frag, keyPhase(frag)} {
				if f == nil {
					continue
				}
				for _, batch := range []int{0, 1 << 10} {
					name := fmt.Sprintf("%s %s phase %d batch %d", label, f.Table, phase, batch)
					fwd := startRaw(t, &dap.StorageDriver{Store: store}, f, batch)
					tree := startRaw(t, treeOnly{&dap.StorageDriver{Store: store}}, f, batch)
					compareRaw(t, name, f, fwd, tree)
					checked++
				}
			}
		}
	}
	ladder := func(name string, cl *Cluster, queries []struct{ label, sql string }) {
		for _, q := range queries {
			check(name+" "+q.label, cl, q.sql)
		}
	}

	// A pushed LIMIT forwards too, stopping after that many records: a
	// limit under the table's size, one over it, and one per shard of a
	// scattered scan.
	limits := []struct{ label, sql string }{
		{"limit_under", `SELECT image, time FROM Rasters LIMIT 3`},
		{"limit_over", `SELECT name, graph FROM Graphs LIMIT 100000`},
	}
	plain, scale := testCluster(t, ClusterConfig{})
	ladder("dagcut", plain, dagCutLadderQueries(t, plain, scale))
	ladder("limit", plain, limits)
	governed, _ := testCluster(t, ClusterConfig{Exec: Tuning{MemBudgetBytes: spillBudget}})
	ladder("spill48k", governed, spillLadderQueries(scale))
	part, _, _ := partitionedPair(t, func(src *storage.Table) *PartitionSpec {
		return RangePlacement("Rasters", "time", timeCuts(t, src, 3),
			[][]string{partitionSites(0), partitionSites(1), partitionSites(2)})
	}, ClusterConfig{})
	ladder("range3", part, partitionLadderQueries(partitionScale()))
	ladder("range3 limit", part, limits[:1])
	shapes, scale := testCluster(t, ClusterConfig{})
	for _, st := range paperStatements(t, shapes, scale) {
		check("shapes "+st.label, shapes, st.sql)
	}
	if checked == 0 {
		t.Fatal("no ladder fragment lowers to no operator")
	}
	t.Logf("%d fragment streams compared", checked)
}

// compareRaw requires two bodies' streams of frag to be the same.
func compareRaw(t *testing.T, name string, frag *core.Fragment, fwd, tree rawStream) {
	t.Helper()
	if len(fwd.frames) != len(tree.frames) {
		t.Errorf("%s: forwarded in %d frames, the tree sent %d", name, len(fwd.frames), len(tree.frames))
	}
	for i := range min(len(fwd.frames), len(tree.frames)) {
		if !bytes.Equal(fwd.frames[i], tree.frames[i]) {
			t.Errorf("%s: frame %d differs: %d bytes forwarded, %d from the tree", name, i, len(fwd.frames[i]), len(tree.frames[i]))
		}
	}
	ff, tf := fwd.span(obs.PhaseDapFlush), tree.span(obs.PhaseDapFlush)
	if ff.NetBytes != tf.NetBytes || ff.Tuples != tf.Tuples {
		t.Errorf("%s: flush span %d B / %d tuples forwarded, %d B / %d on the tree", name, ff.NetBytes, ff.Tuples, tf.NetBytes, tf.Tuples)
	}
	fs, ts := fwd.span(obs.OpScan), tree.span(obs.OpScan)
	if frag.Limit <= 0 && (fs.DBBytes != ts.DBBytes || fs.RowsIn != ts.RowsIn) {
		t.Errorf("%s: scan read %d B / %d rows forwarded, %d B / %d on the tree", name, fs.DBBytes, fs.RowsIn, ts.DBBytes, ts.RowsIn)
	}
	if fwd.span(obs.OpProject).Name != "" {
		t.Errorf("%s: the forwarded stream reports an op:project", name)
	}
}
