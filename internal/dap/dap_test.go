package dap

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"mocha/internal/catalog"
	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/ops"
	"mocha/internal/storage"
	"mocha/internal/types"
	"mocha/internal/vm"
	"mocha/internal/wire"
)

// testDAP starts a DAP over an in-memory connection with a small Rasters
// table and returns the QPC-side wire connection.
func testDAP(t *testing.T, cfg Config) (*wire.Conn, *Server) {
	t.Helper()
	if cfg.Site == "" {
		cfg.Site = "test"
	}
	if cfg.Driver == nil {
		store, err := storage.OpenStore("", 16)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := store.Create("Rasters", types.NewSchema(
			types.Column{Name: "time", Kind: types.KindInt},
			types.Column{Name: "image", Kind: types.KindRaster},
		))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			px := make([]byte, 64)
			for j := range px {
				px[j] = byte(10 * i)
			}
			if _, err := tbl.Insert(types.Tuple{types.Int(int32(i)), types.NewRaster(8, 8, px)}); err != nil {
				t.Fatal(err)
			}
		}
		cfg.Driver = &StorageDriver{Store: store}
	}
	srv := New(cfg)
	return connectDAP(t, srv), srv
}

// connectDAP opens one more QPC-side connection to srv.
func connectDAP(t *testing.T, srv *Server) *wire.Conn {
	qpcSide, dapSide := net.Pipe()
	go srv.HandleConn(dapSide)
	conn := wire.NewConn(qpcSide)
	t.Cleanup(func() { conn.Close() })
	return conn
}

func avgEnergyFragment(t *testing.T) (*core.Fragment, *catalog.Class) {
	t.Helper()
	reg := ops.Builtins()
	d, _ := reg.Lookup("AvgEnergy")
	repo := catalog.NewRepository()
	cls, err := repo.PutProgram(d.Program())
	if err != nil {
		t.Fatal(err)
	}
	frag := &core.Fragment{
		Site: "test", Table: "Rasters",
		Cols: []int{0, 1},
		InSchema: types.NewSchema(
			types.Column{Name: "time", Kind: types.KindInt},
			types.Column{Name: "image", Kind: types.KindRaster},
		),
		SemiJoinCol: -1,
		Projections: []core.Output{
			{Name: "time", Expr: core.NewCol(0, types.KindInt)},
			{Name: "avg", Expr: &core.PExpr{
				Kind: core.ExprCall, Func: "AvgEnergy", Ret: types.KindDouble,
				Args: []*core.PExpr{core.NewCol(1, types.KindRaster)},
			}},
		},
		Code: []core.CodeRef{{Name: cls.Name, Version: cls.Version, Checksum: cls.Checksum}},
		OutSchema: types.NewSchema(
			types.Column{Name: "time", Kind: types.KindInt},
			types.Column{Name: "avg", Kind: types.KindDouble},
		),
	}
	return frag, cls
}

// streamSeq numbers the streams the tests start, so no two share an ID.
var streamSeq atomic.Int64

// startFragment is the QPC's half of a START exchange: it sends the
// request (its Stream filled in when empty) with keys behind a semi-join
// fragment, reads the ack, and ships from classes exactly the releases
// the ack names. It returns the digests the DAP asked for; the stream —
// or the ERROR frame standing in for it — is next on conn.
func startFragment(t *testing.T, conn *wire.Conn, req *core.Start, keys []types.Tuple, classes ...*catalog.Class) []string {
	t.Helper()
	if req.Stream == "" {
		req.Stream = fmt.Sprintf("test/%d", streamSeq.Add(1))
	}
	data, err := wire.EncodeXML(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.MsgStart, data); err != nil {
		t.Fatal(err)
	}
	if req.Fragment != nil && req.Fragment.SemiJoinCol >= 0 {
		if err := conn.Send(wire.MsgSemiJoinKeys, wire.EncodeBatch(keys)); err != nil {
			t.Fatal(err)
		}
	}
	ackData, err := conn.Expect(wire.MsgStartAck)
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.StartAck
	if err := wire.DecodeXML(ackData, &ack); err != nil {
		t.Fatal(err)
	}
	for _, digest := range ack.Need {
		var blob []byte
		for _, cls := range classes {
			if cls.Checksum == digest {
				blob = cls.Blob
			}
		}
		if blob == nil {
			t.Fatalf("DAP asked for release %s, which the test does not hold", digest)
		}
		if err := conn.Send(wire.MsgDeployCode, blob); err != nil {
			t.Fatal(err)
		}
	}
	return ack.Need
}

// readStream drains a fragment stream, returning its rows and the stats
// its SEQ_EOS carried.
func readStream(t *testing.T, conn *wire.Conn, schema types.Schema) ([]types.Tuple, wire.ExecStats) {
	t.Helper()
	r := wire.NewBatchReader(conn, schema)
	var rows []types.Tuple
	for {
		tup, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			break
		}
		rows = append(rows, tup)
	}
	var stats wire.ExecStats
	if err := wire.DecodeXML(r.EOSPayload, &stats); err != nil {
		t.Fatal(err)
	}
	return rows, stats
}

// spanSum adds up one counter over the spans of a report — the only
// place a DAP says what an execution read, loaded or sent.
func spanSum(stats wire.ExecStats, counter func(obs.Span) int64) (n int64) {
	for _, sp := range stats.Spans {
		n += counter(sp)
	}
	return n
}

func codeBytes(sp obs.Span) int64 { return sp.CodeBytes }
func classes(sp obs.Span) int64   { return sp.Classes }
func cacheHits(sp obs.Span) int64 { return sp.CacheHits }

// streamError reads the ERROR frame a refused START leaves where its
// stream would begin.
func streamError(t *testing.T, conn *wire.Conn) string {
	t.Helper()
	typ, payload, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("got %v %q, want an ERROR frame", typ, payload)
	}
	return string(payload)
}

func deployAndRun(t *testing.T, conn *wire.Conn, frag *core.Fragment, cls *catalog.Class) []types.Tuple {
	t.Helper()
	return deployAndRunN(t, conn, frag, cls, 10)
}

// deployAndRunN starts the fragment, shipping cls if the DAP asks for
// it, and returns the streamed rows, asserting the DAP read wantRead
// source tuples.
func deployAndRunN(t *testing.T, conn *wire.Conn, frag *core.Fragment, cls *catalog.Class, wantRead int64) []types.Tuple {
	t.Helper()
	startFragment(t, conn, &core.Start{Fragment: frag}, nil, cls)
	rows, stats := readStream(t, conn, frag.OutSchema)
	// A scan's rows-in are the tuples it read from the source.
	read := spanSum(stats, func(sp obs.Span) int64 {
		if sp.Name != obs.OpScan {
			return 0
		}
		return sp.RowsIn
	})
	if read != wantRead {
		t.Errorf("scan read %d tuples, want %d", read, wantRead)
	}
	return rows
}

// classRef is a fragment's code manifest naming one shipped program.
func classRef(p *vm.Program) (*core.Fragment, *catalog.Class) {
	schema := types.NewSchema(types.Column{Name: "time", Kind: types.KindInt})
	frag := &core.Fragment{
		Site: "test", Table: "Rasters", Cols: []int{0}, InSchema: schema, SemiJoinCol: -1,
		Projections: []core.Output{{Name: "time", Expr: core.NewCol(0, types.KindInt)}},
		Code:        []core.CodeRef{{Name: p.Name, Version: "1", Checksum: p.Checksum()}},
		OutSchema:   schema,
	}
	return frag, &catalog.Class{Name: p.Name, Checksum: p.Checksum(), Blob: p.Encode()}
}

func TestDAPExecutesShippedOperator(t *testing.T) {
	conn, _ := testDAP(t, Config{})
	frag, cls := avgEnergyFragment(t)
	rows := deployAndRun(t, conn, frag, cls)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, row := range rows {
		if float64(row[1].(types.Double)) != float64(10*i) {
			t.Errorf("row %d: avg = %v, want %d", i, row[1], 10*i)
		}
	}
}

func TestDAPRejectsUnverifiableCode(t *testing.T) {
	reg := obs.NewRegistry()
	conn, srv := testDAP(t, Config{Metrics: reg})
	// Structurally valid program with an out-of-range jump: Decode
	// accepts it, Verify must not. The refusal is the stream's ERROR frame.
	p := vm.MustAssemble("program evil\nfunc eval args=0 locals=0\nret\nend")
	p.Funcs[0].Code = []byte{byte(vm.OpJmp), 0, 0, 0, 99}
	frag, cls := classRef(p)
	if need := startFragment(t, conn, &core.Start{Fragment: frag}, nil, cls); len(need) != 1 {
		t.Fatalf("ack asked for %v, want the one unknown class", need)
	}
	if msg := streamError(t, conn); !strings.Contains(msg, "jump") {
		t.Errorf("error %q does not carry the verifier's text", msg)
	}
	if got := srv.met.verifyRejects.Value(); got != 1 {
		t.Errorf("dap_verify_rejects = %d, want 1", got)
	}
	if srv.HasClass(p.Name, p.Checksum()) {
		t.Error("refused class was cached")
	}
	// Garbage bytes likewise (a decode failure, not a verifier reject).
	cls.Blob = []byte("not a class")
	startFragment(t, conn, &core.Start{Fragment: frag}, nil, cls)
	streamError(t, conn)
	if got := srv.met.verifyRejects.Value(); got != 1 {
		t.Errorf("dap_verify_rejects = %d after an undecodable blob, want 1", got)
	}
}

// TestDAPRejectsCodeOverItsLimits asserts that a verifiable class whose
// proven call depth exceeds what this site's machines allow is refused
// when it is shipped — the stream opens with the typed limit error — and
// never reaches the code cache, let alone a tuple.
func TestDAPRejectsCodeOverItsLimits(t *testing.T) {
	conn, srv := testDAP(t, Config{Metrics: obs.NewRegistry(), Limits: vm.Limits{MaxCallDepth: 2}})
	p := vm.MustAssemble(`program deep
func eval args=0 locals=0
call f1
ret
end
func f1 args=0 locals=0
call f2
ret
end
func f2 args=0 locals=0
pushi 1
ret
end`)
	frag, cls := classRef(p)
	startFragment(t, conn, &core.Start{Fragment: frag}, nil, cls)
	want := (&vm.LimitError{Program: "deep", Limit: "MaxCallDepth", Need: 3, Max: 2}).Error()
	if msg := streamError(t, conn); !strings.Contains(msg, want) {
		t.Errorf("got %q, want an error carrying %q", msg, want)
	}
	if got := srv.met.verifyRejects.Value(); got != 1 {
		t.Errorf("dap_verify_rejects = %d, want 1", got)
	}
	if srv.HasClass(p.Name, p.Checksum()) {
		t.Error("refused class was cached")
	}
}

// TestDAPFastPathMetric asserts that code arriving over the wire is
// re-verified and compiled on load, and that what it then executes —
// invocations and bytecode instructions — surfaces in the registry.
func TestDAPFastPathMetric(t *testing.T) {
	reg := obs.NewRegistry()
	conn, _ := testDAP(t, Config{Metrics: reg})
	frag, cls := avgEnergyFragment(t)
	rows := deployAndRun(t, conn, frag, cls)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	snap := reg.Snapshot()
	if snap[obs.MVMFastpathRuns] == 0 {
		t.Errorf("vm_fastpath_runs = 0 after executing shipped code; snapshot: %v", snap)
	}
	if runs, instrs := snap[obs.MVMFastpathRuns], snap[obs.MVMInstructions]; instrs < 10*runs {
		t.Errorf("vm_instructions = %d after %d runs of a pixel loop", instrs, runs)
	}
	if n := snap[obs.MVMCompileMicros+".count"]; n != 1 {
		t.Errorf("vm_compile_us observed %d compilations, want 1 (one class loaded)", n)
	}
}

func TestDAPMissingOperator(t *testing.T) {
	conn, _ := testDAP(t, Config{})
	frag, _ := avgEnergyFragment(t)
	// A plan that calls the operator without listing its class: nothing
	// is asked for, nothing ships, and binding must fail with a
	// code-shipping error.
	frag.Code = nil
	if need := startFragment(t, conn, &core.Start{Fragment: frag}, nil); len(need) != 0 {
		t.Fatalf("ack asked for %v from a plan with no code refs", need)
	}
	if msg := streamError(t, conn); !strings.Contains(msg, "not loaded") {
		t.Errorf("got %q", msg)
	}
}

func TestDAPProtocolErrors(t *testing.T) {
	conn, _ := testDAP(t, Config{})
	refused := func(what string, typ wire.MsgType, payload []byte, want string) {
		t.Helper()
		conn.Send(typ, payload)
		if msg := streamError(t, conn); !strings.Contains(msg, want) {
			t.Errorf("%s: got %q, want %q", what, msg, want)
		}
	}
	// The four retired set-up messages and the two retired resume
	// messages keep their numbers unassigned.
	for _, n := range []int{6, 7, 8, 9, 20, 21} {
		refused("retired message", wire.MsgType(n), nil, fmt.Sprintf("unexpected MSG(%d)", n))
	}
	// Frames that belong inside a START, outside one.
	refused("stray keys", wire.MsgSemiJoinKeys, wire.EncodeBatch(nil), "semi-join keys without a semi-join fragment")
	refused("stray class", wire.MsgDeployCode, nil, "unexpected DEPLOY_CODE")
	// A START that names no stream, or carries no fragment.
	frag, cls := avgEnergyFragment(t)
	bare, _ := wire.EncodeXML(&core.Start{Fragment: frag})
	refused("no stream id", wire.MsgStart, bare, "start without")
	bare, _ = wire.EncodeXML(&core.Start{Stream: "s"})
	refused("no fragment", wire.MsgStart, bare, "start without")
	refused("garbage", wire.MsgStart, []byte("<start"), "decode")
	// Unknown table.
	frag.Table = "Nope"
	startFragment(t, conn, &core.Start{Fragment: frag}, nil, cls)
	streamError(t, conn)
	// Column out of range.
	frag2, _ := avgEnergyFragment(t)
	frag2.Cols = []int{0, 7}
	startFragment(t, conn, &core.Start{Fragment: frag2}, nil, cls)
	if msg := streamError(t, conn); !strings.Contains(msg, "extracts column 7 of 2-column table") {
		t.Errorf("out-of-range column: got %q", msg)
	}
	// Keys behind a fragment that takes none are a frame of their own,
	// refused once the stream has ended.
	frag3, _ := avgEnergyFragment(t)
	startFragment(t, conn, &core.Start{Fragment: frag3}, nil, cls)
	readStream(t, conn, frag3.OutSchema)
	refused("keys for a plain fragment", wire.MsgSemiJoinKeys, wire.EncodeBatch(nil), "semi-join keys without a semi-join fragment")
}

// TestDAPReportsSpansWithOrWithoutTrace: spans are how a DAP measures,
// not something a trace ID switches on. A START that names no trace gets
// the same report — set-up steps, every operator, the source volume on
// the scan and the wire volume on the flush — and echoes no ID; one that
// names a trace gets the ID back and nothing else different.
func TestDAPReportsSpansWithOrWithoutTrace(t *testing.T) {
	conn, _ := testDAP(t, Config{})
	frag, cls := avgEnergyFragment(t)
	var names [2][]string
	for i, traceID := range []string{"", "q7"} {
		startFragment(t, conn, &core.Start{Trace: traceID, Fragment: frag}, nil, cls)
		rows, stats := readStream(t, conn, frag.OutSchema)
		if stats.Trace != traceID {
			t.Errorf("report echoes trace %q, START named %q", stats.Trace, traceID)
		}
		var sent int64
		for _, tup := range rows {
			sent += int64(tup.WireSize())
		}
		byName := map[string]obs.Span{}
		for _, sp := range stats.Spans {
			byName[sp.Name] = sp
			names[i] = append(names[i], sp.Name)
			if sp.Site != "test" {
				t.Errorf("span %s reported for site %q", sp.Name, sp.Site)
			}
		}
		for _, want := range []string{obs.PhaseDapStart, obs.PhaseDapLower, obs.OpScan, obs.OpProject, obs.OpEmit, obs.PhaseDapFlush} {
			if _, ok := byName[want]; !ok {
				t.Fatalf("trace %q: no %s span among %v", traceID, want, names[i])
			}
		}
		if got := byName[obs.PhaseDapFlush]; got.NetBytes != sent || got.Tuples != int64(len(rows)) {
			t.Errorf("flush span carries %d B / %d tuples, stream delivered %d B / %d", got.NetBytes, got.Tuples, sent, len(rows))
		}
		if got := byName[obs.OpScan]; got.DBBytes == 0 || got.RowsIn != 10 {
			t.Errorf("scan span carries %d source bytes, %d rows read; want some, and 10", got.DBBytes, got.RowsIn)
		}
		if n := spanSum(stats, func(sp obs.Span) int64 { return sp.NetBytes }); n != sent {
			t.Errorf("spans carry %d net bytes in all, stream delivered %d", n, sent)
		}
		for _, gone := range []string{"dap:db", "dap:cpu", "dap:net"} {
			if _, ok := byName[gone]; ok {
				t.Errorf("aggregate span %s is back; db/cpu/net are classes of the operator spans", gone)
			}
		}
	}
	// The first run loaded the class, the second found it cached.
	if want := append([]string{obs.PhaseDapStart, obs.PhaseDapDeployCode}, names[1][1:]...); !slices.Equal(names[0], want) {
		t.Errorf("untraced cold run reported %v, traced warm run %v", names[0], names[1])
	}
}

// TestDAPCodeCheckAndCache: the START ack is the code check — it names a
// class the DAP lacks, stays empty once the class is cached, and asks
// again for any other digest; each execution reports its own loads and
// hits.
func TestDAPCodeCheckAndCache(t *testing.T) {
	conn, srv := testDAP(t, Config{})
	frag, cls := avgEnergyFragment(t)
	if need := startFragment(t, conn, &core.Start{Fragment: frag}, nil, cls); len(need) != 1 || need[0] != cls.Checksum {
		t.Fatalf("fresh DAP should need the class: %v", need)
	}
	if _, stats := readStream(t, conn, frag.OutSchema); spanSum(stats, classes) != 1 || spanSum(stats, codeBytes) != int64(len(cls.Blob)) || spanSum(stats, cacheHits) != 0 {
		t.Errorf("first run reported %d classes / %d B loaded, %d hits", spanSum(stats, classes), spanSum(stats, codeBytes), spanSum(stats, cacheHits))
	}
	// Second START: cached, and the stream follows the empty ack.
	if need := startFragment(t, conn, &core.Start{Fragment: frag}, nil); len(need) != 0 {
		t.Errorf("cached class requested again: %v", need)
	}
	if _, stats := readStream(t, conn, frag.OutSchema); spanSum(stats, classes) != 0 || spanSum(stats, cacheHits) != 1 {
		t.Errorf("second run reported %d classes loaded, %d hits", spanSum(stats, classes), spanSum(stats, cacheHits))
	}
	hits, misses := srv.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d/%d", hits, misses)
	}
	// Another digest of the same class forces re-shipping.
	frag.Code[0].Checksum = "different"
	stale := *cls
	stale.Checksum = "different"
	if need := startFragment(t, conn, &core.Start{Fragment: frag}, nil, &stale); len(need) != 1 || need[0] != "different" {
		t.Errorf("stale class not re-requested: %v", need)
	}
	// What arrived is not the release the plan pinned: it never runs.
	if msg := streamError(t, conn); !strings.Contains(msg, "not loaded") {
		t.Errorf("got %q", msg)
	}

	// With the cache disabled every START lists every ref.
	conn2, _ := testDAP(t, Config{DisableCodeCache: true})
	frag, cls = avgEnergyFragment(t)
	for i := 0; i < 2; i++ {
		if need := startFragment(t, conn2, &core.Start{Fragment: frag}, nil, cls); len(need) != 1 {
			t.Errorf("run %d with the cache disabled asked for %v", i, need)
		}
		readStream(t, conn2, frag.OutSchema)
	}
}

func TestDAPSemiJoinFiltering(t *testing.T) {
	conn, _ := testDAP(t, Config{})
	frag, cls := avgEnergyFragment(t)
	frag.SemiJoinCol = 0 // filter on the time column
	keys := []types.Tuple{{types.Int(2)}, {types.Int(5)}, {types.Int(99)}}
	startFragment(t, conn, &core.Start{Fragment: frag}, keys, cls)
	rows, _ := readStream(t, conn, frag.OutSchema)
	var got []int32
	for _, tup := range rows {
		got = append(got, int32(tup[0].(types.Int)))
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("semi-join filtered rows = %v, want [2 5]", got)
	}
	// A key set that does not decode under the join column's kind is
	// refused only after the class the ack asked for has been read.
	conn2, _ := testDAP(t, Config{})
	startFragment(t, conn2, &core.Start{Fragment: frag}, []types.Tuple{{types.String_("x")}}, cls)
	streamError(t, conn2)
}

func TestDAPGroupedAggregation(t *testing.T) {
	conn, _ := testDAP(t, Config{})
	reg := ops.Builtins()
	dd, _ := reg.Lookup("Count")
	repo := catalog.NewRepository()
	cls, err := repo.PutProgram(dd.Program())
	if err != nil {
		t.Fatal(err)
	}
	frag := &core.Fragment{
		Site: "test", Table: "Rasters",
		Cols:        []int{0},
		InSchema:    types.NewSchema(types.Column{Name: "time", Kind: types.KindInt}),
		SemiJoinCol: -1,
		GroupBy:     []int{0},
		Aggregates: []core.AggSpec{{
			Name: "n", Func: "Count", Ret: types.KindInt,
			Args: []*core.PExpr{core.NewCol(0, types.KindInt)},
		}},
		Code: []core.CodeRef{{Name: cls.Name, Version: cls.Version, Checksum: cls.Checksum}},
		OutSchema: types.NewSchema(
			types.Column{Name: "time", Kind: types.KindInt},
			types.Column{Name: "n", Kind: types.KindInt},
		),
	}
	rows := deployAndRun(t, conn, frag, cls)
	if len(rows) != 10 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, row := range rows {
		if row[1].(types.Int) != 1 {
			t.Errorf("count = %v", row[1])
		}
	}
}

// TestDAPServeShardEcho drives the TCP accept loop end to end with a
// partitioned START: a real listener, a scan fragment started with
// shard coordinates, and an EOS that echoes them back so the QPC can
// verify which shard it drained.
func TestDAPServeShardEcho(t *testing.T) {
	store, err := storage.OpenStore("", 16)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := store.Create("Rasters__p1", types.NewSchema(
		types.Column{Name: "time", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := tbl.Insert(types.Tuple{types.Int(int32(i))}); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	srv := New(Config{Site: "test", Driver: &StorageDriver{Store: store}, Metrics: reg})
	if srv.Metrics() != reg {
		t.Error("Metrics() lost the configured registry")
	}
	if srv.Governor() != nil {
		t.Error("ungoverned server grew a governor")
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	t.Cleanup(func() { conn.Close() })

	schema := types.NewSchema(types.Column{Name: "time", Kind: types.KindInt})
	frag := &core.Fragment{
		Site: "test", Table: "Rasters__p1",
		Cols: []int{0}, InSchema: schema, SemiJoinCol: -1,
		Projections: []core.Output{{Name: "time", Expr: core.NewCol(0, types.KindInt)}},
		OutSchema:   schema,
	}
	startFragment(t, conn, &core.Start{Stream: "q1/0", Part: 1, Of: 3, Fragment: frag}, nil)
	rows, stats := readStream(t, conn, schema)
	if len(rows) != 5 {
		t.Fatalf("streamed %d rows, want 5", len(rows))
	}
	if stats.Part != 1 || stats.Of != 3 {
		t.Errorf("EOS echoed part %d/%d, want 1/3", stats.Part, stats.Of)
	}

	l.Close()
	if err := <-served; err != nil {
		t.Errorf("Serve on a closed listener returned %v", err)
	}
}
