package dap

import (
	"net"
	"strings"
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
	qpcSide, dapSide := net.Pipe()
	go srv.HandleConn(dapSide)
	conn := wire.NewConn(qpcSide)
	t.Cleanup(func() { conn.Close() })
	return conn, srv
}

func hello(t *testing.T, conn *wire.Conn) {
	t.Helper()
	data, _ := wire.EncodeXML(&wire.Hello{Role: "qpc", Site: "qpc"})
	if err := conn.Send(wire.MsgHello, data); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.MsgHelloAck); err != nil {
		t.Fatal(err)
	}
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

func deployAndRun(t *testing.T, conn *wire.Conn, frag *core.Fragment, cls *catalog.Class) []types.Tuple {
	t.Helper()
	return deployAndRunN(t, conn, frag, cls, 10)
}

// deployAndRunN deploys code+plan, activates, and returns the streamed
// rows, asserting the DAP read wantRead source tuples.
func deployAndRunN(t *testing.T, conn *wire.Conn, frag *core.Fragment, cls *catalog.Class, wantRead int64) []types.Tuple {
	t.Helper()
	if cls != nil {
		if err := conn.Send(wire.MsgDeployCode, cls.Blob); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Expect(wire.MsgAck); err != nil {
			t.Fatal(err)
		}
	}
	data, err := core.EncodeFragment(frag)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.MsgDeployPlan, data); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.MsgAck); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.MsgActivate, nil); err != nil {
		t.Fatal(err)
	}
	r := wire.NewBatchReader(conn, frag.OutSchema)
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
	if stats.TuplesRead != wantRead {
		t.Errorf("stats.TuplesRead = %d, want %d", stats.TuplesRead, wantRead)
	}
	return rows
}

func TestDAPExecutesShippedOperator(t *testing.T) {
	conn, _ := testDAP(t, Config{})
	hello(t, conn)
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
	hello(t, conn)
	// Structurally valid program with an out-of-range jump: Decode
	// accepts it, Verify must not.
	p := vm.MustAssemble("program evil\nfunc eval args=0 locals=0\nret\nend")
	p.Funcs[0].Code = []byte{byte(vm.OpJmp), 0, 0, 0, 99}
	if err := conn.Send(wire.MsgDeployCode, p.Encode()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError || !strings.Contains(string(payload), "jump") {
		t.Errorf("got %v %q", typ, payload)
	}
	if got := srv.met.verifyRejects.Value(); got != 1 {
		t.Errorf("dap_verify_rejects = %d, want 1", got)
	}
	// Garbage bytes likewise (a decode failure, not a verifier reject).
	conn.Send(wire.MsgDeployCode, []byte("not a class"))
	typ, _, _ = conn.Recv()
	if typ != wire.MsgError {
		t.Errorf("garbage class accepted: %v", typ)
	}
}

// TestDAPRejectsCodeOverItsLimits asserts that a verifiable class whose
// proven call depth exceeds what this site's machines allow is refused
// when it is deployed — the session reads the typed limit error — and
// never reaches the code cache, let alone a tuple.
func TestDAPRejectsCodeOverItsLimits(t *testing.T) {
	conn, srv := testDAP(t, Config{Metrics: obs.NewRegistry(), Limits: vm.Limits{MaxCallDepth: 2}})
	hello(t, conn)
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
	if err := conn.Send(wire.MsgDeployCode, p.Encode()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	want := (&vm.LimitError{Program: "deep", Limit: "MaxCallDepth", Need: 3, Max: 2}).Error()
	if typ != wire.MsgError || !strings.Contains(string(payload), want) {
		t.Errorf("got %v %q, want an error carrying %q", typ, payload, want)
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
	hello(t, conn)
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
	hello(t, conn)
	frag, _ := avgEnergyFragment(t)
	// Deploy the plan WITHOUT the code: activation must fail with a
	// code-shipping error.
	data, _ := core.EncodeFragment(frag)
	conn.Send(wire.MsgDeployPlan, data)
	if _, err := conn.Expect(wire.MsgAck); err != nil {
		t.Fatal(err)
	}
	conn.Send(wire.MsgActivate, nil)
	typ, payload, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError || !strings.Contains(string(payload), "not loaded") {
		t.Errorf("got %v %q", typ, payload)
	}
}

func TestDAPProtocolErrors(t *testing.T) {
	conn, _ := testDAP(t, Config{})
	hello(t, conn)
	// Activate without a plan.
	conn.Send(wire.MsgActivate, nil)
	if typ, _, _ := conn.Recv(); typ != wire.MsgError {
		t.Error("activate without plan accepted")
	}
	// Semi-join keys without a semi-join fragment.
	conn.Send(wire.MsgSemiJoinKeys, wire.EncodeBatch(nil))
	if typ, _, _ := conn.Recv(); typ != wire.MsgError {
		t.Error("stray semi-join keys accepted")
	}
	// Unknown table.
	frag, cls := avgEnergyFragment(t)
	frag.Table = "Nope"
	conn.Send(wire.MsgDeployCode, cls.Blob)
	conn.Expect(wire.MsgAck)
	data, _ := core.EncodeFragment(frag)
	conn.Send(wire.MsgDeployPlan, data)
	conn.Expect(wire.MsgAck)
	conn.Send(wire.MsgActivate, nil)
	if typ, _, _ := conn.Recv(); typ != wire.MsgError {
		t.Error("unknown table accepted")
	}
	// Column out of range.
	frag2, _ := avgEnergyFragment(t)
	frag2.Cols = []int{0, 7}
	data, _ = core.EncodeFragment(frag2)
	conn.Send(wire.MsgDeployPlan, data)
	conn.Expect(wire.MsgAck)
	conn.Send(wire.MsgActivate, nil)
	if typ, _, _ := conn.Recv(); typ != wire.MsgError {
		t.Error("out-of-range column accepted")
	}
}

func TestDAPCodeCheckAndCache(t *testing.T) {
	conn, srv := testDAP(t, Config{})
	hello(t, conn)
	frag, cls := avgEnergyFragment(t)
	check := wire.CodeCheck{Classes: []wire.CodeCheckItem{
		{Name: cls.Name, Version: cls.Version, Checksum: cls.Checksum},
	}}
	payload, _ := wire.EncodeXML(&check)
	conn.Send(wire.MsgCodeCheck, payload)
	ackData, err := conn.Expect(wire.MsgCodeCheckAck)
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.CodeCheckAck
	wire.DecodeXML(ackData, &ack)
	if len(ack.Needed) != 1 {
		t.Fatalf("fresh DAP should need the class: %v", ack.Needed)
	}
	deployAndRun(t, conn, frag, cls)
	// Second check: cached.
	conn.Send(wire.MsgCodeCheck, payload)
	ackData, _ = conn.Expect(wire.MsgCodeCheckAck)
	ack = wire.CodeCheckAck{}
	wire.DecodeXML(ackData, &ack)
	if len(ack.Needed) != 0 {
		t.Errorf("cached class requested again: %v", ack.Needed)
	}
	hits, misses := srv.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d/%d", hits, misses)
	}
	// Stale checksum forces re-shipping.
	check.Classes[0].Checksum = "different"
	payload, _ = wire.EncodeXML(&check)
	conn.Send(wire.MsgCodeCheck, payload)
	ackData, _ = conn.Expect(wire.MsgCodeCheckAck)
	ack = wire.CodeCheckAck{}
	wire.DecodeXML(ackData, &ack)
	if len(ack.Needed) != 1 {
		t.Error("stale class not re-requested")
	}
}

func TestDAPSemiJoinFiltering(t *testing.T) {
	conn, _ := testDAP(t, Config{})
	hello(t, conn)
	frag, cls := avgEnergyFragment(t)
	frag.SemiJoinCol = 0 // filter on the time column
	conn.Send(wire.MsgDeployCode, cls.Blob)
	conn.Expect(wire.MsgAck)
	data, _ := core.EncodeFragment(frag)
	conn.Send(wire.MsgDeployPlan, data)
	conn.Expect(wire.MsgAck)
	keys := []types.Tuple{{types.Int(2)}, {types.Int(5)}, {types.Int(99)}}
	conn.Send(wire.MsgSemiJoinKeys, wire.EncodeBatch(keys))
	conn.Expect(wire.MsgAck)
	conn.Send(wire.MsgActivate, nil)
	r := wire.NewBatchReader(conn, frag.OutSchema)
	var got []int32
	for {
		tup, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			break
		}
		got = append(got, int32(tup[0].(types.Int)))
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("semi-join filtered rows = %v, want [2 5]", got)
	}
}

func TestDAPGroupedAggregation(t *testing.T) {
	conn, _ := testDAP(t, Config{})
	hello(t, conn)
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
// partitioned activation: a real listener, a scan fragment activated
// with shard coordinates, and an EOS that echoes them back so the QPC
// can verify which shard it drained.
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
	hello(t, conn)

	schema := types.NewSchema(types.Column{Name: "time", Kind: types.KindInt})
	frag := &core.Fragment{
		Site: "test", Table: "Rasters__p1",
		Cols: []int{0}, InSchema: schema, SemiJoinCol: -1,
		Projections: []core.Output{{Name: "time", Expr: core.NewCol(0, types.KindInt)}},
		OutSchema:   schema,
	}
	data, err := core.EncodeFragment(frag)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.MsgDeployPlan, data); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.MsgAck); err != nil {
		t.Fatal(err)
	}
	act, _ := wire.EncodeXML(&wire.Activate{Stream: "q1/0", Part: 1, Of: 3})
	if err := conn.Send(wire.MsgActivate, act); err != nil {
		t.Fatal(err)
	}
	r := wire.NewBatchReader(conn, schema)
	n := 0
	for {
		tup, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			break
		}
		n++
	}
	if n != 5 {
		t.Fatalf("streamed %d rows, want 5", n)
	}
	var stats wire.ExecStats
	if err := wire.DecodeXML(r.EOSPayload, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Part != 1 || stats.Of != 3 {
		t.Errorf("EOS echoed part %d/%d, want 1/3", stats.Part, stats.Of)
	}

	l.Close()
	if err := <-served; err != nil {
		t.Errorf("Serve on a closed listener returned %v", err)
	}
}
