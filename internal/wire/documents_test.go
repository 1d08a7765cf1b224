package wire

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/types"
)

// Regenerate with
//
//	go test ./internal/wire -run TestControlFramesGolden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenSpans exercises every Span field, including the ones the wire
// form omits when zero.
var goldenSpans = []obs.Span{
	{Name: "dap:exec", Site: "site2", StartMicros: 10, DurMicros: 250,
		NetBytes: 4096, DBBytes: 8192, Tuples: 17, Batches: 2},
	{Name: "dap:code", Site: "site2", CodeBytes: 321, Classes: 1, CacheHits: 2, SpillBytes: 64, RowsIn: 5},
	{Name: "op:scan"},
}

// TestControlFramesGolden pins, byte for byte, the control frames whose
// payloads are built from domain values of other packages: the
// RESULT_SCHEMA frame (a types.Schema), an EOS frame whose exec-stats
// are an execution's identity around its trace spans (obs.Span), and the
// set-up exchange,
// a START (core.Start around a core.Fragment) with its START_ACK. Each
// payload must also decode to a value that encodes back to the same
// bytes.
func TestControlFramesGolden(t *testing.T) {
	schemaDoc, err := EncodeXML(ResultSchema{Schema: testSchema})
	if err != nil {
		t.Fatal(err)
	}
	var backSchema ResultSchema
	if err := DecodeXML(schemaDoc, &backSchema); err != nil || !backSchema.Schema.Equal(testSchema) {
		t.Fatalf("schema decoded to %v (err %v), want %v", backSchema.Schema, err, testSchema)
	}
	if again, err := EncodeXML(backSchema); err != nil || !bytes.Equal(again, schemaDoc) {
		t.Errorf("schema does not re-encode to the same bytes (err %v)", err)
	}

	stats := ExecStats{Site: "site2", Trace: "q7", Spans: goldenSpans, Part: 2, Of: 3}
	statsDoc, err := EncodeXML(&stats)
	if err != nil {
		t.Fatal(err)
	}
	var backStats ExecStats
	if err := DecodeXML(statsDoc, &backStats); err != nil {
		t.Fatal(err)
	}
	if got := backStats.Spans; len(got) != len(goldenSpans) {
		t.Fatalf("decoded %d spans, want %d", len(got), len(goldenSpans))
	} else {
		for i := range got {
			if got[i] != goldenSpans[i] {
				t.Errorf("span %d decoded to %+v, want %+v", i, got[i], goldenSpans[i])
			}
		}
	}
	if again, err := EncodeXML(&backStats); err != nil || !bytes.Equal(again, statsDoc) {
		t.Errorf("exec-stats do not re-encode to the same bytes (err %v)", err)
	}

	keyCol := types.NewSchema(types.Column{Name: "location", Kind: types.KindInt})
	start := core.Start{Stream: "q7/1", Trace: "q7", Part: 2, Of: 3, Fragment: &core.Fragment{
		Site: "site2", Table: "Rasters2__p2", SemiJoinCol: 0, Cols: []int{2}, InSchema: keyCol,
		Projections: []core.Output{{Name: "location", Expr: core.NewCol(0, types.KindInt)}},
		Code:        []core.CodeRef{{Name: "AvgEnergy", Version: "1.0", Checksum: "abc", Caps: "alloc"}},
		OutSchema:   keyCol,
	}}
	startDoc, err := EncodeXML(&start)
	if err != nil {
		t.Fatal(err)
	}
	var backStart core.Start
	if err := DecodeXML(startDoc, &backStart); err != nil {
		t.Fatal(err)
	}
	if again, err := EncodeXML(&backStart); err != nil || !bytes.Equal(again, startDoc) {
		t.Errorf("start does not re-encode to the same bytes (err %v):\n%s\n%s", err, startDoc, again)
	}
	ackDoc, err := EncodeXML(&StartAck{Need: []string{"abc"}})
	if err != nil {
		t.Fatal(err)
	}
	var backAck StartAck
	if err := DecodeXML(ackDoc, &backAck); err != nil || len(backAck.Need) != 1 || backAck.Need[0] != "abc" {
		t.Errorf("start-ack decoded to %+v (err %v)", backAck, err)
	}

	for _, g := range []struct {
		file  string
		frame []byte
	}{
		{"result_schema.frame", frame(MsgResultSchema, schemaDoc)},
		{"eos_exec_stats.frame", frame(MsgEOS, statsDoc)},
		{"start.frame", frame(MsgStart, startDoc)},
		{"start_ack.frame", frame(MsgStartAck, ackDoc)},
	} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, g.frame, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if !bytes.Equal(g.frame, want) {
			t.Errorf("%s moved:\n want %q\n got  %q", g.file, want, g.frame)
		}
	}
}
