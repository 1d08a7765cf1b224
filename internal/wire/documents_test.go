package wire

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mocha/internal/obs"
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
	{Name: "dap:code", Site: "site2", CodeBytes: 321, SpillBytes: 64, RowsIn: 5},
	{Name: "op:scan"},
}

// TestControlFramesGolden pins, byte for byte, the two control frames
// whose payloads are built from domain values of other packages: the
// RESULT_SCHEMA frame (a types.Schema) and an EOS frame whose exec-stats
// carry trace spans (obs.Span). The files were generated when wire still
// copied both into mirror structs of its own. Each payload must also
// decode to a value that encodes back to the same bytes.
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

	stats := ExecStats{Site: "site2", DBMicros: 11, CPUMicros: 22, NetMicros: 33, MiscMicros: 44,
		TuplesRead: 17, BytesAccessed: 8192, TuplesSent: 17, BytesSent: 4096,
		CodeClassesLoaded: 1, CodeBytesLoaded: 321, CacheHits: 2,
		Trace: "q7", Spans: goldenSpans, Part: 2, Of: 3}
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

	for _, g := range []struct {
		file  string
		frame []byte
	}{
		{"result_schema.frame", frame(MsgResultSchema, schemaDoc)},
		{"eos_exec_stats.frame", frame(MsgEOS, statsDoc)},
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
