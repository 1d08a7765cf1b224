package qpc

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mocha/internal/wire"
)

// fillDistinct sets every exported field v reaches — through nested
// structs and lists of them, which get two elements — to a non-zero value
// no other field holds.
func fillDistinct(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillDistinct(t, v.Field(i), next)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
	case reflect.Int, reflect.Int64:
		*next++
		v.SetInt(*next << 33) // past 32 bits: a field narrowed on the way fails
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next) + 0.25)
	case reflect.String:
		*next++
		v.SetString(strings.Repeat("x", int(*next)))
	default:
		t.Fatalf("no distinct value for a %v field", v.Type())
	}
}

// TestStatsRecordsCarryEveryField: the measurement records are their
// types' fields in order, with no tags to forget, so the types are the
// checklist — every exported field of obs.Span, wire.ExecStats and
// QueryStats, set to a distinct value, survives an encode and decode
// exactly. A field added to one of them without travelling fails here.
func TestStatsRecordsCarryEveryField(t *testing.T) {
	var next int64
	var es wire.ExecStats
	fillDistinct(t, reflect.ValueOf(&es).Elem(), &next)
	if len(es.Spans) != 2 || es.Spans[1].Instrs == 0 {
		t.Fatalf("spans not filled: %+v", es.Spans)
	}
	data, err := es.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var backES wire.ExecStats
	if err := backES.UnmarshalBinary(data); err != nil || !reflect.DeepEqual(backES, es) {
		t.Errorf("exec-stats decoded to %+v (err %v), want %+v", backES, err, es)
	}

	var qs QueryStats
	fillDistinct(t, reflect.ValueOf(&qs).Elem(), &next)
	if data, err = qs.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	var backQS QueryStats
	if err := backQS.UnmarshalBinary(data); err != nil || backQS != qs {
		t.Errorf("query-stats decoded to %+v (err %v), want %+v", backQS, err, qs)
	}
	if err := backQS.UnmarshalBinary(append(data, 0)); err == nil || !strings.Contains(err.Error(), "query-stats record") {
		t.Errorf("a query-stats record with a trailing byte: got %v", err)
	}
}

// TestQueryStatsFrameGolden pins, byte for byte, the EOS frame that ends
// a result stream to a wire client: the query-stats record. Regenerate
// with
//
//	go test ./internal/qpc -run TestQueryStatsFrameGolden -update
func TestQueryStatsFrameGolden(t *testing.T) {
	qs := QueryStats{PlanMS: 0.25, DeployMS: 1.5, DBMS: 2.125, CPUMS: 3, NetMS: 0.5, JoinMS: 0.75, MiscMS: 1.875, TotalMS: 6.5,
		CVDA: 94208, CVDT: 6771, ResultBytes: 6771, ResultTuples: 37,
		CodeClassesShipped: 1, CodeBytesShipped: 321, CacheHits: 2, ResultDigest: "2f9c01aa7d3e5b60"}
	data, err := qs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back QueryStats
	if err := back.UnmarshalBinary(data); err != nil || back != qs {
		t.Fatalf("decoded to %+v (err %v)", back, err)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(data)))
	frame = append(append(frame, byte(wire.MsgEOS)), data...)
	path := filepath.Join("testdata", "query_stats.frame")
	if *update {
		if err := os.WriteFile(path, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(frame, want) {
		t.Errorf("query_stats.frame moved:\n want %x\n got  %x", want, frame)
	}
}
