package wire

import (
	"reflect"
	"strings"
	"testing"

	"mocha/internal/obs"
)

// reportSpans is the report of a lowered fragment: its set-up steps,
// four operators and the flush, as a DAP sends them.
var reportSpans = []obs.Span{
	{Name: obs.PhaseDapStart, Site: "site1", DurMicros: 42, CacheHits: 1},
	{Name: obs.PhaseDapLower, Site: "site1", StartMicros: 44, DurMicros: 31},
	{Name: obs.OpScan, Site: "site1", StartMicros: 75, DurMicros: 812, DBBytes: 94208, Tuples: 512, RowsIn: 512, Batches: 1},
	{Name: obs.OpFilter, Site: "site1", StartMicros: 75, DurMicros: 120, Tuples: 37, RowsIn: 512, Batches: 1},
	{Name: obs.OpProject, Site: "site1", StartMicros: 75, DurMicros: 95, Tuples: 37, RowsIn: 37, Batches: 1},
	{Name: obs.OpEmit, Site: "site1", StartMicros: 75, DurMicros: 18, Tuples: 37, RowsIn: 37, Batches: 1},
	{Name: obs.PhaseDapFlush, Site: "site1", StartMicros: 902, DurMicros: 6, NetBytes: 6771, Tuples: 37, Instrs: 918273},
}

// TestExecStatsDecodeAllocs pins the cost of reading a DAP's report: a
// 7-span record decodes in a bounded number of allocations (the strings
// are windows into one copy of the payload).
func TestExecStatsDecodeAllocs(t *testing.T) {
	data, err := (&ExecStats{Site: "site1", Trace: "q0000002a-0001", Spans: reportSpans}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var es ExecStats
	allocs := testing.AllocsPerRun(200, func() {
		if err := es.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Errorf("decoding a %d-span report (%d B) took %.0f allocations, budget 20", len(reportSpans), len(data), allocs)
	}
	if !reflect.DeepEqual(es.Spans, reportSpans) {
		t.Errorf("spans decoded to %+v", es.Spans)
	}
}

// TestStatsRecordRefusesHostileInput: a record cut anywhere, with bytes
// after its end, of another version, or naming more spans than its bytes
// can hold is refused, by an error that names the payload.
func TestStatsRecordRefusesHostileInput(t *testing.T) {
	good, _ := (&ExecStats{Site: "site1", Trace: "q1", Part: 1, Of: 2, Spans: reportSpans}).MarshalBinary()
	for n := range good {
		var es ExecStats
		if err := es.UnmarshalBinary(good[:n]); err == nil {
			t.Errorf("record cut to %d of %d bytes accepted", n, len(good))
		}
	}
	huge := NewRecordWriter(0)
	huge.String("site1")
	huge.String("")
	huge.Int(0)
	huge.Int(0)
	huge.Count(1 << 40)
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"trailing bytes", append(append([]byte(nil), good...), 0), "1 trailing bytes"},
		{"unknown version", append([]byte{recordVersion + 1}, good[1:]...), "version 2"},
		{"span count past the input", append(huge.Bytes(), make([]byte, 64)...), "overruns"},
		{"string past the input", []byte{recordVersion, 0x7f, 'x'}, "overruns"},
	} {
		var es ExecStats
		err := es.UnmarshalBinary(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "exec-stats record") {
			t.Errorf("%s: got %v, want an exec-stats error saying %q", tc.name, err, tc.want)
		}
	}
}

// FuzzStatsRecord: any input either decodes to a report that survives a
// re-encode, or is refused; nothing panics, and no list is sized past
// what the input's bytes can hold.
func FuzzStatsRecord(f *testing.F) {
	good, _ := (&ExecStats{Site: "site1", Trace: "q1", Part: 1, Of: 2, Spans: reportSpans}).MarshalBinary()
	f.Add(good)
	f.Add(good[:len(good)-3])
	empty, _ := (&ExecStats{}).MarshalBinary()
	f.Add(empty)
	f.Add([]byte{recordVersion, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var es ExecStats
		if es.UnmarshalBinary(data) != nil {
			return
		}
		if cap(es.Spans) > len(data)/spanFields {
			t.Fatalf("%d bytes sized a list of %d spans", len(data), cap(es.Spans))
		}
		rec, err := es.MarshalBinary()
		var back ExecStats
		if err != nil || back.UnmarshalBinary(rec) != nil || !reflect.DeepEqual(es, back) {
			t.Fatalf("%+v re-encoded to %x (err %v), decoding to %+v", es, rec, err, back)
		}
	})
}
