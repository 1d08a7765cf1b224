package wire

import (
	"testing"

	"mocha/internal/types"
)

func benchTuples(n int) ([]types.Tuple, types.Schema) {
	s := types.NewSchema(
		types.Column{Name: "time", Kind: types.KindInt},
		types.Column{Name: "location", Kind: types.KindRectangle},
		types.Column{Name: "avg", Kind: types.KindDouble},
	)
	out := make([]types.Tuple, n)
	for i := range out {
		out[i] = types.Tuple{
			types.Int(int32(i)),
			types.Rectangle{XMin: float32(i), YMin: 0, XMax: float32(i + 1), YMax: 1},
			types.Double(float64(i) * 1.5),
		}
	}
	return out, s
}

// BenchmarkBatchEncode measures packing the paper's 28-byte result rows.
func BenchmarkBatchEncode(b *testing.B) {
	tuples, _ := benchTuples(1000)
	b.SetBytes(28 * 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if payload := EncodeBatch(tuples); len(payload) == 0 {
			b.Fatal("empty batch")
		}
	}
}

// BenchmarkBatchDecode measures unpacking the same stream.
func BenchmarkBatchDecode(b *testing.B) {
	tuples, s := benchTuples(1000)
	payload := EncodeBatch(tuples)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := DecodeBatch(s, payload)
		if err != nil || len(out) != 1000 {
			b.Fatal(err)
		}
	}
}

// BenchmarkRasterBatch measures large-object tuple streams (64 KB
// rasters).
func BenchmarkRasterBatch(b *testing.B) {
	s := types.NewSchema(
		types.Column{Name: "time", Kind: types.KindInt},
		types.Column{Name: "image", Kind: types.KindRaster},
	)
	px := make([]byte, 64<<10)
	tuples := []types.Tuple{{types.Int(1), types.NewRaster(256, 256, px)}}
	payload := EncodeBatch(tuples)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := DecodeBatch(s, payload)
		if err != nil || len(out) != 1 {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecStatsRecord measures a DAP's 7-span report: encoding it
// at the DAP and decoding it at the QPC.
func BenchmarkExecStatsRecord(b *testing.B) {
	es := ExecStats{Site: "site1", Trace: "q0000002a-0001", Spans: reportSpans}
	data, _ := es.MarshalBinary()
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := es.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(data)), "B/record")
		for i := 0; i < b.N; i++ {
			var back ExecStats
			if err := back.UnmarshalBinary(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
