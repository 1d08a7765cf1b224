package qpc

import (
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestResultDigestStreams: the digest of a result written row by row is
// the two CRCs of the whole byte sequence, whatever the row boundaries.
func TestResultDigestStreams(t *testing.T) {
	data := make([]byte, 10000)
	rand.New(rand.NewSource(1)).Read(data)
	var whole resultDigest
	whole.write(data)
	want := fmt.Sprintf("%08x%08x", crc32.Checksum(data, castagnoli), crc32.ChecksumIEEE(data))
	if got := whole.String(); got != want {
		t.Fatalf("digest %s, want %s", got, want)
	}
	var rows resultDigest
	for off, n := 0, 1; off < len(data); off, n = off+n, n*3%97+1 {
		rows.write(data[off:min(off+n, len(data))])
	}
	if rows != whole {
		t.Errorf("row-by-row digest %s, whole %s", rows.String(), whole.String())
	}
	if (&resultDigest{}).String() != "0000000000000000" {
		t.Errorf("empty result digest %s", (&resultDigest{}).String())
	}
}

// digestInput is a 2 MiB result written as 8 rows, the shape of Q3's
// (ten rasters, ≈ 2 MB).
func digestInput() [][]byte {
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(2)).Read(data)
	rows := make([][]byte, 0, 8)
	for off := 0; off < len(data); off += 256 << 10 {
		rows = append(rows, data[off:off+256<<10])
	}
	return rows
}

// BenchmarkResultDigest hashes a 2 MiB result the way runRelease does.
func BenchmarkResultDigest(b *testing.B) {
	rows := digestInput()
	b.SetBytes(2 << 20)
	for i := 0; i < b.N; i++ {
		var d resultDigest
		for _, r := range rows {
			d.write(r)
		}
		_ = d.String()
	}
}

// BenchmarkResultDigestFNV is the FNV-64a digest the result digest
// replaced, on the same input, for the throughput comparison.
func BenchmarkResultDigestFNV(b *testing.B) {
	rows := digestInput()
	b.SetBytes(2 << 20)
	for i := 0; i < b.N; i++ {
		h := fnv.New64a()
		for _, r := range rows {
			h.Write(r)
		}
		_ = h.Sum64()
	}
}
