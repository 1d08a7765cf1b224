package wire

import (
	"strings"
	"testing"

	"mocha/internal/types"
)

func TestSeqPrefixRoundTrip(t *testing.T) {
	body := []byte("payload bytes")
	for _, seq := range []uint64{0, 1, 7, 1 << 40, ^uint64(0)} {
		got, rest, err := CutSeq(AppendSeq(seq, body))
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if got != seq || string(rest) != string(body) {
			t.Fatalf("seq %d round-tripped to %d / %q", seq, got, rest)
		}
	}
}

func TestCutSeqTruncated(t *testing.T) {
	for n := 0; n < SeqSlot; n++ {
		if _, _, err := CutSeq(make([]byte, n)); err == nil {
			t.Fatalf("%d-byte payload accepted as seq frame", n)
		} else if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("%d-byte payload: error should name truncation, got %v", n, err)
		}
	}
}

// sendSeqStream writes a resumable stream of single-tuple frames with
// the given sequence numbers, then a SeqEOS carrying eosSeq.
func sendSeqStream(t *testing.T, c *Conn, seqs []uint64, eosSeq uint64) {
	t.Helper()
	go func() {
		for i, seq := range seqs {
			batch := EncodeBatch([]types.Tuple{testTuple(i)})
			if err := c.Send(MsgSeqBatch, AppendSeq(seq, batch)); err != nil {
				return
			}
		}
		stats, _ := EncodeXML(&ExecStats{Site: "test"})
		_ = c.Send(MsgSeqEOS, AppendSeq(eosSeq, stats))
	}()
}

func TestSeqStreamInOrder(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	sendSeqStream(t, a, []uint64{1, 2, 3}, 4)
	r := NewBatchReader(b, testSchema)
	var n int
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
	if n != 3 || r.Seq != 4 || r.EOSPayload == nil {
		t.Fatalf("got %d tuples, seq %d, eos %v", n, r.Seq, r.EOSPayload != nil)
	}
}

// TestSeqStreamRefusesReplayedDuplicates: a rebound reader takes the
// stream from the frame after the last one it holds. A sender that
// replays a frame already held is out of step, and the reader refuses
// it as a sequence gap instead of dropping it silently.
func TestSeqStreamRefusesReplayedDuplicates(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	sendSeqStream(t, a, []uint64{1, 2, 3, 4}, 5)
	r := NewBatchReader(b, testSchema)
	r.Seq = 2
	_, err := r.Next()
	if err == nil || !strings.Contains(err.Error(), "sequence gap: got frame 1, want 3") {
		t.Fatalf("replayed frame 1 after frame 2: err = %v, want a sequence gap", err)
	}
}

func TestSeqStreamGapDetected(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()
	sendSeqStream(t, a, []uint64{1, 3}, 4)
	r := NewBatchReader(b, testSchema)
	var err error
	for err == nil {
		var tup types.Tuple
		tup, err = r.Next()
		if tup == nil && err == nil {
			t.Fatal("stream ended without surfacing the sequence gap")
		}
	}
	if !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("want sequence-gap error, got %v", err)
	}
}
