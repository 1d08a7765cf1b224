package wire

import (
	"encoding/binary"
	"fmt"
)

// Resumable streams. Every fragment stream a DAP sends is a run of
// sequence-numbered frames (MsgSeqBatch / MsgSeqEOS) under the stream ID
// its START named: each payload is an 8-byte big-endian sequence number
// followed by the ordinary batch or stats payload. Sequence numbers
// start at 1 and are contiguous, so after a connection loss the QPC's
// next START can name the last frame it holds (core.Start.After) and
// receive only the tail, bounded by the DAP's replay window.

// SeqSlot is the size of the sequence-number prefix on
// MsgSeqBatch/MsgSeqEOS payloads.
const SeqSlot = 8

// AppendSeq prefixes a copy of body with its stream sequence number: the
// EOS payload's framing. A batch is encoded behind a slot StampSeq fills.
func AppendSeq(seq uint64, body []byte) []byte {
	buf := make([]byte, 0, SeqSlot+len(body))
	buf = binary.BigEndian.AppendUint64(buf, seq)
	return append(buf, body...)
}

// StampSeq writes seq into the slot at the front of frame.
func StampSeq(frame []byte, seq uint64) { binary.BigEndian.PutUint64(frame[:SeqSlot], seq) }

// CutSeq splits a sequence-numbered payload into its sequence number and
// body. A payload truncated inside the sequence prefix is an error.
func CutSeq(payload []byte) (uint64, []byte, error) {
	if len(payload) < SeqSlot {
		return 0, nil, fmt.Errorf("wire: seq frame truncated at sequence number (%d bytes)", len(payload))
	}
	return binary.BigEndian.Uint64(payload[:SeqSlot]), payload[SeqSlot:], nil
}
