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

// seqPrefixSize is the sequence-number prefix on MsgSeqBatch/MsgSeqEOS
// payloads.
const seqPrefixSize = 8

// AppendSeq prefixes body with its stream sequence number.
func AppendSeq(seq uint64, body []byte) []byte {
	buf := make([]byte, 0, seqPrefixSize+len(body))
	buf = binary.BigEndian.AppendUint64(buf, seq)
	return append(buf, body...)
}

// CutSeq splits a sequence-numbered payload into its sequence number and
// body. A payload truncated inside the sequence prefix is an error.
func CutSeq(payload []byte) (uint64, []byte, error) {
	if len(payload) < seqPrefixSize {
		return 0, nil, fmt.Errorf("wire: seq frame truncated at sequence number (%d bytes)", len(payload))
	}
	return binary.BigEndian.Uint64(payload[:seqPrefixSize]), payload[seqPrefixSize:], nil
}
