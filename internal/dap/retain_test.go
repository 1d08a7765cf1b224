package dap

import (
	"net"
	"testing"
	"time"

	"mocha/internal/wire"
)

// TestResumeHandoverFailureDropsConnection forces a resume hand-over to
// lose its race: the stream is parked and its window covers the QPC's
// position, so the DAP acks OK and replays — but no executor ever takes
// the connection. Once the positive ack is out the QPC reads the
// connection as a tuple stream, so the DAP must drop it (a transient
// transport failure that sends the QPC back down its resume → nack →
// restart ladder), never write a second, negative RESUME_ACK into it.
func TestResumeHandoverFailureDropsConnection(t *testing.T) {
	srv := New(Config{Site: "test", RetainTTL: 50 * time.Millisecond})
	st := newRetainedStream("q1/0", 1<<20)
	st.push(wire.MsgSeqBatch, []byte("first"))
	_, second := st.push(wire.MsgSeqBatch, []byte("second"))
	st.phase, st.parkedAt = phaseParked, time.Now()
	if err := srv.retained.add(st); err != nil {
		t.Fatal(err)
	}

	qpcSide, dapSide := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- srv.HandleConn(dapSide) }()
	conn := wire.NewConn(qpcSide)
	defer conn.Close()
	conn.SetFrameTimeout(5*time.Second, 5*time.Second)

	req, _ := wire.EncodeXML(&wire.Resume{Stream: st.id, LastSeq: 1})
	if err := conn.Send(wire.MsgResume, req); err != nil {
		t.Fatal(err)
	}
	payload, err := conn.Expect(wire.MsgResumeAck)
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.ResumeAck
	if err := wire.DecodeXML(payload, &ack); err != nil || !ack.OK || ack.FromSeq != 2 {
		t.Fatalf("ack = %+v (err %v), want OK from seq 2", ack, err)
	}
	if typ, replay, err := conn.Recv(); err != nil || typ != wire.MsgSeqBatch || string(replay) != string(second) {
		t.Fatalf("replay = %v %q (err %v), want the retained second frame", typ, replay, err)
	}
	// Nobody receives on st.attach, so the hand-over times out.
	if typ, payload, err := conn.Recv(); err == nil {
		t.Fatalf("DAP wrote %v %q into the acked stream; want the connection dropped", typ, payload)
	}
	if err := <-served; err == nil {
		t.Error("session ended cleanly; want the hand-over failure reported")
	}
}
