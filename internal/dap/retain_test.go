package dap

import (
	"net"
	"testing"
	"time"

	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/wire"
)

// waitFor polls cond for up to two seconds — far inside the 10 s retain
// TTL the tests below must not be waiting out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDAPStreamsAreSequenced reads a fragment stream frame by frame: a
// DAP sends nothing but SEQ_BATCH frames closed by one SEQ_EOS, numbered
// from 1 without a gap. TUPLE_BATCH and EOS belong to the QPC→client leg.
func TestDAPStreamsAreSequenced(t *testing.T) {
	conn, _ := testDAP(t, Config{BatchBytes: 16})
	frag, rel := avgEnergyFragment(t)
	startFragment(t, conn, &core.Start{Fragment: frag}, nil, rel)
	for want := uint64(1); ; want++ {
		typ, payload, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if typ != wire.MsgSeqBatch && typ != wire.MsgSeqEOS {
			t.Fatalf("frame %d of a DAP stream is %v", want, typ)
		}
		if seq, _, err := wire.CutSeq(payload); err != nil || seq != want {
			t.Fatalf("frame %d carries sequence number %d (err %v)", want, seq, err)
		}
		if typ == wire.MsgSeqEOS {
			if want < 3 {
				t.Errorf("stream ended at frame %d; the test needs several batches", want)
			}
			return
		}
	}
}

// TestStartSupersedesRetainedStream retries a START whose first attempt
// lost its connection after the DAP had acked and begun to run: the
// stale execution is parked under the stream ID the retry names again.
// The retry must replace it — not be refused as a duplicate, nor leave
// it parked until the TTL — and the QPC's CLOSE, having read the stream
// to its end, must free the replay window at once.
func TestStartSupersedesRetainedStream(t *testing.T) {
	conn, srv := testDAP(t, Config{Metrics: obs.NewRegistry()})
	frag, rel := avgEnergyFragment(t)
	req := &core.Start{Stream: "q7/0", Fragment: frag}
	startFragment(t, conn, req, nil, rel)
	conn.Close()
	waitFor(t, "the orphaned execution to park", func() bool { return srv.met.streamsParked.Value() == 1 })

	retry := connectDAP(t, srv)
	if need := startFragment(t, retry, req, nil, rel); len(need) != 0 {
		t.Errorf("retry was asked for %v; the first attempt cached the class", need)
	}
	if rows, _ := readStream(t, retry, frag.OutSchema); len(rows) != 10 {
		t.Fatalf("retried stream delivered %d rows, want 10", len(rows))
	}
	if n := srv.met.streamsRetained.Value(); n != 1 {
		t.Errorf("dap_streams_retained = %d with one delivered stream and its superseded twin, want 1", n)
	}
	if err := retry.Send(wire.MsgClose, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "CLOSE to release the delivered stream", func() bool { return srv.met.streamsRetained.Value() == 0 })
}

// parkedStream registers a stream parked under id whose executor is not
// there to take a connection: three frames issued, of which the window
// keeps what fits in limit bytes (the newest always).
func parkedStream(srv *Server, id string, limit int64) (st *retainedStream, third []byte) {
	st = newRetainedStream(id, limit)
	st.push(wire.MsgSeqBatch, wire.AppendSeq(0, []byte("first")))
	st.push(wire.MsgSeqBatch, wire.AppendSeq(0, []byte("second")))
	third = wire.AppendSeq(0, []byte("third"))
	st.push(wire.MsgSeqBatch, third)
	st.phase, st.parkedAt = phaseParked, time.Now()
	srv.retained.put(st)
	return st, third
}

// TestResumeHandoverFailureDropsConnection forces a continuation's
// hand-over to lose its race: the stream is parked and its window covers
// the QPC's position, so the DAP acks from the next frame and replays —
// but no executor ever takes the connection. Once that ack is out the
// QPC reads the connection as a tuple stream, so the DAP must drop it (a
// transient transport failure that sends the QPC back to place the
// stream again), never write an ERROR frame into it.
func TestResumeHandoverFailureDropsConnection(t *testing.T) {
	srv := New(Config{Site: "test", RetainTTL: 50 * time.Millisecond})
	st, third := parkedStream(srv, "q1/0", 1<<20)

	qpcSide, dapSide := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- srv.HandleConn(dapSide) }()
	conn := wire.NewConn(qpcSide)
	defer conn.Close()
	conn.SetFrameTimeout(5*time.Second, 5*time.Second)

	frag, _ := avgEnergyFragment(t)
	req, _ := wire.EncodeXML(&core.Start{Stream: st.id, After: 2, Fragment: frag})
	if err := conn.Send(wire.MsgStart, req); err != nil {
		t.Fatal(err)
	}
	payload, err := conn.Expect(wire.MsgStartAck)
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.StartAck
	if err := wire.DecodeXML(payload, &ack); err != nil || ack.From != 3 || len(ack.Need) != 0 {
		t.Fatalf("ack = %+v (err %v), want a continuation from seq 3 asking for nothing", ack, err)
	}
	if typ, replay, err := conn.Recv(); err != nil || typ != wire.MsgSeqBatch || string(replay) != string(third) {
		t.Fatalf("replay = %v %q (err %v), want the retained third frame", typ, replay, err)
	}
	// Nobody receives on st.attach, so the hand-over times out.
	if typ, payload, err := conn.Recv(); err == nil {
		t.Fatalf("DAP wrote %v %q into the acked stream; want the connection dropped", typ, payload)
	}
	if err := <-served; err == nil {
		t.Error("session ended cleanly; want the hand-over failure reported")
	}
}

// TestStartPastEvictedWindowRunsAfresh names a resume point the retained
// window no longer reaches (frame 2 is gone, the QPC holds only frame 1):
// that one START is answered the way a retried one is — the stale
// execution aborted, the missing class asked for, the fragment run from
// its first frame — and counted as a window eviction.
func TestStartPastEvictedWindowRunsAfresh(t *testing.T) {
	conn, srv := testDAP(t, Config{Metrics: obs.NewRegistry()})
	stale, _ := parkedStream(srv, "q2/0", 1)
	frag, rel := avgEnergyFragment(t)
	if need := startFragment(t, conn, &core.Start{Stream: stale.id, After: 1, Fragment: frag}, nil, rel); len(need) != 1 {
		t.Fatalf("ack asked for %v, want the one class a cold DAP lacks", need)
	}
	// readStream's reader starts at frame 1: a continuation would be a gap.
	if rows, _ := readStream(t, conn, frag.OutSchema); len(rows) != 10 {
		t.Fatalf("stream run afresh delivered %d rows, want 10", len(rows))
	}
	if stale.getPhase() != phaseAborted {
		t.Error("the stale execution was left parked")
	}
	if ev, res := srv.met.windowEvicted.Value(), srv.met.streamResumes.Value(); ev != 1 || res != 0 {
		t.Errorf("dap_stream_window_evicted = %d, dap_stream_resumes = %d; want 1 and 0", ev, res)
	}
}
