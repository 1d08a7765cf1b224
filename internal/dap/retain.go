package dap

import (
	"fmt"
	"sync"
	"time"

	"mocha/internal/wire"
)

// Stream retention: the DAP side of incremental recovery. Every
// fragment stream is sent as sequence-numbered frames under the ID its
// START named, and the most recent frames are retained in a bounded
// replay window. When the connection dies mid-stream the executor parks
// — the scan's cursor position is the suspended goroutine itself — and a
// reconnecting QPC's START names the last sequence number it holds: the
// DAP replays the covered tail from the window and hands the new
// connection to the parked executor, so the scan continues instead of
// restarting. The window is evicted by bytes (ReplayWindowBytes) and the
// park by time (RetainTTL); past either bound that START is answered
// like any retried one, by running the fragment afresh.

type streamPhase int

const (
	phaseStreaming streamPhase = iota
	phaseParked
	phaseDone    // EOS buffered and sent; retained until CLOSE, or the TTL after a drop
	phaseAborted // executor gone; cannot be continued
)

// seqFrame is one retained frame: its sequence number and the full
// payload (sequence prefix included) ready to resend.
type seqFrame struct {
	seq     uint64
	t       wire.MsgType
	payload []byte
}

// retainedStream is the replay state of one resumable fragment stream.
type retainedStream struct {
	id    string
	limit int64 // replay-window byte bound

	mu       sync.Mutex
	phase    streamPhase
	frames   []seqFrame // window, oldest first; never empty once streaming
	winBytes int64
	lastSeq  uint64 // seq of the newest frame issued
	parkedAt time.Time

	attach   chan *wire.Conn // a continuing START delivers the new connection
	abort    chan struct{}   // closed to kill a parked executor
	done     chan struct{}   // closed when the executor is finished for good
	abortOne sync.Once
	doneOne  sync.Once
}

func newRetainedStream(id string, limit int64) *retainedStream {
	return &retainedStream{
		id:     id,
		limit:  limit,
		attach: make(chan *wire.Conn),
		abort:  make(chan struct{}),
		done:   make(chan struct{}),
	}
}

func (st *retainedStream) setPhase(p streamPhase) {
	st.mu.Lock()
	st.phase = p
	st.mu.Unlock()
}

func (st *retainedStream) getPhase() streamPhase {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.phase
}

func (st *retainedStream) markAborted() {
	st.setPhase(phaseAborted)
	st.abortOne.Do(func() { close(st.abort) })
	st.doneOne.Do(func() { close(st.done) })
}

func (st *retainedStream) markDone() {
	st.setPhase(phaseDone)
	st.doneOne.Do(func() { close(st.done) })
}

// push assigns the next sequence number, stamps it into the slot at the
// front of payload and retains payload — the very bytes, the window
// owns them from here on — ready to send. The newest frame is never
// evicted, so the window always covers at least the frame in flight.
func (st *retainedStream) push(t wire.MsgType, payload []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.lastSeq++
	wire.StampSeq(payload, st.lastSeq)
	st.frames = append(st.frames, seqFrame{seq: st.lastSeq, t: t, payload: payload})
	st.winBytes += int64(len(payload))
	for len(st.frames) > 1 && st.winBytes > st.limit {
		st.winBytes -= int64(len(st.frames[0].payload))
		st.frames[0] = seqFrame{}
		st.frames = st.frames[1:]
	}
}

// tail returns copies of the retained frames after lastAcked, and
// whether the window still covers that point (every frame in
// (lastAcked, lastSeq] is buffered).
func (st *retainedStream) tail(lastAcked uint64) (frames []seqFrame, covered bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if lastAcked > st.lastSeq {
		return nil, false
	}
	if lastAcked == st.lastSeq {
		return nil, true
	}
	if len(st.frames) == 0 || st.frames[0].seq > lastAcked+1 {
		return nil, false
	}
	for _, f := range st.frames {
		if f.seq > lastAcked {
			frames = append(frames, f)
		}
	}
	return frames, true
}

// retention is the server-wide registry of resumable streams.
type retention struct {
	mu      sync.Mutex
	streams map[string]*retainedStream
}

func newRetention() *retention {
	return &retention{streams: make(map[string]*retainedStream)}
}

// put registers st under its ID and returns the stream it displaced.
func (r *retention) put(st *retainedStream) (stale *retainedStream) {
	r.mu.Lock()
	defer r.mu.Unlock()
	stale = r.streams[st.id]
	r.streams[st.id] = st
	return stale
}

func (r *retention) get(id string) *retainedStream {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.streams[id]
}

// remove forgets st, unless a newer stream has taken over its ID.
func (r *retention) remove(st *retainedStream) {
	r.mu.Lock()
	if r.streams[st.id] == st {
		delete(r.streams, st.id)
	}
	r.mu.Unlock()
}

func (r *retention) size() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.streams))
}

// resumableSender is the wire.SeqFrameSender a resumable execution
// streams through: it stamps sequence numbers, retains frames for replay
// and — on a transport failure — parks the executor until a START
// delivers a replacement connection or the retain TTL expires.
type resumableSender struct {
	srv  *Server
	st   *retainedStream
	conn *wire.Conn
}

// Send frames body behind a sequence slot of its own: the stream's one
// EOS payload, which no batch writer built.
func (s *resumableSender) Send(t wire.MsgType, body []byte) error {
	return s.SendSeqFrame(t, wire.AppendSeq(0, body))
}

func (s *resumableSender) SendSeqFrame(t wire.MsgType, frame []byte) error {
	switch t {
	case wire.MsgTupleBatch:
		t = wire.MsgSeqBatch
	case wire.MsgEOS:
		t = wire.MsgSeqEOS
	}
	s.st.push(t, frame)
	err := s.conn.Send(t, frame)
	if err == nil {
		return nil
	}
	// The frame is already in the window: whoever continues us replays it
	// before attaching, so a successful park means it was delivered and
	// must not be resent here.
	nc, perr := s.park(err)
	if perr != nil {
		return perr
	}
	s.conn = nc
	return nil
}

// park suspends the executor after a failed send. It returns the
// replacement connection a continuing START attached, or the error that
// ends the stream (TTL expiry, or an abort by the START that replaces it).
func (s *resumableSender) park(cause error) (*wire.Conn, error) {
	st := s.st
	st.mu.Lock()
	if st.phase == phaseAborted {
		st.mu.Unlock()
		return nil, cause
	}
	st.phase = phaseParked
	st.parkedAt = time.Now()
	st.mu.Unlock()
	s.srv.met.streamsParked.Inc()
	s.srv.cfg.Logf("dap %s: stream %s parked at seq %d (%v)", s.srv.cfg.Site, st.id, st.lastSeq, cause)
	ttl := s.srv.cfg.RetainTTL
	timer := time.NewTimer(ttl)
	defer timer.Stop()
	select {
	case nc := <-st.attach:
		st.setPhase(phaseStreaming)
		return nc, nil
	case <-st.abort:
		return nil, fmt.Errorf("dap: stream %s aborted while parked: %w", st.id, cause)
	case <-timer.C:
		s.srv.expire(st, 0)
		return nil, fmt.Errorf("dap: stream %s retain TTL %v expired with no START to continue it: %w", st.id, ttl, cause)
	}
}

// expire frees a stream that has been parked for at least ttl and
// reports whether it did. The parked executor's timer and a START that
// arrives too late both call it; whichever is first does the work and
// the accounting.
func (s *Server) expire(st *retainedStream, ttl time.Duration) bool {
	st.mu.Lock()
	if st.phase != phaseParked || time.Since(st.parkedAt) < ttl {
		st.mu.Unlock()
		return false
	}
	st.phase = phaseAborted // claims the expiry; markAborted closes the channels
	st.mu.Unlock()
	st.markAborted()
	s.release(st)
	s.met.retainExpired.Inc()
	return true
}

// release drops a stream from retention and frees its replay window
// (the timer that would have expired it may still hold the stream).
func (s *Server) release(st *retainedStream) {
	s.retained.remove(st)
	st.mu.Lock()
	st.frames, st.winBytes = nil, 0
	st.mu.Unlock()
	s.met.streamsRetained.Set(s.retained.size())
}

// continuable finds the stream a START naming a resume point may
// continue: still retained under id, parked (or finished) within its
// TTL, its window covering every frame past after — returned with that
// tail. Anything else is a START to be answered afresh, and counted.
func (s *Server) continuable(id string, after uint64) (*retainedStream, []seqFrame) {
	afresh := func(reason string) (*retainedStream, []seqFrame) {
		s.met.windowEvicted.Inc()
		s.cfg.Logf("dap %s: stream %s cannot continue past seq %d (%s); running it afresh", s.cfg.Site, id, after, reason)
		return nil, nil
	}
	st := s.retained.get(id)
	if st == nil {
		return afresh("unknown or expired")
	}
	// The executor may still be discovering that its connection died;
	// wait for it to park (or finish) before touching the window: a frame
	// write's timeout, and two seconds' grace.
	settleBy := time.Now().Add(2*time.Second + s.cfg.FrameTimeout)
	for st.getPhase() == phaseStreaming {
		if time.Now().After(settleBy) {
			return afresh("still active on another connection")
		}
		time.Sleep(time.Millisecond)
	}
	if st.getPhase() == phaseAborted {
		return afresh("aborted")
	}
	// The TTL runs from the park, not from whenever the parked executor's
	// timer gets scheduled: a START arriving later than that finds the
	// stream expired even if the executor has not woken to say so.
	if s.expire(st, s.cfg.RetainTTL) {
		return afresh("retention expired")
	}
	frames, covered := st.tail(after)
	if !covered {
		return afresh("replay window evicted")
	}
	return st, frames
}

// reattach continues st on conn: the ack naming the frame the stream
// continues from, the retained tail, and the connection handed to the
// parked executor.
func (s *Server) reattach(conn *wire.Conn, st *retainedStream, from uint64, frames []seqFrame) error {
	ack, err := wire.EncodeXML(&wire.StartAck{From: from})
	if err != nil {
		return err
	}
	if err := conn.Send(wire.MsgStartAck, ack); err != nil {
		return err
	}
	var replayed int64
	for _, f := range frames {
		if err := conn.Send(f.t, f.payload); err != nil {
			return fmt.Errorf("dap: replaying stream %s frame %d: %w", st.id, f.seq, err)
		}
		replayed += int64(len(f.payload))
	}
	s.met.streamResumes.Inc()
	s.met.replayedBytes.Add(replayed)
	s.cfg.Logf("dap %s: stream %s continues from seq %d (%d bytes replayed)", s.cfg.Site, st.id, from, replayed)

	if st.getPhase() == phaseDone {
		// The whole tail (EOS included) was in the window; nothing to
		// reattach. The stream stays retained until its TTL in case this
		// connection dies too.
		return nil
	}
	// Hand the connection to the parked executor and wait for it to
	// finish with it before this session loop reads again. The ack and the
	// replay are already on the wire, so the QPC now reads this connection
	// as a tuple stream: a failed hand-over may not write to it again (an
	// ERROR frame would surface there as a refusal, not as the transport
	// failure it is). It drops the connection instead, and the QPC's next
	// START finds the stream gone and is answered afresh.
	ttl := s.cfg.RetainTTL
	select {
	case st.attach <- conn:
	case <-st.abort:
		return fmt.Errorf("dap: stream %s aborted after its continuation was acked: %w", st.id, errDropConn)
	case <-time.After(ttl):
		return fmt.Errorf("dap: stream %s: parked executor did not accept the new connection within %v: %w", st.id, ttl, errDropConn)
	}
	<-st.done
	return nil
}
