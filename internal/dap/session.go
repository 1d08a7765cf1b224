package dap

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"mocha/internal/core"
	"mocha/internal/exec"
	"mocha/internal/obs"
	"mocha/internal/types"
	"mocha/internal/vm"
	"mocha/internal/wire"
)

// HandleConn serves one QPC connection. Every request on it is complete
// in itself (DESIGN §3.6): START runs a fragment and streams its result,
// RESUME continues a retained stream, HELLO is the heartbeat's ping, and
// the rest are one-frame exchanges.
func (s *Server) HandleConn(nc net.Conn) error {
	conn := wire.NewConn(nc)
	defer conn.Close()
	conn.Instrument(s.cfg.Metrics, "dap_wire")
	// Reads are bounded by the idle timeout (a vanished QPC must not pin
	// this session forever); writes by the frame timeout (a stalled QPC
	// must not hang the DAP mid-stream).
	conn.SetFrameTimeout(s.cfg.IdleTimeout, s.cfg.FrameTimeout)
	s.met.sessionsTotal.Inc()
	s.met.sessionsOpen.Add(1)
	defer s.met.sessionsOpen.Add(-1)
	sess := &session{srv: s, conn: conn}
	for {
		t, payload, err := conn.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return fmt.Errorf("dap %s: session idle past %v, closing: %w",
					s.cfg.Site, s.cfg.IdleTimeout, err)
			}
			return err
		}
		if err := sess.handle(t, payload); err != nil {
			if errors.Is(err, errSessionClosed) {
				return nil
			}
			if errors.Is(err, errDropConn) {
				return err
			}
			conn.SendError(err)
			s.cfg.Logf("dap %s: %v", s.cfg.Site, err)
		}
	}
}

var errSessionClosed = errors.New("session closed")

// errDropConn marks a failure after which nothing more may be written
// to the peer: the session ends and the connection closes with no ERROR
// frame.
var errDropConn = errors.New("connection dropped")

// session is one connection's request loop. No request reads what an
// earlier one left: the only thing kept from frame to frame is which
// streams this connection carried to their SEQ_EOS, so that CLOSE — the
// QPC saying it has read them — frees their replay windows at once.
type session struct {
	srv       *Server
	conn      *wire.Conn
	delivered []*retainedStream
}

func (ss *session) handle(t wire.MsgType, payload []byte) error {
	switch t {
	case wire.MsgHello:
		return ss.conn.Send(wire.MsgHelloAck, nil)

	case wire.MsgStart:
		return ss.start(payload)

	case wire.MsgSemiJoinKeys:
		// START reads the key frame of a semi-join fragment itself.
		return fmt.Errorf("semi-join keys without a semi-join fragment")

	case wire.MsgResume:
		var req wire.Resume
		if err := wire.DecodeXML(payload, &req); err != nil {
			return err
		}
		err := ss.srv.handleResume(ss.conn, req)
		ss.delivered = append(ss.delivered, ss.srv.retained.get(req.Stream))
		return err

	case wire.MsgProcCall:
		var call wire.ProcCall
		if err := wire.DecodeXML(payload, &call); err != nil {
			return err
		}
		lines, err := ss.srv.handleProc(call)
		if err != nil {
			return err
		}
		data, err := wire.EncodeXML(&wire.ProcResult{Lines: lines})
		if err != nil {
			return err
		}
		return ss.conn.Send(wire.MsgProcResult, data)

	case wire.MsgCodeInvalidate:
		var req wire.CodeInvalidate
		if err := wire.DecodeXML(payload, &req); err != nil {
			return err
		}
		dropped := ss.srv.cache.invalidate(req.Digests)
		ss.srv.met.invalidateRequests.Inc()
		ss.srv.met.invalidateDropped.Add(int64(dropped))
		if dropped > 0 {
			ss.srv.cfg.Logf("dap %s: invalidated %d cached class release(s)", ss.srv.cfg.Site, dropped)
		}
		data, err := wire.EncodeXML(&wire.CodeInvalidateAck{Dropped: dropped})
		if err != nil {
			return err
		}
		return ss.conn.Send(wire.MsgCodeInvalidateAck, data)

	case wire.MsgClose:
		// A stream whose connection died before its EOS was read gets no
		// CLOSE, and stays replayable until its TTL.
		for _, st := range ss.delivered {
			if st != nil && st.getPhase() == phaseDone {
				ss.srv.release(st)
			}
		}
		return errSessionClosed

	default:
		return fmt.Errorf("unexpected %v message", t)
	}
}

// execution is the state of one START, from the request to the stream's
// last frame.
type execution struct {
	srv  *Server
	conn *wire.Conn

	frag     *core.Fragment
	semiKeys map[uint64][]types.Object
	stats    wire.ExecStats
	trace    *obs.Trace
}

// start serves one START: it reads the frames the request promises (the
// key set right behind a semi-join fragment; after the ack, one class
// per digest the ack asked for), then runs the fragment. A refused class
// or key set is reported only once all of them are read, as the ERROR
// frame the QPC finds where the stream would begin — answering sooner
// would write to a peer that is itself still writing.
func (ss *session) start(payload []byte) error {
	began := time.Now()
	var req core.Start
	if err := wire.DecodeXML(payload, &req); err != nil {
		return err
	}
	frag := req.Fragment
	if frag == nil || req.Stream == "" {
		return fmt.Errorf("start without a fragment or a stream id")
	}
	// Part/Of are echoed in the stats so the QPC can verify the stream's
	// provenance. The trace's clock starts here; the QPC re-anchors the
	// spans onto its own timeline.
	ex := &execution{srv: ss.srv, conn: ss.conn, frag: frag,
		stats: wire.ExecStats{Site: ss.srv.cfg.Site, Part: req.Part, Of: req.Of}}
	if req.Trace != "" {
		ex.trace = obs.NewTrace(req.Trace)
	}
	var ack wire.StartAck
	for _, ref := range frag.Code {
		if ss.srv.cache.needs(ref, ss.srv.cfg.DisableCodeCache) {
			ack.Need = append(ack.Need, ref.Checksum)
		} else {
			ex.stats.CacheHits++
		}
	}
	ackData, err := wire.EncodeXML(&ack)
	if err != nil {
		return err
	}
	ex.setupSpan("dap:start", began, 0)

	var refused error
	if frag.SemiJoinCol >= 0 {
		keys, err := ss.conn.Expect(wire.MsgSemiJoinKeys)
		if err != nil {
			return err
		}
		began = time.Now()
		refused = ex.installKeys(keys)
		ex.setupSpan("dap:keys-install", began, 0)
	}
	if err := ss.conn.Send(wire.MsgStartAck, ackData); err != nil {
		return err
	}
	for range ack.Need {
		blob, err := ss.conn.Expect(wire.MsgDeployCode)
		if err != nil {
			return err
		}
		if refused == nil {
			began = time.Now()
			refused = ex.loadClass(blob)
			ex.setupSpan("dap:deploy-code", began, len(blob))
		}
	}
	if refused != nil {
		return refused
	}
	st, err := ex.execute(req.Stream)
	ss.delivered = append(ss.delivered, st)
	return err
}

// setupSpan books work done ahead of the execution (plan decoding, code
// loading, key-set installation) since began: it is initialization, so
// Misc time, and a span on the query's trace.
func (ex *execution) setupSpan(name string, began time.Time, codeBytes int) {
	dur := time.Since(began).Microseconds()
	ex.stats.MiscMicros += dur
	if ex.trace != nil {
		// Decoding the START began before the trace it names existed.
		off := max(ex.trace.Since(began), 0)
		ex.trace.Add(obs.Span{Name: name, Site: ex.srv.cfg.Site,
			StartMicros: off, DurMicros: dur, CodeBytes: int64(codeBytes)})
	}
}

// loadClass admits one shipped class into the code cache.
func (ex *execution) loadClass(blob []byte) error {
	prog, err := vm.Decode(blob)
	if err != nil {
		return fmt.Errorf("deploy code: %w", err)
	}
	// The static half of the sandbox: never load code that cannot be
	// verified, or whose proven stack and call depth this site's
	// machines would refuse at the first tuple.
	err = vm.Verify(prog)
	if err == nil {
		err = ex.srv.cfg.Limits.Admit(prog)
	}
	if err == nil {
		// Compile here, once per cached release, not under a tuple.
		start := time.Now()
		err = prog.Compile()
		ex.srv.met.compileMicros.Observe(time.Since(start).Microseconds())
	}
	if err != nil {
		ex.srv.met.verifyRejects.Inc()
		return fmt.Errorf("deploy code: %w", err)
	}
	ex.srv.cache.put(prog)
	ex.stats.CodeClassesLoaded++
	ex.stats.CodeBytesLoaded += len(blob)
	ex.srv.cfg.Logf("dap %s: loaded class %s (%d bytes)", ex.srv.cfg.Site, prog.Name, len(blob))
	return nil
}

// installKeys decodes a semi-join key set into the fragment's filter.
func (ex *execution) installKeys(payload []byte) error {
	col := ex.frag.SemiJoinCol
	if col >= ex.frag.InSchema.Arity() {
		return fmt.Errorf("semi-join column %d of a %d-column fragment", col, ex.frag.InSchema.Arity())
	}
	keySchema := types.NewSchema(types.Column{Name: "key", Kind: ex.frag.InSchema.Columns[col].Kind})
	tuples, err := wire.DecodeBatch(keySchema, payload)
	if err != nil {
		return err
	}
	ex.semiKeys = make(map[uint64][]types.Object, len(tuples))
	for _, kt := range tuples {
		sv, ok := kt[0].(types.Small)
		if !ok {
			return fmt.Errorf("semi-join key of kind %v is not hashable", kt[0].Kind())
		}
		h := sv.Hash()
		ex.semiKeys[h] = append(ex.semiKeys[h], kt[0])
	}
	return nil
}

// execute runs the fragment and streams its output under streamID as
// sequence-numbered frames retained in a replay window: a dropped
// connection parks the execution for a RESUME instead of failing it. It
// returns the stream once registered, whatever became of it.
//
// The fragment is lowered onto the shared operator tree (exec.
// LowerFragment): the scan runs in its own goroutine behind a bounded
// channel, so source extraction overlaps expression evaluation and the
// network send path. Time components come from the operators' own
// accounting — the scan's feed time is DB time, evaluation operators'
// self time is CPU time, and the emit sink plus the final flush is net
// time — so no component can go negative by subtraction.
func (ex *execution) execute(streamID string) (*retainedStream, error) {
	start := time.Now()
	frag := ex.frag
	schema, err := ex.srv.cfg.Driver.TableSchema(frag.Table)
	if err != nil {
		return nil, err
	}
	for _, c := range frag.Cols {
		if c < 0 || c >= schema.Arity() {
			return nil, fmt.Errorf("fragment extracts column %d of %d-column table %s", c, schema.Arity(), frag.Table)
		}
	}

	// Pin every operator to the exact release digest the fragment's code
	// refs named: a concurrent rollout may have several releases of one
	// class cached, and this query must run only the one it shipped with.
	refs := make(map[string]string, len(frag.Code))
	for _, cr := range frag.Code {
		refs[strings.ToLower(cr.Name)] = cr.Checksum
	}
	binder := &vmBinder{cache: ex.srv.cache, refs: refs, machine: vm.New(ex.srv.cfg.Limits), limits: ex.srv.cfg.Limits}
	binder.machines = append(binder.machines, binder.machine)

	// A START for an ID still retained is a retried set-up whose first
	// attempt got as far as running: the stale execution is aborted and
	// this one takes its place.
	st := newRetainedStream(streamID, ex.srv.cfg.ReplayWindowBytes)
	if stale := ex.srv.retained.put(st); stale != nil {
		stale.markAborted()
	}
	ex.srv.met.streamsRetained.Set(ex.srv.retained.size())
	sender := &resumableSender{srv: ex.srv, st: st, conn: ex.conn, tuples: &ex.stats.TuplesRead}
	defer func() {
		// A finished stream stays retained (window included) until the
		// QPC's CLOSE, or its TTL when a drop ate the EOS and it may yet
		// be replayed; any other exit frees it now.
		srv := ex.srv // the timer must not keep the whole execution alive
		if st.getPhase() == phaseDone {
			time.AfterFunc(srv.cfg.RetainTTL, func() { srv.release(st) })
			return
		}
		st.markAborted()
		srv.release(st)
	}()

	writer := wire.NewBatchWriter(sender)
	writer.SetTarget(ex.srv.cfg.BatchBytes)

	// A pushed-down LIMIT bounds the useful scan prefix: cap the batch
	// size at the limit so the scan's read-ahead (channel depth × batch
	// rows) cannot race far past the point where the consumer stops it.
	tun := ex.srv.cfg.Exec.Norm()
	if frag.Limit > 0 && frag.Limit < tun.BatchRows {
		tun.BatchRows = frag.Limit
	}
	var usedIndex bool
	src := exec.NewScanSource(obs.OpScan, func(emitTup func(types.Tuple) error) error {
		used, serr := scanSource(ex.srv.cfg.Driver, frag, func(full types.Tuple) error {
			// The send path reads the counter concurrently when a park
			// records its cursor position, hence the atomic add.
			atomic.AddInt64(&ex.stats.TuplesRead, 1)
			// Extract the fragment's columns (the middleware-schema mapping).
			in := make(types.Tuple, len(frag.Cols))
			var inBytes int
			for i, c := range frag.Cols {
				in[i] = full[c]
				inBytes += full[c].WireSize()
			}
			ex.stats.BytesAccessed += int64(inBytes)
			return emitTup(in)
		})
		usedIndex = used
		return serr
	}, tun)
	tree, err := exec.LowerFragment(frag, binder, src, ex.semiKeys, writer.Write, tun, ex.srv.gov)
	if err != nil {
		return st, err
	}
	ex.stats.MiscMicros += time.Since(start).Microseconds()

	if err := exec.Run(context.Background(), tree, nil); err != nil {
		return st, err
	}
	if usedIndex {
		ex.srv.cfg.Logf("dap %s: table %s served by index range scan", ex.srv.cfg.Site, frag.Table)
	}

	flushStart := time.Now()
	if err := writer.Flush(); err != nil {
		return st, err
	}
	netTime := time.Since(flushStart)
	var cpuTime time.Duration
	for _, op := range tree.Ops {
		opst := op.Stats()
		switch opst.Name {
		case obs.OpScan:
			// DB time, reported from src.Feed below.
		case obs.OpEmit:
			netTime += opst.Self
		default:
			cpuTime += opst.Self
		}
	}

	ex.stats.DBMicros = src.Feed().Microseconds()
	ex.stats.CPUMicros = cpuTime.Microseconds()
	ex.stats.NetMicros = netTime.Microseconds()
	ex.stats.TuplesSent = writer.Tuples
	ex.stats.BytesSent = writer.DataBytes

	met := &ex.srv.met
	met.activations.Inc()
	met.tuplesSent.Add(writer.Tuples)
	met.bytesSent.Add(writer.DataBytes)
	met.execMS.Observe(time.Since(start).Milliseconds())
	met.classesLoaded.Add(int64(ex.stats.CodeClassesLoaded))
	met.cacheHits.Add(int64(ex.stats.CacheHits))
	runs, instrs := binder.runCounts()
	met.fastRuns.Add(runs)
	met.vmInstrs.Add(instrs)

	if ex.trace != nil {
		// Duration-only phase spans: the offsets say where in the session
		// this execution sat; db/cpu/net are aggregate components of it.
		// NetBytes stays zero on DAP spans — the QPC's own stream span
		// carries the wire volume, so imported spans never double-count
		// the CVDT.
		off := ex.trace.Since(start)
		site := ex.srv.cfg.Site
		ex.trace.Add(obs.Span{Name: "dap:db", Site: site, StartMicros: off,
			DurMicros: ex.stats.DBMicros, DBBytes: ex.stats.BytesAccessed, Tuples: ex.stats.TuplesRead})
		ex.trace.Add(obs.Span{Name: "dap:cpu", Site: site, StartMicros: off,
			DurMicros: ex.stats.CPUMicros})
		ex.trace.Add(obs.Span{Name: "dap:net", Site: site, StartMicros: off,
			DurMicros: ex.stats.NetMicros, Tuples: writer.Tuples})
		// Per-operator spans: the fragment tree's own accounting, at a
		// finer grain than the aggregate db/cpu/net components.
		for _, op := range tree.Ops {
			opst := op.Stats()
			ex.trace.Add(obs.Span{Name: opst.Name, Site: site, StartMicros: off,
				DurMicros: opst.Self.Microseconds(),
				Tuples:    opst.RowsOut, RowsIn: opst.RowsIn, Batches: opst.Batches,
				SpillBytes: opst.SpillBytes})
			if opst.Spills > 0 {
				// Spill pseudo-span: the operator overflowed its memory
				// grant and wrote sorted runs to temp files.
				ex.trace.Add(obs.Span{Name: obs.OpSpillAgg, Site: site, StartMicros: off,
					Tuples: opst.SpillTuples, Batches: opst.Spills, SpillBytes: opst.SpillBytes})
			}
		}
		ex.stats.Trace = ex.trace.ID
		ex.stats.Spans = ex.trace.TakeSpans()
	}

	payload, err := wire.EncodeXML(&ex.stats)
	if err != nil {
		return st, err
	}
	if err := sender.Send(wire.MsgEOS, payload); err != nil {
		return st, err
	}
	st.markDone()
	return st, nil
}
