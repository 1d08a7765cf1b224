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

// HandleConn runs one QPC session over an accepted connection. The
// session protocol (section 3.6): HELLO, code-cache validation, class
// deployment, plan deployment, optional semi-join key delivery, then
// ACTIVATE which streams results and a final stats report.
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

// session is per-connection state: the deployed fragment and pending
// semi-join keys.
type session struct {
	srv  *Server
	conn *wire.Conn

	frag     *core.Fragment
	semiKeys map[uint64][]types.Object
	stats    wire.ExecStats
	trace    *obs.Trace
}

// spanNames maps control messages to the DAP-side span they record.
var spanNames = map[wire.MsgType]string{
	wire.MsgCodeCheck:    "dap:code-check",
	wire.MsgDeployCode:   "dap:deploy-code",
	wire.MsgDeployPlan:   "dap:deploy-plan",
	wire.MsgSemiJoinKeys: "dap:keys-install",
}

func (ss *session) handle(t wire.MsgType, payload []byte) error {
	// Control-message handling (code loading, plan decoding, key-set
	// installation) is initialization work: charge it to Misc time and
	// record it as a span on the query's trace.
	switch t {
	case wire.MsgCodeCheck, wire.MsgDeployCode, wire.MsgDeployPlan, wire.MsgSemiJoinKeys:
		start := time.Now()
		defer func() {
			ss.stats.MiscMicros += time.Since(start).Microseconds()
			if ss.trace != nil {
				span := obs.Span{
					Name:        spanNames[t],
					Site:        ss.srv.cfg.Site,
					StartMicros: ss.trace.Since(start),
					DurMicros:   time.Since(start).Microseconds(),
				}
				if t == wire.MsgDeployCode {
					span.CodeBytes = int64(len(payload))
				}
				ss.trace.Add(span)
			}
		}()
	}
	switch t {
	case wire.MsgHello:
		var hello wire.Hello
		if err := wire.DecodeXML(payload, &hello); err != nil {
			return err
		}
		ss.stats = wire.ExecStats{Site: ss.srv.cfg.Site}
		// The QPC's trace ID anchors this session's spans; its clock
		// starts here, at the handshake, so span offsets are relative to
		// the session open (the QPC re-anchors them onto its timeline).
		ss.trace = nil
		if hello.Trace != "" {
			ss.trace = obs.NewTrace(hello.Trace)
		}
		ack, err := wire.EncodeXML(&wire.Hello{Role: "dap", Site: ss.srv.cfg.Site, Trace: hello.Trace})
		if err != nil {
			return err
		}
		return ss.conn.Send(wire.MsgHelloAck, ack)

	case wire.MsgCodeCheck:
		var check wire.CodeCheck
		if err := wire.DecodeXML(payload, &check); err != nil {
			return err
		}
		ack := wire.CodeCheckAck{}
		for _, item := range check.Classes {
			ref := core.CodeRef{Name: item.Name, Version: item.Version, Checksum: item.Checksum}
			if ss.srv.cache.needs(ref, ss.srv.cfg.DisableCodeCache) {
				ack.Needed = append(ack.Needed, item.Name)
			} else {
				ss.stats.CacheHits++
			}
		}
		data, err := wire.EncodeXML(&ack)
		if err != nil {
			return err
		}
		return ss.conn.Send(wire.MsgCodeCheckAck, data)

	case wire.MsgDeployCode:
		prog, err := vm.Decode(payload)
		if err != nil {
			return fmt.Errorf("deploy code: %w", err)
		}
		// The static half of the sandbox: never load code that cannot be
		// verified, or whose proven stack and call depth this site's
		// machines would refuse at the first tuple.
		err = vm.Verify(prog)
		if err == nil {
			err = ss.srv.cfg.Limits.Admit(prog)
		}
		if err == nil {
			// Compile here, once per cached release, not under a tuple.
			start := time.Now()
			err = prog.Compile()
			ss.srv.met.compileMicros.Observe(time.Since(start).Microseconds())
		}
		if err != nil {
			ss.srv.met.verifyRejects.Inc()
			return fmt.Errorf("deploy code: %w", err)
		}
		ss.srv.cache.put(prog)
		ss.stats.CodeClassesLoaded++
		ss.stats.CodeBytesLoaded += len(payload)
		ss.srv.cfg.Logf("dap %s: loaded class %s (%d bytes)", ss.srv.cfg.Site, prog.Name, len(payload))
		return ss.conn.Send(wire.MsgAck, nil)

	case wire.MsgDeployPlan:
		frag, err := core.DecodeFragment(payload)
		if err != nil {
			return err
		}
		ss.frag = frag
		ss.semiKeys = nil
		return ss.conn.Send(wire.MsgAck, nil)

	case wire.MsgSemiJoinKeys:
		if ss.frag == nil || ss.frag.SemiJoinCol < 0 {
			return fmt.Errorf("semi-join keys without a semi-join fragment")
		}
		kind := ss.frag.InSchema.Columns[ss.frag.SemiJoinCol].Kind
		keySchema := types.NewSchema(types.Column{Name: "key", Kind: kind})
		tuples, err := wire.DecodeBatch(keySchema, payload)
		if err != nil {
			return err
		}
		ss.semiKeys = make(map[uint64][]types.Object, len(tuples))
		for _, kt := range tuples {
			sv, ok := kt[0].(types.Small)
			if !ok {
				return fmt.Errorf("semi-join key of kind %v is not hashable", kt[0].Kind())
			}
			h := sv.Hash()
			ss.semiKeys[h] = append(ss.semiKeys[h], kt[0])
		}
		return ss.conn.Send(wire.MsgAck, nil)

	case wire.MsgActivate:
		if ss.frag == nil {
			return fmt.Errorf("activate without a deployed plan")
		}
		var act wire.Activate
		if len(payload) > 0 {
			if err := wire.DecodeXML(payload, &act); err != nil {
				return err
			}
		}
		// Echo a placement-aware activation's shard coordinates in the
		// stats frame so the QPC can verify the stream's provenance.
		ss.stats.Part, ss.stats.Of = act.Part, act.Of
		err := ss.execute(act.Stream)
		ss.frag = nil
		ss.semiKeys = nil
		return err

	case wire.MsgResume:
		var req wire.Resume
		if err := wire.DecodeXML(payload, &req); err != nil {
			return err
		}
		return ss.srv.handleResume(ss.conn, req)

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
		return errSessionClosed

	default:
		return fmt.Errorf("unexpected %v message", t)
	}
}

// execute runs the deployed fragment and streams its output. A
// non-empty streamID makes the stream resumable: frames are sequence-
// numbered and retained in a replay window, and a dropped connection
// parks the execution for a RESUME instead of failing it.
//
// The fragment is lowered onto the shared operator tree (exec.
// LowerFragment): the scan runs in its own goroutine behind a bounded
// channel, so source extraction overlaps expression evaluation and the
// network send path. Time components come from the operators' own
// accounting — the scan's feed time is DB time, evaluation operators'
// self time is CPU time, and the emit sink plus the final flush is net
// time — so no component can go negative by subtraction.
func (ss *session) execute(streamID string) error {
	start := time.Now()
	frag := ss.frag
	schema, err := ss.srv.cfg.Driver.TableSchema(frag.Table)
	if err != nil {
		return err
	}
	for _, c := range frag.Cols {
		if c < 0 || c >= schema.Arity() {
			return fmt.Errorf("fragment extracts column %d of %d-column table %s", c, schema.Arity(), frag.Table)
		}
	}

	// Pin every operator to the exact release digest the fragment's code
	// refs named: a concurrent rollout may have several releases of one
	// class cached, and this query must run only the one it shipped with.
	refs := make(map[string]string, len(frag.Code))
	for _, cr := range frag.Code {
		refs[strings.ToLower(cr.Name)] = cr.Checksum
	}
	binder := &vmBinder{cache: ss.srv.cache, refs: refs, machine: vm.New(ss.srv.cfg.Limits), limits: ss.srv.cfg.Limits}
	binder.machines = append(binder.machines, binder.machine)

	var sender wire.FrameSender = ss.conn
	var st *retainedStream
	if streamID != "" {
		st = newRetainedStream(streamID, ss.srv.cfg.ReplayWindowBytes)
		if err := ss.srv.retained.add(st); err != nil {
			return err
		}
		ss.srv.met.streamsRetained.Set(ss.srv.retained.size())
		sender = &resumableSender{srv: ss.srv, st: st, conn: ss.conn, tuples: &ss.stats.TuplesRead}
		defer func() {
			// A finished stream stays retained (window included) until its
			// TTL so a drop that ate the EOS can still be replayed; any
			// other exit frees it now.
			if st.getPhase() == phaseDone {
				time.AfterFunc(ss.srv.cfg.RetainTTL, func() {
					ss.srv.retained.remove(streamID)
					ss.srv.met.streamsRetained.Set(ss.srv.retained.size())
				})
				return
			}
			st.markAborted()
			ss.srv.retained.remove(streamID)
			ss.srv.met.streamsRetained.Set(ss.srv.retained.size())
		}()
	}

	writer := wire.NewBatchWriter(sender)
	writer.SetTarget(ss.srv.cfg.BatchBytes)

	// A pushed-down LIMIT bounds the useful scan prefix: cap the batch
	// size at the limit so the scan's read-ahead (channel depth × batch
	// rows) cannot race far past the point where the consumer stops it.
	tun := ss.srv.cfg.Exec.Norm()
	if frag.Limit > 0 && frag.Limit < tun.BatchRows {
		tun.BatchRows = frag.Limit
	}
	var usedIndex bool
	src := exec.NewScanSource(obs.OpScan, func(emitTup func(types.Tuple) error) error {
		used, serr := scanSource(ss.srv.cfg.Driver, frag, func(full types.Tuple) error {
			// The send path reads the counter concurrently when a park
			// records its cursor position, hence the atomic add.
			atomic.AddInt64(&ss.stats.TuplesRead, 1)
			// Extract the fragment's columns (the middleware-schema mapping).
			in := make(types.Tuple, len(frag.Cols))
			var inBytes int
			for i, c := range frag.Cols {
				in[i] = full[c]
				inBytes += full[c].WireSize()
			}
			ss.stats.BytesAccessed += int64(inBytes)
			return emitTup(in)
		})
		usedIndex = used
		return serr
	}, tun)
	tree, err := exec.LowerFragment(frag, binder, src, ss.semiKeys, writer.Write, tun, ss.srv.gov)
	if err != nil {
		return err
	}
	ss.stats.MiscMicros += time.Since(start).Microseconds()

	if err := exec.Run(context.Background(), tree, nil); err != nil {
		return err
	}
	if usedIndex {
		ss.srv.cfg.Logf("dap %s: table %s served by index range scan", ss.srv.cfg.Site, frag.Table)
	}

	flushStart := time.Now()
	if err := writer.Flush(); err != nil {
		return err
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

	ss.stats.DBMicros = src.Feed().Microseconds()
	ss.stats.CPUMicros = cpuTime.Microseconds()
	ss.stats.NetMicros = netTime.Microseconds()
	ss.stats.TuplesSent = writer.Tuples
	ss.stats.BytesSent = writer.DataBytes

	met := &ss.srv.met
	met.activations.Inc()
	met.tuplesSent.Add(writer.Tuples)
	met.bytesSent.Add(writer.DataBytes)
	met.execMS.Observe(time.Since(start).Milliseconds())
	met.classesLoaded.Add(int64(ss.stats.CodeClassesLoaded))
	met.cacheHits.Add(int64(ss.stats.CacheHits))
	runs, instrs := binder.runCounts()
	met.fastRuns.Add(runs)
	met.vmInstrs.Add(instrs)

	if ss.trace != nil {
		// Duration-only phase spans: the offsets say where in the session
		// this execution sat; db/cpu/net are aggregate components of it.
		// NetBytes stays zero on DAP spans — the QPC's own stream span
		// carries the wire volume, so imported spans never double-count
		// the CVDT.
		off := ss.trace.Since(start)
		site := ss.srv.cfg.Site
		ss.trace.Add(obs.Span{Name: "dap:db", Site: site, StartMicros: off,
			DurMicros: ss.stats.DBMicros, DBBytes: ss.stats.BytesAccessed, Tuples: ss.stats.TuplesRead})
		ss.trace.Add(obs.Span{Name: "dap:cpu", Site: site, StartMicros: off,
			DurMicros: ss.stats.CPUMicros})
		ss.trace.Add(obs.Span{Name: "dap:net", Site: site, StartMicros: off,
			DurMicros: ss.stats.NetMicros, Tuples: writer.Tuples})
		// Per-operator spans: the fragment tree's own accounting, at a
		// finer grain than the aggregate db/cpu/net components.
		for _, op := range tree.Ops {
			opst := op.Stats()
			ss.trace.Add(obs.Span{Name: opst.Name, Site: site, StartMicros: off,
				DurMicros: opst.Self.Microseconds(),
				Tuples:    opst.RowsOut, RowsIn: opst.RowsIn, Batches: opst.Batches,
				SpillBytes: opst.SpillBytes})
			if opst.Spills > 0 {
				// Spill pseudo-span: the operator overflowed its memory
				// grant and wrote sorted runs to temp files.
				ss.trace.Add(obs.Span{Name: obs.OpSpillAgg, Site: site, StartMicros: off,
					Tuples: opst.SpillTuples, Batches: opst.Spills, SpillBytes: opst.SpillBytes})
			}
		}
		// Spans are per-execution, like the stats: take them so the key
		// phase and the main fragment each report their own.
		ss.stats.Trace = ss.trace.ID
		ss.stats.Spans = ss.trace.TakeSpans()
	}

	payload, err := wire.EncodeXML(&ss.stats)
	if err != nil {
		return err
	}
	// Stats are per-execution: a session running several plans (e.g. the
	// semi-join key phase then the main fragment) reports each phase
	// separately.
	ss.stats = wire.ExecStats{Site: ss.srv.cfg.Site}
	if err := sender.Send(wire.MsgEOS, payload); err != nil {
		return err
	}
	if st != nil {
		st.markDone()
	}
	return nil
}
