package dap

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"mocha/internal/core"
	"mocha/internal/exec"
	"mocha/internal/obs"
	"mocha/internal/types"
	"mocha/internal/vm"
	"mocha/internal/wire"
)

// HandleConn serves one QPC connection. Every request on it is complete
// in itself (DESIGN §3.6): START puts a fragment's stream on the
// connection — run from its beginning, less the prefix a re-placed
// START says the QPC already holds — HELLO is the heartbeat's ping, and
// the rest are one-frame exchanges. Nothing is kept from one request to
// the next.
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
		if err := s.handle(conn, t, payload); err != nil {
			if errors.Is(err, errSessionClosed) {
				return nil
			}
			conn.SendError(err)
			s.cfg.Logf("dap %s: %v", s.cfg.Site, err)
		}
	}
}

var errSessionClosed = errors.New("session closed")

func (s *Server) handle(conn *wire.Conn, t wire.MsgType, payload []byte) error {
	switch t {
	case wire.MsgHello:
		return conn.Send(wire.MsgHelloAck, nil)

	case wire.MsgStart:
		return s.start(conn, payload)

	case wire.MsgSemiJoinKeys:
		// START reads the key frame of a semi-join fragment itself.
		return fmt.Errorf("semi-join keys without a semi-join fragment")

	case wire.MsgProcCall:
		var call wire.ProcCall
		if err := wire.DecodeXML(payload, &call); err != nil {
			return err
		}
		lines, err := s.handleProc(call)
		if err != nil {
			return err
		}
		data, err := wire.EncodeXML(&wire.ProcResult{Lines: lines})
		if err != nil {
			return err
		}
		return conn.Send(wire.MsgProcResult, data)

	case wire.MsgCodeInvalidate:
		var req wire.CodeInvalidate
		if err := wire.DecodeXML(payload, &req); err != nil {
			return err
		}
		dropped := s.cache.invalidate(req.Digests)
		s.met.invalidateRequests.Inc()
		s.met.invalidateDropped.Add(int64(dropped))
		if dropped > 0 {
			s.cfg.Logf("dap %s: invalidated %d cached class release(s)", s.cfg.Site, dropped)
		}
		data, err := wire.EncodeXML(&wire.CodeInvalidateAck{Dropped: dropped})
		if err != nil {
			return err
		}
		return conn.Send(wire.MsgCodeInvalidateAck, data)

	case wire.MsgClose:
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
	// trace holds the execution's spans, the only record it keeps of its
	// time and volumes. Its clock started when the START arrived.
	trace *obs.Trace
}

// start serves one START: it reads the frames the request promises (the
// key set right behind a semi-join fragment; after the ack, one class
// per digest the ack asked for), then runs the fragment. A refused class
// or key set is reported only once all of them are read, as the ERROR
// frame the QPC finds where the stream would begin — answering sooner
// would write to a peer that is itself still writing.
func (s *Server) start(conn *wire.Conn, payload []byte) error {
	began := time.Now()
	var req core.Start
	if err := wire.DecodeXML(payload, &req); err != nil {
		return err
	}
	frag := req.Fragment
	if frag == nil || req.Stream == "" {
		return fmt.Errorf("start without a fragment or a stream id")
	}
	if req.Skip > 0 {
		s.met.streamResumes.Inc()
		s.cfg.Logf("dap %s: stream %s placed again past %d delivered tuples", s.cfg.Site, req.Stream, req.Skip)
	}
	ex := &execution{srv: s, conn: conn, frag: frag, trace: obs.NewTraceAt(req.Trace, began)}
	var ack wire.StartAck
	for _, ref := range frag.Code {
		if s.cache.needs(ref, s.cfg.DisableCodeCache) {
			ack.Need = append(ack.Need, ref.Checksum)
		}
	}
	ackData, err := wire.EncodeXML(&ack)
	if err != nil {
		return err
	}
	hits := int64(len(frag.Code) - len(ack.Need))
	s.met.cacheHits.Add(hits)
	ex.setup(obs.PhaseDapStart, began, obs.Span{CacheHits: hits})

	var refused error
	if frag.SemiJoinCol >= 0 {
		keys, err := conn.Expect(wire.MsgSemiJoinKeys)
		if err != nil {
			return err
		}
		began = time.Now()
		refused = ex.installKeys(keys)
		ex.setup(obs.PhaseDapKeysInstall, began, obs.Span{})
	}
	if err := conn.Send(wire.MsgStartAck, ackData); err != nil {
		return err
	}
	for range ack.Need {
		blob, err := conn.Expect(wire.MsgDeployCode)
		if err != nil {
			return err
		}
		if refused == nil {
			began = time.Now()
			if refused = ex.loadClass(blob); refused == nil {
				ex.setup(obs.PhaseDapDeployCode, began, obs.Span{CodeBytes: int64(len(blob)), Classes: 1})
			}
		}
	}
	if refused != nil {
		return refused
	}
	// Part/Of are echoed in the report so the QPC can verify the stream's
	// provenance, the trace ID because the request carried it.
	return ex.execute(req.Skip, wire.ExecStats{Site: s.cfg.Site, Trace: req.Trace, Part: req.Part, Of: req.Of})
}

// setup records a step done ahead of the operators (request decoding,
// code loading, key-set installation, lowering) since began, with the
// counts it produced. The step names are all classed Misc: this is
// initialization.
func (ex *execution) setup(name string, began time.Time, counts obs.Span) {
	sp := ex.trace.Interval(name, ex.srv.cfg.Site, began, time.Now())
	sp.CodeBytes, sp.Classes, sp.CacheHits = counts.CodeBytes, counts.Classes, counts.CacheHits
	ex.trace.Add(sp)
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
	ex.srv.met.classesLoaded.Inc()
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

// execute runs the fragment and streams its output, less the first skip
// tuples: the prefix a re-placed START says the QPC already holds. The
// prefix is computed again and dropped before the batch writer sees it,
// so only the tail crosses the wire; a fragment that produces fewer
// tuples than skip ends its stream in an ERROR frame, never a short EOS.
//
// The fragment is lowered onto the shared operator tree (exec.
// LowerFragment): the scan runs in its own goroutine behind a bounded
// channel, so source extraction overlaps expression evaluation and the
// network send path. Time components come from the operators' own
// accounting — the scan's feed time is DB time, evaluation operators'
// self time is CPU time, and the emit sink plus the final flush is net
// time (obs.ClassOf) — so no component can go negative by subtraction.
// report arrives with the execution's identity; its spans are filled in
// here and it ends the stream.
func (ex *execution) execute(skip int64, report wire.ExecStats) error {
	start := time.Now()
	frag := ex.frag
	if skip < 0 {
		return fmt.Errorf("start skips a negative number of tuples (%d)", skip)
	}
	schema, err := ex.srv.cfg.Driver.TableSchema(frag.Table)
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
	binder := &vmBinder{cache: ex.srv.cache, refs: refs, machine: vm.New(ex.srv.cfg.Limits), limits: ex.srv.cfg.Limits}
	binder.machines = append(binder.machines, binder.machine)

	writer := wire.NewBatchWriter(ex.conn)
	writer.SetTarget(ex.srv.cfg.BatchBytes)
	var skipped, skippedBytes int64
	emit := func(t types.Tuple) error {
		if skipped < skip {
			skipped++
			skippedBytes += int64(t.WireSize())
			return nil
		}
		return writer.Write(t)
	}

	// A pushed-down LIMIT bounds the useful scan prefix: cap the batch
	// size at the limit so the scan's read-ahead (channel depth × batch
	// rows) cannot race far past the point where the consumer stops it.
	rows := exec.DefaultBatchRows
	if frag.Limit > 0 && frag.Limit < rows {
		rows = frag.Limit
	}
	var usedIndex bool
	var accessed int64 // the scan goroutine's until the tree is closed
	src := exec.NewScanSource(obs.OpScan, func(emitTup func(types.Tuple) error) error {
		used, serr := scanSource(ex.srv.cfg.Driver, frag, func(full types.Tuple) error {
			// Extract the fragment's columns (the middleware-schema mapping).
			in := make(types.Tuple, len(frag.Cols))
			for i, c := range frag.Cols {
				in[i] = full[c]
				accessed += int64(full[c].WireSize())
			}
			return emitTup(in)
		})
		usedIndex = used
		return serr
	}, rows, exec.DefaultPrefetch)
	tree, err := exec.LowerFragment(frag, binder, src, ex.semiKeys, emit, ex.srv.gov)
	if err != nil {
		return err
	}
	ex.setup(obs.PhaseDapLower, start, obs.Span{})

	if err := exec.Run(context.Background(), tree, nil); err != nil {
		return err
	}
	if skipped < skip {
		return fmt.Errorf("fragment on %s produced %d tuples, fewer than the %d its START skips", frag.Table, skipped, skip)
	}
	if usedIndex {
		ex.srv.cfg.Logf("dap %s: table %s served by index range scan", ex.srv.cfg.Site, frag.Table)
	}
	src.Stats().DBBytes = accessed

	// The flush sends the last partial batch, so only now are the writer's
	// totals final. Its span carries the whole stream's, the skipped prefix
	// included, so the report that ends a stream covers it once however
	// often it was placed; the QPC moves them onto its own span of the
	// stream when it imports the report.
	flush := ex.trace.Begin(obs.PhaseDapFlush, ex.srv.cfg.Site)
	if err := writer.Flush(); err != nil {
		return err
	}
	flush.NetBytes, flush.Tuples = skippedBytes+writer.DataBytes, skipped+writer.Tuples
	flush.End()
	ex.trace.Add(tree.Spans(ex.srv.cfg.Site, ex.trace.Since(start))...)

	met := &ex.srv.met
	met.activations.Inc()
	met.tuplesSent.Add(writer.Tuples)
	met.bytesSent.Add(writer.DataBytes)
	met.execMS.Observe(time.Since(start).Milliseconds())
	runs, instrs := binder.runCounts()
	met.fastRuns.Add(runs)
	met.vmInstrs.Add(instrs)

	report.Spans = ex.trace.TakeSpans()
	payload, err := wire.EncodeXML(&report)
	if err != nil {
		return err
	}
	return ex.conn.Send(wire.MsgEOS, payload)
}
