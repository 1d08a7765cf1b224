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

	// frag may be the fragment cache's, shared with every execution that
	// runs it: an execution reads it and never writes it.
	frag *core.Fragment
	// classes[i] is the program of frag.Code[i], resolved once: found in
	// the cache when the START was acked, or shipped behind the ack.
	classes  []*vm.Program
	semiKeys map[uint64][]types.Object
	// instrs counts the MVM instructions the fragment's shipped code ran,
	// for the flush span.
	instrs int64
	// trace holds the execution's spans, the only record it keeps of its
	// time and volumes. Its clock started when the START arrived.
	trace *obs.Trace
}

// start serves one START: it reads the frames the request promises (the
// key set right behind a semi-join fragment; after the ack, one class
// per digest the ack asked for), then runs the fragment. Each code ref
// is resolved once — to the cached class at ack time, or to the blob
// shipped for it — so what the cache does afterwards cannot touch this
// execution. A refused class or key set is reported only once all of
// them are read, as the ERROR frame the QPC finds where the stream
// would begin — answering sooner would write to a peer that is itself
// still writing.
func (s *Server) start(conn *wire.Conn, payload []byte) error {
	began := time.Now()
	req, hit, err := decodeStart(s.frags, payload)
	if err != nil {
		return err
	}
	if hit {
		s.met.fragHits.Inc()
	} else {
		s.met.fragMisses.Inc()
	}
	frag := req.Fragment
	if frag == nil || req.Stream == "" {
		return fmt.Errorf("start without a fragment or a stream id")
	}
	if req.Skip > 0 {
		s.met.streamResumes.Inc()
		s.cfg.Logf("dap %s: stream %s placed again past %d delivered tuples", s.cfg.Site, req.Stream, req.Skip)
	}
	ex := &execution{srv: s, conn: conn, frag: frag, classes: make([]*vm.Program, len(frag.Code)),
		trace: obs.NewTraceAt(req.Trace, began)}
	var ack wire.StartAck
	var missing []int // indexes into frag.Code, in the ack's order
	for i, ref := range frag.Code {
		if p, ok := s.class(ref.Name, ref.Checksum); ok && !s.cfg.DisableCodeCache {
			ex.classes[i] = p
		} else {
			ack.Need = append(ack.Need, ref.Checksum)
			missing = append(missing, i)
		}
	}
	ackData, err := wire.EncodeXML(&ack)
	if err != nil {
		return err
	}
	hits := int64(len(frag.Code) - len(missing))
	s.hits.Add(hits)
	s.misses.Add(int64(len(missing)))
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
	for _, i := range missing {
		blob, err := conn.Expect(wire.MsgDeployCode)
		if err != nil {
			return err
		}
		if refused == nil {
			began = time.Now()
			if ex.classes[i], refused = ex.loadClass(blob, frag.Code[i]); refused == nil {
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

// loadClass admits the class shipped for ref and caches it by digest.
// The blob must be the release ref pins, by name and by digest: any
// other is refused, never cached.
func (ex *execution) loadClass(blob []byte, ref core.CodeRef) (*vm.Program, error) {
	prog, err := vm.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("deploy code: %w", err)
	}
	if digest := prog.Checksum(); digest != ref.Checksum || !strings.EqualFold(prog.Name, ref.Name) {
		return nil, fmt.Errorf("deploy code: class %s release %s arrived where the ack asked for %s release %s",
			prog.Name, digest, ref.Name, ref.Checksum)
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
		return nil, fmt.Errorf("deploy code: %w", err)
	}
	ex.srv.classes.put(ref.Checksum, prog, len(blob))
	ex.srv.met.classesLoaded.Inc()
	ex.srv.cfg.Logf("dap %s: loaded class %s (%d bytes)", ex.srv.cfg.Site, prog.Name, len(blob))
	return prog, nil
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
// The fragment runs in one of two bodies, both over the driver's one
// scan and ahead of the one tail below (the final flush, its span, the
// metrics and the EOS report). A fragment that lowers to no operator is
// forwarded (forward); every other one is lowered onto the shared
// operator tree (runTree).
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

	sink := &timedSender{conn: ex.conn}
	out := &stream{w: wire.NewBatchWriter(sink), skip: skip}
	defer out.w.Release()
	out.w.SetTarget(ex.srv.cfg.BatchBytes)
	var spans func(startOff int64) []obs.Span
	if cols, ok := exec.Forwarded(frag); ok {
		ex.setup(obs.PhaseDapLower, start, obs.Span{})
		spans, err = ex.forward(cols, out, sink)
	} else {
		spans, err = ex.runTree(start, schema, out)
	}
	if err != nil {
		return err
	}
	if out.skipped < skip {
		return fmt.Errorf("fragment on %s produced %d tuples, fewer than the %d its START skips", frag.Table, out.skipped, skip)
	}

	// The flush sends the last partial batch, so only now are the writer's
	// totals final. Its span carries the whole stream's, the skipped prefix
	// included, so the report that ends a stream covers it once however
	// often it was placed; the QPC moves them onto its own span of the
	// stream when it imports the report.
	writer := out.w
	flush := ex.trace.Begin(obs.PhaseDapFlush, ex.srv.cfg.Site)
	if err := writer.Flush(); err != nil {
		return err
	}
	flush.NetBytes, flush.Tuples = out.skippedBytes+writer.DataBytes, out.skipped+writer.Tuples
	flush.Instrs = ex.instrs
	flush.End()
	ex.trace.Add(spans(ex.trace.Since(start))...)

	met := &ex.srv.met
	met.activations.Inc()
	met.tuplesSent.Add(writer.Tuples)
	met.bytesSent.Add(writer.DataBytes)
	met.execMS.Observe(time.Since(start).Milliseconds())

	report.Spans = ex.trace.TakeSpans()
	payload, err := report.MarshalBinary()
	if err != nil {
		return err
	}
	return ex.conn.Send(wire.MsgEOS, payload)
}

// runTree is execute's body for a fragment lowered onto the shared
// operator tree (exec.LowerFragment): the scan runs in its own goroutine
// behind a bounded channel, so source extraction overlaps expression
// evaluation and the network send path. The scan decodes each row's
// extracted columns of table schema into a slab no later row
// overwrites — values, payload headers and, since the driver's bytes
// live only until its next row, a copy of the columns' bytes, which
// the large values window. Time components come from the
// operators' own accounting — the scan's feed time is DB time,
// evaluation operators' self time is CPU time, and the emit sink plus
// the final flush is net time (obs.ClassOf) — so no component can go
// negative by subtraction. It returns how to render the tree's spans
// once the stream is flushed.
func (ex *execution) runTree(start time.Time, schema types.Schema, out *stream) (func(int64) []obs.Span, error) {
	frag := ex.frag
	binder := newVMBinder(frag.Code, ex.classes, ex.srv.cfg.Limits)

	// A pushed-down LIMIT bounds the useful scan prefix: cap the batch
	// size at the limit so the scan's read-ahead (channel depth × batch
	// rows) cannot race far past the point where the consumer stops it.
	rows := exec.DefaultBatchRows
	if frag.Limit > 0 && frag.Limit < rows {
		rows = frag.Limit
	}
	var accessed int64 // the scan goroutine's until the tree is closed
	n, hdrs := len(frag.Cols), 0
	for _, c := range frag.Cols {
		if schema.Columns[c].Kind.HasHeader() {
			hdrs++
		}
	}
	var slab types.Slab
	src := exec.NewScanSource(obs.OpScan, func(emitTup func(types.Tuple) error) error {
		return ex.srv.cfg.Driver.Scan(frag.Table, frag.Cols, func(enc [][]byte) error {
			slab.Reserve(rows, n, hdrs)
			in := slab.Tuple(n)
			for i, c := range frag.Cols {
				v, _, err := slab.Decode(schema.Columns[c].Kind, slab.Copy(enc[i]))
				if err != nil {
					return err
				}
				in[i] = v
				accessed += int64(len(enc[i]))
			}
			return emitTup(in)
		})
	}, rows, exec.DefaultPrefetch)
	tree, err := exec.LowerFragment(frag, binder, src, ex.semiKeys, out.tuple, ex.srv.gov)
	if err != nil {
		return nil, err
	}
	ex.setup(obs.PhaseDapLower, start, obs.Span{})

	if err := exec.Run(context.Background(), tree, nil); err != nil {
		return nil, err
	}
	src.Stats().DBBytes = accessed
	runs, instrs := binder.runCounts()
	ex.srv.met.fastRuns.Add(runs)
	ex.srv.met.vmInstrs.Add(instrs)
	ex.instrs = instrs
	return func(startOff int64) []obs.Span { return tree.Spans(ex.srv.cfg.Site, startOff) }, nil
}

// forward is execute's body for a fragment that lowers to no operator
// (exec.Forwarded): each row's extracted columns come off the driver's
// scan as bytes, checked by DecodeValue's length rules, and the ones the
// projection names are copied into the batch frame as they lie — nothing
// is decoded, boxed or encoded again, and the frames are the bytes the
// operator tree would have sent. A pushed LIMIT stops the scan after
// that many records. Its spans are the tree's scan and emit — the scan
// with the rows and source bytes it read, its self time less the time
// spent sending frames, which is the emit's — and no project, since
// none ran. out[i] is the extracted column output column i copies.
func (ex *execution) forward(cols []int, out *stream, sink *timedSender) (func(int64) []obs.Span, error) {
	frag := ex.frag
	began := time.Now()
	scan := exec.OpStats{Name: obs.OpScan}
	row := make([][]byte, len(cols))
	err := ex.srv.cfg.Driver.Scan(frag.Table, frag.Cols, func(in [][]byte) error {
		scan.RowsIn++
		for _, c := range in {
			scan.DBBytes += int64(len(c))
		}
		for i, c := range cols {
			row[i] = in[c]
		}
		if err := out.record(row...); err != nil {
			return err
		}
		if scan.RowsIn == int64(frag.Limit) {
			return exec.ErrStopped
		}
		return nil
	})
	if err != nil && !errors.Is(err, exec.ErrStopped) {
		return nil, err
	}
	scan.RowsOut = scan.RowsIn
	scan.Self = time.Since(began) - sink.busy
	emit := exec.OpStats{Name: obs.OpEmit, RowsIn: scan.RowsIn, RowsOut: scan.RowsIn, Self: sink.busy}
	return func(startOff int64) []obs.Span {
		// Read once the stream is flushed: both ran in the frames sent.
		scan.Batches, emit.Batches = sink.frames, sink.frames
		return exec.OpSpans(ex.srv.cfg.Site, startOff, &scan, &emit)
	}, nil
}

// stream is the batch writer behind the prefix a re-placed START skips:
// the first skip tuples either body emits are counted and dropped.
type stream struct {
	w                           *wire.BatchWriter
	skip, skipped, skippedBytes int64
}

// tuple emits a decoded tuple.
func (s *stream) tuple(t types.Tuple) error {
	if s.skipped < s.skip {
		s.skipped++
		s.skippedBytes += int64(t.WireSize())
		return nil
	}
	return s.w.Write(t)
}

// record emits a tuple given as its columns' encodings.
func (s *stream) record(cols ...[]byte) error {
	if s.skipped < s.skip {
		s.skipped++
		for _, c := range cols {
			s.skippedBytes += int64(len(c))
		}
		return nil
	}
	return s.w.WriteEncoded(cols...)
}

// timedSender is the stream's frame sink: the connection, counting the
// frames sent and the time spent sending them.
type timedSender struct {
	conn   *wire.Conn
	busy   time.Duration
	frames int64
}

// Send implements wire.FrameSender.
func (s *timedSender) Send(t wire.MsgType, payload []byte) error {
	began := time.Now()
	err := s.conn.Send(t, payload)
	s.busy += time.Since(began)
	s.frames++
	return err
}
