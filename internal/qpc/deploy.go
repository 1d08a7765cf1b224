package qpc

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"mocha/internal/catalog"
	"mocha/internal/core"
	"mocha/internal/types"
	"mocha/internal/wire"
)

// dapSession is one QPC↔DAP connection executing fragments of the
// current query.
type dapSession struct {
	site string
	conn *wire.Conn
	// release detaches the connection from the query context.
	release func()
	// openOff is the session-open offset on the query's trace timeline,
	// in microseconds. DAP-reported spans are relative to the session
	// open; adding openOff re-anchors them onto the QPC's timeline.
	openOff int64
}

// dial opens a transport connection to a DAP address, preferring the
// context-aware dialer when configured.
func (s *Server) dial(ctx context.Context, addr string) (net.Conn, error) {
	if s.cfg.DialContext != nil {
		return s.cfg.DialContext(ctx, addr)
	}
	return s.cfg.Dial(addr)
}

// openSession dials a DAP and completes the HELLO handshake, announcing
// the query's trace ID so the DAP tags its spans with it. The session's
// frame I/O is bounded by the configured FrameTimeout and by ctx's
// deadline; cancelling ctx aborts any in-flight exchange.
func (s *Server) openSession(ctx context.Context, site, traceID string) (*dapSession, error) {
	def, ok := s.cfg.Cat.SiteByName(site)
	if !ok {
		return nil, fmt.Errorf("qpc: unknown site %q", site)
	}
	nc, err := s.dial(ctx, def.Addr)
	if err != nil {
		return nil, fmt.Errorf("qpc: dial %s: %w", def.Addr, err)
	}
	conn := wire.NewConn(nc)
	conn.Instrument(s.cfg.Metrics, "qpc_wire")
	conn.SetFrameTimeout(s.cfg.FrameTimeout, s.cfg.FrameTimeout)
	ds := &dapSession{site: site, conn: conn, release: conn.Bind(ctx)}
	hello, err := wire.EncodeXML(&wire.Hello{Role: "qpc", Site: "qpc", Trace: traceID})
	if err != nil {
		ds.close()
		return nil, err
	}
	if err := conn.Send(wire.MsgHello, hello); err != nil {
		ds.close()
		return nil, fmt.Errorf("qpc: hello to %s: %w", site, err)
	}
	if _, err := conn.Expect(wire.MsgHelloAck); err != nil {
		ds.close()
		return nil, fmt.Errorf("qpc: hello to %s: %w", site, err)
	}
	return ds, nil
}

func (ds *dapSession) close() {
	// Best-effort courtesy CLOSE; the write is bounded by the session's
	// frame timeout so a dead peer cannot stall cleanup.
	_ = ds.conn.Send(wire.MsgClose, nil)
	ds.conn.Close()
	if ds.release != nil {
		ds.release()
	}
}

// deployCode runs the code-deployment phase (section 3.6) for a
// fragment: validate the DAP's cache, then ship only the classes it
// needs, fetched from the well-known repository.
func (s *Server) deployCode(ds *dapSession, refs []core.CodeRef, stats *QueryStats) error {
	if len(refs) == 0 {
		return nil
	}
	check := wire.CodeCheck{}
	for _, r := range refs {
		check.Classes = append(check.Classes, wire.CodeCheckItem{
			Name: r.Name, Version: r.Version, Checksum: r.Checksum,
		})
	}
	payload, err := wire.EncodeXML(&check)
	if err != nil {
		return err
	}
	if err := ds.conn.Send(wire.MsgCodeCheck, payload); err != nil {
		return err
	}
	ackData, err := ds.conn.Expect(wire.MsgCodeCheckAck)
	if err != nil {
		return err
	}
	var ack wire.CodeCheckAck
	if err := wire.DecodeXML(ackData, &ack); err != nil {
		return err
	}
	stats.CacheHits += len(refs) - len(ack.Needed)
	// Resolve each needed class by the exact digest the plan pinned, so a
	// fragment deployed mid-rollout (or re-deployed by a stream restart
	// after failover) always ships the release its plan was routed to —
	// never whichever release is active at ship time.
	byName := make(map[string]core.CodeRef, len(refs))
	for _, r := range refs {
		byName[strings.ToLower(r.Name)] = r
	}
	for _, name := range ack.Needed {
		var cls *catalog.Class
		ok := false
		if ref, have := byName[strings.ToLower(name)]; have && ref.Checksum != "" {
			cls, ok = s.cfg.Cat.Repo().Resolve(ref.Name, ref.Checksum)
		}
		if !ok {
			cls, ok = s.cfg.Cat.Repo().Get(name)
		}
		if !ok {
			return fmt.Errorf("qpc: class %s vanished from the repository", name)
		}
		if err := ds.conn.Send(wire.MsgDeployCode, cls.Blob); err != nil {
			return err
		}
		if _, err := ds.conn.Expect(wire.MsgAck); err != nil {
			return fmt.Errorf("qpc: deploying %s to %s: %w", name, ds.site, err)
		}
		stats.CodeClassesShipped++
		stats.CodeBytesShipped += len(cls.Blob)
		s.cfg.Logf("qpc: shipped %s (%d bytes) to %s", name, len(cls.Blob), ds.site)
	}
	return nil
}

// deployPlan ships a fragment document.
func (ds *dapSession) deployPlan(frag *core.Fragment) error {
	data, err := core.EncodeFragment(frag)
	if err != nil {
		return err
	}
	if err := ds.conn.Send(wire.MsgDeployPlan, data); err != nil {
		return err
	}
	_, err = ds.conn.Expect(wire.MsgAck)
	return err
}

// sendSemiJoinKeys delivers the key set for semi-join filtering,
// returning the key bytes that crossed the network (the caller records
// them on the trace; they were counted into CVDT here).
func (ds *dapSession) sendSemiJoinKeys(keys []types.Tuple, stats *QueryStats) (int64, error) {
	payload := wire.EncodeBatch(keys)
	if err := ds.conn.Send(wire.MsgSemiJoinKeys, payload); err != nil {
		return 0, err
	}
	// Key delivery is real data movement: count it into CVDT.
	var keyBytes int64
	for _, k := range keys {
		keyBytes += int64(k.WireSize())
	}
	stats.CVDT += keyBytes
	if _, err := ds.conn.Expect(wire.MsgAck); err != nil {
		return 0, err
	}
	return keyBytes, nil
}

// activate starts fragment execution with no stream ID: a plain stream
// the DAP retains nothing for. Only the semi-join key phase uses it —
// its key streams cannot be resumed against a key set that a retry may
// have changed, so a failure there fails the phase.
func (ds *dapSession) activate(out types.Schema) (*wire.BatchReader, error) {
	return ds.activatePart(out, "", 0, 0)
}

// activatePart starts fragment execution. A non-empty streamID asks the
// DAP to run the resumable protocol: sequence-numbered frames and a
// replay window retained under that ID, so a broken connection can be
// resumed instead of failing the query. of > 0 marks one shard of a
// scattered fragment and tags the activation with the shard's partition
// ID and the pre-pruning partition count; the DAP echoes both in its EOS
// stats so the QPC can verify each gathered stream's provenance.
func (ds *dapSession) activatePart(out types.Schema, streamID string, part, of int) (*wire.BatchReader, error) {
	if of <= 0 {
		part, of = 0, 0 // normalize the unpartitioned sentinel off the wire
	}
	var payload []byte
	if streamID != "" || of > 0 {
		var err error
		payload, err = wire.EncodeXML(&wire.Activate{Stream: streamID, Part: part, Of: of})
		if err != nil {
			return nil, err
		}
	}
	if err := ds.conn.Send(wire.MsgActivate, payload); err != nil {
		return nil, err
	}
	return wire.NewBatchReader(ds.conn, out), nil
}

// resume asks the DAP to continue a retained stream past lastSeq (the
// last frame the QPC holds). A negative ack means the replay window no
// longer covers the gap; the transport succeeded, so the caller must
// fall back to restarting the fragment rather than retrying.
func (ds *dapSession) resume(streamID string, lastSeq uint64) (wire.ResumeAck, error) {
	var ack wire.ResumeAck
	payload, err := wire.EncodeXML(&wire.Resume{Stream: streamID, LastSeq: lastSeq})
	if err != nil {
		return ack, err
	}
	if err := ds.conn.Send(wire.MsgResume, payload); err != nil {
		return ack, err
	}
	data, err := ds.conn.Expect(wire.MsgResumeAck)
	if err != nil {
		return ack, err
	}
	err = wire.DecodeXML(data, &ack)
	return ack, err
}

// drainStats decodes the DAP's EOS stats report and folds it into the
// query stats, consuming the payload so each fragment's measurements
// merge exactly once (the error path re-walks all readers to salvage
// partial stats). countVolumes controls whether the fragment's byte
// counts enter CVDA/CVDT (the semi-join key phase contributes time but
// its accesses are bookkeeping, not the experiment's logical volumes).
// The decoded report is returned so the caller can record trace spans
// from it.
func drainStats(r *wire.BatchReader, stats *QueryStats, countVolumes bool) (*wire.ExecStats, error) {
	if r.EOSPayload == nil {
		return nil, fmt.Errorf("qpc: fragment stream ended without stats")
	}
	var es wire.ExecStats
	if err := wire.DecodeXML(r.EOSPayload, &es); err != nil {
		return nil, err
	}
	r.EOSPayload = nil
	stats.DBMS += float64(es.DBMicros) / 1000
	stats.CPUMS += float64(es.CPUMicros) / 1000
	stats.NetMS += float64(es.NetMicros) / 1000
	stats.MiscMS += float64(es.MiscMicros) / 1000
	if countVolumes {
		stats.CVDA += es.BytesAccessed
		stats.CVDT += es.BytesSent
	} else {
		stats.CVDT += es.BytesSent // keys really cross the network
	}
	return &es, nil
}

// runKeyPhase executes a key-projection fragment, returning the key set
// and the DAP's stats report for the phase (trace span material).
func (s *Server) runKeyPhase(ds *dapSession, main *core.Fragment, stats *QueryStats) ([]types.Tuple, *wire.ExecStats, error) {
	keyCol := main.SemiJoinCol
	keyFrag := &core.Fragment{
		Site:        main.Site,
		Table:       main.Table,
		Cols:        main.Cols,
		InSchema:    main.InSchema,
		Predicates:  main.Predicates,
		SemiJoinCol: -1,
		Projections: []core.Output{{
			Name: "key",
			Expr: core.NewCol(keyCol, main.InSchema.Columns[keyCol].Kind),
		}},
		Code:      main.Code,
		OutSchema: types.NewSchema(types.Column{Name: "key", Kind: main.InSchema.Columns[keyCol].Kind}),
	}
	if err := ds.deployPlan(keyFrag); err != nil {
		return nil, nil, err
	}
	reader, err := ds.activate(keyFrag.OutSchema)
	if err != nil {
		return nil, nil, err
	}
	seen := map[uint64][]types.Object{}
	var keys []types.Tuple
	for {
		tup, err := reader.Next()
		if err != nil {
			return nil, nil, err
		}
		if tup == nil {
			break
		}
		k, ok := tup[0].(types.Small)
		if !ok {
			return nil, nil, fmt.Errorf("qpc: semi-join key of kind %v", tup[0].Kind())
		}
		h := k.Hash()
		dup := false
		for _, c := range seen[h] {
			if k.Equal(c) {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(seen[h], tup[0])
			keys = append(keys, tup)
		}
	}
	es, err := drainStats(reader, stats, false)
	if err != nil {
		return nil, nil, err
	}
	return keys, es, nil
}

// intersectKeys returns the tuples of a whose key appears in b.
func intersectKeys(a, b []types.Tuple) []types.Tuple {
	index := map[uint64][]types.Object{}
	for _, t := range b {
		k := t[0].(types.Small)
		index[k.Hash()] = append(index[k.Hash()], t[0])
	}
	var out []types.Tuple
	for _, t := range a {
		k := t[0].(types.Small)
		for _, c := range index[k.Hash()] {
			if k.Equal(c) {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// timedPhase measures a deployment step into DeployMS.
func timedPhase(stats *QueryStats, fn func() error) error {
	start := time.Now()
	err := fn()
	stats.DeployMS += float64(time.Since(start).Microseconds()) / 1000
	return err
}
