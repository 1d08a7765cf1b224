package qpc

import (
	"context"
	"fmt"
	"net"
	"time"

	"mocha/internal/catalog"
	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/types"
	"mocha/internal/wire"
)

// dapSession is one QPC↔DAP connection.
type dapSession struct {
	site string
	conn *wire.Conn
	// release detaches the connection from the query context.
	release func()
}

// dial opens a transport connection to a DAP address, preferring the
// context-aware dialer when configured.
func (s *Server) dial(ctx context.Context, addr string) (net.Conn, error) {
	if s.cfg.DialContext != nil {
		return s.cfg.DialContext(ctx, addr)
	}
	return s.cfg.Dial(addr)
}

// openSession dials a site's DAP. There is no handshake: the first frame
// on the connection is the request it was opened for. The session's
// frame I/O is bounded by the configured FrameTimeout and by ctx's
// deadline; cancelling ctx aborts any in-flight exchange.
func (s *Server) openSession(ctx context.Context, site string) (*dapSession, error) {
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
	return &dapSession{site: site, conn: conn, release: conn.Bind(ctx)}, nil
}

// close says CLOSE, which ends the DAP's session, and drops the
// connection. The write is bounded by the session's frame timeout, so a
// dead peer cannot stall cleanup.
func (ds *dapSession) close() {
	_ = ds.conn.Send(wire.MsgClose, nil)
	ds.abandon()
}

// abandon drops the connection without a CLOSE, for a session that
// failed.
func (ds *dapSession) abandon() {
	ds.conn.Close()
	ds.release()
}

// ping is the heartbeat's probe: a HELLO answered by HELLO_ACK shows the
// DAP serving requests, not merely accepting connections.
func (ds *dapSession) ping() error {
	if err := ds.conn.Send(wire.MsgHello, nil); err != nil {
		return err
	}
	_, err := ds.conn.Expect(wire.MsgHelloAck)
	return err
}

// start sends START on ds — the one request that puts the stream on a
// connection (DESIGN §3.6) — and installs a reader for what follows its
// ack. The request is the unit's fragment, or in a semi-join's key phase
// its key projection, under the stream's ID, with the count of tuples
// already delivered for the DAP to skip; a semi-join fragment's key set
// rides right behind it. The DAP's ack names, by digest, the classes it
// lacks: each is fetched from the repository by that digest — so a
// fragment started mid-rollout, or placed again after a failover, ships
// the release its plan was routed to, never whichever is active at ship
// time — and sent with no further reply: a class the DAP refuses, like a
// plan it cannot run, comes back as the stream's ERROR frame. Cache
// hits, shipped classes and the key set sent are counted into the
// caller's span of the exchange.
func (fs *fragmentStream) start(ds *dapSession, into *obs.Span) error {
	e := fs.e
	frag, id := fs.unit.Frag, fs.id
	if fs.keyPhase {
		frag, id = keyFragment(frag), id+"/keys"
	}
	req := core.Start{Stream: id, Trace: e.trace.ID, Skip: fs.delivered, Fragment: frag}
	if fs.unit.Of > 0 {
		req.Part, req.Of = fs.unit.Part, fs.unit.Of
	}
	payload, err := wire.EncodeXML(&req)
	if err != nil {
		return err
	}
	sentAt := e.trace.Since(time.Now())
	if err := ds.conn.Send(wire.MsgStart, payload); err != nil {
		return err
	}
	if frag.SemiJoinCol >= 0 {
		if err := ds.conn.Send(wire.MsgSemiJoinKeys, wire.EncodeBatch(fs.keys)); err != nil {
			return err
		}
		// Key delivery is real data movement.
		for _, k := range fs.keys {
			into.NetBytes += int64(k.WireSize())
		}
		into.Tuples += int64(len(fs.keys))
	}
	ackData, err := ds.conn.Expect(wire.MsgStartAck)
	if err != nil {
		return err
	}
	var ack wire.StartAck
	if err := wire.DecodeXML(ackData, &ack); err != nil {
		return err
	}
	into.CacheHits += int64(len(frag.Code) - len(ack.Need))
	// Resolve everything before sending anything: a release the
	// repository no longer holds fails the request with no blob wasted.
	releases := make([]*catalog.Release, len(ack.Need))
	for i, digest := range ack.Need {
		for _, ref := range frag.Code {
			if ref.Checksum == digest {
				releases[i], _ = e.srv.cfg.Cat.Repo().Resolve(ref.Name, digest)
			}
		}
		if releases[i] == nil {
			return fmt.Errorf("qpc: class release %s, wanted by %s, vanished from the repository", digest, ds.site)
		}
	}
	for _, rel := range releases {
		if err := ds.conn.Send(wire.MsgDeployCode, rel.Blob); err != nil {
			return err
		}
		into.Classes++
		into.CodeBytes += int64(len(rel.Blob))
		e.srv.cfg.Logf("qpc: shipped %s (%d bytes) to %s", rel.Class, len(rel.Blob), ds.site)
	}
	fs.r = wire.NewBatchReader(ds.conn, frag.OutSchema)
	fs.startOff = sentAt
	return nil
}

// keyFragment is the projection of a semi-join fragment onto its join
// column: same table, extraction and predicates, one output.
func keyFragment(main *core.Fragment) *core.Fragment {
	kind := main.InSchema.Columns[main.SemiJoinCol].Kind
	return &core.Fragment{
		Site:        main.Site,
		Table:       main.Table,
		Cols:        main.Cols,
		InSchema:    main.InSchema,
		Predicates:  main.Predicates,
		SemiJoinCol: -1,
		Projections: []core.Output{{Name: "key", Expr: core.NewCol(main.SemiJoinCol, kind)}},
		Code:        main.Code,
		OutSchema:   types.NewSchema(types.Column{Name: "key", Kind: kind}),
	}
}

// readKeys reads a key-fragment stream to its end, returning the
// distinct keys. The stream is not recovered: a failure here fails the
// phase.
func readKeys(reader *wire.BatchReader) ([]types.Tuple, error) {
	seen := map[uint64][]types.Object{}
	var keys []types.Tuple
	for {
		tup, err := reader.Next()
		if err != nil {
			return nil, err
		}
		if tup == nil {
			return keys, nil
		}
		k, ok := tup[0].(types.Small)
		if !ok {
			return nil, fmt.Errorf("qpc: semi-join key of kind %v", tup[0].Kind())
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
