package qpc

import (
	"context"

	"mocha/internal/wire"
)

// ProcCall issues a procedural request (section 3.2) to a site's DAP —
// operations outside the query abstraction, such as enumerating the
// tables a file server offers. The configured QueryTimeout bounds the
// whole call.
func (s *Server) ProcCall(site, op string, args ...string) ([]string, error) {
	ctx := context.Background()
	if d := s.cfg.QueryTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	ds, err := s.openSession(ctx, site)
	if err != nil {
		return nil, err
	}
	defer ds.close()
	payload, err := wire.EncodeXML(&wire.ProcCall{Op: op, Args: args})
	if err != nil {
		return nil, err
	}
	if err := ds.conn.Send(wire.MsgProcCall, payload); err != nil {
		return nil, err
	}
	data, err := ds.conn.Expect(wire.MsgProcResult)
	if err != nil {
		return nil, err
	}
	var res wire.ProcResult
	if err := wire.DecodeXML(data, &res); err != nil {
		return nil, err
	}
	return res.Lines, nil
}
