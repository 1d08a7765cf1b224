package qpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"

	"mocha/internal/catalog"
	"mocha/internal/types"
	"mocha/internal/wire"
)

// Serve accepts client connections on l until the listener closes. Each
// client session handles MsgQuery requests: the QPC responds with the
// result schema, streams tuple batches, and finishes with an EOS frame
// carrying the query stats.
func (s *Server) Serve(l net.Listener) error {
	for {
		nc, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			if err := s.handleClient(nc); err != nil {
				s.cfg.Logf("qpc: client session: %v", err)
			}
		}()
	}
}

// ServeConn handles a single client connection outside Serve's accept
// loop, for hosts that own the listener (e.g. an embedded cluster that
// swaps QPC instances under a stable address).
func (s *Server) ServeConn(nc net.Conn) error { return s.handleClient(nc) }

func (s *Server) handleClient(nc net.Conn) error {
	conn := wire.NewConn(nc)
	defer conn.Close()
	// The session context carries the client's tenant (from HELLO) into
	// the admission queue's fairness accounting.
	ctx := context.Background()
	for {
		t, payload, err := conn.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		switch t {
		case wire.MsgHello:
			var hello wire.Hello
			if err := wire.DecodeXML(payload, &hello); err != nil {
				return err
			}
			ctx = WithTenant(context.Background(), hello.Tenant)
			ack, err := wire.EncodeXML(&wire.Hello{Role: "qpc", Site: "qpc"})
			if err != nil {
				return err
			}
			if err := conn.Send(wire.MsgHelloAck, ack); err != nil {
				return err
			}
		case wire.MsgQuery:
			if err := s.serveQuery(ctx, conn, string(payload)); err != nil {
				conn.SendError(err)
			}
		case wire.MsgClose:
			return nil
		default:
			conn.SendError(errors.New("qpc: unexpected " + t.String()))
		}
	}
}

// verb is one statement the QPC answers itself, with a one-column text
// result, instead of planning it as SQL.
type verb struct {
	name   string // matched case-insensitively
	arg    bool   // the statement continues with an argument after a space
	column string
	run    func(s *Server, ctx context.Context, arg string) (string, error)
}

// verbs is scanned in order, so EXPLAIN ANALYZE precedes the EXPLAIN it
// extends.
var verbs = []verb{
	// EXPLAIN ANALYZE <query> executes the query, discarding rows, and
	// returns the plan with the measured breakdown and span timeline.
	{"EXPLAIN ANALYZE", true, "plan", (*Server).ExplainAnalyze},
	// EXPLAIN <query> returns the optimizer's plan rendering.
	{"EXPLAIN", true, "plan", func(s *Server, _ context.Context, sql string) (string, error) { return s.Explain(sql) }},
	// SHOW METRICS dumps the server's metrics registry.
	{"SHOW METRICS", false, "metric", func(s *Server, _ context.Context, _ string) (string, error) {
		return s.cfg.Metrics.Render(), nil
	}},
	// DESCRIBE <resource> returns the catalog's RDF document for a table
	// or operator (section 3.5's (URI, RDF) resource descriptions).
	{"DESCRIBE", true, "rdf", (*Server).describe},
	// SHOW TABLES lists the catalog's registered relations.
	{"SHOW TABLES", false, "table", func(s *Server, _ context.Context, _ string) (string, error) {
		return strings.Join(s.cfg.Cat.TableNames(), "\n"), nil
	}},
	// VERIFY <class> re-runs the static verifier on a repository class
	// and reports the verdict, capability manifest and static bounds.
	{"VERIFY", true, "verify", func(s *Server, _ context.Context, class string) (string, error) { return s.VerifyClass(class) }},
	// SHOW ROLLOUTS reports every rollout this server has run, newest
	// first, with the abort evidence for auto-rollbacks.
	{"SHOW ROLLOUTS", false, "rollout", func(s *Server, _ context.Context, _ string) (string, error) {
		return s.RolloutReport(), nil
	}},
	// SHOW RELEASES [<class>] lists the release history of one class or
	// of the whole repository: tag, digest, capability manifest, publish
	// time and the active/canary markers.
	{"SHOW RELEASES", false, "release", (*Server).releases},
	{"SHOW RELEASES", true, "release", (*Server).releases},
	// ROLLOUT <class> <tag> AT <fraction> starts canarying a staged
	// release on that fraction of eligible queries.
	{"ROLLOUT", true, "rollout", (*Server).rollout},
	// ROLLBACK <class> manually withdraws a running rollout's canary.
	{"ROLLBACK", true, "rollout", func(s *Server, _ context.Context, class string) (string, error) {
		return s.AbortRollout(class, "manual ROLLBACK")
	}},
	// PROMOTE <class> manually promotes a running rollout's canary to
	// the active release.
	{"PROMOTE", true, "rollout", func(s *Server, _ context.Context, class string) (string, error) {
		return s.PromoteRollout(class)
	}},
}

// match reports whether stmt is this verb and returns its argument.
func (v verb) match(stmt string) (arg string, ok bool) {
	n := len(v.name)
	if !v.arg {
		return "", strings.EqualFold(stmt, v.name)
	}
	if len(stmt) <= n || stmt[n] != ' ' || !strings.EqualFold(stmt[:n], v.name) {
		return "", false
	}
	return strings.TrimSpace(stmt[n:]), true
}

func (s *Server) serveQuery(ctx context.Context, conn *wire.Conn, sql string) error {
	stmt := strings.TrimSpace(sql)
	for _, v := range verbs {
		if arg, ok := v.match(stmt); ok {
			text, err := v.run(s, ctx, arg)
			if err != nil {
				return err
			}
			return sendTextResult(conn, v.column, text)
		}
	}
	q, err := s.Prepare(sql)
	if err != nil {
		return err
	}
	return sendResult(conn, q.Schema, func(emit func(types.Tuple) error) (*QueryStats, error) {
		return q.RunContext(ctx, emit)
	})
}

func (s *Server) releases(_ context.Context, class string) (string, error) {
	return s.ReleasesReport(class)
}

// rollout parses "<class> <tag> AT <fraction>" (fraction as a
// percentage, e.g. "25", or a ratio, e.g. "0.25") and starts the rollout.
func (s *Server) rollout(_ context.Context, rest string) (string, error) {
	fields := strings.Fields(rest)
	if len(fields) != 4 || !strings.EqualFold(fields[2], "AT") {
		return "", errors.New("qpc: usage: ROLLOUT <class> <tag> AT <fraction>")
	}
	frac, err := strconv.ParseFloat(strings.TrimSuffix(fields[3], "%"), 64)
	if err != nil {
		return "", fmt.Errorf("qpc: bad rollout fraction %q: %w", fields[3], err)
	}
	if frac > 1 {
		frac /= 100 // "25" and "25%" mean a quarter of eligible queries
	}
	return s.StartRollout(fields[0], fields[1], frac)
}

func (s *Server) describe(_ context.Context, name string) (string, error) {
	var doc []byte
	var err error
	if tbl, ok := s.cfg.Cat.Table(name); ok {
		doc, err = catalog.TableRDF(tbl)
	} else if op, ok := s.cfg.Cat.Ops().Lookup(name); ok {
		doc, err = catalog.OperatorRDF(op)
	} else {
		err = fmt.Errorf("qpc: no catalog resource named %q", name)
	}
	return string(doc), err
}

// sendResult is the reply to a query: the result schema, the rows run
// emits as tuple batches, and run's stats as the EOS frame.
func sendResult(conn *wire.Conn, schema types.Schema, run func(emit func(types.Tuple) error) (*QueryStats, error)) error {
	data, err := wire.EncodeXML(wire.ResultSchema{Schema: schema})
	if err != nil {
		return err
	}
	if err := conn.Send(wire.MsgResultSchema, data); err != nil {
		return err
	}
	w := wire.NewBatchWriter(conn)
	stats, err := run(w.Write)
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if data, err = wire.EncodeXML(stats); err != nil {
		return err
	}
	return conn.Send(wire.MsgEOS, data)
}

// sendTextResult streams a multi-line string as a one-column result.
func sendTextResult(conn *wire.Conn, column, text string) error {
	schema := types.NewSchema(types.Column{Name: column, Kind: types.KindString})
	return sendResult(conn, schema, func(emit func(types.Tuple) error) (*QueryStats, error) {
		for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			if err := emit(types.Tuple{types.String_(line)}); err != nil {
				return nil, err
			}
		}
		return &QueryStats{}, nil
	})
}
