// Package dap implements the Data Access Provider (section 3.3): the
// process running at (or near) each data source. A DAP receives plan
// fragments and MVM class files from the QPC, loads the code into its
// extensible execution engine, extracts tuples from its data server,
// maps them into the middleware schema, applies the shipped operators
// and streams the filtered results back.
package dap

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"mocha/internal/core"
	"mocha/internal/exec"
	"mocha/internal/obs"
	"mocha/internal/ops"
	"mocha/internal/types"
	"mocha/internal/vm"
)

// AccessDriver abstracts the data server behind the DAP (section 3.4): a
// full database (internal/storage), a flat-file server or an XML
// repository all expose table scans in the middleware schema, as rows
// in the wire tuple format (DESIGN §3.9), so that no per-row object is
// made before the fragment needs one.
type AccessDriver interface {
	// TableSchema returns the middleware schema of a table.
	TableSchema(table string) (types.Schema, error)
	// Scan calls emit for every row of the table with the encodings of
	// the columns cols names, in that order. Every column of the row is
	// checked by DecodeValue's length rules first, and a row that fails
	// them fails the scan. enc is reused from row to row, and the bytes
	// it windows are valid only until emit returns — the store's scan
	// reads every record into one reused buffer (DESIGN §3.9) — so a
	// caller that keeps a value decoded from them, which aliases them,
	// copies its bytes first. Scan returns the error emit returns (in
	// particular exec.ErrStopped).
	Scan(table string, cols []int, emit func(enc [][]byte) error) error
}

// Config configures a DAP server.
type Config struct {
	// Site is the site name used in stats reports.
	Site string
	// Driver provides access to the local data server.
	Driver AccessDriver
	// Limits sandbox shipped code; zero fields take MVM defaults.
	Limits vm.Limits
	// DisableCodeCache forces classes to be re-shipped on every query
	// (the ablation baseline for the section 3.6 caching extension).
	DisableCodeCache bool
	// IdleTimeout bounds the wait for the next request frame on an open
	// session: a QPC that vanished without MsgClose stops leaking a
	// goroutine and a connection once it expires. Zero disables.
	IdleTimeout time.Duration
	// FrameTimeout bounds each frame write while streaming results, so a
	// stalled or dead coordinator fails the session instead of hanging
	// the DAP mid-stream. Zero disables.
	FrameTimeout time.Duration
	// BatchBytes overrides the target tuple-batch payload size for result
	// streams. Zero means wire.DefaultBatchBytes.
	BatchBytes int
	// Exec tunes the fragment executor: Exec.MemBudgetBytes > 0 is the
	// query-memory budget shared by every concurrent session, which
	// creates the server's memory governor and arms the spilling
	// operators; zero leaves the executor ungoverned.
	Exec exec.Tuning
	// Metrics receives the server's dap_* counters and wire traffic
	// counters. Nil uses the process-wide obs.Default() registry.
	Metrics *obs.Registry
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

// Server is a DAP instance. One Server handles many sequential QPC
// sessions; concurrent connections each get their own session state.
type Server struct {
	cfg     Config
	frags   *lru[*core.Fragment] // by document bytes
	classes *lru[*vm.Program]    // by content digest, sized by blob bytes
	met     dapMetrics
	gov     *exec.Governor

	// hits and misses count the code refs STARTs found cached and the
	// ones their acks asked for.
	hits, misses atomic.Int64
}

// classCacheBytes bounds the classes a DAP keeps loaded, counted by the
// bytes of the blobs they arrived as; past it the least recently used
// goes first.
const classCacheBytes = 1 << 20

// dapMetrics caches the server's registry handles.
type dapMetrics struct {
	sessionsOpen  *obs.Gauge
	sessionsTotal *obs.Counter
	activations   *obs.Counter
	tuplesSent    *obs.Counter
	bytesSent     *obs.Counter
	classesLoaded *obs.Counter
	cacheHits     *obs.Counter
	execMS        *obs.Histogram
	verifyRejects *obs.Counter
	fastRuns      *obs.Counter
	vmInstrs      *obs.Counter
	compileMicros *obs.Histogram
	streamResumes *obs.Counter
	fragHits      *obs.Counter
	fragMisses    *obs.Counter
}

// New creates a DAP server.
func New(cfg Config) *Server {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	r := cfg.Metrics
	var gov *exec.Governor
	if cfg.Exec.MemBudgetBytes > 0 {
		gov = exec.NewGovernor(cfg.Exec.MemBudgetBytes, r)
	}
	return &Server{
		cfg:     cfg,
		frags:   newLRU[*core.Fragment](fragmentCacheBytes),
		classes: newLRU[*vm.Program](classCacheBytes),
		gov:     gov,
		met: dapMetrics{
			sessionsOpen:  r.Gauge(obs.MDapSessionsOpen),
			sessionsTotal: r.Counter(obs.MDapSessionsTotal),
			activations:   r.Counter(obs.MDapActivations),
			tuplesSent:    r.Counter(obs.MDapTuplesSent),
			bytesSent:     r.Counter(obs.MDapBytesSent),
			classesLoaded: r.Counter(obs.MDapCodeClassesLoaded),
			cacheHits:     r.Counter(obs.MDapCodeCacheHits),
			execMS:        r.Histogram(obs.MDapExecMS),
			verifyRejects: r.Counter(obs.MDapVerifyRejects),
			fastRuns:      r.Counter(obs.MVMFastpathRuns),
			vmInstrs:      r.Counter(obs.MVMInstructions),
			compileMicros: r.Histogram(obs.MVMCompileMicros),
			streamResumes: r.Counter(obs.MDapStreamResumes),
			fragHits:      r.Counter(obs.MDapFragmentCacheHits),
			fragMisses:    r.Counter(obs.MDapFragmentCacheMisses),
		},
	}
}

// Metrics returns the server's registry (SHOW METRICS payload).
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// Governor returns the server's shared query-memory governor, or nil
// when Exec.MemBudgetBytes left the executor ungoverned.
func (s *Server) Governor() *exec.Governor { return s.gov }

// CacheStats reports cumulative code-cache behaviour.
func (s *Server) CacheStats() (hits, misses int64) { return s.hits.Load(), s.misses.Load() }

// HasClass reports whether the exact class release (by content digest)
// is currently cached — rollout tests use it to check that a canary
// deployed by digest.
func (s *Server) HasClass(name, checksum string) bool {
	_, ok := s.class(name, checksum)
	return ok
}

// class returns the program cached under digest when it is the class
// name names: a START resolves each of its code refs through it once,
// when it acks.
func (s *Server) class(name, digest string) (*vm.Program, bool) {
	p, ok := s.classes.get([]byte(digest))
	if !ok || !strings.EqualFold(p.Name, name) {
		return nil, false
	}
	return p, true
}

// Serve accepts QPC connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			if err := s.HandleConn(conn); err != nil {
				s.cfg.Logf("dap %s: session ended: %v", s.cfg.Site, err)
			}
		}()
	}
}

// vmBinder binds plan operators against the classes a START resolved:
// classes[i] is the program of the fragment's code ref refs[i], found
// cached when the DAP acked or shipped behind the ack. This is the only
// way a DAP can evaluate user-defined operators, and a query always
// executes exactly the release it was planned (or canaried) against,
// however the cache changes while it runs.
type vmBinder struct {
	refs    []core.CodeRef
	classes []*vm.Program
	machine *vm.Machine
	limits  vm.Limits
	// machines lists every machine created for this fragment, its lane
	// forks' included; a fork shares the list.
	machines *[]*vm.Machine
}

// newVMBinder returns a fragment's binder with its shared scalar machine.
func newVMBinder(refs []core.CodeRef, classes []*vm.Program, limits vm.Limits) *vmBinder {
	b := &vmBinder{refs: refs, classes: classes, limits: limits, machines: new([]*vm.Machine)}
	b.machine = b.newMachine()
	return b
}

func (b *vmBinder) newMachine() *vm.Machine {
	m := vm.New(b.limits)
	*b.machines = append(*b.machines, m)
	return m
}

// Fork binds the same releases for another lane of the fragment: its
// scalars run on a machine of the fork's own.
func (b *vmBinder) Fork() core.OpBinder {
	f := *b
	f.machine = b.newMachine()
	return &f
}

// resolve returns the release the fragment pinned for name. A class its
// code refs do not pin is refused, never bound to whichever release the
// cache happens to hold.
func (b *vmBinder) resolve(name string) (*vm.Program, error) {
	for i, ref := range b.refs {
		if strings.EqualFold(ref.Name, name) {
			return b.classes[i], nil
		}
	}
	return nil, fmt.Errorf("dap: class %s not pinned by the fragment's code refs", name)
}

// runCounts sums invocations and executed bytecode instructions across
// every machine the binder created (one scalar machine per lane plus one
// per aggregate).
func (b *vmBinder) runCounts() (runs, instrs int64) {
	for _, m := range *b.machines {
		runs += m.FastRuns
		instrs += m.Instrs
	}
	return runs, instrs
}

// BindScalar implements core.OpBinder.
func (b *vmBinder) BindScalar(name string, ret types.Kind) (core.ScalarFn, error) {
	prog, err := b.resolve(name)
	if err != nil {
		return nil, err
	}
	s, err := ops.NewVMScalar(b.machine, prog, ret)
	if err != nil {
		return nil, err
	}
	return s.Call, nil
}

// BindAggregate implements core.OpBinder.
func (b *vmBinder) BindAggregate(name string, ret types.Kind) (core.AggFn, error) {
	prog, err := b.resolve(name)
	if err != nil {
		return nil, err
	}
	// Each aggregate instance gets its own machine so per-group state
	// and stacks never interleave.
	return ops.NewVMAggregate(b.newMachine(), prog, ret)
}
