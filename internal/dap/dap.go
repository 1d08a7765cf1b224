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
	"sync"
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
// repository all expose table scans in the middleware schema.
type AccessDriver interface {
	// TableSchema returns the middleware schema of a table.
	TableSchema(table string) (types.Schema, error)
	// Scan calls emit for every tuple of the table. Returned tuples must
	// be safe to retain.
	Scan(table string, emit func(types.Tuple) error) error
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
	// streams. Zero means wire.DefaultBatchBytes. Smaller batches make the
	// replay window finer-grained: less retransmission when a stream
	// continues on a new connection.
	BatchBytes int
	// ReplayWindowBytes bounds the per-stream replay window a START can
	// continue from: the most recent frames up to this many payload bytes
	// (the newest frame is always kept). Zero means the 1 MiB default.
	ReplayWindowBytes int64
	// RetainTTL bounds how long an interrupted stream stays parked waiting
	// for a START to continue it before it is aborted and its window
	// freed. Zero means the 10s default.
	RetainTTL time.Duration
	// Exec tunes the fragment executor: batch size, the scan read-ahead
	// depth, and the query-memory budget shared by every concurrent
	// session (Exec.MemBudgetBytes > 0 creates the server's memory
	// governor and arms the spilling aggregate). Zero fields take the
	// exec package defaults.
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
	cfg      Config
	cache    *codeCache
	retained *retention
	met      dapMetrics
	gov      *exec.Governor
}

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

	streamsRetained *obs.Gauge
	streamsParked   *obs.Counter
	streamResumes   *obs.Counter
	replayedBytes   *obs.Counter
	retainExpired   *obs.Counter
	windowEvicted   *obs.Counter

	invalidateRequests *obs.Counter
	invalidateDropped  *obs.Counter
}

// New creates a DAP server.
func New(cfg Config) *Server {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	if cfg.ReplayWindowBytes <= 0 {
		cfg.ReplayWindowBytes = 1 << 20
	}
	if cfg.RetainTTL <= 0 {
		cfg.RetainTTL = 10 * time.Second
	}
	r := cfg.Metrics
	var gov *exec.Governor
	if cfg.Exec.MemBudgetBytes > 0 {
		gov = exec.NewGovernor(cfg.Exec.MemBudgetBytes, r)
	}
	return &Server{
		cfg:      cfg,
		cache:    newCodeCache(),
		retained: newRetention(),
		gov:      gov,
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

			streamsRetained: r.Gauge(obs.MDapStreamsRetained),
			streamsParked:   r.Counter(obs.MDapStreamsParked),
			streamResumes:   r.Counter(obs.MDapStreamResumes),
			replayedBytes:   r.Counter(obs.MDapStreamReplayedBytes),
			retainExpired:   r.Counter(obs.MDapStreamRetainExpired),
			windowEvicted:   r.Counter(obs.MDapStreamWindowEvicted),

			invalidateRequests: r.Counter(obs.MDapCacheInvalidateRequests),
			invalidateDropped:  r.Counter(obs.MDapCacheInvalidateDropped),
		},
	}
}

// Metrics returns the server's registry (SHOW METRICS payload).
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// Governor returns the server's shared query-memory governor, or nil
// when Exec.MemBudgetBytes left the executor ungoverned.
func (s *Server) Governor() *exec.Governor { return s.gov }

// CacheStats reports cumulative code-cache behaviour.
func (s *Server) CacheStats() (hits, misses int64) { return s.cache.stats() }

// HasClass reports whether the exact class release (by content digest)
// is currently cached — rollout tests use it to check that a canary
// deployed by digest, and that a rollback's invalidation landed.
func (s *Server) HasClass(name, checksum string) bool { return s.cache.has(name, checksum) }

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

// cacheVersionCap bounds how many release blobs of one class a DAP
// retains at once; past it the oldest-loaded version is evicted.
const cacheVersionCap = 8

// codeCache holds loaded classes across sessions — the code-caching
// future-work extension of section 3.6. It is two-level: class name →
// content digest → loaded program, so different releases of the same
// operator coexist (a canary query and an active query may run
// concurrently without clobbering each other's bytecode) and a rollback
// can withdraw exactly one release by digest.
type codeCache struct {
	mu      sync.RWMutex
	classes map[string]map[string]*loadedClass
	hits    int64
	misses  int64
}

type loadedClass struct {
	prog     *vm.Program
	checksum string
	loadSeq  int64 // monotonic load order, for version eviction
}

func newCodeCache() *codeCache {
	return &codeCache{classes: make(map[string]map[string]*loadedClass)}
}

// get resolves a loaded class. A non-empty checksum demands that exact
// release; an empty checksum (legacy fragments without code refs)
// accepts the most recently loaded version.
func (c *codeCache) get(name, checksum string) (*loadedClass, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	versions := c.classes[strings.ToLower(name)]
	if len(versions) == 0 {
		return nil, false
	}
	if checksum != "" {
		lc, ok := versions[checksum]
		return lc, ok
	}
	var newest *loadedClass
	for _, lc := range versions {
		if newest == nil || lc.loadSeq > newest.loadSeq {
			newest = lc
		}
	}
	return newest, true
}

func (c *codeCache) put(p *vm.Program) *loadedClass {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(p.Name)
	versions := c.classes[key]
	if versions == nil {
		versions = make(map[string]*loadedClass)
		c.classes[key] = versions
	}
	var seq int64
	for _, lc := range versions {
		if lc.loadSeq > seq {
			seq = lc.loadSeq
		}
	}
	lc := &loadedClass{prog: p, checksum: p.Checksum(), loadSeq: seq + 1}
	versions[lc.checksum] = lc
	for len(versions) > cacheVersionCap {
		oldest := ""
		for d, v := range versions {
			if oldest == "" || v.loadSeq < versions[oldest].loadSeq {
				oldest = d
			}
		}
		delete(versions, oldest)
	}
	return lc
}

// needs reports whether the referenced class release must be shipped,
// and updates hit/miss counters. The hit test is by exact content
// digest: holding some other release of the class does not satisfy it.
func (c *codeCache) needs(ref core.CodeRef, disabled bool) bool {
	if disabled {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.classes[strings.ToLower(ref.Name)][ref.Checksum]; ok {
		c.hits++
		return false
	}
	c.misses++
	return true
}

// invalidate drops every cached blob whose digest appears in digests
// (any class), returning how many were dropped.
func (c *codeCache) invalidate(digests []string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for _, d := range digests {
		for key, versions := range c.classes {
			if _, ok := versions[d]; ok {
				delete(versions, d)
				dropped++
				if len(versions) == 0 {
					delete(c.classes, key)
				}
			}
		}
	}
	return dropped
}

// has reports whether an exact class release is cached.
func (c *codeCache) has(name, checksum string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.classes[strings.ToLower(name)][checksum]
	return ok
}

func (c *codeCache) stats() (hits, misses int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits, c.misses
}

// vmBinder binds plan operators against the DAP's loaded classes. This is
// the only way a DAP can evaluate user-defined operators: if the class
// was never shipped, binding fails. refs pins each class name to the
// content digest the fragment's code refs named, so a query always
// executes exactly the release it was planned (or canaried) against,
// even while another release of the same operator is cached.
type vmBinder struct {
	cache    *codeCache
	refs     map[string]string // lower class name → content digest
	machine  *vm.Machine
	limits   vm.Limits
	machines []*vm.Machine // every machine created for this fragment
}

// resolve looks up the release the fragment pinned for name.
func (b *vmBinder) resolve(name string) (*loadedClass, bool) {
	return b.cache.get(name, b.refs[strings.ToLower(name)])
}

// runCounts sums invocations and executed bytecode instructions across
// every machine the binder created (the shared scalar machine plus one
// per aggregate).
func (b *vmBinder) runCounts() (runs, instrs int64) {
	for _, m := range b.machines {
		runs += m.FastRuns
		instrs += m.Instrs
	}
	return runs, instrs
}

// BindScalar implements core.OpBinder.
func (b *vmBinder) BindScalar(name string, ret types.Kind) (core.ScalarFn, error) {
	lc, ok := b.resolve(name)
	if !ok {
		return nil, fmt.Errorf("dap: class %s not loaded (code shipping required)", name)
	}
	s, err := ops.NewVMScalar(b.machine, lc.prog, ret)
	if err != nil {
		return nil, err
	}
	return s.Call, nil
}

// BindAggregate implements core.OpBinder.
func (b *vmBinder) BindAggregate(name string, ret types.Kind) (core.AggFn, error) {
	lc, ok := b.resolve(name)
	if !ok {
		return nil, fmt.Errorf("dap: class %s not loaded (code shipping required)", name)
	}
	// Each aggregate instance gets its own machine so per-group state
	// and stacks never interleave.
	m := vm.New(b.limits)
	b.machines = append(b.machines, m)
	return ops.NewVMAggregate(m, lc.prog, ret)
}
