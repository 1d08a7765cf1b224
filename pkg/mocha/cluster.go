package mocha

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"mocha/internal/catalog"
	"mocha/internal/dap"
	"mocha/internal/exec"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/ops"
	"mocha/internal/qpc"
	"mocha/internal/storage"
	"mocha/internal/vm"
)

// ClusterConfig configures an embedded deployment.
type ClusterConfig struct {
	// Shaper models the network links between sites (nil = unshaped).
	// Use netsim.Ethernet10Mbps to reproduce the paper's testbed.
	Shaper *netsim.Shaper
	// Strategy is the operator-placement policy (default StrategyAuto).
	Strategy Strategy
	// Registry is the operator library (default BuiltinOperators()).
	Registry *ops.Registry
	// DisableDAPCodeCache forces classes to be re-shipped every query.
	DisableDAPCodeCache bool
	// Exec tunes the shared operator-tree executor on both the QPC and
	// the DAPs: Exec.MemBudgetBytes > 0 gives the QPC and every DAP a
	// query-memory governor of that size, and joins and aggregates that
	// overflow it spill to disk; zero leaves them ungoverned.
	Exec exec.Tuning
	// MaxConcurrent bounds the queries executing at once on the QPC
	// (admission control). Zero means unbounded.
	MaxConcurrent int
	// QueueDepth bounds the queries waiting for an admission slot; the
	// queue drains with per-tenant round-robin fairness. Zero rejects
	// immediately once MaxConcurrent queries are running.
	QueueDepth int
	// QueryTimeout bounds each query end to end (zero = unbounded).
	QueryTimeout time.Duration
	// FrameTimeout bounds each frame read/write on QPC↔DAP links, so a
	// dead replica fails a stream (triggering replica failover on
	// partitioned tables) instead of hanging it. Zero = unbounded.
	FrameTimeout time.Duration
	// Retry configures the QPC's retry-with-backoff for idempotent
	// phases. Zero value takes the qpc defaults.
	Retry RetryPolicy
	// Breaker configures the per-site circuit breaker. An open breaker
	// fails retries against the site fast and never changes a plan; with
	// partitioned tables it demotes the replica in PickReplica and a
	// broken stream is re-placed at a sibling. Zero value takes the qpc
	// defaults.
	Breaker BreakerPolicy
	// HeartbeatInterval, when positive, runs a background prober that
	// handshakes every site at this interval, so dead replicas are
	// demoted between queries rather than discovered by one. Stop it
	// with Close. Zero disables heartbeating.
	HeartbeatInterval time.Duration
	// Rollout tunes the QPC's canary-release controller (divergence
	// thresholds, auto-promotion). Zero value takes the qpc defaults.
	Rollout RolloutPolicy
	// Logf receives diagnostics from all components.
	Logf func(format string, args ...any)
}

// Tuning re-exports the executor tuning knobs for cluster configuration.
type Tuning = exec.Tuning

// Shaper re-exports the link model type for cluster configuration.
type Shaper = netsim.Shaper

// Governor re-exports the query-memory governor for budget inspection
// in tests and tools (granted bytes, high-water mark, spill counters).
type Governor = exec.Governor

// FaultPlan re-exports the network fault-injection plan for chaos and
// recovery testing against a cluster's in-memory links.
type FaultPlan = netsim.FaultPlan

// RetryPolicy re-exports the QPC retry knobs for cluster configuration.
type RetryPolicy = qpc.RetryPolicy

// BreakerPolicy re-exports the per-site circuit-breaker knobs for
// cluster configuration.
type BreakerPolicy = qpc.BreakerPolicy

// RolloutPolicy re-exports the QPC canary-rollout knobs for cluster
// configuration.
type RolloutPolicy = qpc.RolloutPolicy

// RolloutAbortedError re-exports the typed auto-rollback evidence.
type RolloutAbortedError = qpc.RolloutAbortedError

// Release re-exports a code-repository release record.
type Release = catalog.Release

// HealthRegistry re-exports the QPC's per-site health/breaker registry
// (operational overrides like ForceOpen, and replica demotion state).
type HealthRegistry = qpc.HealthRegistry

// Ethernet10Mbps is the paper's testbed link model.
func Ethernet10Mbps() *Shaper { return netsim.Ethernet10Mbps }

// Cluster is an embedded MOCHA deployment: one QPC plus DAP-fronted data
// sites connected by an in-memory network.
type Cluster struct {
	cfg     ClusterConfig
	network *netsim.Network
	catalog *catalog.Catalog
	qpc     *qpc.Server
	// metrics is the cluster's private registry: every component (QPC,
	// DAPs, network, wire connections) reports into it, keeping embedded
	// clusters isolated from each other and from obs.Default().
	metrics *obs.Registry

	mu        sync.Mutex
	listeners []net.Listener
	daps      map[string]*dap.Server
	stores    map[string]*storage.Store
	drivers   map[string]dap.AccessDriver
	qpcAddr   string
}

// NewCluster creates an empty cluster (no sites yet).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Registry == nil {
		cfg.Registry = ops.Builtins()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cat := catalog.New(cfg.Registry, catalog.NewRepositoryFromRegistry(cfg.Registry))
	cl := &Cluster{
		cfg:     cfg,
		network: netsim.NewNetwork(cfg.Shaper),
		catalog: cat,
		metrics: obs.NewRegistry(),
		daps:    make(map[string]*dap.Server),
		stores:  make(map[string]*storage.Store),
		drivers: make(map[string]dap.AccessDriver),
	}
	cl.network.Instrument(cl.metrics)
	cl.qpc = qpc.New(cl.qpcConfig(cfg.Strategy))
	// Expose the QPC to in-process wire clients.
	l, err := cl.network.Listen("qpc")
	if err != nil {
		return nil, err
	}
	cl.qpcAddr = "qpc"
	cl.listeners = append(cl.listeners, l)
	// The cluster owns the accept loop so each connection is served by
	// whichever QPC is current — SetStrategy swaps the instance without
	// disturbing the address wire clients dial.
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				if err := cl.qpcServer().ServeConn(nc); err != nil {
					cl.cfg.Logf("qpc: client session: %v", err)
				}
			}()
		}
	}()
	return cl, nil
}

// qpcConfig assembles a QPC configuration from the cluster's knobs.
func (cl *Cluster) qpcConfig(s Strategy) qpc.Config {
	return qpc.Config{
		Cat:               cl.catalog,
		Dial:              cl.network.Dial,
		Strategy:          s,
		Exec:              cl.cfg.Exec,
		MaxConcurrent:     cl.cfg.MaxConcurrent,
		QueueDepth:        cl.cfg.QueueDepth,
		QueryTimeout:      cl.cfg.QueryTimeout,
		FrameTimeout:      cl.cfg.FrameTimeout,
		Retry:             cl.cfg.Retry,
		Breaker:           cl.cfg.Breaker,
		HeartbeatInterval: cl.cfg.HeartbeatInterval,
		Rollout:           cl.cfg.Rollout,
		Metrics:           cl.metrics,
		Logf:              cl.cfg.Logf,
	}
}

// qpcServer returns the current QPC instance under the cluster lock.
func (cl *Cluster) qpcServer() *qpc.Server {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.qpc
}

// Health exposes the QPC's per-site breaker registry: breaker state,
// ForceOpen/Reset overrides, and the replica load balancer's view.
func (cl *Cluster) Health() *HealthRegistry { return cl.qpcServer().Health() }

// Catalog exposes the cluster's metadata catalog.
func (cl *Cluster) Catalog() *catalog.Catalog { return cl.catalog }

// AddSite starts a DAP for a data site backed by the given store. The
// site's tables still need RegisterTable to become queryable.
func (cl *Cluster) AddSite(name string, store *storage.Store) error {
	if err := cl.AddDriverSite(name, &dap.StorageDriver{Store: store}); err != nil {
		return err
	}
	cl.mu.Lock()
	cl.stores[name] = store
	cl.mu.Unlock()
	return nil
}

// AddDriverSite starts a DAP over any access driver — the embedded
// store, a flat-file directory (dap.FileDriver) or an XML repository
// (dap.XMLDriver). This is how sources with no query language of their
// own join the middleware (sections 3.2 and 3.4 of the paper).
func (cl *Cluster) AddDriverSite(name string, driver dap.AccessDriver) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if _, dup := cl.daps[name]; dup {
		return fmt.Errorf("mocha: site %q already exists", name)
	}
	addr := "dap-" + name
	l, err := cl.network.Listen(addr)
	if err != nil {
		return err
	}
	srv := dap.New(dap.Config{
		Site:             name,
		Driver:           driver,
		DisableCodeCache: cl.cfg.DisableDAPCodeCache,
		Exec:             cl.cfg.Exec,
		Metrics:          cl.metrics,
		Logf:             cl.cfg.Logf,
	})
	go srv.Serve(l)
	cl.listeners = append(cl.listeners, l)
	cl.daps[name] = srv
	cl.drivers[name] = driver
	cl.catalog.AddSite(&catalog.Site{Name: name, Addr: addr})
	return nil
}

// NewStore creates a fresh in-memory store for a site.
func NewStore() (*storage.Store, error) { return storage.OpenStore("", 0) }

// RegisterTable computes statistics for a site's table (through its
// access driver) and registers it in the catalog.
func (cl *Cluster) RegisterTable(site, table string) error {
	cl.mu.Lock()
	driver, ok := cl.drivers[site]
	cl.mu.Unlock()
	if !ok {
		return fmt.Errorf("mocha: unknown site %q", site)
	}
	schema, err := driver.TableSchema(table)
	if err != nil {
		return fmt.Errorf("mocha: site %q: %w", site, err)
	}
	stats, err := computeDriverStats(driver, table, schema)
	if err != nil {
		return err
	}
	return cl.catalog.AddTable(&catalog.TableDef{
		Name:   table,
		URI:    "mocha://" + site + "/" + table,
		Site:   site,
		Schema: schema,
		Stats:  stats,
	})
}

// computeDriverStats measures a table through its access driver.
func computeDriverStats(driver dap.AccessDriver, table string, schema Schema) (catalog.TableStats, error) {
	return catalog.ScanStats(schema, func(cols []int, emit func([][]byte) error) error {
		return driver.Scan(table, cols, emit)
	})
}

// ComputeTableStats scans a table to measure row count and average
// per-column wire sizes — the statistics the optimizer's VRF needs.
func ComputeTableStats(tbl *storage.Table) (catalog.TableStats, error) {
	return catalog.ScanStats(tbl.Schema(), tbl.Records)
}

// SetSelectivity records a predicate selectivity estimate in the catalog.
func (cl *Cluster) SetSelectivity(operator, table string, sf float64) {
	cl.catalog.SetSelectivity(operator, table, sf)
}

// RegisterOperator is the administrator path of section 3.6: compile and
// add a new (or upgraded) operator to the library and its class to the
// well-known code repository. The operator is usable in the next query —
// remote DAPs receive its code automatically, with no restarts.
func (cl *Cluster) RegisterOperator(def *OperatorDef) error {
	if err := cl.cfg.Registry.Register(def); err != nil {
		return err
	}
	if _, err := cl.catalog.Repo().PutProgram(def.Program()); err != nil {
		return err
	}
	return nil
}

// StageOperator assembles an upgraded operator's MVM source and stages
// it as a new, inactive release of its class in the well-known code
// repository under the given tag. Queries keep running the class's
// active release until a rollout (or promotion) routes traffic to the
// staged one.
func (cl *Cluster) StageOperator(def *OperatorDef, tag string) (*Release, error) {
	if def.Source == "" {
		return nil, fmt.Errorf("mocha: operator %s has no MVM source", def.Name)
	}
	p, err := vm.Assemble(def.Source)
	if err != nil {
		return nil, err
	}
	return cl.catalog.Repo().StageProgram(p, tag)
}

// Rollout starts canarying a staged release: the given fraction of the
// queries whose plans ship the class route to it, each checked against
// the active release's behaviour, with auto-rollback on divergence.
func (cl *Cluster) Rollout(class, tag string, fraction float64) error {
	_, err := cl.qpcServer().StartRollout(class, tag, fraction)
	return err
}

// AbortRollout manually rolls a running rollout back.
func (cl *Cluster) AbortRollout(class, reason string) error {
	_, err := cl.qpcServer().AbortRollout(class, reason)
	return err
}

// PromoteRollout manually promotes a running rollout's canary release
// to active.
func (cl *Cluster) PromoteRollout(class string) error {
	_, err := cl.qpcServer().PromoteRollout(class)
	return err
}

// RolloutReport renders the QPC's SHOW ROLLOUTS text.
func (cl *Cluster) RolloutReport() string { return cl.qpcServer().RolloutReport() }

// RolloutStatus reports a class's latest rollout status ("running",
// "aborted", "promoted"), or "" when none was started.
func (cl *Cluster) RolloutStatus(class string) string { return cl.qpcServer().RolloutStatus(class) }

// RolloutAbort returns the typed rollback evidence for a class's latest
// rollout, or nil when it has not aborted.
func (cl *Cluster) RolloutAbort(class string) *RolloutAbortedError {
	return cl.qpcServer().RolloutAbort(class)
}

// ReleasesReport renders the release history of one class (or of the
// whole repository when class is empty).
func (cl *Cluster) ReleasesReport(class string) (string, error) {
	return cl.qpcServer().ReleasesReport(class)
}

// DAPHasClass reports whether a site's code cache currently holds the
// exact (name, checksum) release — version-consistency checks in tests.
func (cl *Cluster) DAPHasClass(site, name, checksum string) (bool, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	srv, ok := cl.daps[site]
	if !ok {
		return false, fmt.Errorf("mocha: unknown site %q", site)
	}
	return srv.HasClass(name, checksum), nil
}

// DiscoverTables asks a site's DAP to enumerate its tables (the
// procedural interface of section 3.2) and registers every table that is
// not yet in the catalog. It returns the names it registered.
func (cl *Cluster) DiscoverTables(site string) ([]string, error) {
	names, err := cl.qpcServer().ProcCall(site, "list-tables")
	if err != nil {
		return nil, err
	}
	var added []string
	for _, name := range names {
		if _, exists := cl.catalog.Table(name); exists {
			continue
		}
		if err := cl.RegisterTable(site, name); err != nil {
			return added, err
		}
		added = append(added, name)
	}
	return added, nil
}

// Execute runs a query through the embedded QPC, materializing results.
func (cl *Cluster) Execute(sql string) (*Result, error) { return cl.qpcServer().Execute(sql) }

// ExecuteContext runs a query under ctx; cancelling it aborts all of
// the query's remote streams.
func (cl *Cluster) ExecuteContext(ctx context.Context, sql string) (*Result, error) {
	return cl.qpcServer().ExecuteContext(ctx, sql)
}

// Explain returns the optimizer's plan for a query.
func (cl *Cluster) Explain(sql string) (string, error) { return cl.qpcServer().Explain(sql) }

// ExplainAnalyze executes a query (discarding rows) and returns the plan
// annotated with the measured breakdown and cross-site span timeline.
func (cl *Cluster) ExplainAnalyze(sql string) (string, error) {
	return cl.qpcServer().ExplainAnalyze(context.Background(), sql)
}

// Metrics exposes the cluster's private metrics registry.
func (cl *Cluster) Metrics() *obs.Registry { return cl.metrics }

// QPCGovernor returns the QPC's query-memory governor, or nil when
// Exec.MemBudgetBytes left the executor ungoverned.
func (cl *Cluster) QPCGovernor() *Governor { return cl.qpcServer().Governor() }

// DAPGovernor returns a site's query-memory governor (nil when the
// executor is ungoverned), or an error for an unknown site.
func (cl *Cluster) DAPGovernor(site string) (*Governor, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	srv, ok := cl.daps[site]
	if !ok {
		return nil, fmt.Errorf("mocha: unknown site %q", site)
	}
	return srv.Governor(), nil
}

// SetFault installs (or, with a nil plan, clears) a fault-injection
// plan on the network link to a site's DAP.
func (cl *Cluster) SetFault(site string, plan *FaultPlan) {
	cl.network.SetFault("dap-"+site, plan)
}

// SetStrategy changes the placement policy for subsequent queries. The
// replacement QPC reports into the same metrics registry, so counters
// accumulate across strategy changes.
func (cl *Cluster) SetStrategy(s Strategy) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.qpc.Close() // stop the replaced instance's heartbeat prober
	cl.qpc = qpc.New(cl.qpcConfig(s))
}

// Connect opens a wire-protocol client session to the embedded QPC,
// exercising the same path a remote client uses.
func (cl *Cluster) Connect() (*Client, error) {
	nc, err := cl.network.Dial(cl.qpcAddr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc)
}

// ConnectTenant opens a wire-protocol session that identifies itself
// with a tenant name in the HELLO handshake; the QPC's admission queue
// uses it for round-robin fairness between tenants.
func (cl *Cluster) ConnectTenant(tenant string) (*Client, error) {
	nc, err := cl.network.Dial(cl.qpcAddr)
	if err != nil {
		return nil, err
	}
	return NewClientTenant(nc, tenant)
}

// DAPCacheStats reports one site's code-cache hits and misses.
func (cl *Cluster) DAPCacheStats(site string) (hits, misses int64, err error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	srv, ok := cl.daps[site]
	if !ok {
		return 0, 0, fmt.Errorf("mocha: unknown site %q", site)
	}
	hits, misses = srv.CacheStats()
	return hits, misses, nil
}

// Close shuts the cluster down.
func (cl *Cluster) Close() {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.qpc.Close()
	for _, l := range cl.listeners {
		l.Close()
	}
	for _, st := range cl.stores {
		st.Close()
	}
}
