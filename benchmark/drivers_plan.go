package main

import (
	"fmt"
	"net"

	"mocha/internal/core"
	"mocha/internal/qpc"
	"mocha/internal/sqlparser"
	"mocha/pkg/mocha"
)

// planCluster stands up an unshaped cluster over the dataset, for the
// drivers that need its catalog or run whole queries.
func (c *driverCtx) planCluster(s mocha.Strategy) (*mocha.Cluster, error) {
	return c.ds.cluster(mocha.ClusterConfig{Strategy: s})
}

// driveFrontend times the fixed per-query front end, one stage at a
// time: parse and bind averaged over the six statements, Optimizer.Plan
// per statement (auto placement), and a release lookup by digest.
func driveFrontend(c *driverCtx) (map[string]float64, error) {
	cl, err := c.planCluster(mocha.StrategyAuto)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	cat := cl.Catalog()
	out := make(map[string]float64)
	stmts := int64(len(c.ds.sql))

	n, el, err := c.loop(func() error {
		for _, sql := range c.ds.sql {
			if _, err := sqlparser.Parse(sql); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["sqlparser.parse_us"] = nsPer(int64(n)*stmts, el) / 1e3

	var parsed []*sqlparser.Select
	for _, sql := range c.ds.sql {
		sel, err := sqlparser.Parse(sql)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, sel)
	}
	n, el, err = c.loop(func() error {
		for _, sel := range parsed {
			if _, err := core.Bind(sel, cat); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["core.bind_us"] = nsPer(int64(n)*stmts, el) / 1e3

	opt := core.NewOptimizer(cat)
	for i, sel := range parsed {
		bound, err := core.Bind(sel, cat)
		if err != nil {
			return nil, err
		}
		n, el, err = c.loop(func() error {
			plan, err := opt.Plan(bound)
			if err == nil && len(plan.Fragments) == 0 {
				err = fmt.Errorf("plan of Q%d has no fragments", i+1)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		out["core.plan_us_"+queryLabels[i]] = nsPer(int64(n), el) / 1e3
	}

	const perIter = 1000
	repo := cat.Repo()
	rel, ok := repo.ActiveRelease("AvgEnergy")
	if !ok {
		return nil, fmt.Errorf("no active AvgEnergy release")
	}
	n, el, err = c.loop(func() error {
		for i := 0; i < perIter; i++ {
			if _, ok := repo.Resolve("AvgEnergy", rel.Digest); !ok {
				return fmt.Errorf("release %s does not resolve", rel.Digest)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["catalog.resolve_release_ns"] = nsPer(int64(n)*perIter, el)
	return out, nil
}

// drivePrepare times qpc.Server.Prepare (parse + bind + plan behind the
// server's front door), averaged over the six statements.
func drivePrepare(c *driverCtx) (map[string]float64, error) {
	cl, err := c.planCluster(mocha.StrategyAuto)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	srv := qpc.New(qpc.Config{
		Cat:     cl.Catalog(),
		Dial:    func(addr string) (net.Conn, error) { return nil, fmt.Errorf("prepare driver dials nothing") },
		Metrics: cl.Metrics(),
	})
	defer srv.Close()
	n, el, err := c.loop(func() error {
		for _, sql := range c.ds.sql {
			if _, err := srv.Prepare(sql); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"qpc.prepare_us": nsPer(int64(n)*int64(len(c.ds.sql)), el) / 1e3}, nil
}
