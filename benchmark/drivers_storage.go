package main

import (
	"fmt"

	"mocha/internal/sequoia"
	"mocha/internal/storage"
)

// smallPoolFrames is a buffer pool smaller than the Graphs heap file
// (16 x 8 KiB = 128 KiB against ~1.5 MB at scale 0.05), so every scan
// evicts: the larger-than-cache case. The workload tables use the
// 512-frame default, which holds Graphs entirely: the fits-in-cache case.
const smallPoolFrames = 16

// scanTable drains one full scan and returns rows and bytes read.
func scanTable(tbl *storage.Table) (rows, bytes int64, err error) {
	it, err := tbl.Scan()
	if err != nil {
		return 0, 0, err
	}
	for {
		t, _, err := it.Next()
		if err != nil {
			return 0, 0, err
		}
		if t == nil {
			return rows, it.BytesRead, nil
		}
		rows++
	}
}

// driveStorageScan times heap scans through the buffer pool: Graphs
// (small records), Rasters (overflow chains), and Graphs again through a
// pool smaller than the table. Hit shares come from the pool's own
// counters over the timed scans.
func driveStorageScan(c *driverCtx) (map[string]float64, error) {
	out := make(map[string]float64)
	timeScan := func(tbl *storage.Table, wantRows int) (rowsPerS, mbS, hitShare float64, err error) {
		pool := tbl.Pool()
		hits, misses := pool.Hits, pool.Misses
		var rows, bytes int64
		n, el, err := c.loop(func() error {
			var err error
			rows, bytes, err = scanTable(tbl)
			return err
		})
		if err != nil {
			return 0, 0, 0, err
		}
		if rows != int64(wantRows) {
			return 0, 0, 0, fmt.Errorf("scanned %d rows, generated %d", rows, wantRows)
		}
		dh, dm := float64(pool.Hits-hits), float64(pool.Misses-misses)
		return perS(rows, n, el), mbPerS(bytes, n, el), dh / (dh + dm), nil
	}

	graphs, _ := c.ds.stores[0].Table("Graphs")
	rasters, _ := c.ds.stores[0].Table("Rasters")
	var err error
	if out["storage.scan_graphs_rows_s"], out["storage.scan_graphs_mb_s"], out["storage.pool_hit_share"], err =
		timeScan(graphs, c.ds.cfg.GraphRows); err != nil {
		return nil, err
	}
	if _, out["storage.scan_rasters_mb_s"], _, err = timeScan(rasters, c.ds.cfg.RasterRows); err != nil {
		return nil, err
	}

	small, err := storage.OpenStore("", smallPoolFrames)
	if err != nil {
		return nil, err
	}
	if err := sequoia.GenerateGraphs(small, c.ds.cfg); err != nil {
		return nil, err
	}
	sg, _ := small.Table("Graphs")
	if out["storage.scan_graphs_smallpool_rows_s"], _, out["storage.pool_hit_share_smallpool"], err =
		timeScan(sg, c.ds.cfg.GraphRows); err != nil {
		return nil, err
	}
	return out, nil
}

// driveBTree times B+tree point lookups over as many keys as Graphs has
// rows.
func driveBTree(c *driverCtx) (map[string]float64, error) {
	const perIter = 1000
	keys := int64(c.ds.cfg.GraphRows)
	bt, err := storage.CreateBTree(storage.NewBufferPool(storage.NewMemDisk(), 1024))
	if err != nil {
		return nil, err
	}
	for k := int64(0); k < keys; k++ {
		if err := bt.Insert(k, uint64(k)); err != nil {
			return nil, err
		}
	}
	var next int64
	n, el, err := c.loop(func() error {
		for i := 0; i < perIter; i++ {
			// A fixed odd stride visits the keys in a scattered order.
			next = (next + 7919) % keys
			vals, err := bt.Search(next)
			if err != nil {
				return err
			}
			if len(vals) != 1 || vals[0] != uint64(next) {
				return fmt.Errorf("key %d found %v", next, vals)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"storage.btree_search_ns": nsPer(int64(n)*perIter, el)}, nil
}
