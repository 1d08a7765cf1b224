package exec

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"mocha/internal/types"
)

// buildEnt is one build-side row plus its global insertion sequence.
// The sequence makes the spill path's output order reproducible: the
// in-memory probe scans each hash bucket in insertion order, which is
// increasing sequence, so sorting spilled matches by (probe arrival,
// build sequence) reconstructs the exact in-memory output order.
type buildEnt struct {
	seq uint64
	row types.Tuple
}

// HashJoin joins its left (probe) input against a hash table built from
// its build input. Open starts the build in a background goroutine —
// cascading Opens therefore start every build side of a multi-join tree
// concurrently, each consuming its own (prefetched) stream — and the
// first NextBatch waits for the build to finish before probing. A join
// constructed with serial set builds inline at Open instead; LowerPlan
// never sets it.
//
// When a memory grant is attached, the build accounts every batch
// against it. On refusal the join switches to a Grace-style spill: the
// table drains into hash-partitioned temp runs, the probe input is
// partitioned the same way, and each build partition is then re-loaded
// in grant-sized chunks, probing its probe partition once per chunk.
// Joined rows go to runs tagged (probe arrival, build sequence); a
// final k-way merge over the runs emits rows byte-identical, and in
// identical order, to the in-memory path.
//
// Self time is insert work plus probe work, measured directly — time
// blocked pulling child batches is never included, so the historical
// negative network-adjusted build durations cannot occur.
type HashJoin struct {
	base
	left, build         Operator
	leftCol, rightCol   int
	leftDesc, rightDesc string
	serial              bool
	grant               *Grant
	batchRows           int

	ctx       context.Context
	table     map[uint64][]buildEnt
	buildRows int64
	buildSelf time.Duration
	buildErr  error
	done      chan struct{}
	started   bool
	joined    bool

	// Spill state (nil / zero while the build fits in memory).
	spilled    bool
	buildSeq   uint64
	heldBuild  int64 // grant bytes backing the in-memory table
	acctFixed  int64 // accounted partition-buffer bytes (best-effort)
	buildParts []*spillFile
	probeParts []*spillFile
	runs       []*spillFile
	merge      *mergeHeap
	merged     bool
}

// NewHashJoin creates a join step. leftDesc and rightDesc describe the
// key columns (fragment, column index, schema column name) for kind
// errors. grant, when non-nil, bounds the build's memory and arms the
// spill path; batchRows sizes spill-path output batches (<= 0: default).
func NewHashJoin(name string, left, build Operator, leftCol, rightCol int, leftDesc, rightDesc string, serial bool, grant *Grant, batchRows int) *HashJoin {
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	h := &HashJoin{
		left: left, build: build,
		leftCol: leftCol, rightCol: rightCol,
		leftDesc: leftDesc, rightDesc: rightDesc,
		serial: serial, grant: grant, batchRows: batchRows,
	}
	h.stats.Name = name
	return h
}

func (h *HashJoin) Open(ctx context.Context) error {
	if err := h.left.Open(ctx); err != nil {
		return err
	}
	if err := h.build.Open(ctx); err != nil {
		return err
	}
	h.ctx = ctx
	h.table = make(map[uint64][]buildEnt)
	h.done = make(chan struct{})
	h.started = true
	if h.serial {
		h.runBuild()
		return h.buildErr
	}
	go h.runBuild()
	return nil
}

// runBuild materializes the build side into the hash table, or into
// hash-partitioned spill runs once the memory grant refuses. Writes to
// the join's fields happen-before any probe via the done channel. The
// per-batch context check stops the goroutine promptly when the query
// is cancelled mid-build, so Close never waits on a dead query's feed.
func (h *HashJoin) runBuild() {
	defer close(h.done)
	for {
		if err := h.ctx.Err(); err != nil {
			h.buildErr = err
			return
		}
		batch, err := h.build.NextBatch()
		if err != nil {
			h.buildErr = err
			return
		}
		if batch == nil {
			break
		}
		t0 := time.Now()
		if !h.spilled {
			need := batchMemBytes(batch)
			if h.grant.Try(need) {
				h.heldBuild += need
				for _, tup := range batch {
					hk, err := h.buildHash(tup)
					if err != nil {
						h.buildSelf += time.Since(t0)
						h.buildErr = err
						return
					}
					h.table[hk] = append(h.table[hk], buildEnt{seq: h.buildSeq, row: detach(tup)})
					h.buildSeq++
				}
				h.buildRows += int64(len(batch))
				h.buildSelf += time.Since(t0)
				continue
			}
			if err := h.switchToSpill(); err != nil {
				h.buildSelf += time.Since(t0)
				h.buildErr = err
				return
			}
		}
		for _, tup := range batch {
			hk, err := h.buildHash(tup)
			if err != nil {
				h.buildSelf += time.Since(t0)
				h.buildErr = err
				return
			}
			rec := spillRec{seqA: h.buildSeq, tup: tup}
			h.buildSeq++
			if err := h.buildParts[hk%spillPartitions].write(rec); err != nil {
				h.buildSelf += time.Since(t0)
				h.buildErr = err
				return
			}
		}
		h.buildRows += int64(len(batch))
		h.buildSelf += time.Since(t0)
	}
	if h.spilled {
		for _, sf := range h.buildParts {
			if err := sf.flush(); err != nil {
				h.buildErr = err
				return
			}
			h.noteRun(sf)
		}
	}
}

// buildHash validates the build key's kind and returns its hash.
func (h *HashJoin) buildHash(tup types.Tuple) (uint64, error) {
	k, ok := tup[h.rightCol].(types.Small)
	if !ok {
		return 0, fmt.Errorf("qpc: join key of kind %v at %s", tup[h.rightCol].Kind(), h.rightDesc)
	}
	return k.Hash(), nil
}

// switchToSpill moves the build out of memory: it opens the partition
// files, drains the table into them tagged with build sequence, and
// returns the table's grant bytes to the pool. The partition buffers
// are accounted best-effort: bulk data is strictly governed, but the
// fixed bufio scratch (a few KB per spilling operator) must never turn
// a spill into a failure or a blocking wait — the overflow moment is
// exactly when the pool is full, and blocking while the query's own
// upstream operators hold memory could deadlock the pool.
func (h *HashJoin) switchToSpill() error {
	fixed := int64(spillPartitions * spillBufBytes)
	if !h.grant.Try(fixed) {
		// Give the table's bytes back first (the table is about to be
		// drained anyway) and retry once.
		h.grant.Release(h.heldBuild)
		h.heldBuild = 0
		if !h.grant.Try(fixed) {
			fixed = 0
		}
	}
	h.acctFixed += fixed
	for i := 0; i < spillPartitions; i++ {
		sf, err := newSpillFile()
		if err != nil {
			return err
		}
		h.buildParts = append(h.buildParts, sf)
	}
	for hk, bucket := range h.table {
		sf := h.buildParts[hk%spillPartitions]
		for _, ent := range bucket {
			if err := sf.write(spillRec{seqA: ent.seq, tup: ent.row}); err != nil {
				return err
			}
		}
	}
	h.table = nil
	h.grant.Release(h.heldBuild)
	h.heldBuild = 0
	h.spilled = true
	return nil
}

// noteRun folds one finished spill file into the operator's and the
// governor's spill accounting.
func (h *HashJoin) noteRun(sf *spillFile) {
	if sf.recs == 0 {
		return
	}
	h.stats.Spills++
	h.stats.SpillBytes += sf.bytes
	h.stats.SpillTuples += sf.recs
	h.grant.noteSpill(sf.bytes, sf.recs)
}

// waitBuild joins the build goroutine and folds its accounting in.
func (h *HashJoin) waitBuild() error {
	if h.joined {
		return h.buildErr
	}
	<-h.done
	h.joined = true
	h.stats.RowsIn += h.buildRows
	h.stats.Self += h.buildSelf
	return h.buildErr
}

func (h *HashJoin) NextBatch() ([]types.Tuple, error) {
	if err := h.waitBuild(); err != nil {
		return nil, err
	}
	if h.spilled {
		return h.nextSpilled()
	}
	for {
		in, err := h.left.NextBatch()
		if err != nil || in == nil {
			return nil, err
		}
		h.stats.RowsIn += int64(len(in))
		t0 := time.Now()
		var out []types.Tuple
		for _, lrow := range in {
			k, ok := lrow[h.leftCol].(types.Small)
			if !ok {
				h.timed(t0)
				return nil, fmt.Errorf("qpc: join key of kind %v at %s", lrow[h.leftCol].Kind(), h.leftDesc)
			}
			for _, ent := range h.table[k.Hash()] {
				if k.Equal(ent.row[h.rightCol]) {
					joined := make(types.Tuple, 0, len(lrow)+len(ent.row))
					joined = append(joined, lrow...)
					joined = append(joined, ent.row...)
					out = append(out, joined)
				}
			}
		}
		h.timed(t0)
		if len(out) > 0 {
			h.out(out)
			return out, nil
		}
	}
}

// nextSpilled runs the partitioned join on first call, then emits the
// merged runs in batches.
func (h *HashJoin) nextSpilled() ([]types.Tuple, error) {
	if !h.merged {
		t0 := time.Now()
		err := h.spillJoin()
		h.timed(t0)
		if err != nil {
			return nil, err
		}
		h.merged = true
	}
	defer h.timed(time.Now())
	out := make([]types.Tuple, 0, h.batchRows)
	for len(out) < h.batchRows {
		rec, ok, err := h.merge.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, rec.tup)
	}
	if len(out) == 0 {
		return nil, nil
	}
	h.out(out)
	return out, nil
}

// spillJoin partitions the probe input, joins every build partition in
// grant-sized chunks against its probe partition, and primes the final
// (probeSeq, buildSeq) merge over the output runs.
func (h *HashJoin) spillJoin() error {
	if err := h.partitionProbe(); err != nil {
		return err
	}
	for pi := 0; pi < spillPartitions; pi++ {
		if err := h.joinPartition(pi); err != nil {
			return err
		}
	}
	// The partition files are fully consumed: close them and give their
	// accounted buffer bytes back before sizing the merge.
	if err := closeSpillFiles(h.buildParts); err != nil {
		return err
	}
	if err := closeSpillFiles(h.probeParts); err != nil {
		return err
	}
	h.grant.Release(h.acctFixed)
	h.acctFixed = 0
	// The merge holds one reader buffer per run (best-effort accounted;
	// the partition buffers were just released, so this normally fits).
	h.grant.Try(int64(len(h.runs)) * spillBufBytes)
	m, err := newMergeHeap(h.runs, byProbeBuild)
	if err != nil {
		return err
	}
	h.merge = m
	return nil
}

// partitionProbe drains the probe input into hash partitions aligned
// with the build partitions, tagging each row with its arrival order.
func (h *HashJoin) partitionProbe() error {
	fixed := int64(spillPartitions * spillBufBytes)
	if !h.grant.Try(fixed) {
		fixed = 0 // best-effort: see switchToSpill
	}
	h.acctFixed += fixed
	for i := 0; i < spillPartitions; i++ {
		sf, err := newSpillFile()
		if err != nil {
			return err
		}
		h.probeParts = append(h.probeParts, sf)
	}
	var probeSeq uint64
	for {
		if err := h.ctx.Err(); err != nil {
			return err
		}
		in, err := h.left.NextBatch()
		if err != nil {
			return err
		}
		if in == nil {
			break
		}
		h.stats.RowsIn += int64(len(in))
		for _, lrow := range in {
			k, ok := lrow[h.leftCol].(types.Small)
			if !ok {
				return fmt.Errorf("qpc: join key of kind %v at %s", lrow[h.leftCol].Kind(), h.leftDesc)
			}
			rec := spillRec{seqA: probeSeq, tup: lrow}
			probeSeq++
			if err := h.probeParts[k.Hash()%spillPartitions].write(rec); err != nil {
				return err
			}
		}
	}
	for _, sf := range h.probeParts {
		if err := sf.flush(); err != nil {
			return err
		}
		h.noteRun(sf)
	}
	return nil
}

// joinPartition loads build partition pi in chunks that fit the grant,
// probing the matching probe partition once per chunk. Each chunk pass
// writes one output run already sorted by (probeSeq, buildSeq).
func (h *HashJoin) joinPartition(pi int) error {
	bp, pp := h.buildParts[pi], h.probeParts[pi]
	if err := bp.startRead(); err != nil {
		return err
	}
	var pending *spillRec
	pendingDone := false
	for !pendingDone || pending != nil {
		if err := h.ctx.Err(); err != nil {
			return err
		}
		// Load one chunk of build records under the grant.
		chunk := make(map[uint64][]buildEnt)
		var chunkBytes int64
		loaded := 0
		for {
			var rec spillRec
			if pending != nil {
				rec, pending = *pending, nil
			} else if pendingDone {
				break
			} else {
				var err error
				rec, err = bp.read()
				if err == io.EOF {
					pendingDone = true
					break
				}
				if err != nil {
					return err
				}
			}
			need := tupleMemBytes(rec.tup)
			if !h.grant.Try(need) {
				if loaded > 0 {
					pending = &rec
					break
				}
				// The chunk must hold at least one record to make
				// progress. A record bigger than the whole budget can
				// never fit; anything smaller is admitted unaccounted
				// (one record of slack, the pool is full right now).
				if need > h.grant.g.Budget() {
					h.grant.Release(chunkBytes)
					return &OverBudgetError{Op: h.stats.Name, Need: need, Budget: h.grant.g.Budget()}
				}
				need = 0
			}
			chunkBytes += need
			hk, err := h.buildHash(rec.tup)
			if err != nil {
				h.grant.Release(chunkBytes)
				return err
			}
			chunk[hk] = append(chunk[hk], buildEnt{seq: rec.seqA, row: rec.tup})
			loaded++
		}
		if loaded == 0 {
			h.grant.Release(chunkBytes)
			break
		}
		if err := h.probeChunk(pp, chunk); err != nil {
			h.grant.Release(chunkBytes)
			return err
		}
		h.grant.Release(chunkBytes)
	}
	return nil
}

// probeChunk rescans one probe partition against a loaded build chunk,
// writing joined rows to a fresh output run. Probe records arrive in
// probeSeq order and each row's matches are sorted by build sequence,
// so the run is born sorted by (probeSeq, buildSeq).
func (h *HashJoin) probeChunk(pp *spillFile, chunk map[uint64][]buildEnt) error {
	if err := pp.startRead(); err != nil {
		return err
	}
	var run *spillFile
	var runAcct int64
	for {
		rec, err := pp.read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		k := rec.tup[h.leftCol].(types.Small)
		var matches []buildEnt
		for _, ent := range chunk[k.Hash()] {
			if k.Equal(ent.row[h.rightCol]) {
				matches = append(matches, ent)
			}
		}
		if len(matches) == 0 {
			continue
		}
		sort.Slice(matches, func(i, j int) bool { return matches[i].seq < matches[j].seq })
		if run == nil {
			var acct int64
			if h.grant.Try(spillBufBytes) {
				acct = spillBufBytes
			}
			if run, err = newSpillFile(); err != nil {
				h.grant.Release(acct)
				return err
			}
			runAcct = acct
			h.runs = append(h.runs, run)
		}
		for _, ent := range matches {
			joined := make(types.Tuple, 0, len(rec.tup)+len(ent.row))
			joined = append(joined, rec.tup...)
			joined = append(joined, ent.row...)
			if err := run.write(spillRec{seqA: rec.seqA, seqB: ent.seq, tup: joined}); err != nil {
				return err
			}
		}
	}
	if run != nil {
		if err := run.flush(); err != nil {
			return err
		}
		h.grant.Release(runAcct)
		h.noteRun(run)
	}
	return nil
}

func (h *HashJoin) Close() error {
	// Join the build goroutine before closing its child: Close on the
	// build subtree tears down prefetch goroutines the build may still be
	// pulling from.
	if h.started && !h.joined {
		<-h.done
		h.joined = true
		h.stats.RowsIn += h.buildRows
		h.stats.Self += h.buildSelf
	}
	lerr := h.left.Close()
	berr := h.build.Close()
	// Spill files are unlinked-on-create, so closing the descriptors is
	// the whole cleanup — on every path, including mid-stream errors.
	ferr := closeSpillFiles(h.buildParts)
	if err := closeSpillFiles(h.probeParts); ferr == nil {
		ferr = err
	}
	if err := closeSpillFiles(h.runs); ferr == nil {
		ferr = err
	}
	h.grant.Close()
	if lerr != nil {
		return lerr
	}
	if berr != nil {
		return berr
	}
	return ferr
}
