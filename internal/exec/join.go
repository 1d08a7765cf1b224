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
// On the spill path at is where the row's record lies in its partition.
type buildEnt struct {
	seq uint64
	row types.Tuple
	at  extent
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
// table drains into hash partitions of the join's one spill file, the
// probe input is partitioned the same way, and each build partition is
// then re-loaded in grant-sized chunks, probing its probe partition once
// per chunk. Each input row is written once: a match goes to an output
// run as a reference to its two rows, tagged (probe arrival, build
// sequence), and a final k-way merge over the runs reads the rows back
// and emits them byte-identical, and in identical order, to the
// in-memory path.
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
	scratch    int64 // accounted block scratch (best-effort)
	file       spillFile
	buildParts []*spillRun
	probeParts []*spillRun
	runs       []*spillRun
	merge      *mergeHeap
	merged     bool
	probeCache [spillPartitions]rowCache
	buildCache [spillPartitions]rowCache
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
			if err := h.buildParts[hk%spillPartitions].writeRow(&h.file, h.buildSeq, "", tup); err != nil {
				h.buildSelf += time.Since(t0)
				h.buildErr = err
				return
			}
			h.buildSeq++
		}
		h.buildRows += int64(len(batch))
		h.buildSelf += time.Since(t0)
	}
	if h.spilled {
		h.buildErr = h.flushPartitions(h.buildParts)
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

// switchToSpill moves the build out of memory: it drains the table into
// the build partitions, tagged with build sequence, and returns the
// table's grant bytes to the pool. The partitions' pending blocks are
// scratch, accounted best-effort until they flush (setScratch).
func (h *HashJoin) switchToSpill() error {
	fixed := int64(spillPartitions * spillBlockBytes)
	if !h.grant.Try(fixed) {
		// Give the table's bytes back first (the table is about to be
		// drained anyway) and retry once.
		h.grant.Release(h.heldBuild)
		h.heldBuild = 0
		if !h.grant.Try(fixed) {
			fixed = 0
		}
	}
	h.scratch = fixed
	h.buildParts = newPartitions()
	for hk, bucket := range h.table {
		part := h.buildParts[hk%spillPartitions]
		for _, ent := range bucket {
			if err := part.writeRow(&h.file, ent.seq, "", ent.row); err != nil {
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

func newPartitions() []*spillRun {
	parts := make([]*spillRun, spillPartitions)
	for i := range parts {
		parts[i] = &spillRun{}
	}
	return parts
}

// flushPartitions writes the partitions' last blocks out and returns
// their scratch to the pool.
func (h *HashJoin) flushPartitions(parts []*spillRun) error {
	for _, part := range parts {
		if err := part.flush(&h.file); err != nil {
			return err
		}
		h.noteRun(h.grant, part)
	}
	setScratch(h.grant, &h.scratch, 0)
	return nil
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
// merged runs in batches, reading each referenced row back from its
// partition.
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
			// Emitted rows are the consumer's; the caches go back now.
			h.probeCache, h.buildCache = [spillPartitions]rowCache{}, [spillPartitions]rowCache{}
			setScratch(h.grant, &h.scratch, 0)
			break
		}
		probe, err := h.probeCache[rec.part].row(&h.file, h.probeParts[rec.part], rec.probe)
		if err != nil {
			return nil, err
		}
		build, err := h.buildCache[rec.part].row(&h.file, h.buildParts[rec.part], rec.build)
		if err != nil {
			return nil, err
		}
		joined := make(types.Tuple, 0, len(probe)+len(build))
		joined = append(joined, probe...)
		out = append(out, append(joined, build...))
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
	// A partition pass reads a build and a probe block and fills one
	// output block at a time.
	setScratch(h.grant, &h.scratch, 3*spillBlockBytes)
	for pi := 0; pi < spillPartitions; pi++ {
		if err := h.joinPartition(pi); err != nil {
			return err
		}
	}
	// The merge reads a block of every run, and emission a block per
	// side and partition.
	setScratch(h.grant, &h.scratch, readScratch(h.runs)+2*spillPartitions*spillBlockBytes)
	m, err := newMergeHeap(&h.file, h.runs, decodeRef, byProbeBuild)
	if err != nil {
		return err
	}
	h.merge = m
	return nil
}

// partitionProbe drains the probe input into hash partitions aligned
// with the build partitions, tagging each row with its arrival order.
func (h *HashJoin) partitionProbe() error {
	setScratch(h.grant, &h.scratch, spillPartitions*spillBlockBytes)
	h.probeParts = newPartitions()
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
			if err := h.probeParts[k.Hash()%spillPartitions].writeRow(&h.file, probeSeq, "", lrow); err != nil {
				return err
			}
			probeSeq++
		}
	}
	return h.flushPartitions(h.probeParts)
}

// joinPartition loads build partition pi in chunks that fit the grant,
// probing the matching probe partition once per chunk. Each chunk pass
// writes one output run already sorted by (probeSeq, buildSeq).
func (h *HashJoin) joinPartition(pi int) error {
	rd := h.file.reader(h.buildParts[pi])
	var pending *buildEnt
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
			var ent buildEnt
			if pending != nil {
				ent, pending = *pending, nil
			} else if pendingDone {
				break
			} else {
				body, at, err := rd.next()
				if err == io.EOF {
					pendingDone = true
					break
				}
				if err != nil {
					return err
				}
				rec, err := decodeRow(body)
				if err != nil {
					return err
				}
				ent = buildEnt{seq: rec.seqA, row: rec.tup, at: at}
			}
			need := tupleMemBytes(ent.row)
			if !h.grant.Try(need) {
				if loaded > 0 {
					pending = &ent
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
			hk, err := h.buildHash(ent.row)
			if err != nil {
				h.grant.Release(chunkBytes)
				return err
			}
			chunk[hk] = append(chunk[hk], ent)
			loaded++
		}
		if loaded == 0 {
			h.grant.Release(chunkBytes)
			break
		}
		err := h.probeChunk(pi, chunk)
		h.grant.Release(chunkBytes)
		if err != nil {
			return err
		}
	}
	return nil
}

// probeChunk rescans probe partition pi against a loaded build chunk,
// writing a reference to each matching pair to a fresh output run. Probe
// records arrive in probeSeq order and each row's matches are sorted by
// build sequence, so the run is born sorted by (probeSeq, buildSeq).
func (h *HashJoin) probeChunk(pi int, chunk map[uint64][]buildEnt) error {
	rd := h.file.reader(h.probeParts[pi])
	var run *spillRun
	var matches []buildEnt
	for {
		body, at, err := rd.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		rec, err := decodeRow(body)
		if err != nil {
			return err
		}
		k := rec.tup[h.leftCol].(types.Small)
		matches = matches[:0]
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
			run = &spillRun{}
			h.runs = append(h.runs, run)
		}
		for _, ent := range matches {
			ref := spillRec{seqA: rec.seqA, seqB: ent.seq, part: pi, probe: at, build: ent.at}
			if err := run.writeRef(&h.file, &ref); err != nil {
				return err
			}
		}
	}
	if run == nil {
		return nil
	}
	if err := run.flush(&h.file); err != nil {
		return err
	}
	h.noteRun(h.grant, run)
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
	// The spill file is unlinked on creation, so closing its descriptor
	// is the whole cleanup — on every path, including mid-stream errors.
	ferr := h.file.close()
	h.grant.Close()
	if lerr != nil {
		return lerr
	}
	if berr != nil {
		return berr
	}
	return ferr
}
