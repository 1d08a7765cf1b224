package exec

import (
	"context"
	"errors"
	"sync"
	"time"

	"mocha/internal/types"
)

// ErrStopped is the sentinel a push-based scan's emit callback returns
// when the consuming tree has closed early (e.g. a satisfied LIMIT).
// Scan drivers must propagate it unchanged; the source treats it as a
// clean stop, not a failure.
var ErrStopped = errors.New("exec: consumer stopped")

// PullFunc delivers one tuple per call, (nil, nil) at end of stream.
type PullFunc func() (types.Tuple, error)

// Source adapts a pull-based tuple feed (the QPC's remote fragment
// streams) into a batch operator. Its self time is the time spent inside
// the feed — for a remote stream, the network receive path.
type Source struct {
	base
	pull PullFunc
	rows int
	done bool
}

// NewSource wraps a pull feed. name becomes the operator's span name.
func NewSource(name string, pull PullFunc, batchRows int) *Source {
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	s := &Source{pull: pull, rows: batchRows}
	s.stats.Name = name
	return s
}

func (s *Source) Open(context.Context) error { return nil }

func (s *Source) NextBatch() ([]types.Tuple, error) {
	if s.done {
		return nil, nil
	}
	defer s.timed(time.Now())
	// Batches cross goroutine boundaries when a prefetcher wraps the
	// source, so each one gets a fresh backing slice.
	batch := make([]types.Tuple, 0, s.rows)
	for len(batch) < s.rows {
		t, err := s.pull()
		if err != nil {
			return nil, err
		}
		if t == nil {
			s.done = true
			break
		}
		batch = append(batch, t)
	}
	if len(batch) == 0 {
		return nil, nil
	}
	s.out(batch)
	return batch, nil
}

func (s *Source) Close() error { return nil }

// scanItem crosses the scan goroutine's channel: a batch, or the scan's
// terminal error.
type scanItem struct {
	batch []types.Tuple
	err   error
}

// ScanSource inverts a push-based scan (the DAP's access drivers expose
// callback iteration) into a pull operator by running the scan in its
// own goroutine and handing batches over a bounded channel. The scan
// therefore overlaps the downstream operators and the network send path
// up to the channel bound. Its self time is the time the scan spent
// producing tuples, excluding time blocked on the full channel — the
// DAP's DB-time component.
type ScanSource struct {
	base
	run   func(emit func(types.Tuple) error) error
	rows  int
	depth int

	ch      chan scanItem
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	opened  bool
	done    bool

	// feed, blocked and stats.RowsIn are owned by the scan goroutine
	// until wg.Wait.
	feed    time.Duration
	blocked time.Duration
}

// NewScanSource wraps a callback-iterating scan body, handing over
// batches of rows tuples through a channel depth batches deep (<= 0:
// defaults). run must return the error its emit callback returns (in
// particular ErrStopped).
func NewScanSource(name string, run func(emit func(types.Tuple) error) error, rows, depth int) *ScanSource {
	if rows <= 0 {
		rows = DefaultBatchRows
	}
	if depth <= 0 {
		depth = DefaultPrefetch
	}
	s := &ScanSource{run: run, rows: rows, depth: depth}
	s.stats.Name = name
	return s
}

func (s *ScanSource) Open(ctx context.Context) error {
	s.ch = make(chan scanItem, s.depth)
	s.stop = make(chan struct{})
	s.opened = true
	s.wg.Add(1)
	go s.scan(ctx)
	return nil
}

func (s *ScanSource) scan(ctx context.Context) {
	defer s.wg.Done()
	defer close(s.ch)
	start := time.Now()
	var batch []types.Tuple
	send := func(it scanItem) error {
		blockStart := time.Now()
		defer func() { s.blocked += time.Since(blockStart) }()
		select {
		case s.ch <- it:
			return nil
		case <-s.stop:
			return ErrStopped
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	err := s.run(func(t types.Tuple) error {
		s.stats.RowsIn++
		batch = append(batch, t)
		if len(batch) < s.rows {
			return nil
		}
		out := batch
		batch = make([]types.Tuple, 0, s.rows)
		return send(scanItem{batch: out})
	})
	s.feed = time.Since(start) - s.blocked
	if err != nil {
		if errors.Is(err, ErrStopped) || errors.Is(err, context.Canceled) {
			return
		}
		send(scanItem{err: err})
		return
	}
	if len(batch) > 0 {
		if send(scanItem{batch: batch}) != nil {
			return
		}
	}
}

func (s *ScanSource) NextBatch() ([]types.Tuple, error) {
	if s.done {
		return nil, nil
	}
	it, ok := <-s.ch
	if !ok || it.batch == nil {
		s.done = true
		return nil, it.err
	}
	s.out(it.batch)
	return it.batch, nil
}

func (s *ScanSource) Close() error {
	if !s.opened {
		return nil
	}
	s.stopped.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.stats.Self = s.feed
	return nil
}

// Prefetch pulls batches from its child in a background goroutine,
// buffering up to a bounded number of batches, so downstream compute
// overlaps the child's waits (for a remote stream source: network
// receive). Its self time is the time the consumer spent stalled on an
// empty buffer — the residual wait prefetching could not hide.
type Prefetch struct {
	base
	child Operator
	depth int

	ch      chan scanItem
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	opened  bool
	done    bool
}

// NewPrefetch bounds the buffer at depth batches (<= 0: default).
func NewPrefetch(name string, child Operator, depth int) *Prefetch {
	if depth <= 0 {
		depth = DefaultPrefetch
	}
	p := &Prefetch{child: child, depth: depth}
	p.stats.Name = name
	return p
}

func (p *Prefetch) Open(ctx context.Context) error {
	if err := p.child.Open(ctx); err != nil {
		return err
	}
	p.ch = make(chan scanItem, p.depth)
	p.stop = make(chan struct{})
	p.opened = true
	p.wg.Add(1)
	go p.fill(ctx)
	return nil
}

func (p *Prefetch) fill(ctx context.Context) {
	defer p.wg.Done()
	defer close(p.ch)
	for {
		batch, err := p.child.NextBatch()
		select {
		case p.ch <- scanItem{batch: batch, err: err}:
		case <-p.stop:
			return
		case <-ctx.Done():
			return
		}
		if err != nil || batch == nil {
			return
		}
	}
}

func (p *Prefetch) NextBatch() ([]types.Tuple, error) {
	if p.done {
		return nil, nil
	}
	defer p.timed(time.Now())
	it, ok := <-p.ch
	if !ok || it.err != nil || it.batch == nil {
		p.done = true
		return nil, it.err
	}
	p.stats.RowsIn += int64(len(it.batch))
	p.out(it.batch)
	return it.batch, nil
}

func (p *Prefetch) Close() error {
	if !p.opened {
		return p.child.Close()
	}
	p.stopped.Do(func() { close(p.stop) })
	p.wg.Wait()
	return p.child.Close()
}
