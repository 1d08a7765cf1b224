package exec

import (
	"context"
	"time"

	"mocha/internal/core"
	"mocha/internal/types"
)

// Sort fully materializes its input and emits it ordered by the keys
// (stable, like the historical executor). Used only for ORDER BY without
// LIMIT; limited ordered queries take the bounded TopK operator instead.
type Sort struct {
	base
	child Operator
	keys  []core.OrderSpec
	rows  int

	sorted []types.Tuple
	built  bool
	idx    int
}

// NewSort wraps child with ORDER BY keys.
func NewSort(name string, child Operator, keys []core.OrderSpec, batchRows int) *Sort {
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	s := &Sort{child: child, keys: keys, rows: batchRows}
	s.stats.Name = name
	return s
}

func (s *Sort) Open(ctx context.Context) error { return s.child.Open(ctx) }

func (s *Sort) NextBatch() ([]types.Tuple, error) {
	if !s.built {
		for {
			in, err := s.child.NextBatch()
			if err != nil {
				return nil, err
			}
			if in == nil {
				break
			}
			s.stats.RowsIn += int64(len(in))
			for _, row := range in {
				s.sorted = append(s.sorted, detach(row))
			}
		}
		t0 := time.Now()
		if err := core.SortTuples(s.sorted, s.keys); err != nil {
			s.timed(t0)
			return nil, err
		}
		s.timed(t0)
		s.built = true
	}
	if s.idx >= len(s.sorted) {
		return nil, nil
	}
	n := len(s.sorted) - s.idx
	if n > s.rows {
		n = s.rows
	}
	out := s.sorted[s.idx : s.idx+n]
	s.idx += n
	s.out(out)
	return out, nil
}

func (s *Sort) Close() error { return s.child.Close() }

// topkRow tags a buffered row with its arrival sequence so ties resolve
// exactly like a stable sort followed by truncation.
type topkRow struct {
	row types.Tuple
	seq int64
}

// TopK keeps only the k first rows of the sorted order in a bounded
// max-heap (the heap root is the worst retained row), so ORDER BY +
// LIMIT queries stop materializing the whole result set. Memory is
// bounded at k rows regardless of input size.
type TopK struct {
	base
	child Operator
	keys  []core.OrderSpec
	k     int
	rows  int

	heap   []topkRow
	cmpErr error
	seq    int64

	sorted []types.Tuple
	built  bool
	idx    int
}

// NewTopK wraps child with ORDER BY keys bounded at k rows (k >= 0).
func NewTopK(name string, child Operator, keys []core.OrderSpec, k, batchRows int) *TopK {
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	t := &TopK{child: child, keys: keys, k: k, rows: batchRows}
	t.stats.Name = name
	return t
}

func (t *TopK) Open(ctx context.Context) error { return t.child.Open(ctx) }

// after reports whether a orders strictly after b (a is "worse": it
// would be truncated first). Comparison errors latch into cmpErr.
func (t *TopK) after(a, b topkRow) bool {
	c, err := core.CompareTuples(a.row, b.row, t.keys)
	if err != nil {
		if t.cmpErr == nil {
			t.cmpErr = err
		}
		return false
	}
	if c != 0 {
		return c > 0
	}
	// Equal keys: the later arrival loses, like a stable sort truncated
	// at k.
	return a.seq > b.seq
}

// push offers one row to the bounded heap.
func (t *TopK) push(row types.Tuple) {
	r := topkRow{row: row, seq: t.seq}
	t.seq++
	full := len(t.heap) >= t.k
	if full && !t.after(t.heap[0], r) {
		return // does not beat the current worst
	}
	r.row = detach(row) // kept past its batch
	if !full {
		t.heap = append(t.heap, r)
		// Sift up.
		i := len(t.heap) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !t.after(t.heap[i], t.heap[parent]) {
				break
			}
			t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
			i = parent
		}
		return
	}
	t.heap[0] = r
	t.siftDown(0, len(t.heap))
}

func (t *TopK) siftDown(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && t.after(t.heap[l], t.heap[largest]) {
			largest = l
		}
		if r < n && t.after(t.heap[r], t.heap[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		t.heap[i], t.heap[largest] = t.heap[largest], t.heap[i]
		i = largest
	}
}

func (t *TopK) NextBatch() ([]types.Tuple, error) {
	if !t.built {
		for {
			in, err := t.child.NextBatch()
			if err != nil {
				return nil, err
			}
			if in == nil {
				break
			}
			t.stats.RowsIn += int64(len(in))
			t0 := time.Now()
			if t.k > 0 {
				for _, tup := range in {
					t.push(tup)
					if t.cmpErr != nil {
						t.timed(t0)
						return nil, t.cmpErr
					}
				}
			}
			t.timed(t0)
		}
		// Drain the heap worst-first into ascending order.
		t0 := time.Now()
		t.sorted = make([]types.Tuple, len(t.heap))
		for n := len(t.heap); n > 0; n-- {
			t.sorted[n-1] = t.heap[0].row
			t.heap[0] = t.heap[n-1]
			t.heap = t.heap[:n-1]
			t.siftDown(0, n-1)
		}
		t.timed(t0)
		if t.cmpErr != nil {
			return nil, t.cmpErr
		}
		t.built = true
	}
	if t.idx >= len(t.sorted) {
		return nil, nil
	}
	n := len(t.sorted) - t.idx
	if n > t.rows {
		n = t.rows
	}
	out := t.sorted[t.idx : t.idx+n]
	t.idx += n
	t.out(out)
	return out, nil
}

func (t *TopK) Close() error { return t.child.Close() }
