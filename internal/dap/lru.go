package dap

import (
	"container/list"
	"sync"
)

// lru is a cache bounded by the summed sizes of its entries: past max,
// the least recently used entries go first. A DAP keeps two of them —
// decoded fragments by the bytes of their document, loaded classes by
// content digest — and decides alone what either holds.
type lru[V any] struct {
	max   int
	mu    sync.Mutex
	items map[string]*list.Element // key → its entry in order
	order list.List                // *lruEntry[V], most recently used first
	size  int
}

type lruEntry[V any] struct {
	key  string
	val  V
	size int
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, items: make(map[string]*list.Element)}
}

// get returns the value cached under key, marking it recently used. The
// key is given as bytes, so looking a document up copies nothing.
func (c *lru[V]) get(key []byte) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[string(key)]
	if !ok {
		return v, false
	}
	c.order.MoveToFront(e)
	return e.Value.(*lruEntry[V]).val, true
}

// put caches v under key, counted as size, and evicts the least
// recently used entries until the sizes fit the bound. An entry larger
// than the bound is not kept, and a key already cached keeps its value.
func (c *lru[V]) put(key string, v V, size int) {
	if size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[V]{key: key, val: v, size: size})
	c.size += size
	for c.size > c.max {
		old := c.order.Remove(c.order.Back()).(*lruEntry[V])
		delete(c.items, old.key)
		c.size -= old.size
	}
}
