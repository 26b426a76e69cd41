package service

import "container/list"

// lru is a fixed-capacity least-recently-used result cache keyed by the
// canonical spec hash. It is not self-locking: the Service serializes
// access under its mutex.
type lru struct {
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

type lruEntry struct {
	key string
	res []byte // the encoded result, shared read-only
}

func newLRU(capacity int) *lru {
	return &lru{capacity: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached result for key and marks it most recently used.
func (c *lru) get(key string) ([]byte, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

// add inserts (or refreshes) key, evicting the least recently used entry
// when over capacity. A zero or negative capacity disables caching.
func (c *lru) add(key string, res []byte) {
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, res: res})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

func (c *lru) len() int { return c.ll.Len() }
