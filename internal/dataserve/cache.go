package dataserve

import (
	"container/list"
	"sync"
)

// chunkCache is a byte-bounded LRU over decoded chunk value slices.
// One recovered miss inserts its whole containing chunk, so the
// neighboring misses of a stencil or slab walk hit memory instead of
// the network (the locality the paper's chunk-granular debloating
// already relies on, §VI).
//
// Chunk values are written once, by decodeChunkFrame, and only read
// after that: the cache keeps the decoder's slice and hands it out
// without copying, and no caller ever receives one (FetchContext reads
// a single element out of it). A hit therefore allocates nothing.
type chunkCache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	order    *list.List // front = most recently used; values are *cacheEntry
	byKey    map[string]*list.Element
}

type cacheEntry struct {
	key  string
	vals []float64
}

// entryBytes approximates an entry's memory footprint.
func entryBytes(vals []float64) int64 { return int64(8*len(vals)) + 64 }

func newChunkCache(maxBytes int64) *chunkCache {
	return &chunkCache{maxBytes: maxBytes, order: list.New(), byKey: make(map[string]*list.Element)}
}

// get returns the resident values for key, promoting the entry.
func (c *chunkCache) get(key string) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).vals, true
}

// put inserts (or refreshes) an entry, keeping vals itself, and evicts
// least-recently-used entries until the cache fits its byte bound. An
// entry larger than the whole bound is not cached at all.
func (c *chunkCache) put(key string, vals []float64) {
	size := entryBytes(vals)
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.maxBytes {
		// Uncacheable — but if the key is already resident, the old
		// value is now stale and must not answer future gets: dropping
		// the put while keeping the entry would serve superseded bytes.
		if el, ok := c.byKey[key]; ok {
			old := el.Value.(*cacheEntry)
			c.order.Remove(el)
			delete(c.byKey, key)
			c.curBytes -= entryBytes(old.vals)
		}
		return
	}
	if el, ok := c.byKey[key]; ok {
		old := el.Value.(*cacheEntry)
		c.curBytes += size - entryBytes(old.vals)
		old.vals = vals
		c.order.MoveToFront(el)
	} else {
		c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, vals: vals})
		c.curBytes += size
	}
	for c.curBytes > c.maxBytes {
		back := c.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.byKey, e.key)
		c.curBytes -= entryBytes(e.vals)
	}
}

// len returns the number of cached entries.
func (c *chunkCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// bytes returns the cache's current footprint.
func (c *chunkCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}
