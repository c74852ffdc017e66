package simsvc

import (
	"bytes"
	"container/list"
	"hash/fnv"
	"sync"
)

// cache is the content-addressed result cache: completed result payloads
// keyed by the FNV-1a hash of their canonical identity bytes (a job
// spec's canonical JSON, an experiment's key string), bounded by LRU
// eviction. Payloads are stored as the exact bytes served to clients (a
// job's rendered result, an experiment's whole body), so a hit is
// byte-identical to the run that populated it.
//
// The 64-bit key alone is NOT the identity: two distinct specs can
// collide. Every entry therefore carries its identity bytes, get
// verifies them on every hit, and a mismatch is served as a miss (and
// counted) rather than as another spec's payload — the cache can never
// lie, only forget.
type cache struct {
	mu         sync.Mutex
	cap        int
	ll         *list.List // front = most recently used
	byKey      map[uint64]*list.Element
	hits       uint64
	misses     uint64
	evicted    uint64
	collisions uint64
}

// cacheEntry is one memoized payload plus the identity that hashes to
// its key.
type cacheEntry struct {
	key      uint64
	identity []byte
	payload  []byte
}

// identityKey is the one hash everything content-addressed goes
// through: FNV-1a over the identity bytes. The invariant "key ==
// identityKey(identity)" holds for every cache entry; get still checks
// the identity itself, since distinct identities can share a key.
func identityKey(identity []byte) uint64 {
	h := fnv.New64a()
	h.Write(identity)
	return h.Sum64()
}

func newCache(capacity int) *cache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &cache{cap: capacity, ll: list.New(), byKey: map[uint64]*list.Element{}}
}

// get returns the payload for key, refreshing its recency. The stored
// identity must match the caller's: a colliding key is a counted miss,
// never another identity's payload. The returned slice must not be
// mutated.
func (c *cache) get(key uint64, identity []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if !bytes.Equal(ent.identity, identity) {
		c.collisions++
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return ent.payload, true
}

// put memoizes a payload under its identity, evicting the least
// recently used entry past capacity. Concurrent identical jobs may both
// put; last write wins with an identical payload, so the race is
// benign. A colliding put (same key, different identity) is counted and
// replaces the incumbent — both specs stay correct, each serving the
// other's hits as misses.
func (c *cache) put(key uint64, identity, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*cacheEntry)
		if !bytes.Equal(ent.identity, identity) {
			c.collisions++
			ent.identity = identity
		}
		ent.payload = payload
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, identity: identity, payload: payload})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.evicted++
	}
}

// CacheStats is the cache's observable state (GET /statsz).
// KeyCollisions counts lookups and stores whose 64-bit key matched an
// entry holding a different identity — served as misses, never as
// wrong payloads.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evicted       uint64 `json:"evicted"`
	KeyCollisions uint64 `json:"cache_key_collisions"`
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
}

func (c *cache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evicted: c.evicted,
		KeyCollisions: c.collisions, Entries: c.ll.Len(), Capacity: c.cap,
	}
}
