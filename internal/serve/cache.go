package serve

import (
	"sync"
	"sync/atomic"

	"orchestra/internal/compile"
	"orchestra/internal/core"
	"orchestra/internal/delirium"
)

// graphCache is the daemon's compile-once/run-many store: compiled
// graphs keyed by content address (compile.Fingerprint for programs,
// compile.GraphFingerprint for raw graph submissions). Every job
// resolves its graph through here, so resubmitting the same program —
// under any job name, at any concurrency — parses and compiles exactly
// once for the daemon's lifetime.
//
// Concurrency duplicates are suppressed per entry with a sync.Once
// (singleflight): two jobs racing to submit the same new program share
// one compilation, with the loser counted as a hit — it did not
// compile.
type graphCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	once  sync.Once
	graph *delirium.Graph
	err   error

	// idle holds the graph's Bounds that no job is running, one
	// sync.Pool per binding: a job takes one and resets it rather than
	// bind the graph afresh (Server.execute). The GC empties the pools
	// once the daemon goes quiet, so no capacity is chosen here.
	mu   sync.Mutex
	idle map[bindingKey]*sync.Pool
}

// idlePool returns the pool of idle Bounds of e's graph under binding k.
func (e *cacheEntry) idlePool(k bindingKey) *sync.Pool {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.idle[k]
	if !ok {
		if e.idle == nil {
			e.idle = map[bindingKey]*sync.Pool{}
		}
		p = &sync.Pool{}
		e.idle[k] = p
	}
	return p
}

func newGraphCache() *graphCache {
	return &graphCache{entries: map[string]*cacheEntry{}}
}

// get returns the entry for key, building its graph at most once across
// all callers. hit reports whether this caller avoided the build.
func (c *graphCache) get(key string, build func() (*delirium.Graph, error)) (entry *cacheEntry, hit bool, err error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	built := false
	e.once.Do(func() {
		built = true
		e.graph, e.err = build()
	})
	hit = !built
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, hit, e.err
}

// compileKeyed resolves a program source through the cache.
func (c *graphCache) compileKeyed(src string, opts compile.Options) (*cacheEntry, bool, error) {
	return c.get(compile.Fingerprint(src, opts), func() (*delirium.Graph, error) {
		out, err := core.CompileSource(src, opts)
		if err != nil {
			return nil, err
		}
		return out.Graph, nil
	})
}

// decodeKeyed resolves a raw Delirium graph text through the cache.
func (c *graphCache) decodeKeyed(text string) (*cacheEntry, bool, error) {
	return c.get(compile.GraphFingerprint(text), func() (*delirium.Graph, error) {
		g, err := delirium.Decode(text)
		if err != nil {
			return nil, err
		}
		if err := g.Validate(); err != nil {
			return nil, err
		}
		return g, nil
	})
}

// CacheStats is the /stats view of the graph cache.
type CacheStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

func (c *graphCache) stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{Entries: n, Hits: c.hits.Load(), Misses: c.misses.Load()}
}
