package serve

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"wtcp/internal/atomicfile"
)

// diskCache is the content-addressed result store: one file per
// fingerprint holding the exact response bytes a fresh computation
// produced, bounded by a total byte cap with least-recently-used
// eviction. Entries are immutable once written (the address is a hash
// of everything that determines the content), so a hit can be served
// verbatim — byte-identical to the fresh run — and eviction is purely
// a capacity decision, never a correctness one.
type diskCache struct {
	mu   sync.Mutex
	dir  string
	cap  int64
	size int64
	// lru holds one cacheEntry per resident file: front oldest, back
	// most recently used. index finds an entry's element, so a hit, a
	// drop and an eviction are all O(1) at any resident-set size.
	lru       *list.List
	index     map[string]*list.Element
	evictions uint64
}

// cacheEntry is one resident file.
type cacheEntry struct {
	fp   string
	size int64
}

// openDiskCache loads (or creates) the cache directory. Surviving
// entries are re-indexed with their on-disk modification order as the
// initial LRU order, so a restarted server keeps its warm set.
func openDiskCache(dir string, capBytes int64) (*diskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	c := &diskCache{dir: dir, cap: capBytes, lru: list.New(), index: map[string]*list.Element{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	type onDisk struct {
		cacheEntry
		mtime int64
	}
	var found []onDisk
	for _, e := range entries {
		if e.IsDir() || !validFingerprint(e.Name()) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, onDisk{cacheEntry{e.Name(), info.Size()}, info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	for _, f := range found {
		c.addLocked(f.cacheEntry)
	}
	c.evictLocked()
	return c, nil
}

// get returns the cached response bytes for fp and marks it recently
// used.
func (c *diskCache) get(fp string) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.index[fp]
	if ok {
		c.lru.MoveToBack(el)
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(c.dir, fp))
	if err != nil {
		// Entry vanished underneath us (manual cleanup); drop the index.
		c.mu.Lock()
		c.dropLocked(fp)
		c.mu.Unlock()
		return nil, false
	}
	return data, true
}

// put stores the response bytes for fp (atomic write-rename), evicting
// least-recently-used entries until the cap holds. A blob bigger than
// the whole cap is not stored: the response is still delivered, it
// just isn't worth the entire cache. First write wins; identical
// content makes overwrites a no-op anyway.
func (c *diskCache) put(fp string, data []byte) error {
	if c.cap > 0 && int64(len(data)) > c.cap {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.index[fp]; ok {
		return nil
	}
	if err := atomicfile.Write(filepath.Join(c.dir, fp), data); err != nil {
		return fmt.Errorf("serve: cache write: %w", err)
	}
	c.addLocked(cacheEntry{fp, int64(len(data))})
	c.evictLocked()
	return nil
}

// addLocked indexes a resident file as the most recently used.
func (c *diskCache) addLocked(e cacheEntry) {
	c.index[e.fp] = c.lru.PushBack(e)
	c.size += e.size
}

// dropLocked removes fp from the index (file already gone or being
// evicted).
func (c *diskCache) dropLocked(fp string) {
	if el, ok := c.index[fp]; ok {
		c.size -= c.lru.Remove(el).(cacheEntry).size
		delete(c.index, fp)
	}
}

// evictLocked removes oldest entries until the byte cap holds.
func (c *diskCache) evictLocked() {
	if c.cap <= 0 {
		return
	}
	for c.size > c.cap && c.lru.Len() > 0 {
		victim := c.lru.Front().Value.(cacheEntry).fp
		os.Remove(filepath.Join(c.dir, victim))
		c.dropLocked(victim)
		c.evictions++
	}
}

// stats reports entry count, resident bytes, and lifetime evictions.
func (c *diskCache) stats() (entries int, bytes int64, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index), c.size, c.evictions
}
