package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"wtcp/internal/recordlog"
)

// diskCache is the content-addressed result store: the exact response
// bytes a fresh computation produced, keyed by fingerprint, bounded by a
// total byte cap with least-recently-used eviction. Entries are
// immutable once written (the address is a hash of everything that
// determines the content), so a hit can be served verbatim —
// byte-identical to the fresh run — and eviction is purely a capacity
// decision, never a correctness one.
//
// On disk the entries are `fp ‖ body` records appended to fixed-size
// segment files (results/seg-NNNNNN.log, see recordlog): a put is one
// append to the newest segment, a get is one pread whose checksum and
// embedded fingerprint are verified before a byte is served. Eviction
// only forgets an entry; its bytes are reclaimed when its segment holds
// no live entry (unlink) or when dead bytes outweigh live ones (the
// oldest sealed segment's survivors are re-appended, then it is
// unlinked).
type diskCache struct {
	dir      string
	cap      int64
	segBytes int64

	mu sync.Mutex
	// slots is the index's slab: slots[0] is the recency list's root
	// (next = oldest, prev = most recently used), a free slot is chained
	// through next from free. index finds an entry's slot, so a hit, a
	// drop and an eviction are all O(1) at any resident-set size. It is
	// keyed by eight bytes of the fingerprint — the slot holds all 32 and
	// lookup compares them — because the map, not the slab, is most of an
	// entry's memory: with 12-byte map entries instead of 36-byte ones the
	// whole index measures ~97 heap bytes an entry at 30 000 entries (146
	// keyed by all 32 bytes; 191 with hex-string keys and container/list).
	// Two resident fingerprints that
	// agree in those 64 bits of a sha256 cannot share the map, so the
	// newer displaces the older — an eviction nobody will ever observe.
	slots []cacheSlot
	free  int32
	index map[uint64]int32
	// segs is every segment on disk, oldest first; the last one takes
	// the appends, the others are sealed.
	segs    []*segment
	nextSeg uint32

	size        int64 // live body bytes, what cap bounds
	liveDisk    int64 // live record bytes
	disk        int64 // bytes in all segment files
	evictions   uint64
	compactions uint64
	corrupt     uint64
	closed      bool
}

// cacheSegmentBytes is the size at which a segment is sealed and a new
// one started. It bounds three things at once: a put creates a file
// once per ~4 MiB of results rather than once per result; compaction
// copies at most this much under the lock; and the default 256 MiB cap
// keeps 64 descriptors open.
const cacheSegmentBytes = 4 << 20

// fpKey is a fingerprint in raw form.
type fpKey [32]byte

// cacheSlot is one resident entry: where its record is and its place in
// the recency list.
type cacheSlot struct {
	key        fpKey
	seg        uint32 // segment id
	off        uint32 // record offset in the segment
	n          uint32 // body length
	prev, next int32
}

// segment is one results/seg-NNNNNN.log.
type segment struct {
	id   uint32
	path string
	log  *recordlog.Log
	live int // resident entries whose record is here
}

// recordBytes is what an n-byte body occupies in a segment.
func recordBytes(n uint32) int64 { return recordlog.HeaderSize + int64(len(fpKey{})) + int64(n) }

// short is the part of the fingerprint the index map is keyed by.
func (k *fpKey) short() uint64 { return binary.LittleEndian.Uint64(k[len(k)-8:]) }

func parseFP(fp string) (key fpKey, ok bool) {
	if len(fp) != 2*len(key) {
		return key, false
	}
	_, err := hex.Decode(key[:], []byte(fp))
	return key, err == nil
}

// openDiskCache loads (or creates) the cache directory: every segment
// is replayed in append order, which becomes the initial recency order,
// so a restarted server keeps its warm set; then the cap is re-applied.
// An entry evicted in an earlier life whose segment survived is indexed
// again at its append position — it is the same immutable content, so
// that is a capacity matter only. A torn or corrupt segment tail is cut
// and reported; one-file-per-fingerprint entries from the layout before
// segments are capacity only and are removed.
func openDiskCache(dir string, capBytes, segBytes int64) (*diskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	c := &diskCache{dir: dir, cap: capBytes, segBytes: segBytes,
		slots: make([]cacheSlot, 1), index: map[uint64]int32{}}
	var ids []uint32
	legacy := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if validFingerprint(e.Name()) {
			os.Remove(filepath.Join(dir, e.Name()))
			legacy++
		} else if id, ok := segmentID(e.Name()); ok {
			ids = append(ids, id)
		}
	}
	if legacy > 0 {
		fmt.Fprintf(os.Stderr, "wtcpd: cache %s: dropped %d legacy per-fingerprint file(s); they will be recomputed on demand\n", dir, legacy)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	for _, id := range ids {
		s, err := c.openSegment(id, c.replay)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("serve: cache segment: %w", err)
		}
		c.disk += s.log.Size()
	}
	c.evictLocked()
	c.reclaimLocked()
	return c, nil
}

func segmentName(id uint32) string { return fmt.Sprintf("seg-%06d.log", id) }

// segmentID parses a segment file name.
func segmentID(name string) (uint32, bool) {
	mid, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseUint(strings.TrimSuffix(mid, ".log"), 10, 32)
	return uint32(id), err == nil && name == segmentName(uint32(id))
}

// openSegment opens (creating if absent) segment id as the newest one,
// replaying what it holds through replay and cutting — and reporting —
// a torn or corrupt tail.
func (c *diskCache) openSegment(id uint32, replay func(s *segment, off int64, payload []byte)) (*segment, error) {
	s := &segment{id: id, path: filepath.Join(c.dir, segmentName(id))}
	// On segs before the replay: a record superseding an earlier one of
	// this same segment must find it there.
	c.segs = append(c.segs, s)
	log, dropped, err := recordlog.Open(s.path, func(off int64, payload []byte) error {
		replay(s, off, payload)
		return nil
	})
	if err != nil {
		c.segs = c.segs[:len(c.segs)-1]
		return nil, err
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "wtcpd: cache segment %s: cut %d bytes of torn or corrupt tail\n", s.path, dropped)
	}
	s.log = log
	c.nextSeg = id + 1
	return s, nil
}

// replay indexes one record found at open. A fingerprint seen again —
// a compaction's copy whose source outlived a crash, or a result evicted
// and later recomputed — supersedes the earlier record.
func (c *diskCache) replay(s *segment, off int64, payload []byte) {
	var key fpKey
	if len(payload) < len(key) || off > math.MaxUint32 {
		return
	}
	copy(key[:], payload)
	c.addLocked(key, s, off, uint32(len(payload)-len(key)))
}

// get returns the cached response bytes for fp and marks it recently
// used. No lock is held across the read. A record that no longer passes
// its checksum is dropped and counted, and the caller recomputes.
func (c *diskCache) get(fp string) ([]byte, bool) {
	key, ok := parseFP(fp)
	if !ok {
		return nil, false
	}
	for {
		c.mu.Lock()
		i, ok := c.lookup(key)
		if !ok {
			c.mu.Unlock()
			return nil, false
		}
		c.unlink(i)
		c.pushBack(i)
		at := c.slots[i]
		log := c.segByID(at.seg).log
		c.mu.Unlock()

		payload, err := log.ReadAt(int64(at.off), len(key)+int(at.n))
		if err == nil && bytes.Equal(payload[:len(key)], key[:]) {
			return payload[len(key):], true
		}
		if err == nil {
			err = errors.New("the record there belongs to another fingerprint")
		}
		// The read failed. Either the record moved or went away while we
		// were reading (compaction, eviction, close) — look again — or it
		// is still where the index says and is bad.
		c.mu.Lock()
		i, ok = c.lookup(key)
		moved := ok && (c.slots[i].seg != at.seg || c.slots[i].off != at.off)
		bad := ok && !moved && !c.closed
		if bad {
			c.dropLocked(i)
			c.corrupt++
			c.reclaimLocked()
		}
		c.mu.Unlock()
		if bad {
			fmt.Fprintf(os.Stderr, "wtcpd: cache entry %s failed verification and was dropped: %v\n", fp[:12], err)
		}
		if !moved {
			return nil, false
		}
	}
}

// put stores the response bytes for fp (one append), evicting
// least-recently-used entries until the cap holds. A blob bigger than
// the whole cap is not stored: the response is still delivered, it
// just isn't worth the entire cache. First write wins; identical
// content makes overwrites a no-op anyway.
func (c *diskCache) put(fp string, data []byte) error {
	if c.cap > 0 && int64(len(data)) > c.cap {
		return nil
	}
	key, ok := parseFP(fp)
	if !ok {
		return fmt.Errorf("serve: cache write: %q is not a fingerprint", fp)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("serve: cache write: cache is closed")
	}
	if _, ok := c.lookup(key); ok {
		return nil
	}
	if err := c.appendLocked(key, data); err != nil {
		return fmt.Errorf("serve: cache write: %w", err)
	}
	c.evictLocked()
	c.reclaimLocked()
	return nil
}

// appendLocked writes one record to the newest segment — starting a new
// one when that has reached segBytes — and indexes it as the most
// recently used.
func (c *diskCache) appendLocked(key fpKey, data []byte) error {
	if len(c.segs) == 0 || c.segs[len(c.segs)-1].log.Size() >= c.segBytes {
		if _, err := c.openSegment(c.nextSeg, nil); err != nil {
			return err
		}
	}
	s := c.segs[len(c.segs)-1]
	off, err := s.log.Append(key[:], data)
	if err != nil {
		return err
	}
	c.disk += recordBytes(uint32(len(data)))
	c.addLocked(key, s, off, uint32(len(data)))
	return nil
}

// lookup finds key's slot.
func (c *diskCache) lookup(key fpKey) (int32, bool) {
	i, ok := c.index[key.short()]
	return i, ok && c.slots[i].key == key
}

// addLocked indexes a record as the most recently used entry, in place
// of whatever held its place in the map: an earlier record of the same
// fingerprint (seen at open), or the one-in-2^64 other fingerprint.
func (c *diskCache) addLocked(key fpKey, s *segment, off int64, n uint32) {
	if old, ok := c.index[key.short()]; ok {
		c.dropLocked(old)
	}
	i := c.free
	if i != 0 {
		c.free = c.slots[i].next
	} else {
		c.slots = append(c.slots, cacheSlot{})
		i = int32(len(c.slots) - 1)
	}
	c.slots[i] = cacheSlot{key: key, seg: s.id, off: uint32(off), n: n}
	c.pushBack(i)
	c.index[key.short()] = i
	s.live++
	c.size += int64(n)
	c.liveDisk += recordBytes(n)
}

// dropLocked forgets slot i's entry (evicted, superseded or bad); its
// record stays on disk as dead bytes until reclaimLocked gets to them.
func (c *diskCache) dropLocked(i int32) {
	e := c.slots[i]
	c.unlink(i)
	delete(c.index, e.key.short())
	c.segByID(e.seg).live--
	c.size -= int64(e.n)
	c.liveDisk -= recordBytes(e.n)
	c.slots[i] = cacheSlot{next: c.free}
	c.free = i
}

func (c *diskCache) unlink(i int32) {
	e := &c.slots[i]
	c.slots[e.prev].next = e.next
	c.slots[e.next].prev = e.prev
}

func (c *diskCache) pushBack(i int32) {
	last := c.slots[0].prev
	c.slots[i].prev, c.slots[i].next = last, 0
	c.slots[last].next = i
	c.slots[0].prev = i
}

// segByID finds a segment on disk (ids ascend along segs).
func (c *diskCache) segByID(id uint32) *segment {
	k := sort.Search(len(c.segs), func(k int) bool { return c.segs[k].id >= id })
	return c.segs[k]
}

// evictLocked forgets oldest entries until the byte cap holds.
func (c *diskCache) evictLocked() {
	if c.cap <= 0 {
		return
	}
	for c.size > c.cap && c.slots[0].next != 0 {
		c.dropLocked(c.slots[0].next)
		c.evictions++
	}
}

// reclaimLocked gives dead bytes back. A sealed segment with no live
// entry is unlinked outright. Then, if the files still hold more than
// twice the live bytes, the oldest sealed segment is compacted: its
// survivors are appended to the newest segment (recency untouched) and
// it is unlinked. One segment per call bounds what a single put can be
// made to copy; the 2x threshold bounds the copying at one byte moved
// per byte reclaimed, amortised, while letting dead bytes ride for free
// as long as whole segments keep dying on their own — which, under LRU,
// is what the oldest one does.
func (c *diskCache) reclaimLocked() {
	if len(c.segs) == 0 {
		return
	}
	newest := c.segs[len(c.segs)-1]
	c.segs = slices.DeleteFunc(c.segs, func(s *segment) bool {
		if s == newest || s.live > 0 {
			return false
		}
		c.removeSegment(s)
		return true
	})
	if len(c.segs) > 1 && c.disk > 2*c.liveDisk {
		c.compactLocked()
	}
}

// removeSegment closes and unlinks s; the caller takes it off segs.
func (c *diskCache) removeSegment(s *segment) {
	c.disk -= s.log.Size()
	s.log.Close()
	if err := os.Remove(s.path); err != nil {
		fmt.Fprintf(os.Stderr, "wtcpd: cache: %v\n", err)
	}
}

// compactLocked moves the oldest segment's live records to the newest
// and unlinks it: one sequential scan, which stops at the first record
// that does not verify — dead or alive — so whatever live entries lie
// beyond such a record are then read one by one. An entry whose record
// cannot be copied (it went bad underneath, or the append failed) is
// dropped: cached content is recomputable, disk that is never given
// back is not.
func (c *diskCache) compactLocked() {
	c.compactions++
	s, dst := c.segs[0], c.segs[len(c.segs)-1]
	move := func(i int32, payload []byte) error {
		to, err := dst.log.Append(payload)
		if err != nil {
			return err
		}
		c.disk += recordlog.HeaderSize + int64(len(payload))
		c.slots[i].seg, c.slots[i].off = dst.id, uint32(to)
		s.live--
		dst.live++
		return nil
	}
	_, err := s.log.Scan(func(off int64, payload []byte) error {
		var key fpKey
		if len(payload) < len(key) {
			return nil
		}
		copy(key[:], payload)
		i, ok := c.lookup(key)
		if !ok || c.slots[i].seg != s.id || int64(c.slots[i].off) != off {
			return nil
		}
		return move(i, payload)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wtcpd: cache: compacting %s: %v\n", s.path, err)
	}
	for i := c.slots[0].next; s.live > 0 && i != 0; {
		e := c.slots[i]
		if e.seg == s.id {
			payload, err := s.log.ReadAt(int64(e.off), len(e.key)+int(e.n))
			intact := err == nil && bytes.Equal(payload[:len(e.key)], e.key[:])
			if intact {
				err = move(i, payload)
			}
			if !intact || err != nil {
				c.dropLocked(i)
			}
			if !intact {
				c.corrupt++
			}
		}
		i = e.next
	}
	c.removeSegment(s)
	c.segs = slices.Delete(c.segs, 0, 1)
}

// stats reports entry count, resident bytes, and lifetime evictions.
func (c *diskCache) stats() (entries int, bytes int64, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index), c.size, c.evictions
}

// diskStats reports the layout: segment files, their total bytes, and
// the lifetime counts of compactions and of entries dropped because
// their record no longer verified.
func (c *diskCache) diskStats() (segments int, diskBytes int64, compactions, corrupt uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.segs), c.disk, c.compactions, c.corrupt
}

// close releases every segment. Gets after it miss, puts fail by name.
func (c *diskCache) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, s := range c.segs {
		if s.log != nil { // nil only while openDiskCache is failing
			s.log.Close()
		}
	}
}
