package serve

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"testing"
)

// Fingerprint identity: what must split the cache and what must not.

func TestRunFingerprintIdentity(t *testing.T) {
	fp := func(body string) string {
		t.Helper()
		return mustRunFP(t, []byte(body))
	}
	base := fp(`{"scenario":{"preset":"wan","mean_bad":"4s","seed":1}}`)

	// Formatting, key order, and default spelling never split the cache.
	same := []string{
		`{ "scenario" : {"preset":"wan", "mean_bad":"4s", "seed":1} }`,
		`{"scenario":{"mean_bad":"4s","seed":1,"preset":"wan"}}`,
		`{"scenario":{"preset":"wan","mean_bad":"4s","seed":1},"replications":1}`,
	}
	for _, body := range same {
		if got := fp(body); got != base {
			t.Errorf("fingerprint split by formatting: %s", body)
		}
	}

	// Budgets and deadlines bound how long we compute, not what a
	// within-budget run measures: excluded from identity.
	excluded := []string{
		`{"scenario":{"preset":"wan","mean_bad":"4s","seed":1,"budget":{"max_events":999999999}}}`,
		`{"scenario":{"preset":"wan","mean_bad":"4s","seed":1},"deadline_ms":5000}`,
	}
	for _, body := range excluded {
		if got := fp(body); got != base {
			t.Errorf("execution knob leaked into identity: %s", body)
		}
	}

	// Seeds and every result-affecting field are included.
	distinct := []string{
		`{"scenario":{"preset":"wan","mean_bad":"4s","seed":2}}`,
		`{"scenario":{"preset":"wan","mean_bad":"2s","seed":1}}`,
		`{"scenario":{"preset":"wan","mean_bad":"4s","seed":1,"sack":true}}`,
		`{"scenario":{"preset":"wan","mean_bad":"4s","seed":1},"replications":2}`,
		`{"scenario":{"preset":"wan","mean_bad":"4s","seed":1,"chaos":{"notify":{"loss_prob":0.5}}}}`,
	}
	seen := map[string]string{base: "base"}
	for _, body := range distinct {
		got := fp(body)
		if prev, dup := seen[got]; dup {
			t.Errorf("fingerprint collision between %s and %s", prev, body)
		}
		seen[got] = body
	}
}

func TestSweepFingerprintIdentity(t *testing.T) {
	fp := func(body string) string {
		t.Helper()
		_, c, err := ParseSweepRequest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		return SweepFingerprint(c)
	}
	base := fp(`{"campaign":{"sweeps":["fig7"],"replications":2,"bad_periods":["4s"]}}`)
	// Worker width and budget are pure execution knobs.
	if got := fp(`{"campaign":{"sweeps":["fig7"],"replications":2,"bad_periods":["4s"],"workers":8,"budget":{"wall_clock":"5m"}}}`); got != base {
		t.Error("workers/budget leaked into sweep identity")
	}
	// Supervise changes the response shape (quarantines vs failure).
	if got := fp(`{"campaign":{"sweeps":["fig7"],"replications":2,"bad_periods":["4s"],"supervise":true}}`); got == base {
		t.Error("supervise does not split sweep identity but changes the answer")
	}
	if got := fp(`{"campaign":{"sweeps":["fig7"],"replications":3,"bad_periods":["4s"]}}`); got == base {
		t.Error("replications does not split sweep identity")
	}
}

// Disk cache mechanics: byte-cap eviction, LRU order, reopen.

func TestDiskCacheEvictsUnderByteCap(t *testing.T) {
	fp := func(i int) string { return fmt.Sprintf("%064d", i) }
	blob := bytes.Repeat([]byte("x"), 100)

	c, err := openDiskCache(t.TempDir(), 250, cacheSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.put(fp(i), blob); err != nil {
			t.Fatal(err)
		}
	}
	// 300 bytes over a 250 cap: the oldest entry evicts.
	if _, ok := c.get(fp(0)); ok {
		t.Error("oldest entry survived the byte cap")
	}
	for i := 1; i < 3; i++ {
		if _, ok := c.get(fp(i)); !ok {
			t.Errorf("entry %d evicted prematurely", i)
		}
	}
	entries, size, evictions := c.stats()
	if entries != 2 || size != 200 || evictions != 1 {
		t.Errorf("stats = (%d, %d, %d), want (2, 200, 1)", entries, size, evictions)
	}

	// A get refreshes recency: touch 1, insert 3, expect 2 to evict.
	c.get(fp(1))
	if err := c.put(fp(3), blob); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.get(fp(2)); ok {
		t.Error("LRU order ignores gets: 2 should have evicted before 1")
	}
	if _, ok := c.get(fp(1)); !ok {
		t.Error("recently read entry evicted")
	}

	// A blob larger than the whole cap is refused outright, not allowed
	// to flush everything else.
	if err := c.put(fp(9), bytes.Repeat([]byte("y"), 300)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.get(fp(9)); ok {
		t.Error("over-cap blob was cached")
	}
	if _, ok := c.get(fp(1)); !ok {
		t.Error("over-cap blob evicted resident entries")
	}
}

func TestDiskCacheSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	fp := func(i int) string { return fmt.Sprintf("%064d", i) }
	c, err := openDiskCache(dir, 1<<20, cacheSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.put(fp(i), []byte(fmt.Sprintf("blob-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.close()
	re, err := openDiskCache(dir, 1<<20, cacheSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	for i := 0; i < 3; i++ {
		data, ok := re.get(fp(i))
		if !ok || string(data) != fmt.Sprintf("blob-%d", i) {
			t.Errorf("entry %d lost across reopen", i)
		}
	}
	entries, size, _ := re.stats()
	if entries != 3 || size == 0 {
		t.Errorf("reopen re-indexed (%d, %d)", entries, size)
	}
}

// order lists the resident fingerprints, least recently used first.
func (c *diskCache) order() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for i := c.slots[0].next; i != 0; i = c.slots[i].next {
		out = append(out, hex.EncodeToString(c.slots[i].key[:]))
	}
	return out
}

// recordAt reports where fp's record is: segment file, offset, and
// length including the frame.
func (c *diskCache) recordAt(t *testing.T, fp string) (path string, off, n int64) {
	t.Helper()
	key, _ := parseFP(fp)
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.lookup(key)
	if !ok {
		t.Fatalf("entry %s is not resident", fp[:12])
	}
	e := c.slots[i]
	return c.segByID(e.seg).path, int64(e.off), recordBytes(e.n)
}

// flipByte inverts the byte at off in path.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestDiskCacheInterleavedOrder drives a seeded interleaving of gets,
// puts and records going bad on disk against the obvious model — a
// slice kept in recency order, scanned linearly — and requires the same
// resident set and the same eviction count after every step: the slab
// list must evict in exactly the order the scan did. The segments are
// small enough that the run seals, unlinks and compacts dozens of them,
// so the same steps pin the space rule: the files never hold more than
// twice the live bytes plus one segment.
func TestDiskCacheInterleavedOrder(t *testing.T) {
	fp := func(i int) string { return fmt.Sprintf("%064d", i) }
	const capBytes, segBytes, keys = 1000, 400, 40
	dir := t.TempDir()
	c, err := openDiskCache(dir, capBytes, segBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	var order []int // model: front oldest
	sizes := map[int]int{}
	total, evictions, corrupted, maxSegs := 0, 0, 0, 0
	unlist := func(k int) {
		order = slices.DeleteFunc(order, func(o int) bool { return o == k })
	}
	drop := func(k int) {
		total -= sizes[k]
		delete(sizes, k)
		unlist(k)
	}
	rng := rand.New(rand.NewSource(14))
	for step := 0; step < 3000; step++ {
		k := rng.Intn(keys)
		_, resident := sizes[k]
		switch op := rng.Intn(10); {
		case op < 5: // get: a hit refreshes recency
			if _, ok := c.get(fp(k)); ok != resident {
				t.Fatalf("step %d: get(%d) = %v, model says %v", step, k, ok, resident)
			}
			if resident {
				unlist(k)
				order = append(order, k)
			}
		case op < 9: // put: first write wins, then evict to the cap
			n := 50 + rng.Intn(200)
			if err := c.put(fp(k), bytes.Repeat([]byte("x"), n)); err != nil {
				t.Fatal(err)
			}
			if !resident {
				order, sizes[k], total = append(order, k), n, total+n
				for total > capBytes {
					drop(order[0])
					evictions++
				}
			}
		default: // the record no longer passes its CRC; the next get drops the index
			if resident {
				path, off, n := c.recordAt(t, fp(k))
				flipByte(t, path, off+rng.Int63n(n))
				if _, ok := c.get(fp(k)); ok {
					t.Fatalf("step %d: corrupted entry %d still served", step, k)
				}
				drop(k)
				corrupted++
			}
		}
		entries, size, ev := c.stats()
		if entries != len(order) || size != int64(total) || ev != uint64(evictions) {
			t.Fatalf("step %d: stats (%d, %d, %d), model (%d, %d, %d)", step, entries, size, ev, len(order), total, evictions)
		}
		live := int64(0)
		for _, n := range sizes {
			live += recordBytes(uint32(n))
		}
		segs, disk, _, _ := c.diskStats()
		if disk > 2*live+segBytes {
			t.Fatalf("step %d: %d bytes on disk for %d live; the rule is 2 x live + one segment", step, disk, live)
		}
		maxSegs = max(maxSegs, segs)
	}
	// The recency order itself, front to back.
	var want []string
	for _, k := range order {
		want = append(want, fp(k))
	}
	if got := c.order(); !slices.Equal(got, want) {
		t.Errorf("recency order diverged from the model:\n got %v\nwant %v", got, want)
	}
	if evictions == 0 {
		t.Error("the interleaving never evicted; the case proves nothing")
	}
	_, _, compactions, corrupt := c.diskStats()
	if corrupt != uint64(corrupted) {
		t.Errorf("corrupt counter = %d, want %d", corrupt, corrupted)
	}
	if maxSegs < 3 || compactions == 0 {
		t.Errorf("at most %d segments and %d compactions; the space rule was never exercised", maxSegs, compactions)
	}
	// What is on disk is what diskStats says, and nothing else.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, disk, _, _ := c.diskStats()
	onDisk := int64(0)
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	if len(files) != segs || onDisk != disk {
		t.Errorf("directory holds %d files / %d bytes, diskStats says %d / %d", len(files), onDisk, segs, disk)
	}
}

// Single-flight: concurrent identical requests coalesce into one
// execution; everyone gets the same bytes. Run under -race in CI.
func TestSingleFlightDeduplicatesConcurrentRequests(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), func(cfg *Config) {
		cfg.Slots = 4
		cfg.QueueDepth = 8
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := runBody(1, 2000)
	const clients = 12
	responses := make([][]byte, clients)
	statuses := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := post(t, ts, "/v1/run", body)
			statuses[i] = resp.StatusCode
			responses[i] = data
		}()
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("client %d: HTTP %d: %s", i, statuses[i], responses[i])
		}
		if !bytes.Equal(responses[i], responses[0]) {
			t.Errorf("client %d got different bytes", i)
		}
	}
	if got := srv.met.executed.Load(); got != 1 {
		t.Errorf("%d identical concurrent requests executed %d times, want 1", clients, got)
	}
	if got := srv.met.requests.Load(); got != clients {
		t.Errorf("requests counter = %d, want %d", got, clients)
	}
}
