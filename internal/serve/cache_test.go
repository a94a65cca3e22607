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
	"strings"
	"sync"
	"testing"

	"wtcp/internal/experiment"
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
		`{"scenario":{"preset":"wan","mean_bad":"4000ms","seed":1}}`,
		`{"scenario":{"mean_bad":"4s","seed":1}}`,
		`{"scenario":{"preset":"wan","scheme":"basic","variant":"tahoe","mean_bad":"4s","seed":1}}`,
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
		`{"scenario":{"preset":"wan","mean_bad":"4s","seed":1,"collect_trace":true}}`,
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
		`{"scenario":{"preset":"lan","mean_bad":"4s","seed":1}}`,
		`{"scenario":{"preset":"wan","mean_bad":"4s","seed":1,"stall":"off"}}`,
	}
	seen := map[string]string{base: "base"}
	for _, body := range distinct {
		got := fp(body)
		if prev, dup := seen[got]; dup {
			t.Errorf("fingerprint collision between %s and %s", prev, body)
		}
		seen[got] = body
	}

	// A preset's numeric defaults, written out or left out, name one
	// run: the packet size, seed, transfer, window, MTU, rates and
	// mean_good the preset supplies.
	defaults := fp(`{"scenario":{"mean_bad":"4s","transfer_kb":20,"seed":1}}`)
	for _, body := range []string{
		`{"scenario":{"mean_bad":"4s","transfer_kb":20}}`,
		`{"scenario":{"mean_bad":"4s","transfer_kb":20,"seed":1,"packet_size_bytes":576}}`,
		`{"scenario":{"mean_bad":"4s","transfer_kb":20,"window_kb":4,"mtu_bytes":128,"wired_kbps":56,"wireless_kbps":19.2,"mean_good":"10s"}}`,
	} {
		if got := fp(body); got != defaults {
			t.Errorf("fingerprint split by a preset default: %s", body)
		}
	}
	if a, b := fp(`{"scenario":{"preset":"lan","mean_bad":"800ms"}}`),
		fp(`{"scenario":{"preset":"lan","mean_bad":"800ms","packet_size_bytes":1536,"transfer_kb":4096,"window_kb":64,"mtu_bytes":-1,"wired_kbps":10000,"wireless_kbps":2000,"mean_good":"4s","seed":1}}`); a != b {
		t.Error("fingerprint split by the LAN preset's defaults written out")
	}

	// Every duration compares by value.
	if a, b := fp(`{"scenario":{"mean_bad":"4s","mean_good":"10s","horizon":"1h","stall":"5m","seed":1}}`),
		fp(`{"scenario":{"mean_bad":"4s","mean_good":"10000ms","horizon":"60m","stall":"300s","seed":1}}`); a != b {
		t.Error("fingerprint split by duration spelling")
	}

	// The equivalence table: each group is one run, so one address. The
	// preset's horizon and notify_every written out, and a chaos plan
	// that injects nothing in any spelling, address the base run; a
	// blackout is addressed by its parsed form.
	const run = `{"mean_bad":"4s","transfer_kb":20,"seed":1%s}`
	wrap := func(extra string) string { return `{"scenario":` + fmt.Sprintf(run, extra) + `}` }
	blackout := `,"chaos":{"blackouts":[{"link":"wireless-down","at":"%s","length":"3s"}]}`
	groups := [][]string{
		{"", `,"horizon":"4h"`, `,"chaos":{}`, `,"chaos":null`, `,"chaos":{"blackouts":[],"crashes":[]}`,
			`,"notify_every":1`, `,"notify_every":0`, `,"chaos":{"notify":{"delay":"1s"}}`},
		{fmt.Sprintf(blackout, "5s"), fmt.Sprintf(blackout, "5000ms")},
	}
	seen = map[string]string{}
	for _, group := range groups {
		addr := fp(wrap(group[0]))
		for _, extra := range group[1:] {
			if got := fp(wrap(extra)); got != addr {
				t.Errorf("%s is addressed apart from %s", wrap(extra), wrap(group[0]))
			}
		}
		seen[addr] = wrap(group[0])
	}
	if len(seen) != len(groups) {
		t.Errorf("the equivalence groups share an address: %v", seen)
	}

	// The distinct table: each row changes what runs or what the
	// response holds, so each keeps its own address.
	for _, body := range []string{
		`{"scenario":{"mean_bad":"4s","transfer_kb":20,"seed":2}}`,
		wrap(`,"horizon":"1h"`),
		wrap(`,"stall":"5m"`), // arms the watchdog, which the base run leaves off
		wrap(`,"chaos":{"blackouts":[{"link":"wireless-down","at":"6s","length":"3s"}]}`),
		wrap(`,"notify_every":2`),
		`{"scenario":` + fmt.Sprintf(run, "") + `,"replications":2}`,
	} {
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
	// The address is the sweep/v3 identity: the options fingerprint and
	// the ordered sweep list, nothing else.
	opt, err := experiment.Campaign{Sweeps: []string{"fig7"}, Replications: 2, BadPeriods: []string{"4s"}}.Options()
	if err != nil {
		t.Fatal(err)
	}
	if want := fingerprintOf(map[string]any{"kind": "sweep/v3", "options": experiment.Fingerprint(opt), "sweeps": []string{"fig7"}}); base != want {
		t.Errorf("sweep address %s, want the sweep/v3 identity %s", base, want)
	}
	// A sweep is addressed by the grid it resolves to, not its spelling.
	for _, body := range []string{
		`{"campaign":{"sweeps":["fig7"],"replications":2,"bad_periods":["4000ms"]}}`,
		`{"campaign":{"sweeps":["fig7"],"replications":2,"bad_periods":["4s"],"retries":1}}`,
		`{"campaign":{"sweeps":["fig7"],"replications":2,"bad_periods":["4s"],"packet_sizes":[128,256,384,512,640,768,896,1024,1152,1280,1408,1536]}}`,
	} {
		if got := fp(body); got != base {
			t.Errorf("sweep identity split by spelling: %s", body)
		}
	}
	if a, b := fp(`{"campaign":{"sweeps":["fig7"]}}`), fp(`{"campaign":{"sweeps":["fig7"],"replications":5}}`); a != b {
		t.Error("sweep identity split by spelling the default replication count")
	}
	// A budget is execution policy, not identity: an answer it starved
	// is not cached (TestBudgetedQuarantineAnswersOnlyItsBudget).
	for _, budget := range []string{`{}`, `{"wall_clock":"5m"}`, `{"max_events":3000}`} {
		if fp(`{"campaign":{"sweeps":["fig7"],"replications":2,"bad_periods":["4s"],"budget":`+budget+`}}`) != base {
			t.Errorf("the budget %s split the sweep identity", budget)
		}
	}
	// A manifest has no worker width (wtcpd's slots are the width): it
	// is refused as an unknown field.
	if _, _, err := ParseSweepRequest([]byte(`{"campaign":{"sweeps":["fig7"],"replications":2,"bad_periods":["4s"],"workers":8}}`)); err == nil ||
		!strings.Contains(err.Error(), `unknown field "workers"`) {
		t.Errorf("a manifest naming workers: err %v, want an unknown-field refusal", err)
	}
	// Nor a failure policy (every sweep quarantines a pathological
	// point): supervise is refused the same way.
	if _, _, err := ParseSweepRequest([]byte(`{"campaign":{"sweeps":["fig7"],"replications":2,"bad_periods":["4s"],"supervise":true}}`)); err == nil ||
		!strings.Contains(err.Error(), `unknown field "supervise"`) {
		t.Errorf("a manifest naming supervise: err %v, want an unknown-field refusal", err)
	}
	seen := map[string]string{base: "base"}
	for _, body := range []string{
		`{"campaign":{"sweeps":["fig7"],"replications":3,"bad_periods":["4s"]}}`,
		`{"campaign":{"sweeps":["fig8"],"replications":2,"bad_periods":["4s"]}}`,
		`{"campaign":{"sweeps":["fig7","fig8"],"replications":2,"bad_periods":["4s"]}}`,
		`{"campaign":{"sweeps":["fig8","fig7"],"replications":2,"bad_periods":["4s"]}}`,
		`{"campaign":{"sweeps":["fig7"],"replications":2,"bad_periods":["4s","1s"]}}`,
		`{"campaign":{"sweeps":["fig7"],"replications":2,"bad_periods":["1s","4s"]}}`,
		`{"campaign":{"sweeps":["fig7"],"replications":2,"bad_periods":["4s"],"oracle":true}}`,
	} {
		got := fp(body)
		if prev, dup := seen[got]; dup {
			t.Errorf("sweep fingerprint collision between %s and %s", prev, body)
		}
		seen[got] = body
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
