package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wtcp/internal/atomicfile"
	"wtcp/internal/recordlog"
)

// The on-disk stores — the journal's pending.log and the cache's
// segments — fed what a crash, a bad disk or an older server leaves
// behind. The contract is the checkpoint's (PR 14): a named error or a
// counted skip, no panic, and nothing that was fully written is lost.

// pendingRun is a journal entry for a real, fast /v1/run request.
func pendingRun(t *testing.T, seed int64) pendingRequest {
	t.Helper()
	body := runBody(seed, 20)
	return pendingRequest{Kind: "run", Fingerprint: mustRunFP(t, body), Body: body}
}

func putRecord(t *testing.T, p pendingRequest) []byte {
	t.Helper()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return recordlog.AppendRecord(nil, journalPut, data)
}

func tombstoneRecord(fp string) []byte {
	return recordlog.AppendRecord(nil, journalTombstone, []byte(fp))
}

func fingerprints(ps []pendingRequest) []string {
	out := []string{}
	for _, p := range ps {
		out = append(out, p.Fingerprint)
	}
	return out
}

// waitJournalEmpty blocks until every resumed request has settled.
func waitJournalEmpty(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for srv.jour.entries() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("journal never drained: %d entries left", srv.jour.entries())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJournalReplayListsEachPendingRequestOnce writes the record
// sequences a journal can hold after a crash and checks the live set a
// restart sees — and that Resume executes exactly that set, once each.
func TestJournalReplayListsEachPendingRequestOnce(t *testing.T) {
	a, b := pendingRun(t, 1), pendingRun(t, 2)
	if a.Fingerprint > b.Fingerprint {
		a, b = b, a // list order is by fingerprint
	}
	putA, putB := putRecord(t, a), putRecord(t, b)
	tombA := tombstoneRecord(a.Fingerprint)
	// a's body under the address an older build gave it.
	older := pendingRequest{Kind: a.Kind, Fingerprint: strings.Repeat("ab", 32), Body: a.Body}
	cases := []struct {
		name    string
		records [][]byte
		want    []string
	}{
		{"empty log", nil, []string{}},
		{"tombstone with no put", [][]byte{tombA}, []string{}},
		{"duplicate put", [][]byte{putA, putA}, []string{a.Fingerprint}},
		{"put after tombstone", [][]byte{putA, tombA, putA}, []string{a.Fingerprint}},
		{"settled, then a crash between the next put and its tombstone", [][]byte{putA, tombA, putB}, []string{b.Fingerprint}},
		{"two in flight at the crash", [][]byte{putB, putA}, []string{a.Fingerprint, b.Fingerprint}},
		{"torn tombstone", [][]byte{putA, tombA[:len(tombA)-1]}, []string{a.Fingerprint}},
		{"torn put", [][]byte{putA, putB[:len(putB)/2]}, []string{a.Fingerprint}},
		{"record of an unknown kind is skipped, not fatal", [][]byte{recordlog.AppendRecord(nil, []byte("?what")), putA}, []string{a.Fingerprint}},
		{"put that is not a request is skipped", [][]byte{recordlog.AppendRecord(nil, journalPut, []byte(`{"fingerprint":"short"}`)), putB}, []string{b.Fingerprint}},
		{"put under an older address answers and retires under it", [][]byte{putRecord(t, older)}, []string{older.Fingerprint}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, "pending"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "pending", journalFile), bytes.Join(tc.records, nil), 0o644); err != nil {
				t.Fatal(err)
			}
			srv := newTestServer(t, dir, nil)
			if got := fingerprints(srv.jour.list()); !slices.Equal(got, tc.want) {
				t.Fatalf("journal lists %v, want %v", got, tc.want)
			}
			if n := srv.Resume(); n != len(tc.want) {
				t.Fatalf("Resume picked up %d requests, want %d", n, len(tc.want))
			}
			waitJournalEmpty(t, srv)
			if got := srv.met.executed.Load(); got != uint64(len(tc.want)) {
				t.Errorf("executed %d requests, want each of the %d exactly once", got, len(tc.want))
			}
			for _, fp := range tc.want {
				if _, ok := srv.cache.get(fp); !ok {
					t.Errorf("resumed %s left no cached result", fp[:12])
				}
			}
			// The next life has nothing left to resume.
			srv.Close()
			if n := newTestServer(t, dir, nil).Resume(); n != 0 {
				t.Errorf("second restart resumed %d requests, want 0", n)
			}
		})
	}
}

// TestJournalSurvivesEveryTornTail cuts a real pending.log after every
// byte: whatever a dying process managed to write, the restart lists
// exactly the requests whose put is fully inside the cut and whose
// tombstone is not — no fully-written pending request is lost, none
// comes back after it was settled.
func TestJournalSurvivesEveryTornTail(t *testing.T) {
	reqs := []pendingRequest{pendingRun(t, 1), pendingRun(t, 2), pendingRun(t, 3)}
	src := filepath.Join(t.TempDir(), "pending")
	j, err := openJournal(src)
	if err != nil {
		t.Fatal(err)
	}
	type op struct {
		put bool
		req int
		end int64
	}
	var ops []op
	do := func(put bool, req int) {
		if put {
			if err := j.put(reqs[req]); err != nil {
				t.Fatal(err)
			}
		} else {
			j.remove(reqs[req].Fingerprint)
		}
		ops = append(ops, op{put, req, j.log.Size()})
	}
	do(true, 0)
	do(true, 1)
	do(false, 0)
	do(true, 2)
	do(false, 1)
	do(true, 0)
	j.close()
	data, err := os.ReadFile(filepath.Join(src, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != ops[len(ops)-1].end {
		t.Fatalf("log is %d bytes, the appends account for %d", len(data), ops[len(ops)-1].end)
	}
	for cut := 0; cut <= len(data); cut++ {
		live := map[string]bool{}
		for _, o := range ops {
			if o.end > int64(cut) {
				break
			}
			if o.put {
				live[reqs[o.req].Fingerprint] = true
			} else {
				delete(live, reqs[o.req].Fingerprint)
			}
		}
		dir := filepath.Join(t.TempDir(), "pending")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, journalFile), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := openJournal(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := fingerprints(re.list())
		if len(got) != len(live) {
			t.Fatalf("cut %d: lists %d requests, want %d", cut, len(got), len(live))
		}
		for _, fp := range got {
			if !live[fp] || !re.has(fp) {
				t.Fatalf("cut %d: lists %s, which the intact prefix does not hold pending", cut, fp[:12])
			}
		}
		re.close()
	}
}

// TestJournalRewritesItselfPastTheSizeLimit: the log is almost all
// settled pairs, so once it has grown journalCompactBytes it is
// rewritten from the live set — which must carry a request that has
// been pending all along, and the one whose put triggered the rewrite.
func TestJournalRewritesItselfPastTheSizeLimit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pending")
	j, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := pendingRun(t, 1)
	if err := j.put(old); err != nil {
		t.Fatal(err)
	}
	big := json.RawMessage(`"` + string(bytes.Repeat([]byte("x"), 20<<10)) + `"`)
	shrank := 0
	for i := 0; i < 200; i++ {
		before := j.log.Size()
		p := pendingRequest{Kind: "run", Fingerprint: fmt.Sprintf("%064x", i+1), Body: big}
		if err := j.put(p); err != nil {
			t.Fatal(err)
		}
		if j.log.Size() < before {
			shrank++
			// Rewritten by this put: the request it carried is in the new log.
			if got := j.log.Size(); got < int64(len(big)) {
				t.Fatalf("put %d triggered a rewrite to %d bytes that lost its own request", i, got)
			}
		}
		if limit := int64(journalCompactBytes + 2*len(big) + 4096); j.log.Size() > limit {
			t.Fatalf("put %d: log is %d bytes, the limit is %d past the last rewrite", i, j.log.Size(), journalCompactBytes)
		}
		j.remove(p.Fingerprint)
	}
	if shrank < 2 {
		t.Fatalf("4 MB of appends rewrote the log %d times; the case proves nothing", shrank)
	}
	j.close()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("pending/ holds %d files (err %v), want the log alone", len(entries), err)
	}
	re, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	if got := fingerprints(re.list()); !slices.Equal(got, []string{old.Fingerprint}) {
		t.Errorf("after the rewrites and a reopen the journal lists %v, want the one request pending all along", got)
	}
}

// TestLegacyLayoutIsRefused: a data directory written by a server from
// before the logs. Its pending/<fp>.json is accepted work this build
// cannot read, so New refuses the directory by that file's path and
// leaves the file as it was (and the directory unlocked); once it is
// gone the server starts. A results/<fp> file is not the cache's: it
// is left alone and never served.
func TestLegacyLayoutIsRefused(t *testing.T) {
	dir := t.TempDir()
	p := pendingRun(t, 7)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "pending", p.Fingerprint+".json")
	legacyResult := fmt.Sprintf("%064x", 99)
	for path, content := range map[string][]byte{
		legacy: data,
		filepath.Join(dir, "results", legacyResult): []byte(`{"stale":"layout"}`),
	} {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(Config{DataDir: dir})
	if err == nil {
		srv.Close()
		t.Fatal("a data directory holding a legacy pending request was opened")
	}
	if !strings.Contains(err.Error(), legacy) {
		t.Errorf("refusal %q does not name %s", err, legacy)
	}
	if after, err := os.ReadFile(legacy); err != nil || !bytes.Equal(after, data) {
		t.Errorf("the refused file changed or went away (err %v)", err)
	}
	if err := os.Remove(legacy); err != nil {
		t.Fatal(err)
	}
	srv = newTestServer(t, dir, nil)
	if n := srv.Resume(); n != 0 {
		t.Errorf("resumed %d requests from a directory with none journaled", n)
	}
	if _, ok := srv.cache.get(legacyResult); ok {
		t.Error("a legacy result file was served")
	}
	if _, err := os.Stat(filepath.Join(dir, "results", legacyResult)); err != nil {
		t.Errorf("the legacy result file was touched: %v", err)
	}
}

// TestStoreLayoutSLO is a cost pin with no clock in it: what made a miss
// expensive was a file created per request in each store, so after
// 1 000 of each the directories hold a handful of files, not thousands.
func TestStoreLayoutSLO(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 32 << 10
	c, err := openDiskCache(filepath.Join(dir, "results"), 1<<30, segBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	j, err := openJournal(filepath.Join(dir, "pending"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	body := bytes.Repeat([]byte("r"), 232) // serve_mix's mean reply
	for i := 0; i < 1000; i++ {
		p := pendingRequest{Kind: "run", Fingerprint: fmt.Sprintf("%064x", i), Body: json.RawMessage(`{}`)}
		if err := j.put(p); err != nil {
			t.Fatal(err)
		}
		if err := c.put(p.Fingerprint, body); err != nil {
			t.Fatal(err)
		}
		j.remove(p.Fingerprint)
	}
	_, disk, _, _ := c.diskStats()
	results, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	if limit := int((disk+segBytes-1)/segBytes) + 1; len(results) > limit {
		t.Errorf("results/ holds %d files for %d bytes in %d-byte segments, want at most %d", len(results), disk, segBytes, limit)
	}
	pending, err := os.ReadDir(filepath.Join(dir, "pending"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 {
		t.Errorf("pending/ holds %d files after 1000 settled requests, want 1", len(pending))
	}
}

// TestDamagedCacheRecordIsRecomputedNotServed is the byte-identity
// contract under a bad disk: flip every byte of a stored record in turn,
// then truncate it at every length, and ask again each time. The reply
// is the original body — served, or recomputed as a miss — never a third
// thing. (With one file per fingerprint the damaged bytes were answered
// verbatim as a hit.)
func TestDamagedCacheRecordIsRecomputedNotServed(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), nil)
	h := srv.Handler()
	body := runBody(3, 20)
	fp := mustRunFP(t, body)
	ask := func() (string, []byte) {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", w.Code, w.Body)
		}
		return w.Header().Get("X-Wtcpd-Cache"), w.Body.Bytes()
	}
	_, fresh := ask()
	if state, again := ask(); state != "hit" || !bytes.Equal(again, fresh) {
		t.Fatalf("undamaged repeat: cache=%q identical=%v", state, bytes.Equal(again, fresh))
	}
	damaged := uint64(0)
	check := func(what string) {
		t.Helper()
		damaged++
		state, got := ask()
		if !bytes.Equal(got, fresh) {
			t.Fatalf("%s: served %q as a %s, want the original %q", what, got, state, fresh)
		}
		if state != "miss" {
			t.Fatalf("%s: answered as a %q; a damaged record must fall through to recompute", what, state)
		}
		if _, _, _, corrupt := srv.cache.diskStats(); corrupt != damaged {
			t.Fatalf("%s: corrupt counter = %d, want %d", what, corrupt, damaged)
		}
		if state, got := ask(); state != "hit" || !bytes.Equal(got, fresh) {
			t.Fatalf("%s: the recomputed entry is not served afterwards (cache=%q)", what, state)
		}
	}
	_, _, n := srv.cache.recordAt(t, fp)
	for i := int64(0); i < n; i++ {
		path, off, _ := srv.cache.recordAt(t, fp)
		flipByte(t, path, off+i)
		check(fmt.Sprintf("byte %d of %d flipped", i, n))
	}
	for keep := int64(0); keep < n; keep++ {
		path, off, _ := srv.cache.recordAt(t, fp)
		if err := os.Truncate(path, off+keep); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("record truncated to %d of %d bytes", keep, n))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := fmt.Sprintf("wtcpd_cache_corrupt_total %d\n", damaged); !bytes.Contains(w.Body.Bytes(), []byte(want)) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestDiskCacheReopenOrderAndCap: after a restart the recency order is
// append order (what file modification times gave the old layout), and
// the cap is applied again at open — so whatever an earlier life had
// evicted that is still in a surviving segment comes back only as far
// as the cap allows, oldest first out.
func TestDiskCacheReopenOrderAndCap(t *testing.T) {
	fp := func(i int) string { return fmt.Sprintf("%064d", i) }
	dir := t.TempDir()
	blob := bytes.Repeat([]byte("b"), 100)
	c, err := openDiskCache(dir, 1000, 300)
	if err != nil {
		t.Fatal(err)
	}
	var appended []string
	for i := 0; i < 14; i++ { // 4 evicted on the way; 2 whole segments unlinked
		if err := c.put(fp(i), blob); err != nil {
			t.Fatal(err)
		}
		appended = append(appended, fp(i))
	}
	c.get(fp(5)) // recency is not persisted: this does not survive the restart
	_, _, evicted := c.stats()
	c.close()

	re, err := openDiskCache(dir, 1000, 300)
	if err != nil {
		t.Fatal(err)
	}
	entries, size, _ := re.stats()
	if size > 1000 || entries != 10 {
		t.Errorf("reopened with %d entries / %d bytes under a 1000-byte cap, want 10 / 1000", entries, size)
	}
	got := re.order()
	if len(got) == 0 || !slices.Equal(got, appended[len(appended)-len(got):]) {
		t.Errorf("order after reopen:\n got %v\nwant the tail of append order %v", got, appended)
	}
	if evicted != 4 {
		t.Errorf("first life evicted %d, want 4", evicted)
	}
	for _, f := range got {
		if data, ok := re.get(f); !ok || !bytes.Equal(data, blob) {
			t.Errorf("entry %s lost across reopen", f[60:])
		}
	}
	re.close()

	// A smaller cap at the next open: the oldest appended go first, and
	// their segments with them.
	small, err := openDiskCache(dir, 350, 300)
	if err != nil {
		t.Fatal(err)
	}
	defer small.close()
	if got := small.order(); !slices.Equal(got, appended[len(appended)-3:]) {
		t.Errorf("order under the smaller cap %v, want the last 3 appended", got)
	}
	if _, size, _ := small.stats(); size > 350 {
		t.Errorf("size %d exceeds the cap re-applied at open", size)
	}
	segs, disk, _, _ := small.diskStats()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != segs || disk > 2*3*recordBytes(100)+300 {
		t.Errorf("%d files / %d bytes on disk for 3 live entries (diskStats: %d segments)", len(files), disk, segs)
	}
}

// TestDiskCacheGetsRaceMovesAndEvictions (run under -race): one writer
// churns cold entries through a small cap in small segments while
// keeping a hot set alive by reading it, so hot records sit in old
// segments among the dead and are moved by compaction again and again.
// Readers hammer the hot set and a few cold entries meanwhile: a hot
// entry is never missed, and no get ever returns bytes that are not that
// fingerprint's.
func TestDiskCacheGetsRaceMovesAndEvictions(t *testing.T) {
	const hot, warm, cold, capBytes, segBytes = 8, 10, 400, 6000, 1500
	fp := func(i int) string { return fmt.Sprintf("%064d", i) }
	bodyOf := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 60+i%90) }
	c, err := openDiskCache(t.TempDir(), capBytes, segBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	puts := 0
	put := func(i int) {
		if err := c.put(fp(i), bodyOf(i)); err != nil {
			t.Error(err)
		}
		if puts++; puts%6 == 0 {
			for h := 0; h < hot; h++ {
				c.get(fp(h))
			}
		}
	}
	// One hot entry per segment or so, each soon alone among the dead.
	for i := 0; i < hot; i++ {
		put(i)
		for k := 0; k < 12; k++ {
			put(hot + warm + i*12 + k)
		}
	}
	// Why a hot entry is always live: an entry is evicted only as the
	// least recently used of more than capBytes. What can be more recent
	// than a hot entry is the rest of the hot set, the puts since put()
	// last read it (6 x 150 bytes at most) and whatever the
	// readers refresh besides — so those are held to the first `warm`
	// cold entries (1 500 bytes at most). That is under half the cap.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rng := rand.New(rand.NewSource(int64(r)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := rng.Intn(hot + warm)
				data, ok := c.get(fp(i))
				if ok && !bytes.Equal(data, bodyOf(i)) {
					t.Errorf("get(%d) returned another entry's bytes: %.20q", i, data)
					return
				}
				if !ok && i < hot {
					t.Errorf("hot entry %d missed while it was live", i)
					return
				}
			}
		}()
	}
	for round := 0; round < 40; round++ {
		for i := hot; i < hot+cold; i++ {
			put(i)
		}
	}
	stop.Store(true)
	wg.Wait()
	_, _, evictions := c.stats()
	_, _, compactions, corrupt := c.diskStats()
	if evictions == 0 || compactions < hot {
		t.Errorf("%d evictions, %d compactions: the race was never on", evictions, compactions)
	}
	if corrupt != 0 {
		t.Errorf("%d entries were dropped as corrupt on a healthy disk", corrupt)
	}
}

// TestTwoServersOnOneDirectoryFailByName: the stores are appended to in
// place, so a second server on the directory is refused — by a named
// error, with the holder — until the first is closed (closing twice is
// harmless).
func TestTwoServersOnOneDirectoryFailByName(t *testing.T) {
	dir := t.TempDir()
	first, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{DataDir: dir})
	if !errors.Is(err, atomicfile.ErrLocked) {
		t.Fatalf("second server on a live directory: err = %v, want atomicfile.ErrLocked", err)
	}
	first.Close()
	first.Close()
	second, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("server on a released directory: %v", err)
	}
	second.Close()
}

// TestDiskCacheShortKeyCollisionDisplaces: the index map is keyed by 64
// bits of the fingerprint. Two fingerprints that agree there (crafted
// here; for a sha256 it does not happen) cannot both be resident: the
// newer displaces the older, and neither is ever answered with the
// other's bytes — now or after a reopen.
func TestDiskCacheShortKeyCollisionDisplaces(t *testing.T) {
	dir := t.TempDir()
	a := "aaaaaaaaaaaaaaaa" + fmt.Sprintf("%048x", 7)
	b := "bbbbbbbbbbbbbbbb" + fmt.Sprintf("%048x", 7)
	c, err := openDiskCache(dir, 1<<20, cacheSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	check := func(c *diskCache, when string) {
		t.Helper()
		if data, ok := c.get(a); ok {
			t.Errorf("%s: displaced entry still served: %q", when, data)
		}
		if data, ok := c.get(b); !ok || string(data) != "body of b" {
			t.Errorf("%s: get(b) = %q, %v", when, data, ok)
		}
		if entries, size, evictions := c.stats(); entries != 1 || size != int64(len("body of b")) || evictions != 0 {
			t.Errorf("%s: stats (%d, %d, %d), want (1, 9, 0)", when, entries, size, evictions)
		}
	}
	if err := c.put(a, []byte("body of a")); err != nil {
		t.Fatal(err)
	}
	if data, ok := c.get(b); ok {
		t.Fatalf("get(b) before b was stored returned %q", data)
	}
	if err := c.put(b, []byte("body of b")); err != nil {
		t.Fatal(err)
	}
	check(c, "after the colliding put")
	c.close()
	re, err := openDiskCache(dir, 1<<20, cacheSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	check(re, "after reopen")
}
