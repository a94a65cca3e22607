package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wtcp/internal/core"
	"wtcp/internal/experiment"
	"wtcp/internal/scenario"
	"wtcp/internal/serve"
)

// serve_mix: one in-process wtcpd (2 slots) on loopback, pre-filled with
// distinct /v1/run results and one advise table, then driven by two
// closed-loop clients with a fixed mix — 40 % run misses (fresh seed),
// 50 % run hits (uniform over the pre-filled results), 5 % GET
// /v1/result/{fp}, 5 % GET /v1/advise. Misses grow the resident cache
// while hits read it, so a gain for one that costs the other shows.

type reqKind int

const (
	kindMiss reqKind = iota
	kindHit
	kindResult
	kindAdvise
	kindCount
)

var kindNames = [kindCount]string{"mix.miss", "mix.hit", "mix.result", "mix.advise"}

// mixSizes are the section's sizes.
type mixSizes struct {
	prefill int            // distinct results stored before timing
	perKind [kindCount]int // requests of each kind in one batch
	bareN   int            // bare core.Run calls for serve.miss_overhead_ms
}

func newMixSizes(smoke bool) mixSizes {
	if smoke {
		return mixSizes{prefill: 20, perKind: [kindCount]int{16, 20, 2, 2}, bareN: 5}
	}
	return mixSizes{prefill: 2000, perKind: [kindCount]int{100, 125, 13, 12}, bareN: 100}
}

const mixClients = 2

// mixScenario is the scenario every /v1/run request names; only the seed
// varies.
func mixScenario(seed int64) scenario.File {
	return scenario.File{Scheme: "ebsn", PacketSizeBytes: 576, MeanBad: "2s", TransferKB: 100, Seed: seed}
}

func runBody(seed int64) []byte {
	sc, err := json.Marshal(mixScenario(seed))
	if err != nil {
		panic(err) // a struct of scalars
	}
	body, err := json.Marshal(serve.RunRequest{Scenario: sc})
	if err != nil {
		panic(err)
	}
	return body
}

// stored is one pre-filled result: the request that made it and the
// exact bytes the miss returned.
type stored struct {
	req  []byte
	fp   string
	body []byte
}

// mixState is a running server plus what set-up stored in it.
type mixState struct {
	sizes    mixSizes
	srv      *serve.Server
	lb       *loopback
	dir      string
	clients  [mixClients]*http.Client
	filled   []stored
	advise   []byte
	nextSeed atomic.Int64 // next never-used scenario seed
	rejected atomic.Int64
	respSize atomic.Int64
	respN    atomic.Int64
}

func (st *mixState) stop() {
	for _, c := range st.clients {
		closeClient(c)
	}
	st.lb.close()
	st.srv.Drain(context.Background())
	st.srv.Close()
	os.RemoveAll(st.dir)
}

// mixRequest is one planned request of a batch.
type mixRequest struct {
	kind reqKind
	idx  int // pre-filled entry for hit/result
}

// outcome of one request, for the batch's figures.
type mixReply struct {
	kind reqKind
	ms   float64
	ok   bool
}

// issue sends one request and checks its reply.
func (st *mixState) issue(p params, rep *report, c *http.Client, parent int, rq mixRequest, id string) mixReply {
	var r reply
	var err error
	var want []byte
	switch rq.kind {
	case kindMiss:
		r, err = do(c, p.tr, parent, kindNames[kindMiss], id, http.MethodPost, st.lb.url+"/v1/run", runBody(st.nextSeed.Add(1)))
	case kindHit:
		want = st.filled[rq.idx].body
		r, err = do(c, p.tr, parent, kindNames[kindHit], id, http.MethodPost, st.lb.url+"/v1/run", st.filled[rq.idx].req)
	case kindResult:
		want = st.filled[rq.idx].body
		r, err = do(c, p.tr, parent, kindNames[kindResult], id, http.MethodGet, st.lb.url+"/v1/result/"+st.filled[rq.idx].fp, nil)
	case kindAdvise:
		want = st.advise
		r, err = do(c, p.tr, parent, kindNames[kindAdvise], id, http.MethodGet, st.lb.url+"/v1/advise?bad=2s", nil)
	}
	rep.ops(1)
	out := mixReply{kind: rq.kind, ms: ms(r.wall)}
	switch {
	case err != nil:
		rep.fail("%s %s: %v", kindNames[rq.kind], id, err)
	case r.status < 200 || r.status > 299:
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			st.rejected.Add(1)
		}
		rep.fail("%s %s: HTTP %d: %.120s", kindNames[rq.kind], id, r.status, r.body)
	case want != nil && !bytes.Equal(r.body, want):
		rep.fail("%s %s: body differs from the miss that created it", kindNames[rq.kind], id)
	case rq.kind == kindMiss && r.cache != "miss", rq.kind != kindMiss && r.cache != "hit":
		rep.fail("%s %s: served as cache %q", kindNames[rq.kind], id, r.cache)
	default:
		out.ok = true
		if rq.kind == kindMiss || rq.kind == kindHit {
			st.respSize.Add(int64(len(r.body)))
			st.respN.Add(1)
		}
	}
	return out
}

// startMix builds a server and fills it: temp dir, server start,
// pre-fill through both clients, one advise table.
func startMix(p params) (*mixState, error) {
	st := &mixState{sizes: newMixSizes(p.smoke)}
	dir, err := p.scratchDir("wtcpd-mix")
	if err != nil {
		return nil, err
	}
	st.dir = dir
	// The server's straggler log (stderr by default) would print a line
	// for most millisecond runs; wan_ladder counts those lines, here they
	// are noise.
	health := experiment.NewHealth()
	health.SetStragglerLog(nil)
	st.srv, err = serve.New(serve.Config{DataDir: dir, Slots: 2, Health: health})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	st.lb, err = serveLoopback(tracedHandler(p.tr, "serve.handler", st.srv.Handler()))
	if err != nil {
		st.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	for i := range st.clients {
		st.clients[i] = newClient()
	}
	base := baseSeed(p.seed)
	st.nextSeed.Store(base + int64(st.sizes.prefill))
	st.filled = make([]stored, st.sizes.prefill)
	errs := make([]error, mixClients)
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < st.sizes.prefill; i += mixClients {
				body := runBody(base + int64(i) + 1)
				r, err := do(st.clients[c], nil, noSpan, "", "", http.MethodPost, st.lb.url+"/v1/run", body)
				if err == nil && r.status != http.StatusOK {
					err = fmt.Errorf("HTTP %d: %.120s", r.status, r.body)
				}
				var resp serve.RunResponse
				if err == nil {
					err = json.Unmarshal(r.body, &resp)
				}
				if err != nil {
					errs[c] = fmt.Errorf("pre-fill %d: %w", i, err)
					return
				}
				st.filled[i] = stored{req: body, fp: resp.Fingerprint, body: r.body}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			st.stop()
			return nil, err
		}
	}
	r, err := do(st.clients[0], nil, noSpan, "", "", http.MethodGet, st.lb.url+"/v1/advise?bad=2s", nil)
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %.120s", r.status, r.body)
	}
	if err != nil {
		st.stop()
		return nil, fmt.Errorf("advise table: %w", err)
	}
	st.advise = r.body
	return st, nil
}

// plan draws one batch: the exact per-kind counts, shuffled by the
// seeded generator, hit and result targets uniform over the pre-filled
// entries.
func (st *mixState) plan(rng *rand.Rand) []mixRequest {
	var reqs []mixRequest
	for k, n := range st.sizes.perKind {
		for i := 0; i < n; i++ {
			reqs = append(reqs, mixRequest{kind: reqKind(k), idx: rng.Intn(len(st.filled))})
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// mixBatchResult is one batch's figures.
type mixBatchResult struct {
	sample batchSample
	byKind [kindCount][]float64
}

// batch runs one planned batch through the two closed-loop clients.
func (st *mixState) batch(p params, rep *report, rng *rand.Rand, i int) mixBatchResult {
	reqs := st.plan(rng)
	p.cal.sample()
	root := p.tr.start("mix.batch", noSpan, strconv.Itoa(i))
	replies := make([][]mixReply, mixClients)
	var wg sync.WaitGroup
	wall, cpu := timed(func() {
		for c := 0; c < mixClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := c; k < len(reqs); k += mixClients {
					replies[c] = append(replies[c], st.issue(p, rep, st.clients[c], root, reqs[k], fmt.Sprintf("b%d.r%d", i, k)))
				}
			}(c)
		}
		wg.Wait()
	})
	p.tr.end(root)
	out := mixBatchResult{sample: batchSample{walls: []time.Duration{wall}, cpus: []time.Duration{cpu}}}
	var all []float64
	for _, rs := range replies {
		for _, r := range rs {
			if !r.ok {
				continue
			}
			out.sample.ops++
			all = append(all, r.ms)
			out.byKind[r.kind] = append(out.byKind[r.kind], r.ms)
		}
	}
	out.sample.opMs = median(all)
	return out
}

// cacheEntries reads wtcpd_cache_entries from /metrics.
func (st *mixState) cacheEntries() float64 {
	r, err := do(st.clients[0], nil, noSpan, "", "", http.MethodGet, st.lb.url+"/metrics", nil)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(r.body), "\n") {
		if v, ok := strings.CutPrefix(line, "wtcpd_cache_entries "); ok {
			n, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return n
		}
	}
	return 0
}

// bareRunMs times bare core.Run calls of the mix's scenario, for
// serve.miss_overhead_ms.
func bareRunMs(p params, n int) (float64, error) {
	var runMs []float64
	for i := 0; i < n; i++ {
		cfg, err := mixScenario(baseSeed(p.seed) + int64(i) + 1).Build()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		res, err := core.Run(cfg)
		if err != nil || !res.Completed {
			return 0, fmt.Errorf("bare run of the mix scenario: completed=%v err=%v", res != nil && res.Completed, err)
		}
		runMs = append(runMs, ms(time.Since(t0)))
	}
	return median(runMs), nil
}

// runMix is the serve_mix section.
func runMix(p params, rep *report) (sectionResult, error) {
	var res sectionResult
	rng := rand.New(rand.NewSource(p.seed))

	// Set-up, several times over; the last server stays for the timed
	// batches. Set-up requests are not traced and not counted as ops.
	var st *mixState
	for i := 0; i < p.setupRepeats(); i++ {
		if st != nil {
			st.stop()
		}
		t0 := time.Now()
		var err error
		if st, err = startMix(p); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		warm := newReport()
		st.batch(p.untimed(), warm, rng, -1)
		if _, f := warm.counts(); f > 0 {
			st.stop()
			return res, fmt.Errorf("warm-up batch: %s", warm.failures[0])
		}
		res.setups = append(res.setups, time.Since(t0))
	}
	defer st.stop()

	var reqRate, missP50, hitP50 []float64
	var pooled [kindCount][]float64
	var firstHit, lastHit float64
	n, err := p.timedBatches(func(i int) error {
		b := st.batch(p, rep, rng, i)
		if b.sample.ops == 0 {
			return nil
		}
		res.batches = append(res.batches, b.sample)
		reqRate = append(reqRate, float64(b.sample.ops)/b.sample.wall().Seconds())
		missP50 = append(missP50, median(b.byKind[kindMiss]))
		hitP50 = append(hitP50, median(b.byKind[kindHit]))
		for k := range pooled {
			pooled[k] = append(pooled[k], b.byKind[k]...)
		}
		if i == 0 {
			firstHit = median(b.byKind[kindHit])
		}
		lastHit = median(b.byKind[kindHit])
		return nil
	})
	if err != nil {
		return res, err
	}
	if len(res.batches) == 0 {
		return res, fmt.Errorf("serve_mix: no batch completed (%d tried)", n)
	}

	rep.setQuiet("serve.req_per_s", "1/s", higher, reqRate)
	miss := rep.setQuiet("serve.miss_ms_p50", "ms", lower, missP50)
	rep.setQuiet("serve.hit_ms_p50", "ms", lower, hitP50)
	rep.setPercentile("serve.miss_ms_p99", "ms", pooled[kindMiss], 0.99)
	rep.setPercentile("serve.hit_ms_p99", "ms", pooled[kindHit], 0.99)
	rep.set("serve.result_get_ms_p50", median(pooled[kindResult]), "ms", fmt.Sprintf("pooled over %d samples", len(pooled[kindResult])))
	rep.set("serve.advise_ms_p50", median(pooled[kindAdvise]), "ms", fmt.Sprintf("pooled over %d samples", len(pooled[kindAdvise])))
	entries := st.cacheEntries()
	rep.set("serve.hit_ms_p50_first_batch", firstHit, "ms", fmt.Sprintf("about %d resident entries", st.sizes.prefill+st.sizes.perKind[kindMiss]))
	rep.set("serve.hit_ms_p50_last_batch", lastHit, "ms", fmt.Sprintf("%.0f resident entries", entries))
	rep.set("serve.cache_entries_end", entries, "count", "wtcpd_cache_entries after the last batch")
	rep.set("serve.rejected", float64(st.rejected.Load()), "count", "429 and 503 replies")
	if c := st.respN.Load(); c > 0 {
		rep.set("serve.resp_bytes", float64(st.respSize.Load())/float64(c), "B", "mean /v1/run reply body")
	}
	bare, err := bareRunMs(p, st.sizes.bareN)
	if err != nil {
		return res, err
	}
	rep.set("serve.miss_overhead_ms", miss-bare, "ms", fmt.Sprintf("miss p50 - bare core.Run p50 (%.3f ms) of the same scenario", bare))

	if p.tr != nil {
		hm := p.tr.childDurations("mix.miss")
		hh := p.tr.childDurations("mix.hit")
		rep.set("serve.handler_miss_ms_p50", median(hm), "ms", fmt.Sprintf("handler span, %d samples", len(hm)))
		rep.set("serve.handler_hit_ms_p50", median(hh), "ms", fmt.Sprintf("handler span, %d samples", len(hh)))
		gaps := p.tr.selfOf("mix.hit")
		rep.set("serve.http_overhead_us", median(gaps)*1000, "us", fmt.Sprintf("client span - handler span on hits, %d samples", len(gaps)))
	}
	return res, nil
}
