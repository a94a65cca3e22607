package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wtcp/internal/experiment"
)

// Benchmarks of the layer between an HTTP request and core.Run: what a
// miss costs beyond its simulation, and the two cache operations alone
// at a resident set the size serve_mix ends with.
//
//	go test -run '^$' -bench 'ServeMiss|CachePut|CacheGet' -benchmem ./internal/serve

// benchResidents is the resident-set size of the cache benchmarks.
const benchResidents = 10000

var benchBody = bytes.Repeat([]byte("r"), 232) // serve_mix's mean reply

func benchFP(i int) string { return fmt.Sprintf("%064x", i) }

// benchCache is a cache holding benchResidents entries, capped there.
func benchCache(b *testing.B) *diskCache {
	b.Helper()
	c, err := openDiskCache(b.TempDir(), int64(benchResidents*len(benchBody)), cacheSegmentBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.close)
	for i := 0; i < benchResidents; i++ {
		if err := c.put(benchFP(i), benchBody); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkServeMiss is serve_mix's miss path without the network: the
// in-process handler, two closed-loop callers, the mix's scenario, a
// fresh seed per request.
func BenchmarkServeMiss(b *testing.B) {
	health := experiment.NewHealth()
	health.SetStragglerLog(nil)
	srv, err := New(Config{DataDir: b.TempDir(), Slots: 2, DefaultDeadline: time.Minute, Health: health})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for caller := 0; caller < 2; caller++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seed := next.Add(1)
				if seed > int64(b.N) {
					return
				}
				body := fmt.Sprintf(`{"scenario":{"scheme":"ebsn","packet_size_bytes":576,"mean_bad":"2s","transfer_kb":100,"seed":%d}}`, seed)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader([]byte(body))))
				if w.Code != http.StatusOK || w.Header().Get("X-Wtcpd-Cache") != "miss" {
					b.Errorf("seed %d: HTTP %d cache=%q: %s", seed, w.Code, w.Header().Get("X-Wtcpd-Cache"), w.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkCachePut stores a new entry into a full cache: one append
// and one eviction.
func BenchmarkCachePut(b *testing.B) {
	c := benchCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.put(benchFP(benchResidents+i), benchBody); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheGet reads resident entries round-robin.
func BenchmarkCacheGet(b *testing.B) {
	c := benchCache(b)
	fps := make([]string, benchResidents)
	for i := range fps {
		fps[i] = benchFP(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.get(fps[i%benchResidents]); !ok {
			b.Fatalf("entry %d missing", i%benchResidents)
		}
	}
}
