package recordlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// testPayloads are the records of the table tests: an empty payload, a
// short one, and ones long enough that every field spans several bytes.
func testPayloads() [][]byte {
	return [][]byte{
		[]byte("first"),
		{},
		bytes.Repeat([]byte{0}, 40),
		[]byte(`{"kind":"run","fingerprint":"ab","body":{}}`),
		bytes.Repeat([]byte("xyz"), 100),
	}
}

// encode lays the payloads out as a log and returns where each record
// ends.
func encode(payloads [][]byte) (data []byte, ends []int) {
	for _, p := range payloads {
		data = AppendRecord(data, p)
		ends = append(ends, len(data))
	}
	return data, ends
}

// scanAll collects what Scan yields from data.
func scanAll(t *testing.T, data []byte) (got [][]byte, valid int64) {
	t.Helper()
	valid, err := Scan(bytes.NewReader(data), int64(len(data)), func(off int64, payload []byte) error {
		got = append(got, bytes.Clone(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return got, valid
}

func equalRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestEveryPrefixReopensToItsWholeRecords is the torn-tail contract: a
// process may die after any byte of an append, and whatever prefix of
// the log it leaves reopens to exactly the records fully inside it,
// truncated to their end, with the cut reported — and appends carry on
// from there.
func TestEveryPrefixReopensToItsWholeRecords(t *testing.T) {
	payloads := testPayloads()
	data, ends := encode(payloads)
	dir := t.TempDir()
	for cut := 0; cut <= len(data); cut++ {
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		wantValid := 0
		if whole > 0 {
			wantValid = ends[whole-1]
		}
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.log", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		l, dropped, err := Open(path, func(off int64, payload []byte) error {
			got = append(got, bytes.Clone(payload))
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if !equalRecords(got, payloads[:whole]) {
			t.Fatalf("cut %d: replayed %d records, want the %d fully inside", cut, len(got), whole)
		}
		if dropped != int64(cut-wantValid) || l.Size() != int64(wantValid) {
			t.Fatalf("cut %d: dropped %d, size %d; want %d, %d", cut, dropped, l.Size(), cut-wantValid, wantValid)
		}
		if info, err := os.Stat(path); err != nil || info.Size() != int64(wantValid) {
			t.Fatalf("cut %d: file is %d bytes after Open (err %v), want %d", cut, info.Size(), err, wantValid)
		}
		off, err := l.Append([]byte("after"))
		if err != nil || off != int64(wantValid) {
			t.Fatalf("cut %d: Append after reopen at %d (err %v), want %d", cut, off, err, wantValid)
		}
		if back, err := l.ReadAt(off, 5); err != nil || string(back) != "after" {
			t.Fatalf("cut %d: ReadAt after reopen = %q, %v", cut, back, err)
		}
		l.Close()
	}
}

// TestDamagedFieldStopsTheScanThere flips bits in each field of each
// record and points length fields past the end of the file and at
// 4 GiB: the scan yields exactly the records before the damaged one —
// no panic, no giant allocation — and ReadAt of the damaged record is a
// named error while its neighbours still read.
func TestDamagedFieldStopsTheScanThere(t *testing.T) {
	payloads := testPayloads()
	clean, ends := encode(payloads)
	start := func(rec int) int {
		if rec == 0 {
			return 0
		}
		return ends[rec-1]
	}
	type damage struct {
		name  string
		apply func(data []byte, rec int) bool // false: not applicable to this record
	}
	flip := func(field string, at func(rec int) int) damage {
		return damage{"bit flip in " + field, func(data []byte, rec int) bool {
			i := at(rec)
			if i >= ends[rec] {
				return false // an empty payload has no byte to flip
			}
			data[i] ^= 0x10
			return true
		}}
	}
	setLen := func(name string, v func(data []byte, rec int) uint32) damage {
		return damage{name, func(data []byte, rec int) bool {
			binary.LittleEndian.PutUint32(data[start(rec):], v(data, rec))
			return true
		}}
	}
	damages := []damage{
		flip("length", func(rec int) int { return start(rec) }),
		flip("length high byte", func(rec int) int { return start(rec) + 3 }),
		flip("crc", func(rec int) int { return start(rec) + 5 }),
		flip("payload first byte", func(rec int) int { return start(rec) + HeaderSize }),
		flip("payload last byte", func(rec int) int { return max(ends[rec]-1, start(rec)+HeaderSize) }),
		setLen("length one past EOF", func(data []byte, rec int) uint32 {
			return uint32(len(data) - start(rec) - HeaderSize + 1)
		}),
		setLen("length 4 GiB", func([]byte, int) uint32 { return 1<<32 - 1 }),
		setLen("length exactly to EOF", func(data []byte, rec int) uint32 {
			return uint32(len(data) - start(rec) - HeaderSize)
		}),
	}
	for _, d := range damages {
		for rec := range payloads {
			data := bytes.Clone(clean)
			if !d.apply(data, rec) || bytes.Equal(data, clean) {
				continue
			}
			got, valid := scanAll(t, data)
			if !equalRecords(got, payloads[:rec]) || valid != int64(start(rec)) {
				t.Errorf("%s of record %d: scan yielded %d records, valid %d; want %d, %d", d.name, rec, len(got), valid, rec, start(rec))
			}

			path := filepath.Join(t.TempDir(), "damaged.log")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			l := &Log{f: f, size: int64(len(data))}
			if _, err := l.ReadAt(int64(start(rec)), len(payloads[rec])); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s of record %d: ReadAt err = %v, want ErrCorrupt", d.name, rec, err)
			}
			if rec > 0 {
				if back, err := l.ReadAt(int64(start(rec-1)), len(payloads[rec-1])); err != nil || !bytes.Equal(back, payloads[rec-1]) {
					t.Errorf("%s of record %d: the record before it no longer reads: %v", d.name, rec, err)
				}
			}
			l.Close()
		}
	}
}

// TestReadAtChecksWhatTheCallerExpects: the index a caller keeps is an
// input too. A wrong length, a wrong offset or an offset past the end is
// ErrCorrupt, never somebody else's bytes.
func TestReadAtChecksWhatTheCallerExpects(t *testing.T) {
	l, _, err := Open(filepath.Join(t.TempDir(), "l.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a, err := l.Append([]byte("head"), []byte("+tail"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Append([]byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := l.ReadAt(a, 9); err != nil || string(got) != "head+tail" {
		t.Fatalf("ReadAt(a) = %q, %v", got, err)
	}
	if got, err := l.ReadAt(b, 6); err != nil || string(got) != "second" {
		t.Fatalf("ReadAt(b) = %q, %v", got, err)
	}
	for _, bad := range []struct {
		off int64
		n   int
	}{{a, 8}, {a, 10}, {a + 1, 9}, {b, 9}, {l.Size(), 1}, {l.Size() + 100, 0}} {
		if _, err := l.ReadAt(bad.off, bad.n); !errors.Is(err, ErrCorrupt) {
			t.Errorf("ReadAt(%d, %d): err = %v, want ErrCorrupt", bad.off, bad.n, err)
		}
	}
	// A run of zeros — a hole where a write never landed — is not a
	// record, not even an empty one.
	if got, valid := scanAll(t, make([]byte, 64)); len(got) != 0 || valid != 0 {
		t.Errorf("64 zero bytes scanned as %d records, valid %d", len(got), valid)
	}
	l.Close()
	if _, err := l.Append([]byte("late")); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Append after Close: err = %v, want os.ErrClosed", err)
	}
}

// TestAppendsAndReadsFromManyGoroutines (run under -race): appenders
// get distinct offsets, every record reads back as written while others
// are still being appended, and a final scan finds them all.
func TestAppendsAndReadsFromManyGoroutines(t *testing.T) {
	l, _, err := Open(filepath.Join(t.TempDir(), "l.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				want := []byte(fmt.Sprintf("writer %d record %d %s", w, i, bytes.Repeat([]byte("."), i%50)))
				off, err := l.Append(want)
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := l.ReadAt(off, len(want)); err != nil || !bytes.Equal(got, want) {
					t.Errorf("record at %d read back as %q, %v", off, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	n := 0
	valid, err := l.Scan(func(int64, []byte) error { n++; return nil })
	if err != nil || n != writers*each || valid != l.Size() {
		t.Errorf("scan found %d records, valid %d of %d (err %v); want %d", n, valid, l.Size(), err, writers*each)
	}
}
