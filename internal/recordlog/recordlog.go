// Package recordlog is an append-only file of checksummed records: the
// one on-disk primitive behind wtcpd's accepted-work journal and result
// cache and the experiment engine's checkpoint ledger. A record is
//
//	[len u32 LE][crc32c(len ‖ payload) u32 LE][payload]
//
// (the checksum covers the length field, so a run of zero bytes — what
// some file systems leave where a write never landed — is not a record)
// appended with a single write and read back with a single pread that
// checks both fields, so a reader gets the exact bytes that were
// appended or a named error — never a third thing. A process killed
// mid-append leaves at most one torn record at the tail; Open finds the
// longest intact prefix, truncates the file to it and reports how much
// it cut. Nothing here fsyncs: like atomicfile.Write, durability is
// against process death, not power loss.
package recordlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// HeaderSize is the framing overhead of one record.
const HeaderSize = 8

// MaxPayload is the largest payload the u32 length field can frame.
const MaxPayload = 1<<32 - 1

// ErrCorrupt marks a record whose length or checksum does not match
// what was appended (bit rot, a torn write, a wrong offset).
var ErrCorrupt = errors.New("recordlog: corrupt record")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends the framing of one record whose payload is the
// concatenation of parts to dst and returns the extended slice. It is
// the encoder Append uses, exported so a caller can lay out a whole log
// in memory and hand it to atomicfile.Write. The payload must not exceed
// MaxPayload (Append checks).
func AppendRecord(dst []byte, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	at := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, 0, 0, 0, 0)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	binary.LittleEndian.PutUint32(dst[at+4:], checksum(dst[at:at+4], dst[at+HeaderSize:]))
	return dst
}

// checksum is the CRC a record stores: over its length field, then its
// payload.
func checksum(length, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(length, castagnoli), castagnoli, payload)
}

// Scan reads records from the first size bytes of r in order, calling
// fn with each intact record's offset and payload (valid only during
// the call), and returns the length of the intact prefix: it stops —
// without error — at the first record that is torn, fails its checksum
// or claims a length reaching past size. An error is a read failure or
// one fn returned.
func Scan(r io.ReaderAt, size int64, fn func(off int64, payload []byte) error) (valid int64, err error) {
	br := bufio.NewReaderSize(io.NewSectionReader(r, 0, size), 64<<10)
	var hdr [HeaderSize]byte
	var buf []byte
	for valid+HeaderSize <= size {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return valid, fmt.Errorf("recordlog: read at %d: %w", valid, err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:4]))
		if n > size-valid-HeaderSize {
			return valid, nil
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return valid, fmt.Errorf("recordlog: read at %d: %w", valid, err)
		}
		if checksum(hdr[:4], buf) != binary.LittleEndian.Uint32(hdr[4:]) {
			return valid, nil
		}
		if fn != nil {
			if err := fn(valid, buf); err != nil {
				return valid, err
			}
		}
		valid += HeaderSize + n
	}
	return valid, nil
}

// Log is one open record file. Append and Size may be called from
// several goroutines; ReadAt takes no lock at all.
type Log struct {
	f *os.File

	mu      sync.Mutex
	size    int64
	scratch []byte
}

// Open opens (creating if absent) the log at path, replays every intact
// record through fn (which may be nil), truncates anything after the
// last one, and positions appends there. dropped is the number of bytes
// cut: non-zero means the file ended in a torn or corrupt record, which
// the caller should report.
func Open(path string, fn func(off int64, payload []byte) error) (l *Log, dropped int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	valid, err := Scan(f, info.Size(), fn)
	if err == nil && valid < info.Size() {
		err = f.Truncate(valid)
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return &Log{f: f, size: valid}, info.Size() - valid, nil
}

// Append writes one record whose payload is the concatenation of parts
// and returns the offset ReadAt finds it at. The write lands at the
// tracked end of the intact prefix, so a failed or short write is
// simply overwritten by the next append.
func (l *Log) Append(parts ...[]byte) (off int64, err error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if int64(n) > MaxPayload {
		return 0, fmt.Errorf("recordlog: %d-byte payload exceeds the %d-byte frame limit", n, int64(MaxPayload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.scratch = AppendRecord(l.scratch[:0], parts...)
	if _, err := l.f.WriteAt(l.scratch, l.size); err != nil {
		return 0, err
	}
	off = l.size
	l.size += int64(len(l.scratch))
	return off, nil
}

// ReadAt returns the payload of the n-byte record Append placed at off,
// or an error wrapping ErrCorrupt if what is there now is anything
// else. One pread; the returned slice is the caller's.
func (l *Log) ReadAt(off int64, n int) ([]byte, error) {
	buf := make([]byte, HeaderSize+n)
	if _, err := l.f.ReadAt(buf, off); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w: %d bytes at %d reach past the end of %s", ErrCorrupt, len(buf), off, l.f.Name())
		}
		return nil, err
	}
	payload := buf[HeaderSize:]
	if binary.LittleEndian.Uint32(buf[:4]) != uint32(n) || checksum(buf[:4], payload) != binary.LittleEndian.Uint32(buf[4:]) {
		return nil, fmt.Errorf("%w: at %d in %s", ErrCorrupt, off, l.f.Name())
	}
	return payload, nil
}

// Scan replays the log's records as of the call through fn.
func (l *Log) Scan(fn func(off int64, payload []byte) error) (valid int64, err error) {
	return Scan(l.f, l.Size(), fn)
}

// Size is the length of the intact prefix: the file's size, bar a
// failed append's leftovers.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close closes the file. Reads and appends after it fail with
// os.ErrClosed.
func (l *Log) Close() error { return l.f.Close() }
