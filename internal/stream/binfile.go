package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"streamcover/internal/setsystem"
)

// BinaryFileStream streams a set cover instance from a binary-format file
// (the setsystem binary codec) without materializing it. The header and
// per-set length table are decoded once at open; each pass seeks back to
// the payload and decodes sets into a single reusable buffer — no strconv,
// no per-item allocation in steady state. This is the data plane the
// ROADMAP's larger-than-memory workloads ride on: per pass the stream does
// one sequential read of the payload and the resident footprint is the
// length table plus one set.
//
// Items are views into the reusable buffer, so StableItems reports false:
// the driver's pool copies them before fanning out.
type BinaryFileStream struct {
	path string
	n, m int
	lens []int32 // per-set lengths (the decoded offsets table)

	f          *os.File
	br         *bufio.Reader
	payloadOff int64 // byte offset of the first payload varint
	pos        int   // next set index of the current pass
	buf        []int32
	err        error
}

// OpenBinaryFile validates the header of the file, decodes the length
// table, and returns a multi-pass stream over the payload. The caller must
// Close it when done.
func OpenBinaryFile(path string) (*BinaryFileStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	cr := &countingByteReader{r: bufio.NewReaderSize(f, 1<<20)}
	n, m, lens, err := setsystem.ReadBinaryHeader(cr)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("stream: %s: %w", path, err)
	}
	fs := &BinaryFileStream{
		path: path, n: n, m: m, lens: lens,
		f: f, br: cr.r, payloadOff: cr.count,
	}
	fs.pos = m // force Reset before use, as InstanceStream does
	return fs, nil
}

// countingByteReader counts bytes consumed through ReadByte so the header
// size (= payload offset) is known without re-parsing.
type countingByteReader struct {
	r     *bufio.Reader
	count int64
}

func (c *countingByteReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.count++
	}
	return b, err
}

// Universe implements Stream.
func (fs *BinaryFileStream) Universe() int { return fs.n }

// Len implements Stream.
func (fs *BinaryFileStream) Len() int { return fs.m }

// Reset implements Stream: seeks back to the payload for a new pass. The
// buffered reader is reused, so Reset allocates nothing.
func (fs *BinaryFileStream) Reset() {
	if fs.f == nil {
		fs.err = fmt.Errorf("stream: %s: stream is closed", fs.path)
		return
	}
	if _, err := fs.f.Seek(fs.payloadOff, io.SeekStart); err != nil {
		fs.err = err
		return
	}
	fs.br.Reset(fs.f)
	fs.pos = 0
	fs.err = nil
}

// Next implements Stream: decodes the next set into the reusable buffer.
// The returned view is valid only until the following Next call.
func (fs *BinaryFileStream) Next() (Item, bool) {
	if fs.err != nil || fs.pos >= fs.m {
		return Item{}, false
	}
	id := fs.pos
	buf, err := setsystem.DecodeBinarySet(fs.br, fs.buf, fs.lens[id], fs.n)
	fs.buf = buf
	if err != nil {
		fs.err = fmt.Errorf("stream: %s: set %d: %w", fs.path, id, err)
		return Item{}, false
	}
	fs.pos++
	return Item{ID: id, Elems: buf}, true
}

// Err implements Failer: the first error encountered while streaming (Next
// returning false may mean end-of-pass or error; drivers check Err after
// each pass).
func (fs *BinaryFileStream) Err() error { return fs.err }

// StableItems implements Stable: returned Item.Elems alias the stream's
// reusable decode buffer and are invalidated by the next Next call, so the
// driver's pool copies items before broadcasting them.
func (fs *BinaryFileStream) StableItems() bool { return false }

// Close releases the underlying file.
func (fs *BinaryFileStream) Close() error {
	if fs.f != nil {
		err := fs.f.Close()
		fs.f = nil
		return err
	}
	return nil
}

// FileBacked is the interface of the file-backed streams: a resettable
// multi-pass Stream that can fail mid-pass and must be closed.
type FileBacked interface {
	Stream
	Failer
	io.Closer
}

// Open returns a multi-pass stream over an instance file in any codec,
// sniffing the leading magic bytes: SCB1 streams through the varint
// decoder, SCB2 opens as an mmap-backed instance view, and anything else
// falls back to the text scanner. The caller must Close the stream when
// done.
//
// A file too short to hold any codec magic cannot be a valid instance in
// any format (the shortest text header, "setcover 0 0", is 12 bytes), so
// Open rejects it up front with a recognizable error instead of letting a
// decoder surface a raw EOF.
func Open(path string) (FileBacked, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	head := make([]byte, len(setsystem.BinaryMagic()))
	n, rerr := io.ReadFull(f, head)
	f.Close()
	if rerr != nil {
		return nil, fmt.Errorf("stream: %s: unrecognized instance file (empty or too short for any codec: %d bytes)",
			path, n)
	}
	switch {
	case bytes.Equal(head, setsystem.BinaryMagic()):
		return OpenBinaryFile(path)
	case bytes.Equal(head, setsystem.SCB2Magic()):
		return OpenMapped(path)
	}
	return OpenFile(path)
}
