package stream

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"streamcover/internal/setsystem"
)

// FileStream streams a text or SCB1 instance file without materializing
// it: the header is read once at open, then every pass seeks back to set 0
// and decodes the sets one at a time, in id order, through setsystem's
// SetReader — the decoder setsystem.Load uses too, so a file streams
// exactly as it loads. Per pass the stream does one sequential read of the
// file, and its resident footprint is the header (SCB1's length table)
// plus one set. This keeps the one-item-at-a-time access discipline honest
// for inputs larger than memory; cmd/covercli uses it for -in files.
//
// Items are views into one reusable decode buffer, so StableItems reports
// false: the driver's pool copies them before fanning out. Unlike
// InstanceStream it supports only the adversarial (file) order.
type FileStream struct {
	path    string
	f       *os.File
	br      *bufio.Reader
	sets    *setsystem.SetReader
	payload int64 // byte offset of set 0
	buf     []int32
	err     error
}

// OpenFile reads the header of a text or SCB1 instance file and returns a
// multi-pass stream over its sets. The caller must Close it when done.
func OpenFile(path string) (*FileStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*FileStream, error) {
		f.Close()
		return nil, fmt.Errorf("stream: %s: %w", path, err)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	codec, err := setsystem.Sniff(br)
	if err != nil {
		return fail(err)
	}
	sets, err := setsystem.NewSetReader(br, codec)
	if err != nil {
		return fail(err)
	}
	// br has read ahead of the header; set 0 starts at the first byte it
	// has not handed out.
	off, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return fail(err)
	}
	return &FileStream{path: path, f: f, br: br, sets: sets, payload: off - int64(br.Buffered())}, nil
}

// OpenBinaryFile is OpenFile: the codec is read from the file.
func OpenBinaryFile(path string) (*FileStream, error) { return OpenFile(path) }

// Universe implements Stream.
func (fs *FileStream) Universe() int { return fs.sets.Universe() }

// Len implements Stream.
func (fs *FileStream) Len() int { return fs.sets.Len() }

// Reset implements Stream: seeks back to set 0 for a new pass. The
// buffered reader is reused, so Reset allocates nothing.
func (fs *FileStream) Reset() {
	if fs.f == nil {
		fs.err = fmt.Errorf("stream: %s: stream is closed", fs.path)
		return
	}
	if _, err := fs.f.Seek(fs.payload, io.SeekStart); err != nil {
		fs.err = err
		return
	}
	fs.br.Reset(fs.f)
	fs.sets.Rewind()
	fs.err = nil
}

// Next implements Stream: decodes the next set into the reusable buffer.
// The returned view is valid only until the following Next call.
func (fs *FileStream) Next() (Item, bool) {
	if fs.err != nil {
		return Item{}, false
	}
	id, buf, err := fs.sets.Next(fs.buf[:0])
	fs.buf = buf
	switch {
	case err == io.EOF:
		return Item{}, false
	case err != nil:
		fs.err = fmt.Errorf("stream: %s: %w", fs.path, err)
		return Item{}, false
	}
	return Item{ID: id, Elems: buf}, true
}

// Err implements Failer: the first error encountered while streaming (Next
// returning false may mean end-of-pass or error; drivers check Err after
// each pass).
func (fs *FileStream) Err() error { return fs.err }

// StableItems implements Stable: returned Item.Elems alias the stream's
// reusable decode buffer and are invalidated by the next Next call, so the
// driver's pool copies items before broadcasting them.
func (fs *FileStream) StableItems() bool { return false }

// Close releases the underlying file.
func (fs *FileStream) Close() error {
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

// Open returns a multi-pass stream over an instance file in any codec, as
// setsystem.Sniff reports it: text and SCB1 stream through FileStream, SCB2
// opens as an mmap-backed MappedFileStream. A file too short for any
// codec's magic is rejected as unrecognized. The caller must Close the
// stream when done.
func Open(path string) (FileBacked, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	codec, err := setsystem.Sniff(bufio.NewReader(f))
	f.Close()
	switch {
	case err != nil:
		return nil, fmt.Errorf("stream: %s: %w", path, err)
	case codec == setsystem.CodecSCB2:
		return OpenMapped(path)
	}
	return OpenFile(path)
}
