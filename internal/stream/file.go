package stream

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"streamcover/internal/setsystem"
)

// FileStream streams a set cover instance from a text-format file (the
// setsystem codec format) without materializing it: each pass re-reads the
// file, yielding one set at a time. This keeps the one-item-at-a-time
// access discipline honest for inputs larger than memory; cmd/covercli uses
// it for -in files.
//
// Unlike InstanceStream it supports only the adversarial (file) order.
type FileStream struct {
	path string
	n, m int

	f    *os.File
	sc   *bufio.Scanner
	seen int
	err  error
}

// OpenFile validates the header of the file and returns a stream over it.
// The caller must Close it when done.
func OpenFile(path string) (*FileStream, error) {
	fs := &FileStream{path: path}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := newInstanceScanner(f)
	n, m, err := readHeader(sc)
	if err != nil {
		return nil, fmt.Errorf("stream: %s: %w", path, err)
	}
	fs.n, fs.m = n, m
	return fs, nil
}

func newInstanceScanner(f *os.File) *bufio.Scanner {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	return sc
}

// readHeader consumes comments/blanks and parses "setcover n m".
func readHeader(sc *bufio.Scanner) (n, m int, err error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "setcover" {
			return 0, 0, fmt.Errorf("expected 'setcover <n> <m>' header, got %q", line)
		}
		n, err1 := strconv.Atoi(fields[1])
		m, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || n < 0 || m < 0 ||
			n > setsystem.MaxElement || m > setsystem.MaxElement {
			return 0, 0, fmt.Errorf("bad header values in %q", line)
		}
		return n, m, nil
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	return 0, 0, fmt.Errorf("empty instance file")
}

// Universe implements Stream.
func (fs *FileStream) Universe() int { return fs.n }

// Len implements Stream.
func (fs *FileStream) Len() int { return fs.m }

// Reset implements Stream: reopens the file for a new pass.
func (fs *FileStream) Reset() {
	if fs.f != nil {
		fs.f.Close()
		fs.f = nil
	}
	f, err := os.Open(fs.path)
	if err != nil {
		fs.err = err
		return
	}
	fs.f = f
	fs.sc = newInstanceScanner(f)
	if _, _, err := readHeader(fs.sc); err != nil {
		fs.err = err
		return
	}
	fs.seen = 0
	fs.err = nil
}

// Next implements Stream: parses the next "id e1 e2 ..." line.
func (fs *FileStream) Next() (Item, bool) {
	if fs.err != nil || fs.sc == nil {
		return Item{}, false
	}
	for fs.sc.Scan() {
		line := strings.TrimSpace(fs.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		id, err := strconv.Atoi(fields[0])
		if err != nil || id < 0 || id >= fs.m {
			fs.err = fmt.Errorf("stream: %s: bad set id %q", fs.path, fields[0])
			return Item{}, false
		}
		elems := make([]int32, 0, len(fields)-1)
		for _, fstr := range fields[1:] {
			e, err := strconv.Atoi(fstr)
			if err != nil || e < 0 || e >= fs.n {
				fs.err = fmt.Errorf("stream: %s: bad element %q in set %d", fs.path, fstr, id)
				return Item{}, false
			}
			elems = append(elems, int32(e))
		}
		// Normalize exactly as the in-memory reader does (ReadInstance runs
		// SortSets): the sorted/duplicate-free invariant is what every
		// consumer — scalar loops and word-mask run kernels alike — assumes,
		// so file-streamed items must match their in-memory twins.
		if !slices.IsSorted(elems) {
			slices.Sort(elems)
		}
		elems = slices.Compact(elems)
		fs.seen++
		return Item{ID: id, Elems: elems}, true
	}
	if err := fs.sc.Err(); err != nil {
		fs.err = err
	} else if fs.seen != fs.m {
		fs.err = fmt.Errorf("stream: %s: %d of %d sets present", fs.path, fs.seen, fs.m)
	}
	return Item{}, false
}

// Err returns the first error encountered while streaming (Next returning
// false may mean end-of-pass or error; check Err after the run).
func (fs *FileStream) Err() error { return fs.err }

// StableItems implements Stable: every Item.Elems is freshly allocated per
// line and never reused.
func (fs *FileStream) StableItems() bool { return true }

// Close releases the underlying file.
func (fs *FileStream) Close() error {
	if fs.f != nil {
		err := fs.f.Close()
		fs.f = nil
		return err
	}
	return nil
}
