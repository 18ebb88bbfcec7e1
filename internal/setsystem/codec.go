package setsystem

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The text codec uses a simple line format compatible with common set-cover
// benchmark dumps:
//
//	setcover <n> <m>
//	<id> e1 e2 e3 ...
//	...
//
// Lines beginning with '#' are comments. Set IDs must be 0..m-1 and each
// must appear exactly once; elements are whitespace-separated integers.
//
// A compact binary codec lives alongside in binary.go; ReadAuto sniffs the
// leading magic bytes and dispatches to the right decoder.

// Write encodes the instance in the text format.
func Write(w io.Writer, in *Instance) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "setcover %d %d\n", in.N, in.M()); err != nil {
		return err
	}
	for i := 0; i < in.M(); i++ {
		if _, err := fmt.Fprintf(bw, "%d", i); err != nil {
			return err
		}
		for _, e := range in.Set(i) {
			if _, err := fmt.Fprintf(bw, " %d", e); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes an instance from the text format and validates it.
func Read(r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var sets [][]int
	headerSeen := false
	n := 0
	seen := map[int]bool{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if !headerSeen {
			if len(fields) != 3 || fields[0] != "setcover" {
				return nil, fmt.Errorf("setsystem: line %d: expected header 'setcover <n> <m>'", line)
			}
			hn, err1 := strconv.Atoi(fields[1])
			m, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || hn < 0 || m < 0 {
				return nil, fmt.Errorf("setsystem: line %d: bad header values", line)
			}
			n = hn
			sets = make([][]int, m)
			headerSeen = true
			continue
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil || id < 0 || id >= len(sets) {
			return nil, fmt.Errorf("setsystem: line %d: bad set id %q", line, fields[0])
		}
		if seen[id] {
			return nil, fmt.Errorf("setsystem: line %d: duplicate set id %d", line, id)
		}
		seen[id] = true
		elems := make([]int, 0, len(fields)-1)
		for _, f := range fields[1:] {
			e, err := strconv.Atoi(f)
			if err != nil || e < 0 || e > MaxElement {
				// The arena panics on int32 overflow; reject here so a
				// malformed file is an error, never a panic.
				return nil, fmt.Errorf("setsystem: line %d: bad element %q", line, f)
			}
			elems = append(elems, e)
		}
		sets[id] = elems
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !headerSeen {
		return nil, fmt.Errorf("setsystem: empty input")
	}
	if len(seen) != len(sets) {
		return nil, fmt.Errorf("setsystem: %d of %d sets missing", len(sets)-len(seen), len(sets))
	}
	in := FromSets(n, sets)
	in.SortSets()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// ReadAuto decodes an instance from any codec — SCB1 varint binary, SCB2
// mmap-native binary, or text — sniffing the leading magic bytes. The SCB2
// path decodes into the heap (uploads and pipes have no file to map; use
// Map, or Load for a file in any codec, for the zero-copy open).
func ReadAuto(r io.Reader) (*Instance, error) {
	remaining := remainingBytes(r)
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binaryMagic))
	if err == nil {
		switch string(head) {
		case binaryMagic:
			return readBinary(br, remaining)
		case scb2Magic:
			return ReadSCB2(br)
		}
	}
	return Read(br)
}

// Load reads an instance file in any codec, once: SCB2 opens through Map
// (zero-copy where supported, so the instance aliases the mapped pages),
// SCB1 and text decode onto the heap through ReadAuto. The caller owns the
// result and should Unmap it when done (a no-op for heap instances).
func Load(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	head := make([]byte, len(scb2Magic))
	if _, err := io.ReadFull(f, head); err == nil && string(head) == scb2Magic {
		return Map(path)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	in, err := ReadAuto(f)
	if err != nil {
		return nil, fmt.Errorf("setsystem: %s: %w", path, err)
	}
	return in, nil
}
