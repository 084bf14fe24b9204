// Package rle implements run-length encoding of biological sequences and the
// operations bdbms needs to work on the compressed form without
// decompressing it (Section 7.2 of the paper, Figure 12).
//
// A run-length encoded sequence is a list of (character, count) runs. Protein
// secondary structures (H/E/L alphabets with long tandem repeats) compress by
// roughly an order of magnitude; gene sequences compress far less. The SBC-tree
// (internal/sbctree) indexes these runs directly.
package rle

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Run is a single (character, length) run.
type Run struct {
	// Char is the repeated character.
	Char byte
	// Len is the number of consecutive occurrences; always >= 1.
	Len int
}

// Sequence is a run-length encoded string.
type Sequence struct {
	runs []Run
	// n is the decompressed length, maintained incrementally.
	n int
}

// Errors returned by the rle package.
var (
	// ErrOutOfRange is returned by positional operations past the end of the
	// decompressed sequence.
	ErrOutOfRange = errors.New("rle: position out of range")
	// ErrBadFormat is returned when parsing a malformed textual RLE string.
	ErrBadFormat = errors.New("rle: bad compressed format")
)

// Encode compresses s into its run-length representation.
func Encode(s string) *Sequence {
	seq := &Sequence{}
	if len(s) == 0 {
		return seq
	}
	cur := s[0]
	count := 1
	for i := 1; i < len(s); i++ {
		if s[i] == cur {
			count++
			continue
		}
		seq.runs = append(seq.runs, Run{Char: cur, Len: count})
		cur = s[i]
		count = 1
	}
	seq.runs = append(seq.runs, Run{Char: cur, Len: count})
	seq.n = len(s)
	return seq
}

// FromRuns builds a sequence directly from runs. Adjacent runs with the same
// character are merged and zero/negative-length runs rejected.
func FromRuns(runs []Run) (*Sequence, error) {
	seq := &Sequence{}
	for _, r := range runs {
		if r.Len <= 0 {
			return nil, fmt.Errorf("%w: run length %d", ErrBadFormat, r.Len)
		}
		seq.appendRun(r)
	}
	return seq, nil
}

func (s *Sequence) appendRun(r Run) {
	if len(s.runs) > 0 && s.runs[len(s.runs)-1].Char == r.Char {
		s.runs[len(s.runs)-1].Len += r.Len
	} else {
		s.runs = append(s.runs, r)
	}
	s.n += r.Len
}

// Decode returns the original, decompressed string.
func (s *Sequence) Decode() string {
	var b strings.Builder
	b.Grow(s.n)
	for _, r := range s.runs {
		for i := 0; i < r.Len; i++ {
			b.WriteByte(r.Char)
		}
	}
	return b.String()
}

// AppendDecoded appends the decompressed bytes to dst and returns the
// extended slice. It is the vector-decode entry point of the columnar scan
// path: callers expand a compressed per-column byte vector (dictionary codes,
// validity flags) into a reusable buffer without a string allocation per
// chunk.
func (s *Sequence) AppendDecoded(dst []byte) []byte {
	if cap(dst)-len(dst) < s.n {
		grown := make([]byte, len(dst), len(dst)+s.n)
		copy(grown, dst)
		dst = grown
	}
	for _, r := range s.runs {
		for i := 0; i < r.Len; i++ {
			dst = append(dst, r.Char)
		}
	}
	return dst
}

// AppendAt appends the characters at positions pos, which must be ascending
// and in range, to dst by one forward walk of the runs: a gather of a few
// positions never expands the sequence.
func (s *Sequence) AppendAt(dst []byte, pos []int32) []byte {
	ri, end := 0, 0 // run ri covers positions [end-runs[ri].Len, end)
	if len(s.runs) > 0 {
		end = s.runs[0].Len
	}
	for _, p := range pos {
		for int(p) >= end {
			ri++
			end += s.runs[ri].Len
		}
		dst = append(dst, s.runs[ri].Char)
	}
	return dst
}

// Len returns the decompressed length.
func (s *Sequence) Len() int { return s.n }

// NumRuns returns the number of runs, i.e. the compressed length in runs.
func (s *Sequence) NumRuns() int { return len(s.runs) }

// Runs returns a copy of the underlying runs.
func (s *Sequence) Runs() []Run {
	out := make([]Run, len(s.runs))
	copy(out, s.runs)
	return out
}

// Run returns the i-th run.
func (s *Sequence) Run(i int) Run { return s.runs[i] }

// CompressedSize returns the storage footprint of the compressed form in
// bytes, assuming one byte for the character and a varint-ish 4 bytes for the
// count (the accounting the storage-reduction experiment E1 uses).
func (s *Sequence) CompressedSize() int { return len(s.runs) * 5 }

// CompressionRatio returns decompressed length / compressed size. A ratio of
// 10 means an order-of-magnitude reduction.
func (s *Sequence) CompressionRatio() float64 {
	cs := s.CompressedSize()
	if cs == 0 {
		return 1
	}
	return float64(s.n) / float64(cs)
}

// CharAt returns the character at decompressed position i without
// decompressing the sequence (O(runs) scan).
func (s *Sequence) CharAt(i int) (byte, error) {
	if i < 0 || i >= s.n {
		return 0, ErrOutOfRange
	}
	pos := 0
	for _, r := range s.runs {
		if i < pos+r.Len {
			return r.Char, nil
		}
		pos += r.Len
	}
	return 0, ErrOutOfRange
}

// Substring extracts the decompressed substring [start, start+length) while
// only touching the runs that overlap it.
func (s *Sequence) Substring(start, length int) (string, error) {
	if start < 0 || length < 0 || start+length > s.n {
		return "", ErrOutOfRange
	}
	if length == 0 {
		return "", nil
	}
	var b strings.Builder
	b.Grow(length)
	pos := 0
	remaining := length
	for _, r := range s.runs {
		end := pos + r.Len
		if end <= start {
			pos = end
			continue
		}
		from := 0
		if start > pos {
			from = start - pos
		}
		take := r.Len - from
		if take > remaining {
			take = remaining
		}
		for i := 0; i < take; i++ {
			b.WriteByte(r.Char)
		}
		remaining -= take
		if remaining == 0 {
			break
		}
		pos = end
	}
	return b.String(), nil
}

// RunAtPosition returns the index of the run covering decompressed position i
// and the offset of that run's first character.
func (s *Sequence) RunAtPosition(i int) (runIdx, runStart int, err error) {
	if i < 0 || i >= s.n {
		return 0, 0, ErrOutOfRange
	}
	pos := 0
	for idx, r := range s.runs {
		if i < pos+r.Len {
			return idx, pos, nil
		}
		pos += r.Len
	}
	return 0, 0, ErrOutOfRange
}

// Suffix returns a new Sequence representing the suffix starting at run
// boundary runIdx. The SBC-tree only indexes run-boundary suffixes.
func (s *Sequence) Suffix(runIdx int) *Sequence {
	if runIdx < 0 || runIdx >= len(s.runs) {
		return &Sequence{}
	}
	out := &Sequence{}
	for _, r := range s.runs[runIdx:] {
		out.appendRun(r)
	}
	return out
}

// ContainsSubstring reports whether pattern occurs in the decompressed
// sequence, computed directly over the runs. It is the reference
// (non-indexed) matcher used to validate SBC-tree results.
func (s *Sequence) ContainsSubstring(pattern string) bool {
	return s.IndexOf(pattern) >= 0
}

// IndexOf returns the first decompressed position where pattern occurs, or -1.
// It operates over the run representation: the pattern is itself run-length
// encoded and aligned against the sequence's runs.
func (s *Sequence) IndexOf(pattern string) int {
	if len(pattern) == 0 {
		return 0
	}
	p := Encode(pattern)
	if p.n > s.n {
		return -1
	}
	// Single-run pattern: any run of the same char with length >= pattern len.
	if len(p.runs) == 1 {
		pos := 0
		for _, r := range s.runs {
			if r.Char == p.runs[0].Char && r.Len >= p.runs[0].Len {
				return pos
			}
			pos += r.Len
		}
		return -1
	}
	// Multi-run pattern: the first pattern run must be a suffix of a sequence
	// run, inner runs must match exactly, and the last pattern run must be a
	// prefix of a sequence run.
	first, last := p.runs[0], p.runs[len(p.runs)-1]
	inner := p.runs[1 : len(p.runs)-1]
	pos := 0
	for i := 0; i+len(p.runs) <= len(s.runs)+0; i++ {
		if i+len(p.runs) > len(s.runs) {
			break
		}
		r0 := s.runs[i]
		ok := r0.Char == first.Char && r0.Len >= first.Len
		if ok {
			for j, ir := range inner {
				sr := s.runs[i+1+j]
				if sr.Char != ir.Char || sr.Len != ir.Len {
					ok = false
					break
				}
			}
		}
		if ok {
			lr := s.runs[i+len(p.runs)-1]
			if lr.Char != last.Char || lr.Len < last.Len {
				ok = false
			}
		}
		if ok {
			return pos + r0.Len - first.Len
		}
		pos += r0.Len
	}
	return -1
}

// HasPrefix reports whether the decompressed sequence starts with pattern,
// computed over runs.
func (s *Sequence) HasPrefix(pattern string) bool {
	if len(pattern) == 0 {
		return true
	}
	p := Encode(pattern)
	if p.n > s.n || len(p.runs) > len(s.runs) {
		return false
	}
	for i, pr := range p.runs {
		sr := s.runs[i]
		if sr.Char != pr.Char {
			return false
		}
		last := i == len(p.runs)-1
		if last {
			if sr.Len < pr.Len {
				return false
			}
		} else if sr.Len != pr.Len {
			return false
		}
	}
	return true
}

// String renders the compressed form in the paper's textual notation,
// e.g. "L3E7H22E6" (Figure 12).
func (s *Sequence) String() string {
	var b strings.Builder
	for _, r := range s.runs {
		b.WriteByte(r.Char)
		b.WriteString(strconv.Itoa(r.Len))
	}
	return b.String()
}

// Parse parses the textual notation produced by String (e.g. "L3E7H22").
func Parse(text string) (*Sequence, error) {
	seq := &Sequence{}
	i := 0
	for i < len(text) {
		ch := text[i]
		if ch >= '0' && ch <= '9' {
			return nil, fmt.Errorf("%w: expected run character at %d", ErrBadFormat, i)
		}
		i++
		j := i
		for j < len(text) && text[j] >= '0' && text[j] <= '9' {
			j++
		}
		if j == i {
			return nil, fmt.Errorf("%w: missing run length at %d", ErrBadFormat, i)
		}
		n, err := strconv.Atoi(text[i:j])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("%w: bad run length %q", ErrBadFormat, text[i:j])
		}
		seq.appendRun(Run{Char: ch, Len: n})
		i = j
	}
	return seq, nil
}

// Equal reports whether two compressed sequences decode to the same string.
func (s *Sequence) Equal(o *Sequence) bool {
	if s.n != o.n || len(s.runs) != len(o.runs) {
		return false
	}
	for i := range s.runs {
		if s.runs[i] != o.runs[i] {
			return false
		}
	}
	return true
}

// Concat returns the concatenation of s and o as a new compressed sequence.
func (s *Sequence) Concat(o *Sequence) *Sequence {
	out := &Sequence{}
	for _, r := range s.runs {
		out.appendRun(r)
	}
	for _, r := range o.runs {
		out.appendRun(r)
	}
	return out
}

// CompareCompressed lexicographically compares the decompressed strings of a
// and b without materialising them.
func CompareCompressed(a, b *Sequence) int {
	ai, bi := 0, 0 // run indexes
	ao, bo := 0, 0 // offsets within current runs
	for ai < len(a.runs) && bi < len(b.runs) {
		ra, rb := a.runs[ai], b.runs[bi]
		if ra.Char != rb.Char {
			if ra.Char < rb.Char {
				return -1
			}
			return 1
		}
		remA, remB := ra.Len-ao, rb.Len-bo
		step := remA
		if remB < step {
			step = remB
		}
		ao += step
		bo += step
		if ao == ra.Len {
			ai++
			ao = 0
		}
		if bo == rb.Len {
			bi++
			bo = 0
		}
	}
	switch {
	case ai < len(a.runs):
		return 1
	case bi < len(b.runs):
		return -1
	default:
		return 0
	}
}
