// Package btree implements an order-configurable B+-tree over byte-string
// keys. It is the workhorse index of bdbms: secondary indexes on table
// columns, the suffix layer of the String B-tree baseline and of the SBC-tree
// are all instances of this tree.
//
// Keys are compared bytewise (callers use value.EncodeKey or their own
// order-preserving encodings). Duplicate keys are allowed; each key maps to a
// list of values kept in insertion order. Node accesses are counted so
// experiments can report simulated I/Os: descending one level costs one
// read, writing or splitting a node costs one write.
//
// # Leaf layout
//
// A leaf holds no pointer per entry. Its entries are packed, in key order,
// into one byte buffer, and a slot array holds each entry's offset in it
// (slotted-page style). An entry is
//
//	uvarint(len(key)) key { uvarint(len(value)) value }...
//
// so all values of one key form one posting that runs to the next slot's
// offset (or the end of the buffer). Insert and Delete copy the key and value
// bytes in; the caller may reuse its buffers afterwards. A leaf splits when
// it holds more than the order's keys or more than maxLeafBytes; when the new
// key lands at the leaf's right end the split leaves the old leaf full and
// starts a new one, so ascending loads fill their leaves. Internal nodes hold
// separator keys and child pointers.
//
// The key and value slices that AscendRange, AscendPrefix and Ascend hand to
// their callback point into the leaf: they are valid only inside the
// callback, and the callback must not modify them or the tree. Get and
// Entries return copies.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync/atomic"
)

// DefaultOrder is the default maximum number of keys per node. With 4 KB
// pages and ~64-byte keys this is a realistic fan-out.
const DefaultOrder = 64

// maxLeafBytes bounds a leaf's packed buffer: a leaf over it splits although
// it holds fewer keys than the order, so an insert into a leaf of long
// postings moves at most this many bytes. A single key whose posting alone
// exceeds it keeps a leaf of its own.
const maxLeafBytes = 4096

// ErrNotFound is returned by Delete when the (key, value) pair is absent.
var ErrNotFound = errors.New("btree: key not found")

// IOStats counts simulated node I/Os.
type IOStats struct {
	// NodeReads counts node visits during descents and scans.
	NodeReads uint64
	// NodeWrites counts node modifications (inserts, deletes, splits).
	NodeWrites uint64
	// Splits counts node splits.
	Splits uint64
}

// Entry is a key with its values, as returned by Entries.
type Entry struct {
	Key    []byte
	Values [][]byte
}

type node struct {
	leaf bool
	// Internal nodes: len(children) == len(keys)+1, and every key of
	// children[i] lies in [keys[i-1], keys[i]).
	keys     [][]byte
	children []*node
	// Leaves: entry i is data[slots[i]:end(i)], entries in key order.
	slots []uint32
	data  []byte
	next  *node // right sibling, for range scans
}

// Tree is a B+-tree. It is not safe for concurrent mutation; the storage
// engine serialises writers per table.
type Tree struct {
	root  *node
	order int
	size  int // number of (key,value) pairs
	keys  int // number of distinct keys
	bytes int // total bytes of keys and values stored (for storage accounting)
	// stats counters are atomic: read-only tree operations (Get, scans) are
	// issued concurrently by parallel SELECT sessions and still count their
	// simulated I/Os.
	stats ioCounters
}

// ioCounters is the internal atomic representation of IOStats.
type ioCounters struct {
	nodeReads  atomic.Uint64
	nodeWrites atomic.Uint64
	splits     atomic.Uint64
}

// New creates an empty tree with the given order (maximum keys per node).
// Orders below 4 are raised to 4.
func New(order int) *Tree {
	if order < 4 {
		order = 4
	}
	return &Tree{root: &node{leaf: true}, order: order}
}

// Len returns the number of (key, value) pairs stored.
func (t *Tree) Len() int { return t.size }

// NumKeys returns the number of distinct keys stored.
func (t *Tree) NumKeys() int { return t.keys }

// KeyBytes returns the total number of key and value bytes stored, the
// storage-footprint measure used by experiment E1.
func (t *Tree) KeyBytes() int { return t.bytes }

// Stats returns a snapshot of the simulated I/O counters.
func (t *Tree) Stats() IOStats {
	return IOStats{
		NodeReads:  t.stats.nodeReads.Load(),
		NodeWrites: t.stats.nodeWrites.Load(),
		Splits:     t.stats.splits.Load(),
	}
}

// ResetStats zeroes the simulated I/O counters.
func (t *Tree) ResetStats() {
	t.stats.nodeReads.Store(0)
	t.stats.nodeWrites.Store(0)
	t.stats.splits.Store(0)
}

// Height returns the height of the tree (1 for a single leaf).
func (t *Tree) Height() int {
	h := 1
	n := t.root
	for !n.leaf {
		n = n.children[0]
		h++
	}
	return h
}

// EstimatePages estimates how many fixed-size pages the tree would occupy on
// disk given its stored bytes plus per-entry overhead.
func (t *Tree) EstimatePages(pageSize int) int {
	if pageSize <= 0 {
		pageSize = 4096
	}
	overhead := t.size * 8 // slot + pointer overhead per entry
	total := t.bytes + overhead
	pages := total / pageSize
	if total%pageSize != 0 {
		pages++
	}
	if pages == 0 {
		pages = 1
	}
	return pages
}

// --- leaf encoding ------------------------------------------------------------

// uvarint decodes a length written by putUvarint. Lengths below 128 — every
// key and value the engine stores — take the one-byte path.
func uvarint(b []byte) (int, int) {
	if b[0] < 0x80 {
		return int(b[0]), 1
	}
	v, w := binary.Uvarint(b)
	return int(v), w
}

func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// end returns the offset one past leaf entry i.
func (n *node) end(i int) int {
	if i+1 < len(n.slots) {
		return int(n.slots[i+1])
	}
	return len(n.data)
}

func (n *node) leafKey(i int) []byte {
	o := int(n.slots[i])
	kl, w := uvarint(n.data[o:])
	return n.data[o+w : o+w+kl : o+w+kl]
}

// entry splits leaf entry i into its key and its posting.
func (n *node) entry(i int) (key, posting []byte) {
	key = n.leafKey(i)
	k := int(n.slots[i]) + uvarintLen(len(key)) + len(key)
	return key, n.data[k:n.end(i)]
}

// search returns the index of the first leaf key >= key and whether it
// equals key.
func (n *node) search(key []byte) (int, bool) {
	lo, hi := 0, len(n.slots)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bytes.Compare(n.leafKey(m), key) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(n.slots) && bytes.Equal(n.leafKey(lo), key)
}

// child returns the index of the child of internal node n that covers key.
func (n *node) child(key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bytes.Compare(n.keys[m], key) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// nextValue splits the first value off posting p.
func nextValue(p []byte) (v, rest []byte) {
	l, w := uvarint(p)
	return p[w : w+l : w+l], p[w+l:]
}

// appendValues appends the values of posting p to dst.
func appendValues(dst [][]byte, p []byte) [][]byte {
	for len(p) > 0 {
		var v []byte
		v, p = nextValue(p)
		dst = append(dst, v)
	}
	return dst
}

// open makes room for m bytes at offset pos of leaf n's buffer and adds m to
// the offsets of slots from on. It returns the room.
func (n *node) open(pos, from, m int) []byte {
	l := len(n.data)
	if l+m > cap(n.data) {
		// Double, but a leaf that can split never needs more than
		// maxLeafBytes: past it, the insert is followed by a split.
		c := 2 * cap(n.data)
		if len(n.slots) > 1 {
			c = min(c, maxLeafBytes)
		}
		grown := make([]byte, l+m, max(c, l+m))
		copy(grown, n.data[:pos])
		copy(grown[pos+m:], n.data[pos:])
		n.data = grown
	} else {
		n.data = n.data[:l+m]
		copy(n.data[pos+m:], n.data[pos:l])
	}
	for i := from; i < len(n.slots); i++ {
		n.slots[i] += uint32(m)
	}
	return n.data[pos : pos+m]
}

// splitCap is the buffer capacity a leaf of l packed bytes gets when a split
// makes it: room to double, up to a leaf's byte bound.
func splitCap(l int) int { return max(l, min(2*l, maxLeafBytes)) }

// cut removes data[pos:pos+m] from leaf n and subtracts m from the offsets
// of slots from on.
func (n *node) cut(pos, from, m int) {
	n.data = append(n.data[:pos], n.data[pos+m:]...)
	for i := from; i < len(n.slots); i++ {
		n.slots[i] -= uint32(m)
	}
}

// putEntry writes key's entry holding the single value into dst, which is
// exactly entrySize(key, value) long.
func putEntry(dst, key, value []byte) {
	w := binary.PutUvarint(dst, uint64(len(key)))
	w += copy(dst[w:], key)
	putValue(dst[w:], value)
}

func putValue(dst, value []byte) {
	w := binary.PutUvarint(dst, uint64(len(value)))
	copy(dst[w:], value)
}

func valueSize(value []byte) int { return uvarintLen(len(value)) + len(value) }

func entrySize(key, value []byte) int {
	return uvarintLen(len(key)) + len(key) + valueSize(value)
}

// --- insert -------------------------------------------------------------------

// Insert adds value under key, after the values already there. Duplicate
// (key, value) pairs are stored once per call (the tree does not deduplicate
// values). The tree keeps copies of key and value.
func (t *Tree) Insert(key, value []byte) {
	median, right := t.insert(t.root, key, value)
	if right != nil {
		newRoot := &node{
			leaf:     false,
			keys:     [][]byte{median},
			children: []*node{t.root, right},
		}
		t.root = newRoot
		t.stats.nodeWrites.Add(1)
	}
}

func (t *Tree) insert(n *node, key, value []byte) (median []byte, right *node) {
	t.stats.nodeReads.Add(1)
	if n.leaf {
		return t.insertLeaf(n, key, value)
	}
	idx := n.child(key)
	median, right = t.insert(n.children[idx], key, value)
	if right == nil {
		return nil, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[idx+1:], n.keys[idx:])
	n.keys[idx] = median
	n.children = append(n.children, nil)
	copy(n.children[idx+2:], n.children[idx+1:])
	n.children[idx+1] = right
	t.stats.nodeWrites.Add(1)
	if len(n.keys) > t.order {
		return t.splitInternal(n)
	}
	return nil, nil
}

func (t *Tree) insertLeaf(n *node, key, value []byte) ([]byte, *node) {
	idx, found := n.search(key)
	t.size++
	t.bytes += len(key) + len(value)
	t.stats.nodeWrites.Add(1)
	if found {
		// Append to the key's posting, keeping insertion order.
		putValue(n.open(n.end(idx), idx+1, valueSize(value)), value)
	} else {
		t.keys++
		m := entrySize(key, value)
		if idx == len(n.slots) && idx > 0 && (idx >= t.order || len(n.data)+m > maxLeafBytes) {
			return t.appendLeaf(n, key, value, m)
		}
		pos := len(n.data)
		if idx < len(n.slots) {
			pos = int(n.slots[idx])
		}
		putEntry(n.open(pos, idx, m), key, value)
		n.slots = append(n.slots, 0)
		copy(n.slots[idx+1:], n.slots[idx:])
		n.slots[idx] = uint32(pos)
	}
	if len(n.slots) > t.order || (len(n.data) > maxLeafBytes && len(n.slots) > 1) {
		return t.splitLeaf(n)
	}
	return nil, nil
}

// appendLeaf is the split of a full leaf n whose new key lands at its right
// end: n stays as it is, trimmed to its bytes, and key starts a new right
// sibling sized like n.
func (t *Tree) appendLeaf(n *node, key, value []byte, m int) ([]byte, *node) {
	if slack := cap(n.data) - len(n.data); slack > len(n.data)/8 {
		n.data = append(make([]byte, 0, len(n.data)), n.data...)
	}
	right := &node{
		leaf:  true,
		slots: make([]uint32, 1, min(len(n.slots)+1, t.order+1)),
		data:  make([]byte, m, max(m, len(n.data))),
		next:  n.next,
	}
	putEntry(right.data, key, value)
	n.next = right
	t.stats.splits.Add(1)
	t.stats.nodeWrites.Add(1)
	return append([]byte(nil), key...), right
}

// splitLeaf moves the upper half of leaf n's bytes, at least one key, to a
// new right sibling.
func (t *Tree) splitLeaf(n *node) ([]byte, *node) {
	s := 1
	for s < len(n.slots)-1 && int(n.slots[s]) < len(n.data)/2 {
		s++
	}
	off := int(n.slots[s])
	keys := len(n.slots) - s
	right := &node{
		leaf:  true,
		slots: make([]uint32, keys, min(2*keys+1, t.order+1)),
		data:  make([]byte, len(n.data)-off, splitCap(len(n.data)-off)),
		next:  n.next,
	}
	for i := range right.slots {
		right.slots[i] = n.slots[s+i] - uint32(off)
	}
	copy(right.data, n.data[off:])
	n.slots = n.slots[:s]
	n.data = n.data[:off]
	if c := splitCap(off); cap(n.data) > c {
		n.data = append(make([]byte, 0, c), n.data...)
	}
	n.next = right
	t.stats.splits.Add(1)
	t.stats.nodeWrites.Add(2)
	return append([]byte(nil), right.leafKey(0)...), right
}

func (t *Tree) splitInternal(n *node) ([]byte, *node) {
	mid := len(n.keys) / 2
	median := n.keys[mid]
	right := &node{
		leaf:     false,
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	t.stats.splits.Add(1)
	t.stats.nodeWrites.Add(2)
	return median, right
}

// --- point operations -----------------------------------------------------------

// find descends to the leaf that would hold key and returns it with key's
// index there and whether key is present.
func (t *Tree) find(key []byte) (*node, int, bool) {
	n := t.root
	for !n.leaf {
		t.stats.nodeReads.Add(1)
		n = n.children[n.child(key)]
	}
	t.stats.nodeReads.Add(1)
	idx, found := n.search(key)
	return n, idx, found
}

// Get returns copies of all values stored under key, in insertion order, or
// nil when absent.
func (t *Tree) Get(key []byte) [][]byte {
	n, idx, found := t.find(key)
	if !found {
		return nil
	}
	_, p := n.entry(idx)
	return appendValues(nil, bytes.Clone(p))
}

// GetEach calls fn with every value stored under key, in insertion order,
// until fn returns false. It allocates nothing; value points into the leaf
// and is valid only inside fn.
func (t *Tree) GetEach(key []byte, fn func(value []byte) bool) {
	n, idx, found := t.find(key)
	if !found {
		return
	}
	_, p := n.entry(idx)
	for len(p) > 0 {
		var v []byte
		v, p = nextValue(p)
		if !fn(v) {
			return
		}
	}
}

// Contains reports whether key is present.
func (t *Tree) Contains(key []byte) bool {
	_, _, found := t.find(key)
	return found
}

// Delete removes one occurrence of (key, value) from the tree — the earliest
// inserted one. When value is nil all values under key are removed.
// Underflowed nodes are not rebalanced (deletes are rare in the bdbms
// workloads; space is reclaimed on rebuild), but the reported size and byte
// counts stay exact.
func (t *Tree) Delete(key, value []byte) error {
	n, idx, found := t.find(key)
	if !found {
		return ErrNotFound
	}
	start, end := int(n.slots[idx]), n.end(idx)
	_, p := n.entry(idx)
	if value == nil {
		for len(p) > 0 {
			var v []byte
			v, p = nextValue(p)
			t.size--
			t.bytes -= len(key) + len(v)
		}
		t.removeEntry(n, idx, start, end)
		return nil
	}
	whole := len(p)
	for len(p) > 0 {
		v, rest := nextValue(p)
		if bytes.Equal(v, value) {
			t.size--
			t.bytes -= len(key) + len(v)
			if len(p) == whole && len(rest) == 0 {
				// The key's only value: the entry goes.
				t.removeEntry(n, idx, start, end)
			} else {
				n.cut(end-len(p), idx+1, len(p)-len(rest))
				t.stats.nodeWrites.Add(1)
			}
			return nil
		}
		p = rest
	}
	return ErrNotFound
}

// removeEntry deletes leaf entry idx, which spans data[start:end].
func (t *Tree) removeEntry(n *node, idx, start, end int) {
	n.cut(start, idx+1, end-start)
	n.slots = append(n.slots[:idx], n.slots[idx+1:]...)
	t.keys--
	t.stats.nodeWrites.Add(1)
}

// --- scans ----------------------------------------------------------------------

// AscendRange calls fn for every key with start <= key < end, in key order,
// with the key's values in insertion order. A nil end means "to the last
// key". Iteration stops early when fn returns false. key and values point
// into the tree: they are valid only inside fn.
func (t *Tree) AscendRange(start, end []byte, fn func(key []byte, values [][]byte) bool) {
	var values [][]byte
	t.scan(start, func(n *node, i int) bool {
		k, p := n.entry(i)
		if end != nil && bytes.Compare(k, end) >= 0 {
			return false
		}
		values = appendValues(values[:0], p)
		return fn(k, values)
	})
}

// scan calls fn with every leaf entry whose key is >= start, in key order,
// until fn returns false.
func (t *Tree) scan(start []byte, fn func(n *node, i int) bool) {
	n, idx, _ := t.find(start)
	for n != nil {
		for ; idx < len(n.slots); idx++ {
			if !fn(n, idx) {
				return
			}
		}
		n = n.next
		if n != nil {
			t.stats.nodeReads.Add(1)
		}
		idx = 0
	}
}

// AscendPrefix calls fn for every entry whose key has the given prefix. Its
// slices are valid only inside fn, as for AscendRange.
func (t *Tree) AscendPrefix(prefix []byte, fn func(key []byte, values [][]byte) bool) {
	t.AscendRange(prefix, nil, func(key []byte, values [][]byte) bool {
		if !bytes.HasPrefix(key, prefix) {
			return false
		}
		return fn(key, values)
	})
}

// Ascend calls fn for every entry in key order. Its slices are valid only
// inside fn, as for AscendRange.
func (t *Tree) Ascend(fn func(key []byte, values [][]byte) bool) {
	t.AscendRange(nil, nil, fn)
}

// Entries returns copies of all entries in key order; intended for tests and
// small trees.
func (t *Tree) Entries() []Entry {
	var out []Entry
	t.Ascend(func(key []byte, values [][]byte) bool {
		vs := make([][]byte, len(values))
		for i, v := range values {
			vs[i] = append([]byte(nil), v...)
		}
		out = append(out, Entry{Key: append([]byte(nil), key...), Values: vs})
		return true
	})
	return out
}

// RankOf returns the number of distinct keys strictly less than key. Combined
// with AscendRange this gives the positional ("3-sided") queries the SBC-tree
// needs.
func (t *Tree) RankOf(key []byte) int {
	rank := 0
	t.scan(nil, func(n *node, i int) bool {
		if bytes.Compare(n.leafKey(i), key) < 0 {
			rank++
			return true
		}
		return false
	})
	return rank
}
