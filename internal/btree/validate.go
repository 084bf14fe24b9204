package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Validate checks the structural invariants of the tree and returns an error
// describing the first violation:
//   - every leaf's slot offsets lie inside its buffer, start at 0 and
//     increase, and each entry decodes to a key and a non-empty posting that
//     ends exactly at the next slot;
//   - keys are strictly ordered within each node and along the leaf chain,
//     and an internal node's separators bound its children;
//   - all leaves sit at one depth and the leaf chain links them in key order;
//   - the entries, keys and bytes counted equal Len, NumKeys and KeyBytes.
//
// It reads the tree without trusting it, so a corrupt tree yields an error,
// not a panic. The storage engine's Verify and the property tests call it.
func (t *Tree) Validate() error {
	v := validator{}
	if err := v.walk(t.root, nil, nil, 1); err != nil {
		return err
	}
	if v.prev != nil && v.prev.next != nil {
		return fmt.Errorf("btree: leaf chain runs past the last leaf")
	}
	if v.entries != t.size || v.keys != t.keys {
		return fmt.Errorf("btree: counted %d entries under %d keys, Len=%d NumKeys=%d", v.entries, v.keys, t.size, t.keys)
	}
	if v.bytes != t.bytes {
		return fmt.Errorf("btree: counted %d key and value bytes, KeyBytes=%d", v.bytes, t.bytes)
	}
	return nil
}

type validator struct {
	prev     *node  // the last leaf visited
	prevKey  []byte // its last key
	depth    int    // the depth of the first leaf
	entries  int
	keys     int
	bytes    int
	haveLeaf bool
}

// walk checks the subtree n, every key of which must lie in [lo, hi) (a nil
// bound is open).
func (v *validator) walk(n *node, lo, hi []byte, depth int) error {
	if n.leaf {
		return v.leaf(n, lo, hi, depth)
	}
	if len(n.children) != len(n.keys)+1 {
		return fmt.Errorf("btree: internal node with %d keys has %d children", len(n.keys), len(n.children))
	}
	for i, k := range n.keys {
		if i > 0 && bytes.Compare(n.keys[i-1], k) >= 0 {
			return fmt.Errorf("btree: separators out of order in internal node: %q >= %q", n.keys[i-1], k)
		}
		if (lo != nil && bytes.Compare(k, lo) < 0) || (hi != nil && bytes.Compare(k, hi) >= 0) {
			return fmt.Errorf("btree: separator %q outside its node's bounds [%q, %q)", k, lo, hi)
		}
	}
	for i, c := range n.children {
		if c == nil {
			return fmt.Errorf("btree: internal node has a nil child %d", i)
		}
		childLo, childHi := lo, hi
		if i > 0 {
			childLo = n.keys[i-1]
		}
		if i < len(n.keys) {
			childHi = n.keys[i]
		}
		if err := v.walk(c, childLo, childHi, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func (v *validator) leaf(n *node, lo, hi []byte, depth int) error {
	if !v.haveLeaf {
		v.haveLeaf, v.depth = true, depth
	} else if depth != v.depth {
		return fmt.Errorf("btree: leaves at depths %d and %d", v.depth, depth)
	}
	if v.prev != nil && v.prev.next != n {
		return fmt.Errorf("btree: leaf chain skips or reorders leaves")
	}
	v.prev = n
	if len(n.keys) != 0 || len(n.children) != 0 {
		return fmt.Errorf("btree: leaf holds internal-node keys or children")
	}
	for i, s := range n.slots {
		switch {
		case int(s) >= len(n.data):
			return fmt.Errorf("btree: slot %d offset %d outside the %d-byte leaf buffer", i, s, len(n.data))
		case i == 0 && s != 0:
			return fmt.Errorf("btree: slot 0 offset %d leaves unowned bytes at the leaf's start", s)
		case i > 0 && s <= n.slots[i-1]:
			return fmt.Errorf("btree: slot %d offset %d does not follow slot %d offset %d", i, s, i-1, n.slots[i-1])
		}
	}
	if len(n.slots) == 0 && len(n.data) != 0 {
		return fmt.Errorf("btree: empty leaf holds %d bytes", len(n.data))
	}
	for i := range n.slots {
		e := n.data[n.slots[i]:n.end(i)]
		kl, w := binary.Uvarint(e)
		if w <= 0 || kl > uint64(len(e)-w) {
			return fmt.Errorf("btree: slot %d key length does not fit its entry", i)
		}
		key, p := e[w:w+int(kl)], e[w+int(kl):]
		if v.prevKey != nil && bytes.Compare(v.prevKey, key) >= 0 {
			return fmt.Errorf("btree: keys out of order: %q >= %q", v.prevKey, key)
		}
		if (lo != nil && bytes.Compare(key, lo) < 0) || (hi != nil && bytes.Compare(key, hi) >= 0) {
			return fmt.Errorf("btree: leaf key %q outside its separators [%q, %q)", key, lo, hi)
		}
		v.prevKey = key
		if len(p) == 0 {
			return fmt.Errorf("btree: key %q has an empty posting", key)
		}
		for len(p) > 0 {
			vl, w := binary.Uvarint(p)
			if w <= 0 || vl > uint64(len(p)-w) {
				return fmt.Errorf("btree: posting of key %q overruns its entry", key)
			}
			p = p[w+int(vl):]
			v.entries++
			v.bytes += len(key) + int(vl)
		}
		v.keys++
	}
	return nil
}
