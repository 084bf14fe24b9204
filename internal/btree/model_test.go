package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// model is the reference the tree is checked against: every key with its
// values in insertion order, kept in a sorted slice.
type model struct {
	keys []string
	vals map[string][]string
}

func newModel() *model { return &model{vals: map[string][]string{}} }

func (m *model) insert(k, v string) {
	if _, ok := m.vals[k]; !ok {
		i, _ := slices.BinarySearch(m.keys, k)
		m.keys = slices.Insert(m.keys, i, k)
	}
	m.vals[k] = append(m.vals[k], v)
}

func (m *model) drop(k string) {
	i, _ := slices.BinarySearch(m.keys, k)
	m.keys = slices.Delete(m.keys, i, i+1)
	delete(m.vals, k)
}

// deleteOne removes the first v under k and reports whether there was one.
func (m *model) deleteOne(k, v string) bool {
	i := slices.Index(m.vals[k], v)
	if i < 0 {
		return false
	}
	m.vals[k] = slices.Delete(m.vals[k], i, i+1)
	if len(m.vals[k]) == 0 {
		m.drop(k)
	}
	return true
}

func (m *model) size() (entries, bytes int) {
	for k, vs := range m.vals {
		entries += len(vs)
		for _, v := range vs {
			bytes += len(k) + len(v)
		}
	}
	return entries, bytes
}

// modelKey maps a byte to one of 39 keys over {a, b, c} of length 1 to 3,
// so keys share prefixes and collide often.
func modelKey(b byte) string {
	n := int(b) % 39
	switch {
	case n < 3:
		return string(rune('a' + n))
	case n < 12:
		n -= 3
		return string([]byte{byte('a' + n/3), byte('a' + n%3)})
	default:
		n -= 12
		return string([]byte{byte('a' + n/9), byte('a' + n/3%3), byte('a' + n%3)})
	}
}

// modelValue maps a byte to one of four short values.
func modelValue(b byte) string { return string(rune('0' + b%4)) }

// runKey is the i-th key of the ascending runs: above every modelKey.
func runKey(i int) string {
	return "~" + string(binary.BigEndian.AppendUint16(nil, uint16(i)))
}

// runModel decodes ops as a program of tree operations and checks each one
// against the model, with Validate after every operation. The first byte
// picks the order; every operation is an opcode byte and two argument bytes.
func runModel(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		return
	}
	tr := New(4 + int(ops[0])%5)
	m := newModel()
	var runs []string // run keys still present, ascending
	nextRun := 0
	ops = ops[1:min(len(ops), 1+3*1000)] // Validate per step: keep a run fast
	for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
		op, a, b := ops[0]%8, ops[1], ops[2]
		var what string
		switch op {
		case 0, 1:
			k, v := modelKey(a), modelValue(b)
			what = fmt.Sprintf("Insert(%q, %q)", k, v)
			tr.Insert([]byte(k), []byte(v))
			m.insert(k, v)
		case 2:
			k, v := modelKey(a), modelValue(b)
			what = fmt.Sprintf("Delete(%q, %q)", k, v)
			err := tr.Delete([]byte(k), []byte(v))
			if want := m.deleteOne(k, v); want != (err == nil) || (err != nil && !errors.Is(err, ErrNotFound)) {
				t.Fatalf("step %d: %s = %v, model had the pair: %v", step, what, err, want)
			}
		case 3:
			k := modelKey(a)
			what = fmt.Sprintf("Delete(%q, nil)", k)
			err := tr.Delete([]byte(k), nil)
			_, had := m.vals[k]
			if had != (err == nil) {
				t.Fatalf("step %d: %s = %v, model had the key: %v", step, what, err, had)
			}
			if had {
				m.drop(k)
			}
		case 4:
			// An ascending run past every key: right-end splits.
			n := 1 + int(a)%40
			what = fmt.Sprintf("ascending run of %d", n)
			for i := 0; i < n; i++ {
				k := runKey(nextRun)
				nextRun++
				tr.Insert([]byte(k), []byte(modelValue(b)))
				m.insert(k, modelValue(b))
				runs = append(runs, k)
			}
		case 5:
			// Delete the oldest run keys: whole leaves down to empty.
			n := min(1+int(a)%40, len(runs))
			what = fmt.Sprintf("delete %d run keys", n)
			for _, k := range runs[:n] {
				if err := tr.Delete([]byte(k), nil); err != nil {
					t.Fatalf("step %d: %s: Delete(%q): %v", step, what, k, err)
				}
				m.drop(k)
			}
			runs = runs[n:]
		case 6:
			// A long value: leaves split on bytes, not on keys.
			k := modelKey(a)
			v := strings.Repeat(modelValue(b), 100+3*int(b))
			what = fmt.Sprintf("Insert(%q, %d-byte value)", k, len(v))
			tr.Insert([]byte(k), []byte(v))
			m.insert(k, v)
		case 7:
			prefix := modelKey(a)
			prefix = prefix[:min(len(prefix), int(b)%3)]
			what = fmt.Sprintf("AscendPrefix(%q)", prefix)
			checkPrefix(t, tr, m, prefix)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d: after %s: %v", step, what, err)
		}
		entries, _ := m.size()
		if tr.Len() != entries || tr.NumKeys() != len(m.keys) {
			t.Fatalf("step %d: after %s: Len=%d NumKeys=%d, model %d entries under %d keys", step, what, tr.Len(), tr.NumKeys(), entries, len(m.keys))
		}
		if op < 4 {
			k := modelKey(a)
			want := m.vals[k]
			if got := tr.Get([]byte(k)); !sameValues(got, want) {
				t.Fatalf("step %d: after %s: Get(%q) = %q, model %q", step, what, k, got, want)
			}
			var each []string
			tr.GetEach([]byte(k), func(v []byte) bool {
				each = append(each, string(v))
				return true
			})
			if !slices.Equal(each, want) || tr.Contains([]byte(k)) != (len(want) > 0) {
				t.Fatalf("step %d: after %s: GetEach(%q) = %q, Contains = %v, model %q", step, what, k, each, tr.Contains([]byte(k)), want)
			}
		}
	}
	checkAll(t, tr, m)
}

func sameValues(got [][]byte, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if string(got[i]) != want[i] {
			return false
		}
	}
	return true
}

func checkPrefix(t *testing.T, tr *Tree, m *model, prefix string) {
	t.Helper()
	var got []string
	tr.AscendPrefix([]byte(prefix), func(k []byte, values [][]byte) bool {
		if !sameValues(values, m.vals[string(k)]) {
			t.Fatalf("AscendPrefix(%q): key %q has values %q, model %q", prefix, k, values, m.vals[string(k)])
		}
		got = append(got, string(k))
		return true
	})
	var want []string
	for _, k := range m.keys {
		if strings.HasPrefix(k, prefix) {
			want = append(want, k)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("AscendPrefix(%q) = %q, model %q", prefix, got, want)
	}
}

// checkAll compares every entry, the byte count and RankOf with the model.
func checkAll(t *testing.T, tr *Tree, m *model) {
	t.Helper()
	entries := tr.Entries()
	if len(entries) != len(m.keys) {
		t.Fatalf("Entries has %d keys, model %d", len(entries), len(m.keys))
	}
	for i, e := range entries {
		if string(e.Key) != m.keys[i] || !sameValues(e.Values, m.vals[m.keys[i]]) {
			t.Fatalf("entry %d = %q %q, model %q %q", i, e.Key, e.Values, m.keys[i], m.vals[m.keys[i]])
		}
	}
	if _, b := m.size(); tr.KeyBytes() != b {
		t.Fatalf("KeyBytes = %d, model %d", tr.KeyBytes(), b)
	}
	for i, k := range m.keys {
		if r := tr.RankOf([]byte(k)); r != i {
			t.Fatalf("RankOf(%q) = %d, want %d", k, r, i)
		}
	}
}

// FuzzTree runs byte-coded operation programs (see runModel) against the
// sorted-slice model.
func FuzzTree(f *testing.F) {
	f.Fuzz(runModel)
}

// TestTreeMatchesModel runs random operation programs against the model,
// so the checks run without -fuzz too.
func TestTreeMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 200; i++ {
		ops := make([]byte, 1+3*(50+rng.Intn(400)))
		rng.Read(ops)
		t.Run(fmt.Sprint(i), func(t *testing.T) { runModel(t, ops) })
	}
}

// TestSplitAtEveryPosition fills one leaf and overflows it at every key
// position, by key count (a new key) and by bytes (a long value under an
// existing key), at every fill level the order allows.
func TestSplitAtEveryPosition(t *testing.T) {
	for order := 4; order <= 8; order++ {
		for fill := 1; fill <= order; fill++ {
			for pos := 0; pos <= fill; pos++ {
				name := fmt.Sprintf("order=%d/fill=%d/pos=%d", order, fill, pos)
				build := func() (*Tree, *model) {
					tr, m := New(order), newModel()
					for i := 0; i < fill; i++ {
						k := fmt.Sprintf("k%02d", 2*i)
						tr.Insert([]byte(k), []byte("v"))
						m.insert(k, "v")
					}
					return tr, m
				}
				tr, m := build()
				k := fmt.Sprintf("k%02d", 2*pos-1)
				tr.Insert([]byte(k), []byte("new"))
				m.insert(k, "new")
				if err := tr.Validate(); err != nil {
					t.Fatalf("%s: new key: %v", name, err)
				}
				checkAll(t, tr, m)

				if pos == fill {
					continue
				}
				tr, m = build()
				k = fmt.Sprintf("k%02d", 2*pos)
				long := strings.Repeat("x", maxLeafBytes)
				tr.Insert([]byte(k), []byte(long))
				m.insert(k, long)
				if err := tr.Validate(); err != nil {
					t.Fatalf("%s: long value: %v", name, err)
				}
				if fill > 1 && tr.Height() < 2 {
					t.Errorf("%s: a %d-key leaf over %d bytes did not split", name, fill, maxLeafBytes)
				}
				checkAll(t, tr, m)
			}
		}
	}
}

// TestAscendingLoadFillsLeaves: keys inserted in ascending order leave every
// leaf but the last one full.
func TestAscendingLoadFillsLeaves(t *testing.T) {
	tr := New(8)
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i), val(i))
	}
	n := tr.root
	for !n.leaf {
		n = n.children[0]
	}
	for ; n.next != nil; n = n.next {
		if len(n.slots) != 8 {
			t.Fatalf("leaf before the last holds %d keys, want 8", len(n.slots))
		}
	}
}

// TestScanSlicesPointIntoTheLeaf documents the callback contract: scan
// slices alias the tree, Get and Entries copy.
func TestScanSlicesPointIntoTheLeaf(t *testing.T) {
	tr := New(4)
	tr.Insert([]byte("k"), []byte("v1"))
	tr.Insert([]byte("k"), []byte("v2"))
	got := tr.Get([]byte("k"))
	got[0][0] = 'X'
	entries := tr.Entries()
	entries[0].Values[1][0] = 'Y'
	entries[0].Key[0] = 'Z'
	tr.Ascend(func(k []byte, values [][]byte) bool {
		if string(k) != "k" || !bytes.Equal(values[0], []byte("v1")) || !bytes.Equal(values[1], []byte("v2")) {
			t.Errorf("copies alias the tree: %q %q", k, values)
		}
		return true
	})
}

// TestValidateNamesCorruption corrupts a valid tree in each way Validate
// checks and requires the error to name it.
func TestValidateNamesCorruption(t *testing.T) {
	build := func() *Tree {
		tr := New(4)
		for i := 0; i < 40; i++ {
			tr.Insert(key(i), val(i))
			tr.Insert(key(i), val(i+1))
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	firstLeaf := func(tr *Tree) *node {
		n := tr.root
		for !n.leaf {
			n = n.children[0]
		}
		return n
	}
	for _, tc := range []struct {
		name    string
		corrupt func(tr *Tree)
		want    string
	}{
		{"slot past the buffer", func(tr *Tree) { firstLeaf(tr).slots[1] = 1 << 20 }, "outside the"},
		{"slot 0 not at the start", func(tr *Tree) { firstLeaf(tr).slots[0] = 1 }, "slot 0 offset"},
		{"slots out of order", func(tr *Tree) {
			l := firstLeaf(tr)
			l.slots[1], l.slots[2] = l.slots[2], l.slots[1]
		}, "does not follow"},
		{"key length overruns", func(tr *Tree) { firstLeaf(tr).data[0] = 0x7f }, "key length"},
		{"posting overruns", func(tr *Tree) {
			l := firstLeaf(tr)
			kl := int(l.data[0])
			l.data[1+kl] = 0x7f
		}, "overruns"},
		{"keys out of order within a leaf", func(tr *Tree) {
			k, _ := firstLeaf(tr).entry(1)
			k[len(k)-1] = '0' // now equal to key 0
		}, "out of order"},
		{"keys out of order across leaves", func(tr *Tree) {
			l := firstLeaf(tr).next
			k, _ := l.entry(0)
			copy(k, "key-000000")
		}, "out of order"},
		{"separator out of order", func(tr *Tree) {
			tr.root.keys[0], tr.root.keys[1] = tr.root.keys[1], tr.root.keys[0]
		}, "separators out of order"},
		{"separator does not bound its child", func(tr *Tree) {
			n := tr.root
			for !n.children[0].leaf {
				n = n.children[0]
			}
			n.keys[0] = key(1) // the first leaf holds keys 0 to 3
		}, "outside its separators"},
		{"entry count", func(tr *Tree) { tr.size++ }, "Len="},
		{"key count", func(tr *Tree) { tr.keys-- }, "NumKeys="},
		{"byte count", func(tr *Tree) { tr.bytes += 3 }, "KeyBytes="},
		{"leaf chain broken", func(tr *Tree) { firstLeaf(tr).next = nil }, "leaf chain"},
		{"children count", func(tr *Tree) { tr.root.children = tr.root.children[:len(tr.root.children)-1] }, "children"},
	} {
		tr := build()
		tc.corrupt(tr)
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
