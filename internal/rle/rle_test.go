package rle

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []string{"", "A", "AAAA", "ABAB", "LLLEEEEEEEHHHH", "HHHHHHHHHHLL", "ATGCATGC"}
	for _, c := range cases {
		seq := Encode(c)
		if got := seq.Decode(); got != c {
			t.Errorf("Decode(Encode(%q)) = %q", c, got)
		}
		if seq.Len() != len(c) {
			t.Errorf("Len(%q) = %d, want %d", c, seq.Len(), len(c))
		}
	}
}

func TestEncodeRunStructure(t *testing.T) {
	seq := Encode("LLLEEEEEEEHHHHHHHHHHHHHHHHHHHHHH")
	want := []Run{{'L', 3}, {'E', 7}, {'H', 22}}
	got := seq.Runs()
	if len(got) != len(want) {
		t.Fatalf("runs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("run %d = %v, want %v", i, got[i], want[i])
		}
	}
	if seq.String() != "L3E7H22" {
		t.Errorf("String() = %q, want L3E7H22", seq.String())
	}
}

func TestParse(t *testing.T) {
	seq, err := Parse("L3E7H22")
	if err != nil {
		t.Fatal(err)
	}
	if seq.Decode() != "LLLEEEEEEEHHHHHHHHHHHHHHHHHHHHHH" {
		t.Errorf("parsed decode = %q", seq.Decode())
	}
	for _, bad := range []string{"3L", "L", "LE3", "L0"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestFromRuns(t *testing.T) {
	seq, err := FromRuns([]Run{{'A', 2}, {'A', 3}, {'B', 1}})
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumRuns() != 2 || seq.Decode() != "AAAAAB" {
		t.Errorf("merge failed: %v %q", seq.Runs(), seq.Decode())
	}
	if _, err := FromRuns([]Run{{'A', 0}}); err == nil {
		t.Error("zero-length run should fail")
	}
}

func TestCharAt(t *testing.T) {
	s := "LLLEEEEEEEHHHH"
	seq := Encode(s)
	for i := 0; i < len(s); i++ {
		c, err := seq.CharAt(i)
		if err != nil || c != s[i] {
			t.Fatalf("CharAt(%d) = %c, %v; want %c", i, c, err, s[i])
		}
	}
	if _, err := seq.CharAt(-1); err == nil {
		t.Error("CharAt(-1) should fail")
	}
	if _, err := seq.CharAt(len(s)); err == nil {
		t.Error("CharAt(len) should fail")
	}
}

func TestSubstring(t *testing.T) {
	s := "LLLEEEEEEEHHHHHHLLEE"
	seq := Encode(s)
	for start := 0; start <= len(s); start++ {
		for length := 0; start+length <= len(s); length++ {
			got, err := seq.Substring(start, length)
			if err != nil {
				t.Fatalf("Substring(%d,%d): %v", start, length, err)
			}
			if got != s[start:start+length] {
				t.Fatalf("Substring(%d,%d) = %q, want %q", start, length, got, s[start:start+length])
			}
		}
	}
	if _, err := seq.Substring(1, len(s)); err == nil {
		t.Error("out of range substring should fail")
	}
}

func TestRunAtPosition(t *testing.T) {
	seq := Encode("LLLEEH")
	idx, start, err := seq.RunAtPosition(4)
	if err != nil || idx != 1 || start != 3 {
		t.Fatalf("RunAtPosition(4) = %d,%d,%v", idx, start, err)
	}
	if _, _, err := seq.RunAtPosition(100); err == nil {
		t.Error("out of range should fail")
	}
}

func TestSuffix(t *testing.T) {
	seq := Encode("LLLEEEHH")
	suf := seq.Suffix(1)
	if suf.Decode() != "EEEHH" {
		t.Errorf("Suffix(1) = %q", suf.Decode())
	}
	if seq.Suffix(99).Len() != 0 {
		t.Error("out-of-range suffix should be empty")
	}
}

func TestIndexOfAndContains(t *testing.T) {
	s := "LLLEEEEEEEHHHHHHHHHHHHHHHHHHHHHHEEEEEELLEEELHHHH"
	seq := Encode(s)
	patterns := []string{"LLL", "EEEH", "HHLL", "LEEEL", "EEEEEELL", "LLLE", "H", "HHHHHHHHHH"}
	for _, p := range patterns {
		want := strings.Index(s, p)
		got := seq.IndexOf(p)
		if got != want {
			t.Errorf("IndexOf(%q) = %d, want %d", p, got, want)
		}
		if seq.ContainsSubstring(p) != (want >= 0) {
			t.Errorf("Contains(%q) mismatch", p)
		}
	}
	if seq.IndexOf("XYZ") != -1 {
		t.Error("absent pattern should give -1")
	}
	if seq.IndexOf("") != 0 {
		t.Error("empty pattern matches at 0")
	}
}

func TestHasPrefix(t *testing.T) {
	seq := Encode("LLLEEEHH")
	for _, p := range []string{"", "L", "LL", "LLL", "LLLE", "LLLEEE", "LLLEEEH"} {
		if !seq.HasPrefix(p) {
			t.Errorf("HasPrefix(%q) should be true", p)
		}
	}
	for _, p := range []string{"E", "LLLL", "LLLEEEE", "LLLEEEHHH", "LLLH"} {
		if seq.HasPrefix(p) {
			t.Errorf("HasPrefix(%q) should be false", p)
		}
	}
}

func TestCompressionRatioSecondaryStructure(t *testing.T) {
	// Long-run secondary structures should compress well (E1's premise).
	var b strings.Builder
	rng := rand.New(rand.NewSource(7))
	letters := []byte{'H', 'E', 'L'}
	for i := 0; i < 100; i++ {
		ch := letters[rng.Intn(3)]
		n := 10 + rng.Intn(30)
		for j := 0; j < n; j++ {
			b.WriteByte(ch)
		}
	}
	seq := Encode(b.String())
	if seq.CompressionRatio() < 2 {
		t.Errorf("secondary structure should compress: ratio %.2f", seq.CompressionRatio())
	}
	if seq.CompressedSize() != seq.NumRuns()*5 {
		t.Error("compressed size accounting changed unexpectedly")
	}
}

func TestEqualConcat(t *testing.T) {
	a := Encode("LLLEE")
	b := Encode("LLLEE")
	c := Encode("LLLEEE")
	if !a.Equal(b) || a.Equal(c) {
		t.Error("Equal misbehaves")
	}
	cat := Encode("LLL").Concat(Encode("LLEE"))
	if cat.Decode() != "LLLLLEE" || cat.NumRuns() != 2 {
		t.Errorf("Concat = %q runs=%d", cat.Decode(), cat.NumRuns())
	}
}

func TestCompareCompressed(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"AAB", "AAB", 0},
		{"AAB", "AAC", -1},
		{"AAC", "AAB", 1},
		{"AA", "AAB", -1},
		{"AAB", "AA", 1},
		{"", "", 0},
		{"", "A", -1},
		{"HHHL", "HHHH", 1},
	}
	for _, c := range cases {
		got := CompareCompressed(Encode(c.a), Encode(c.b))
		if got != c.want {
			t.Errorf("CompareCompressed(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// randomStructure builds a random H/E/L string for property tests.
func randomStructure(rng *rand.Rand, maxLen int) string {
	letters := []byte{'H', 'E', 'L'}
	n := rng.Intn(maxLen)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(3)]
	}
	return string(b)
}

func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		s := randomStructure(rng, 300)
		return Encode(s).Decode() == s
	}
	for i := 0; i < 300; i++ {
		if !f() {
			t.Fatal("round trip failed")
		}
	}
}

func TestQuickIndexOfMatchesStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		s := randomStructure(rng, 200)
		p := randomStructure(rng, 6)
		seq := Encode(s)
		if got, want := seq.IndexOf(p), strings.Index(s, p); got != want {
			t.Fatalf("IndexOf(%q in %q) = %d, want %d", p, s, got, want)
		}
	}
}

func TestQuickCompareMatchesStringCompare(t *testing.T) {
	f := func(a, b string) bool {
		ca, cb := Encode(a), Encode(b)
		got := CompareCompressed(ca, cb)
		want := strings.Compare(a, b)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		s := randomStructure(rng, 150)
		if s == "" {
			continue
		}
		seq := Encode(s)
		parsed, err := Parse(seq.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", seq.String(), err)
		}
		if !parsed.Equal(seq) {
			t.Fatalf("parse round trip failed for %q", s)
		}
	}
}

// TestAppendAt gathers ascending positions by one walk of the runs and
// matches indexing the decoded string.
func TestAppendAt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		raw := randomStructure(rng, 300)
		if raw == "" {
			continue
		}
		var pos []int32
		var want []byte
		for p := rng.Intn(4); p < len(raw); p += 1 + rng.Intn(6) {
			pos = append(pos, int32(p))
			want = append(want, raw[p])
		}
		if got := Encode(raw).AppendAt([]byte("x"), pos); string(got) != "x"+string(want) {
			t.Fatalf("AppendAt(%q, %v) = %q, want %q", raw, pos, got[1:], want)
		}
	}
}
