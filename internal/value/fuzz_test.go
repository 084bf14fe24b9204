package value

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// FuzzDecodeRow feeds DecodeRow arbitrary bytes: it must never panic, and a
// row it accepts must survive encode -> decode -> encode unchanged. Run it
// with
//
//	go test -run '^$' -fuzz FuzzDecodeRow -fuzztime 30s ./internal/value
//
// The seed corpus is testdata/fuzz/FuzzDecodeRow plus the rows added below.
func FuzzDecodeRow(f *testing.F) {
	for _, r := range []Row{
		nil,
		{NewNull()},
		{NewInt(math.MinInt64), NewInt(1<<53 + 1), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN())},
		{NewText(""), NewText("x\x00y"), NewSequence("ACGT"), NewBool(true), NewBool(false)},
		{NewTimestamp(time.Unix(1700000000, 123456789))},
	} {
		f.Add(EncodeRow(r))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // a hostile count
	f.Fuzz(func(t *testing.T, data []byte) {
		row, err := DecodeRow(data)
		if err != nil {
			return
		}
		enc := EncodeRow(row)
		again, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("re-decoding %x: %v", enc, err)
		}
		if len(again) != len(row) {
			t.Fatalf("%d values, then %d", len(row), len(again))
		}
		for i := range row {
			if row[i].Type() != again[i].Type() || !bytes.Equal(row[i].Encode(nil), again[i].Encode(nil)) {
				t.Fatalf("value %d: %v, then %v", i, row[i], again[i])
			}
		}
		if !bytes.Equal(EncodeRow(again), enc) {
			t.Fatalf("encoding moved: %x, then %x", enc, EncodeRow(again))
		}
	})
}
