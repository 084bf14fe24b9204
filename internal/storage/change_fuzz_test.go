package storage

import (
	"bytes"
	"testing"

	"bdbms/internal/wal"
)

// FuzzDecodeChange feeds DecodeChange arbitrary payloads under each row
// record kind and one kind that is not a row record. It must return an
// error, never panic, and a payload it accepts must be the one encoding of
// its change: re-framed through encodeStored and changePayload it comes back
// byte for byte, under the same kind. Run it with
//
//	go test -run '^$' -fuzz FuzzDecodeChange -fuzztime 30s ./internal/storage
//
// The seed corpus, testdata/fuzz/FuzzDecodeChange, holds TestChangeCodec's
// three golden payloads.
func FuzzDecodeChange(f *testing.F) {
	kinds := []wal.Kind{wal.KindInsert, wal.KindUpdate, wal.KindDelete, wal.KindCreateTable}
	f.Fuzz(func(t *testing.T, k byte, payload []byte) {
		kind := kinds[int(k)%len(kinds)]
		c, err := DecodeChange(kind, payload)
		if err != nil {
			return
		}
		if kind == wal.KindCreateTable {
			t.Fatalf("a %s record decoded as a change: %+v", kind, c)
		}
		gotKind, again := encodeChange(c)
		if gotKind != kind || !bytes.Equal(again, payload) {
			t.Fatalf("%s payload %x decoded to %+v, which encodes as %s %x", kind, payload, c, gotKind, again)
		}
	})
}
