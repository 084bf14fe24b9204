package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"bdbms/internal/errcode"
	"bdbms/internal/value"
)

func roundTripFrame(t *testing.T, typ Type, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, typ, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	gotType, gotPayload, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if gotType != typ {
		t.Fatalf("type = %c, want %c", gotType, typ)
	}
	return gotPayload
}

func TestFrameRoundTrip(t *testing.T) {
	p := roundTripFrame(t, TypeParse, []byte("hello"))
	if string(p) != "hello" {
		t.Fatalf("payload = %q", p)
	}
	if p := roundTripFrame(t, TypePing, nil); len(p) != 0 {
		t.Fatalf("empty payload round-trip = %q", p)
	}
}

// TestFrameBuffered: only a whole buffered frame counts; a header alone or
// a frame cut mid-payload does not, and nothing is consumed by asking.
func TestFrameBuffered(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, TypePing, nil)
	WriteFrame(&buf, TypeExecute, Execute{Portal: "p"}.Encode())
	WriteFrame(&buf, TypeBind, Bind{Portal: "p"}.Encode())
	stream := buf.Bytes()[:buf.Len()-1] // the Bind frame is cut short

	br := bufio.NewReader(bytes.NewReader(stream))
	if FrameBuffered(br) {
		t.Fatal("FrameBuffered on an empty buffer")
	}
	br.Peek(1) // fill the buffer with the whole stream
	for _, want := range []Type{TypePing, TypeExecute} {
		if !FrameBuffered(br) {
			t.Fatalf("the %c frame is buffered whole, FrameBuffered says no", want)
		}
		if typ, _, err := ReadFrame(br, 0); err != nil || typ != want {
			t.Fatalf("ReadFrame = %c/%v, want %c", typ, err, want)
		}
	}
	if FrameBuffered(br) {
		t.Fatal("FrameBuffered on a frame cut mid-payload")
	}
	br.Discard(br.Buffered() - 3)
	if FrameBuffered(br) {
		t.Fatal("FrameBuffered on a partial header")
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	// Hand-craft a header claiming a 1 GiB payload.
	buf.Write([]byte{byte(TypeRow), 0x40, 0x00, 0x00, 0x00})
	if _, _, err := ReadFrame(&buf, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("huge frame read = %v, want ErrFrameTooLarge", err)
	}
	if err := WriteFrame(io.Discard, TypeRow, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("huge frame write = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeParse, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	// Chop the stream mid-payload: the reader must report an unexpected EOF,
	// not hand back a short payload.
	short := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	if _, _, err := ReadFrame(short, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated read = %v, want ErrUnexpectedEOF", err)
	}
	// A clean close between frames is io.EOF.
	if _, _, err := ReadFrame(bytes.NewReader(nil), 0); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream = %v, want io.EOF", err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	hello := Hello{Version: ProtocolVersion, User: "alice", Secret: "s3cret"}
	if got, err := DecodeHello(hello.Encode()); err != nil || got != hello {
		t.Fatalf("Hello round-trip = %+v, %v", got, err)
	}
	auth := AuthOK{ServerVersion: "bdbms/1", SessionID: 42}
	if got, err := DecodeAuthOK(auth.Encode()); err != nil || got != auth {
		t.Fatalf("AuthOK round-trip = %+v, %v", got, err)
	}
	parse := Parse{Name: "q1", SQL: "SELECT * FROM Gene WHERE GID = ?"}
	if got, err := DecodeParse(parse.Encode()); err != nil || got != parse {
		t.Fatalf("Parse round-trip = %+v, %v", got, err)
	}
	pok := ParseOK{NumParams: 3}
	if got, err := DecodeParseOK(pok.Encode()); err != nil || got != pok {
		t.Fatalf("ParseOK round-trip = %+v, %v", got, err)
	}
	exec := Execute{Portal: "p0", MaxRows: 64}
	if got, err := DecodeExecute(exec.Encode()); err != nil || got != exec {
		t.Fatalf("Execute round-trip = %+v, %v", got, err)
	}
	ct := CloseTarget{Name: "q1"}
	if got, err := DecodeCloseTarget(ct.Encode()); err != nil || got != ct {
		t.Fatalf("CloseTarget round-trip = %+v, %v", got, err)
	}
	comp := Complete{Affected: 7, Message: "BEGIN", Rows: 123}
	if got, err := DecodeComplete(comp.Encode()); err != nil || got != comp {
		t.Fatalf("Complete round-trip = %+v, %v", got, err)
	}
	werr := Error{Code: errcode.TxDone, Message: "transaction over"}
	if got, err := DecodeError(werr.Encode()); err != nil || got != werr {
		t.Fatalf("Error round-trip = %+v, %v", got, err)
	}
}

func TestErrorUnknownCodeDegrades(t *testing.T) {
	raw := Error{Code: errcode.Code("future.fancy_code"), Message: "??"}.Encode()
	got, err := DecodeError(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != errcode.Internal {
		t.Fatalf("unknown code decoded to %q, want internal", got.Code)
	}
}

func TestBindRoundTrip(t *testing.T) {
	args := value.Row{
		value.NewText("JW0080"),
		value.NewInt(-12),
		value.NewFloat(3.5),
		value.NewBool(true),
		value.NewNull(),
		value.NewSequence("ATGATGG"),
		value.NewTimestamp(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)),
	}
	b := Bind{Portal: "p1", Stmt: "ins", Args: args}
	got, err := DecodeBind(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Portal != "p1" || got.Stmt != "ins" || len(got.Args) != len(args) {
		t.Fatalf("Bind round-trip = %+v", got)
	}
	for i := range args {
		if !got.Args[i].Equal(args[i]) && !(args[i].IsNull() && got.Args[i].IsNull()) {
			t.Errorf("arg %d = %v, want %v", i, got.Args[i], args[i])
		}
	}
	// Trailing garbage after the argument row is a protocol violation.
	if _, err := DecodeBind(append(b.Encode(), 0xFF)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing garbage = %v, want ErrMalformed", err)
	}
}

func TestRowRoundTrip(t *testing.T) {
	r := Row{
		Values: value.Row{value.NewText("g1"), value.NewInt(9)},
		Anns: [][]Ann{
			{{ID: 3, AnnTable: "Ann", Author: "alice", Body: "<Annotation>x</Annotation>", Archived: false}},
			nil,
		},
	}
	got, err := DecodeRowMsg(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != 2 || got.Values[0].Text() != "g1" || got.Values[1].Int() != 9 {
		t.Fatalf("values = %v", got.Values)
	}
	if len(got.Anns) != 2 || len(got.Anns[0]) != 1 || got.Anns[0][0] != r.Anns[0][0] {
		t.Fatalf("anns = %+v", got.Anns)
	}
	if len(got.Anns[1]) != 0 {
		t.Fatalf("empty cell decoded to %+v", got.Anns[1])
	}
}

func TestRowHeaderRoundTrip(t *testing.T) {
	h := RowHeader{Columns: []string{"GID", "GSequence"}}
	got, err := DecodeRowHeader(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Columns) != 2 || got.Columns[0] != "GID" || got.Columns[1] != "GSequence" {
		t.Fatalf("columns = %v", got.Columns)
	}
	empty, err := DecodeRowHeader(RowHeader{}.Encode())
	if err != nil || len(empty.Columns) != 0 {
		t.Fatalf("empty header = %+v, %v", empty, err)
	}
}

func TestMalformedPayloads(t *testing.T) {
	cases := []struct {
		name   string
		decode func([]byte) error
		bad    []byte
	}{
		{"hello-truncated", func(p []byte) error { _, err := DecodeHello(p); return err },
			Hello{User: "u", Secret: "s"}.Encode()[:2]},
		{"parse-short-string", func(p []byte) error { _, err := DecodeParse(p); return err },
			[]byte{0x05, 'a'}}, // claims 5 bytes, has 1
		{"execute-trailing", func(p []byte) error { _, err := DecodeExecute(p); return err },
			append(Execute{Portal: "p"}.Encode(), 0x00)},
		{"rowheader-hostile-count", func(p []byte) error { _, err := DecodeRowHeader(p); return err },
			[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}}, // ~4 billion columns
		{"row-garbage", func(p []byte) error { _, err := DecodeRowMsg(p); return err },
			[]byte{0x01, 0xEE}}, // one value with unknown type tag
		{"complete-empty", func(p []byte) error { _, err := DecodeComplete(p); return err },
			[]byte{}},
	}
	for _, c := range cases {
		if err := c.decode(c.bad); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", c.name, err)
		}
	}
}
