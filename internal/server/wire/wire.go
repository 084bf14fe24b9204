// Package wire defines bdbms's client/server protocol: a length-prefixed
// binary framing with typed messages for the connection handshake, named
// prepared statements, portal execution with Fetch-N cursor paging, and
// transaction control.
//
// # Framing
//
// Every message is one frame:
//
//	+------+----------------+------------------+
//	| type |  length (u32)  |  payload         |
//	| 1 B  |  big-endian    |  length bytes    |
//	+------+----------------+------------------+
//
// The length covers the payload only. A reader enforces MaxFrame and fails
// with ErrFrameTooLarge before allocating, so a corrupt or hostile length
// field cannot OOM the peer. Payload fields use the same primitives as the
// storage layer: uvarint-prefixed strings, varint integers, and the
// internal/value row codec for typed values — a row travels the network in
// exactly the bytes it occupies in a heap page.
//
// # Conversation
//
// The client speaks first: Hello carries the protocol version and a
// user/secret pair, answered by AuthOK or an Error frame. After that each
// request is answered in order:
//
//	Parse{name, sql}            -> ParseOK{numParams}
//	Bind{portal, stmt, args}    -> BindOK
//	Execute{portal, maxRows}    -> RowHeader, Row*, (Suspended | Complete)
//	Fetch{portal, maxRows}      -> Row*, (Suspended | Complete)
//	CloseStmt{name}             -> CloseOK
//	ClosePortal{name}           -> CloseOK
//	Begin / Commit / Rollback   -> Complete
//	Ping                        -> Pong
//	Terminate                   -> (connection closes)
//
// Any request may instead be answered by Error{code, message}; the code is
// a stable errcode.Code so clients branch on failure classes without
// matching message strings.
//
// A client may pipeline: send several requests before reading any reply,
// for example Bind and Execute in one write. The server serves them one at a
// time in arrival order, so the replies come back in request order, and it
// flushes its replies whenever no whole request is waiting in its read
// buffer. A Parse or Bind that fails discards the statement or portal of
// that name first, so a request pipelined behind it fails too (unknown
// statement or portal) rather than using an older definition.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"bdbms/internal/errcode"
	"bdbms/internal/value"
)

// ProtocolVersion is the wire protocol revision this package implements.
// Hello carries the client's version; the server rejects mismatches.
const ProtocolVersion = 1

// MaxFrame is the default bound on a frame payload, applied by both ends.
// It comfortably fits any row the engine can store (the storage layer
// rejects rows over a page's capacity long before this) while keeping a
// hostile length field from allocating gigabytes.
const MaxFrame = 16 << 20

// Type tags one frame.
type Type byte

// Client-to-server message types.
const (
	TypeHello       Type = 'H' // Hello: version + credentials
	TypeParse       Type = 'P' // Parse: name a prepared statement
	TypeBind        Type = 'B' // Bind: portal = statement + arguments
	TypeExecute     Type = 'E' // Execute: run a portal, stream up to N rows
	TypeFetch       Type = 'F' // Fetch: continue a suspended portal
	TypeCloseStmt   Type = 'C' // CloseStmt: forget a prepared statement
	TypeClosePortal Type = 'c' // ClosePortal: close a portal and its cursor
	TypeBegin       Type = 'b' // Begin: open an explicit transaction
	TypeCommit      Type = 'm' // Commit the open transaction
	TypeRollback    Type = 'r' // Rollback the open transaction
	TypePing        Type = 'p' // Ping: liveness probe
	TypeTerminate   Type = 'X' // Terminate: orderly goodbye
)

// Server-to-client message types.
const (
	TypeAuthOK    Type = 'A' // AuthOK: handshake accepted
	TypeError     Type = '!' // Error: categorized failure
	TypeParseOK   Type = '1' // ParseOK: statement parsed and named
	TypeBindOK    Type = '2' // BindOK: portal created
	TypeCloseOK   Type = '3' // CloseOK: statement or portal closed
	TypeRowHeader Type = 'T' // RowHeader: result column names
	TypeRow       Type = 'D' // Row: one data row with annotations
	TypeSuspended Type = 's' // Suspended: fetch limit hit, more rows remain
	TypeComplete  Type = 'Z' // Complete: command finished
	TypePong      Type = 'o' // Pong: answer to Ping
)

// Errors returned by the codec.
var (
	// ErrFrameTooLarge is returned when a frame's length field exceeds the
	// reader's bound.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrMalformed is returned when a payload does not decode as its type.
	ErrMalformed = errors.New("wire: malformed message payload")
)

// --- framing -------------------------------------------------------------------------------

const headerSize = 5

// WriteFrame writes one frame to w. The payload may be nil.
func WriteFrame(w io.Writer, t Type, payload []byte) error {
	var hdr [headerSize]byte
	hdr[0] = byte(t)
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame from r, enforcing max (<=0 selects MaxFrame).
// It returns the type and payload, io.EOF on a clean end of stream, and
// ErrFrameTooLarge without consuming the payload when the length field is
// over the bound.
func ReadFrame(r io.Reader, max int) (Type, []byte, error) {
	if max <= 0 {
		max = MaxFrame
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if int(n) > max {
		return Type(hdr[0]), nil, fmt.Errorf("%w: %d bytes (max %d)", ErrFrameTooLarge, n, max)
	}
	if n == 0 {
		return Type(hdr[0]), nil, nil
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Type(hdr[0]), nil, io.ErrUnexpectedEOF
	}
	return Type(hdr[0]), payload, nil
}

// FrameBuffered reports whether br already holds one whole frame, header and
// payload, so that reading it will not wait on the network. It peeks and
// consumes nothing.
func FrameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < headerSize {
		return false
	}
	hdr, _ := br.Peek(headerSize) // cannot fail: the header is buffered
	return uint64(n-headerSize) >= uint64(binary.BigEndian.Uint32(hdr[1:]))
}

// --- payload primitives --------------------------------------------------------------------

func putString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func putBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// dec is a cursor over a payload; its methods record the first error and
// become no-ops after it, so decoders can chain reads and check once.
type dec struct {
	buf []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrMalformed
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *dec) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *dec) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) < 1 {
		d.fail()
		return false
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b != 0
}

// done fails unless the payload was consumed exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.buf))
	}
	return nil
}

// --- handshake -----------------------------------------------------------------------------

// Hello opens the conversation: protocol version plus credentials.
type Hello struct {
	Version uint32
	User    string
	Secret  string
}

// Encode serializes the message payload.
func (m Hello) Encode() []byte {
	b := binary.AppendUvarint(nil, uint64(m.Version))
	b = putString(b, m.User)
	return putString(b, m.Secret)
}

// DecodeHello parses a Hello payload.
func DecodeHello(p []byte) (Hello, error) {
	d := &dec{buf: p}
	m := Hello{Version: uint32(d.uvarint())}
	m.User = d.string()
	m.Secret = d.string()
	return m, d.done()
}

// AuthOK accepts the handshake.
type AuthOK struct {
	// ServerVersion describes the server build, for banners and logs.
	ServerVersion string
	// SessionID identifies the connection server-side (log correlation).
	SessionID uint64
}

// Encode serializes the message payload.
func (m AuthOK) Encode() []byte {
	b := putString(nil, m.ServerVersion)
	return binary.AppendUvarint(b, m.SessionID)
}

// DecodeAuthOK parses an AuthOK payload.
func DecodeAuthOK(p []byte) (AuthOK, error) {
	d := &dec{buf: p}
	m := AuthOK{ServerVersion: d.string()}
	m.SessionID = d.uvarint()
	return m, d.done()
}

// --- statements and portals ----------------------------------------------------------------

// Parse names a prepared statement. An empty name is the unnamed statement,
// overwritten by the next unnamed Parse.
type Parse struct {
	Name string
	SQL  string
}

// Encode serializes the message payload.
func (m Parse) Encode() []byte {
	return putString(putString(nil, m.Name), m.SQL)
}

// DecodeParse parses a Parse payload.
func DecodeParse(p []byte) (Parse, error) {
	d := &dec{buf: p}
	m := Parse{Name: d.string(), SQL: d.string()}
	return m, d.done()
}

// ParseOK reports a successful Parse.
type ParseOK struct {
	// NumParams is the number of `?` placeholders in the statement.
	NumParams int
}

// Encode serializes the message payload.
func (m ParseOK) Encode() []byte {
	return binary.AppendUvarint(nil, uint64(m.NumParams))
}

// DecodeParseOK parses a ParseOK payload.
func DecodeParseOK(p []byte) (ParseOK, error) {
	d := &dec{buf: p}
	m := ParseOK{NumParams: int(d.uvarint())}
	return m, d.done()
}

// Bind creates a portal: a named statement plus bound arguments. An empty
// portal name is the unnamed portal.
type Bind struct {
	Portal string
	Stmt   string
	Args   value.Row
}

// Encode serializes the message payload.
func (m Bind) Encode() []byte {
	b := putString(nil, m.Portal)
	b = putString(b, m.Stmt)
	return append(b, value.EncodeRow(m.Args)...)
}

// DecodeBind parses a Bind payload.
func DecodeBind(p []byte) (Bind, error) {
	d := &dec{buf: p}
	m := Bind{Portal: d.string(), Stmt: d.string()}
	if d.err != nil {
		return m, d.err
	}
	row, used, err := decodeRowPrefix(d.buf)
	if err != nil {
		return m, err
	}
	if used != len(d.buf) {
		return m, fmt.Errorf("%w: trailing bytes after arguments", ErrMalformed)
	}
	m.Args = row
	return m, nil
}

// decodeRowPrefix decodes a value.EncodeRow blob from the front of buf and
// reports how many bytes it consumed.
func decodeRowPrefix(buf []byte) (value.Row, int, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 || n > uint64(len(buf)) {
		return nil, 0, fmt.Errorf("%w: bad row length", ErrMalformed)
	}
	off := w
	row := make(value.Row, 0, n)
	for i := uint64(0); i < n; i++ {
		v, used, err := value.DecodeValue(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		row = append(row, v)
		off += used
	}
	return row, off, nil
}

// Execute runs a portal, streaming at most MaxRows rows (0 = all).
type Execute struct {
	Portal  string
	MaxRows int
}

// Encode serializes the message payload.
func (m Execute) Encode() []byte {
	return binary.AppendUvarint(putString(nil, m.Portal), uint64(m.MaxRows))
}

// DecodeExecute parses an Execute payload.
func DecodeExecute(p []byte) (Execute, error) {
	d := &dec{buf: p}
	m := Execute{Portal: d.string(), MaxRows: int(d.uvarint())}
	return m, d.done()
}

// Fetch continues a suspended portal. Fetch and Execute share a payload
// shape; they differ in that Fetch never re-runs the statement.
type Fetch = Execute

// DecodeFetch parses a Fetch payload.
func DecodeFetch(p []byte) (Fetch, error) { return DecodeExecute(p) }

// CloseTarget names a statement or portal to close (per the frame type).
type CloseTarget struct {
	Name string
}

// Encode serializes the message payload.
func (m CloseTarget) Encode() []byte { return putString(nil, m.Name) }

// DecodeCloseTarget parses a CloseStmt/ClosePortal payload.
func DecodeCloseTarget(p []byte) (CloseTarget, error) {
	d := &dec{buf: p}
	m := CloseTarget{Name: d.string()}
	return m, d.done()
}

// --- results -------------------------------------------------------------------------------

// RowHeader announces a result's columns; sent once per Execute before any
// Row. DML/DDL results have no columns.
type RowHeader struct {
	Columns []string
}

// Encode serializes the message payload.
func (m RowHeader) Encode() []byte {
	b := binary.AppendUvarint(nil, uint64(len(m.Columns)))
	for _, c := range m.Columns {
		b = putString(b, c)
	}
	return b
}

// DecodeRowHeader parses a RowHeader payload.
func DecodeRowHeader(p []byte) (RowHeader, error) {
	d := &dec{buf: p}
	n := d.uvarint()
	if d.err == nil && n > uint64(len(p)) {
		// A count larger than the payload itself cannot be honest; refuse
		// before allocating.
		d.fail()
	}
	m := RowHeader{}
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Columns = append(m.Columns, d.string())
	}
	return m, d.done()
}

// Ann is one annotation attached to a result cell, flattened for transport.
type Ann struct {
	ID       int64
	AnnTable string
	Author   string
	Body     string
	Archived bool
}

// PlainBody strips the conventional "<Annotation>...</Annotation>" XML
// wrapper from the body, mirroring annotation.Annotation.PlainBody so
// remote clients render annotations exactly like the embedded API.
func (a Ann) PlainBody() string {
	s := strings.TrimSpace(a.Body)
	s = strings.TrimPrefix(s, "<Annotation>")
	s = strings.TrimSuffix(s, "</Annotation>")
	return strings.TrimSpace(s)
}

// Row is one data row: typed values plus per-column annotations.
type Row struct {
	Values value.Row
	// Anns has one slice per column (may be nil when no column carries
	// annotations).
	Anns [][]Ann
}

// Encode serializes the message payload.
func (m Row) Encode() []byte {
	b := value.EncodeRow(m.Values)
	b = binary.AppendUvarint(b, uint64(len(m.Anns)))
	for _, cell := range m.Anns {
		b = binary.AppendUvarint(b, uint64(len(cell)))
		for _, a := range cell {
			b = binary.AppendVarint(b, a.ID)
			b = putString(b, a.AnnTable)
			b = putString(b, a.Author)
			b = putString(b, a.Body)
			b = putBool(b, a.Archived)
		}
	}
	return b
}

// DecodeRowMsg parses a Row payload.
func DecodeRowMsg(p []byte) (Row, error) {
	vals, used, err := decodeRowPrefix(p)
	if err != nil {
		return Row{}, err
	}
	d := &dec{buf: p[used:]}
	m := Row{Values: vals}
	nCols := d.uvarint()
	if d.err == nil && nCols > uint64(len(p)) {
		d.fail()
	}
	for i := uint64(0); i < nCols && d.err == nil; i++ {
		nAnns := d.uvarint()
		if d.err == nil && nAnns > uint64(len(p)) {
			d.fail()
		}
		var cell []Ann
		for j := uint64(0); j < nAnns && d.err == nil; j++ {
			a := Ann{ID: d.varint()}
			a.AnnTable = d.string()
			a.Author = d.string()
			a.Body = d.string()
			a.Archived = d.bool()
			cell = append(cell, a)
		}
		m.Anns = append(m.Anns, cell)
	}
	return m, d.done()
}

// Complete finishes a command: the statement ran to the end.
type Complete struct {
	// Affected is the DML row count (0 otherwise).
	Affected int
	// Message is the DDL/utility summary ("BEGIN", "Table created", ...).
	Message string
	// Rows is the number of data rows the portal produced in total.
	Rows int
}

// Encode serializes the message payload.
func (m Complete) Encode() []byte {
	b := binary.AppendUvarint(nil, uint64(m.Affected))
	b = putString(b, m.Message)
	return binary.AppendUvarint(b, uint64(m.Rows))
}

// DecodeComplete parses a Complete payload.
func DecodeComplete(p []byte) (Complete, error) {
	d := &dec{buf: p}
	m := Complete{Affected: int(d.uvarint())}
	m.Message = d.string()
	m.Rows = int(d.uvarint())
	return m, d.done()
}

// Error reports a categorized failure of the preceding request. The
// connection survives unless the error is fatal (handshake, protocol or
// framing errors), in which case the server closes after sending it.
type Error struct {
	Code    errcode.Code
	Message string
}

// Encode serializes the message payload.
func (m Error) Encode() []byte {
	return putString(putString(nil, string(m.Code)), m.Message)
}

// DecodeError parses an Error payload. An unrecognized code degrades to
// errcode.Internal so newer server codes do not break older clients.
func DecodeError(p []byte) (Error, error) {
	d := &dec{buf: p}
	m := Error{Code: errcode.Code(d.string())}
	m.Message = d.string()
	if err := d.done(); err != nil {
		return m, err
	}
	if !errcode.Valid(m.Code) {
		m.Code = errcode.Internal
	}
	return m, nil
}
