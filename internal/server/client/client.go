// Package client is the Go client for the bdbms network server. It speaks
// the internal/server/wire protocol over one TCP connection and mirrors the
// embedded API's shape: Query returns a streaming *Rows, Prepare returns a
// *Stmt for repeated execution, Begin/Commit/Rollback control transactions.
//
// One call is in flight at a time, and a Rows must be drained or Closed
// before the next call. The client enforces this, so misuse surfaces as a
// clear error instead of protocol corruption. Within a call the client
// pipelines: Query sends Parse, Bind and Execute, and Stmt.Query sends Bind
// and Execute, in one write, then reads the replies in order. A Conn is NOT
// safe for concurrent use; open one per goroutine (they are cheap — one
// socket and two small buffers).
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"bdbms/internal/errcode"
	"bdbms/internal/server/wire"
	"bdbms/internal/value"
)

// ServerError is a statement or protocol failure reported by the server,
// carrying its stable categorized code (see internal/errcode).
type ServerError struct {
	Code    errcode.Code
	Message string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("server error [%s]: %s", e.Code, e.Message)
}

// errBroken poisons a connection after a protocol violation or I/O error:
// the stream position is unknown, so every later call fails fast.
var errBroken = errors.New("client: connection is broken")

// Conn is one client connection to a bdbms server.
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	sessionID     uint64
	serverVersion string

	active *Rows // un-drained result set; blocks new requests
	broken error // sticky fatal error
	nextID int   // auto-generated statement/portal names
}

// Dial connects and authenticates. The returned connection is ready for
// queries as the given user, subject to the server's GRANT/REVOKE checks.
func Dial(addr, user, secret string) (*Conn, error) {
	return DialTimeout(addr, user, secret, 10*time.Second)
}

// DialTimeout is Dial with an explicit connect+handshake timeout.
func DialTimeout(addr, user, secret string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{nc: nc, br: bufio.NewReaderSize(nc, 32<<10), bw: bufio.NewWriterSize(nc, 32<<10)}
	nc.SetDeadline(time.Now().Add(timeout))
	hello := wire.Hello{Version: wire.ProtocolVersion, User: user, Secret: secret}
	if err := c.request(wire.TypeHello, hello.Encode()); err != nil {
		nc.Close()
		return nil, err
	}
	t, payload, err := c.read()
	if err != nil {
		nc.Close()
		return nil, err
	}
	if t == wire.TypeError {
		nc.Close()
		e, derr := wire.DecodeError(payload)
		if derr != nil {
			return nil, derr
		}
		return nil, &ServerError{Code: e.Code, Message: e.Message}
	}
	if t != wire.TypeAuthOK {
		nc.Close()
		return nil, fmt.Errorf("client: unexpected handshake reply %q", byte(t))
	}
	ok, err := wire.DecodeAuthOK(payload)
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.sessionID, c.serverVersion = ok.SessionID, ok.ServerVersion
	nc.SetDeadline(time.Time{})
	return c, nil
}

// SessionID returns the server-assigned connection ID.
func (c *Conn) SessionID() uint64 { return c.sessionID }

// ServerVersion returns the server's version banner.
func (c *Conn) ServerVersion() string { return c.serverVersion }

// Close terminates the session (politely, with a Terminate frame) and
// closes the socket.
func (c *Conn) Close() error {
	if c.broken == nil {
		wire.WriteFrame(c.bw, wire.TypeTerminate, nil)
		c.bw.Flush()
	}
	c.broken = errBroken
	return c.nc.Close()
}

// ready rejects calls while a Rows is un-drained or the conn is broken.
func (c *Conn) ready() error {
	if c.broken != nil {
		return c.broken
	}
	if c.active != nil {
		return errors.New("client: previous Rows not closed; drain or Close it first")
	}
	return nil
}

// request writes one frame and flushes it, with any frames queued before it.
func (c *Conn) request(t wire.Type, payload []byte) error {
	if err := c.queue(t, payload); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		c.broken = err
		return err
	}
	return nil
}

// queue writes one frame into the send buffer without flushing it.
func (c *Conn) queue(t wire.Type, payload []byte) error {
	if err := wire.WriteFrame(c.bw, t, payload); err != nil {
		c.broken = err
		return err
	}
	return nil
}

// read receives one frame, poisoning the connection on I/O failure.
func (c *Conn) read() (wire.Type, []byte, error) {
	t, payload, err := wire.ReadFrame(c.br, wire.MaxFrame)
	if err != nil {
		c.broken = err
		return 0, nil, err
	}
	return t, payload, nil
}

// roundTrip sends a request and expects a single reply of type want,
// returning a *ServerError when the server answered with an error frame.
func (c *Conn) roundTrip(t wire.Type, payload []byte, want wire.Type) ([]byte, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	if err := c.request(t, payload); err != nil {
		return nil, err
	}
	return c.reply(t, want)
}

// reply reads the single-frame reply to a request of type t, expecting
// type want; an Error frame becomes a *ServerError.
func (c *Conn) reply(t, want wire.Type) ([]byte, error) {
	rt, rp, err := c.read()
	if err != nil {
		return nil, err
	}
	switch rt {
	case want:
		return rp, nil
	case wire.TypeError:
		e, derr := wire.DecodeError(rp)
		if derr != nil {
			c.broken = derr
			return nil, derr
		}
		return nil, &ServerError{Code: e.Code, Message: e.Message}
	default:
		c.broken = fmt.Errorf("client: unexpected reply %q to %q", byte(rt), byte(t))
		return nil, c.broken
	}
}

// lead is a request pipelined ahead of an Execute, with the reply it expects.
type lead struct {
	t, want wire.Type
	payload []byte
}

// executeAfter sends the leading requests and an Execute of portal in one
// flush, then reads the replies in request order. If a leading request
// fails, the replies to the requests behind it are read and dropped (the
// server discards a name before validating its new definition, so they fail
// too) and its error is returned. Otherwise Execute's result stream opens.
func (c *Conn) executeAfter(leads []lead, portal string, fetchSize int) (*Rows, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	for _, l := range leads {
		if err := c.queue(l.t, l.payload); err != nil {
			return nil, err
		}
	}
	if err := c.request(wire.TypeExecute, wire.Execute{Portal: portal, MaxRows: fetchSize}.Encode()); err != nil {
		return nil, err
	}
	for i, l := range leads {
		if _, err := c.reply(l.t, l.want); err != nil {
			for behind := len(leads) - i; behind > 0 && c.broken == nil; behind-- {
				c.discardReply()
			}
			return nil, err
		}
	}
	return c.startRows(portal, fetchSize)
}

// discardReply reads and drops the reply to one request: a single frame, or
// a result stream through its Complete, Suspended or Error.
func (c *Conn) discardReply() {
	for {
		t, _, err := c.read()
		if err != nil || (t != wire.TypeRowHeader && t != wire.TypeRow) {
			return
		}
	}
}

// Ping round-trips a heartbeat.
func (c *Conn) Ping() error {
	_, err := c.roundTrip(wire.TypePing, nil, wire.TypePong)
	return err
}

// Parse installs a named prepared statement on the server and returns its
// parameter count. An empty name is the unnamed statement, overwritten by
// the next Parse("").
func (c *Conn) Parse(name, sql string) (int, error) {
	rp, err := c.roundTrip(wire.TypeParse, wire.Parse{Name: name, SQL: sql}.Encode(), wire.TypeParseOK)
	if err != nil {
		return 0, err
	}
	ok, err := wire.DecodeParseOK(rp)
	if err != nil {
		c.broken = err
		return 0, err
	}
	return ok.NumParams, nil
}

// Bind creates (or replaces) a portal binding the named statement's `?`
// placeholders to args. Args may be value.Value or ordinary Go scalars
// (string, integers, floats, bool, time.Time, []byte, nil).
func (c *Conn) Bind(portal, stmt string, args ...any) error {
	row, err := toRow(args)
	if err != nil {
		return err
	}
	_, err = c.roundTrip(wire.TypeBind, wire.Bind{Portal: portal, Stmt: stmt, Args: row}.Encode(), wire.TypeBindOK)
	return err
}

// Execute runs a bound portal and returns its streaming result. fetchSize
// bounds each server batch: 0 streams every row in one burst; a positive
// size pages the cursor Fetch-by-Fetch transparently (Rows.Next issues the
// Fetches). The Rows must be drained or Closed before any other call.
func (c *Conn) Execute(portal string, fetchSize int) (*Rows, error) {
	return c.executeAfter(nil, portal, fetchSize)
}

// startRows consumes the RowHeader (or error) opening a result stream.
func (c *Conn) startRows(portal string, fetchSize int) (*Rows, error) {
	t, payload, err := c.read()
	if err != nil {
		return nil, err
	}
	switch t {
	case wire.TypeRowHeader:
		h, derr := wire.DecodeRowHeader(payload)
		if derr != nil {
			c.broken = derr
			return nil, derr
		}
		r := &Rows{c: c, portal: portal, fetchSize: fetchSize, cols: h.Columns}
		c.active = r
		return r, nil
	case wire.TypeError:
		e, derr := wire.DecodeError(payload)
		if derr != nil {
			c.broken = derr
			return nil, derr
		}
		return nil, &ServerError{Code: e.Code, Message: e.Message}
	default:
		c.broken = fmt.Errorf("client: unexpected reply %q to Execute", byte(t))
		return nil, c.broken
	}
}

// CloseStmt forgets a named prepared statement on the server.
func (c *Conn) CloseStmt(name string) error {
	_, err := c.roundTrip(wire.TypeCloseStmt, wire.CloseTarget{Name: name}.Encode(), wire.TypeCloseOK)
	return err
}

// ClosePortal closes a portal (and any cursor it holds open server-side).
func (c *Conn) ClosePortal(name string) error {
	_, err := c.roundTrip(wire.TypeClosePortal, wire.CloseTarget{Name: name}.Encode(), wire.TypeCloseOK)
	return err
}

// txControl round-trips one transaction-control frame.
func (c *Conn) txControl(t wire.Type) error {
	rp, err := c.roundTrip(t, nil, wire.TypeComplete)
	if err != nil {
		return err
	}
	_, err = wire.DecodeComplete(rp)
	return err
}

// Begin opens an explicit transaction; the connection holds the engine's
// exclusive lock until Commit or Rollback, so end it promptly.
func (c *Conn) Begin() error { return c.txControl(wire.TypeBegin) }

// Commit commits the open transaction.
func (c *Conn) Commit() error { return c.txControl(wire.TypeCommit) }

// Rollback rolls back the open transaction.
func (c *Conn) Rollback() error { return c.txControl(wire.TypeRollback) }

// Query is the one-shot convenience: parse, bind and execute sql with args
// through the unnamed statement and portal, streaming all rows. The three
// requests travel in one round trip.
func (c *Conn) Query(sql string, args ...any) (*Rows, error) {
	row, err := toRow(args)
	if err != nil {
		return nil, err
	}
	return c.executeAfter([]lead{
		{t: wire.TypeParse, want: wire.TypeParseOK, payload: wire.Parse{SQL: sql}.Encode()},
		{t: wire.TypeBind, want: wire.TypeBindOK, payload: wire.Bind{Args: row}.Encode()},
	}, "", 0)
}

// Exec runs sql with args and drains the result, returning the affected
// row count and status message.
func (c *Conn) Exec(sql string, args ...any) (affected int, message string, err error) {
	rows, err := c.Query(sql, args...)
	if err != nil {
		return 0, "", err
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		rows.Close()
		return 0, "", err
	}
	affected, message = rows.Affected(), rows.Message()
	return affected, message, rows.Close()
}

// Prepare installs sql under an auto-generated name and returns a Stmt
// bound to it.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	c.nextID++
	name := "s" + strconv.Itoa(c.nextID)
	n, err := c.Parse(name, sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, name: name, numParams: n}, nil
}

// Stmt is a named prepared statement on the server.
type Stmt struct {
	c         *Conn
	name      string
	numParams int
}

// NumParams returns the number of `?` placeholders.
func (s *Stmt) NumParams() int { return s.numParams }

// Query executes the statement with args, streaming all rows through the
// statement's own portal.
func (s *Stmt) Query(args ...any) (*Rows, error) { return s.QueryBatch(0, args...) }

// QueryBatch executes the statement with args, paging the cursor in
// batches of fetchSize rows (0 = one burst). Bind and Execute travel in one
// round trip.
func (s *Stmt) QueryBatch(fetchSize int, args ...any) (*Rows, error) {
	row, err := toRow(args)
	if err != nil {
		return nil, err
	}
	bind := wire.Bind{Portal: s.name, Stmt: s.name, Args: row}
	return s.c.executeAfter([]lead{{t: wire.TypeBind, want: wire.TypeBindOK, payload: bind.Encode()}}, s.name, fetchSize)
}

// Exec executes the statement with args and drains the result.
func (s *Stmt) Exec(args ...any) (affected int, message string, err error) {
	rows, err := s.Query(args...)
	if err != nil {
		return 0, "", err
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		rows.Close()
		return 0, "", err
	}
	affected, message = rows.Affected(), rows.Message()
	return affected, message, rows.Close()
}

// Close forgets the statement server-side.
func (s *Stmt) Close() error { return s.c.CloseStmt(s.name) }

// Rows is a streaming result set. Iterate with Next, inspect the current
// row with Row/Annotations, and always Close (Close after exhaustion is a
// cheap no-op). While a Rows is open no other request may be sent on its
// connection.
type Rows struct {
	c         *Conn
	portal    string
	fetchSize int
	cols      []string

	cur     wire.Row
	err     error
	done    bool // Complete or Error received; stream is finished
	suspend bool // Suspended received; server holds the cursor open
	closed  bool

	affected int
	message  string
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row, transparently issuing Fetch requests when
// the server suspended the cursor at the batch boundary. It returns false
// at the end of the stream or on error — check Err.
func (r *Rows) Next() bool {
	if r.done || r.closed || r.err != nil {
		return false
	}
	for {
		if r.suspend {
			// Batch exhausted; ask for the next one.
			r.suspend = false
			f := wire.Fetch{Portal: r.portal, MaxRows: r.fetchSize}
			if err := r.c.request(wire.TypeFetch, f.Encode()); err != nil {
				r.fail(err)
				return false
			}
		}
		t, payload, err := r.c.read()
		if err != nil {
			r.fail(err)
			return false
		}
		switch t {
		case wire.TypeRow:
			row, derr := wire.DecodeRowMsg(payload)
			if derr != nil {
				r.c.broken = derr
				r.fail(derr)
				return false
			}
			r.cur = row
			return true
		case wire.TypeSuspended:
			r.suspend = true
			// Loop around to fetch the next batch.
		case wire.TypeComplete:
			comp, derr := wire.DecodeComplete(payload)
			if derr != nil {
				r.c.broken = derr
				r.fail(derr)
				return false
			}
			r.affected, r.message = comp.Affected, comp.Message
			r.finish()
			return false
		case wire.TypeError:
			e, derr := wire.DecodeError(payload)
			if derr != nil {
				r.c.broken = derr
				r.fail(derr)
				return false
			}
			r.err = &ServerError{Code: e.Code, Message: e.Message}
			r.finish()
			return false
		default:
			r.c.broken = fmt.Errorf("client: unexpected frame %q in result stream", byte(t))
			r.fail(r.c.broken)
			return false
		}
	}
}

// fail records a fatal stream error.
func (r *Rows) fail(err error) {
	r.err = err
	r.done = true
	if r.c.active == r {
		r.c.active = nil
	}
}

// finish marks the stream cleanly ended and releases the connection.
func (r *Rows) finish() {
	r.done = true
	if r.c.active == r {
		r.c.active = nil
	}
}

// Row returns the current row's values.
func (r *Rows) Row() value.Row { return r.cur.Values }

// Annotations returns the current row's per-column annotations.
func (r *Rows) Annotations() [][]wire.Ann { return r.cur.Anns }

// Err returns the error that ended iteration, if any.
func (r *Rows) Err() error { return r.err }

// Affected returns the affected-row count (after the stream completes).
func (r *Rows) Affected() int { return r.affected }

// Message returns the statement's status message (after completion).
func (r *Rows) Message() string { return r.message }

// Close finishes the stream: any not-yet-read rows of the current burst
// are drained off the wire, and a cursor the server still holds suspended
// is closed (releasing its engine read lock). Safe to call twice.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	// Drain the in-flight burst — the server has already sent (or is
	// sending) it; the stream must reach its terminator before the
	// connection is usable again. A stream paused at a batch boundary
	// (suspend set) has nothing in flight and must NOT read.
	for !r.done && !r.suspend && r.c.broken == nil {
		t, payload, err := r.c.read()
		if err != nil {
			r.fail(err)
			break
		}
		switch t {
		case wire.TypeRow:
			// discard
		case wire.TypeSuspended:
			r.suspend = true
			r.done = true
		case wire.TypeComplete:
			if comp, derr := wire.DecodeComplete(payload); derr == nil {
				r.affected, r.message = comp.Affected, comp.Message
			}
			r.done = true
		case wire.TypeError:
			if e, derr := wire.DecodeError(payload); derr == nil && r.err == nil {
				r.err = &ServerError{Code: e.Code, Message: e.Message}
			}
			r.done = true
		default:
			r.c.broken = fmt.Errorf("client: unexpected frame %q draining result", byte(t))
			r.fail(r.c.broken)
		}
	}
	if r.c.active == r {
		r.c.active = nil
	}
	// A suspended cursor still holds a read lock server-side; release it.
	if r.suspend && r.c.broken == nil {
		r.suspend = false
		if err := r.c.ClosePortal(r.portal); err != nil && r.err == nil {
			r.err = err
		}
	}
	return r.err
}

// toRow converts Go arguments to wire values, mirroring the embedded API's
// accepted types.
func toRow(args []any) (value.Row, error) {
	if len(args) == 0 {
		return nil, nil
	}
	row := make(value.Row, len(args))
	for i, a := range args {
		v, err := toValue(a)
		if err != nil {
			return nil, fmt.Errorf("client: arg %d: %w", i+1, err)
		}
		row[i] = v
	}
	return row, nil
}

func toValue(a any) (value.Value, error) {
	switch x := a.(type) {
	case nil:
		return value.NewNull(), nil
	case value.Value:
		return x, nil
	case string:
		return value.NewText(x), nil
	case []byte:
		return value.NewText(string(x)), nil
	case int:
		return value.NewInt(int64(x)), nil
	case int32:
		return value.NewInt(int64(x)), nil
	case int64:
		return value.NewInt(x), nil
	case uint32:
		return value.NewInt(int64(x)), nil
	case float32:
		return value.NewFloat(float64(x)), nil
	case float64:
		return value.NewFloat(x), nil
	case bool:
		return value.NewBool(x), nil
	case time.Time:
		return value.NewTimestamp(x), nil
	default:
		return value.Value{}, fmt.Errorf("unsupported argument type %T", a)
	}
}
