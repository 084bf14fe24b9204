package server

import (
	"fmt"

	"bdbms"
	"bdbms/internal/errcode"
	"bdbms/internal/server/wire"
)

// session is the per-connection statement state: an engine session bound to
// the authenticated user, the named prepared statements, and the portals
// (bound statements, possibly mid-stream). Only the connection's handler
// goroutine touches it, so it needs no locking of its own.
type session struct {
	c     *conn
	user  string
	es    *bdbms.Session
	stmts map[string]*bdbms.Stmt
	ports map[string]*portal
}

// portal is a bound statement, and — once executed — its streaming cursor.
type portal struct {
	stmt     *bdbms.Stmt
	args     []any
	rows     *bdbms.Rows // non-nil while suspended mid-stream
	sentHdr  bool
	produced int // rows delivered so far across Execute+Fetch
}

func newSession(c *conn, user string) *session {
	return &session{
		c:     c,
		user:  user,
		es:    c.srv.cfg.DB.Session(user),
		stmts: make(map[string]*bdbms.Stmt),
		ports: make(map[string]*portal),
	}
}

// dispatch services one request frame; see conn.dispatch for the
// keep-vs-close contract of the return value.
func (s *session) dispatch(t wire.Type, payload []byte) bool {
	switch t {
	case wire.TypeParse:
		m, err := wire.DecodeParse(payload)
		if err != nil {
			return s.malformed("Parse", err)
		}
		return s.handleParse(m)
	case wire.TypeBind:
		m, err := wire.DecodeBind(payload)
		if err != nil {
			return s.malformed("Bind", err)
		}
		return s.handleBind(m)
	case wire.TypeExecute:
		m, err := wire.DecodeExecute(payload)
		if err != nil {
			return s.malformed("Execute", err)
		}
		return s.handleExecute(m)
	case wire.TypeFetch:
		m, err := wire.DecodeFetch(payload)
		if err != nil {
			return s.malformed("Fetch", err)
		}
		return s.handleFetch(m)
	case wire.TypeCloseStmt:
		m, err := wire.DecodeCloseTarget(payload)
		if err != nil {
			return s.malformed("CloseStmt", err)
		}
		delete(s.stmts, m.Name)
		return s.c.send(wire.TypeCloseOK, nil)
	case wire.TypeClosePortal:
		m, err := wire.DecodeCloseTarget(payload)
		if err != nil {
			return s.malformed("ClosePortal", err)
		}
		s.closePortal(m.Name)
		return s.c.send(wire.TypeCloseOK, nil)
	case wire.TypeBegin:
		return s.handleTxControl("BEGIN")
	case wire.TypeCommit:
		return s.handleTxControl("COMMIT")
	case wire.TypeRollback:
		return s.handleTxControl("ROLLBACK")
	case wire.TypePing:
		return s.c.send(wire.TypePong, nil)
	case wire.TypeTerminate:
		return false
	case wire.TypeHello:
		s.c.sendError(errcode.NetProtocol, "already authenticated")
		return false
	default:
		s.c.sendError(errcode.NetProtocol, fmt.Sprintf("unexpected frame type %q", byte(t)))
		return false
	}
}

// malformed reports an undecodable payload. The framing itself was intact,
// but a client that cannot encode its requests cannot be reasoned with —
// the connection closes.
func (s *session) malformed(what string, err error) bool {
	s.c.sendError(errcode.NetProtocol, fmt.Sprintf("malformed %s frame: %v", what, err))
	return false
}

// sendErr reports a statement-level failure with its stable code and keeps
// the connection alive.
func (s *session) sendErr(err error) bool {
	s.c.sendError(errcode.FromError(err), err.Error())
	return true
}

// handleParse (re)defines a statement name. The old statement of that name
// is discarded first, so a Parse that fails leaves the name unbound: a Bind
// pipelined behind it fails instead of binding the previous statement.
func (s *session) handleParse(m wire.Parse) bool {
	delete(s.stmts, m.Name)
	st, err := s.es.Prepare(m.SQL)
	if err != nil {
		return s.sendErr(err)
	}
	s.stmts[m.Name] = st
	return s.c.send(wire.TypeParseOK, wire.ParseOK{NumParams: st.NumParams()}.Encode())
}

// handleBind (re)defines a portal. Like handleParse it discards the old
// portal of that name, cursor included, before validating, so an Execute
// pipelined behind a failed Bind fails instead of running the previous
// binding's arguments.
func (s *session) handleBind(m wire.Bind) bool {
	s.closePortal(m.Portal)
	st, ok := s.stmts[m.Stmt]
	if !ok {
		s.c.sendError(errcode.NetUnknownStmt, fmt.Sprintf("no prepared statement %q", m.Stmt))
		return true
	}
	if len(m.Args) != st.NumParams() {
		s.c.sendError(errcode.BadArgs,
			fmt.Sprintf("statement %q wants %d arguments, got %d", m.Stmt, st.NumParams(), len(m.Args)))
		return true
	}
	args := make([]any, len(m.Args))
	for i, v := range m.Args {
		args[i] = v
	}
	s.ports[m.Portal] = &portal{stmt: st, args: args}
	return s.c.send(wire.TypeBindOK, nil)
}

// quiesceExcept closes every open cursor except keep's. It runs before
// anything that executes a statement, enforcing the one-active-cursor
// policy. Cursors read MVCC snapshots and hold no locks, so an open cursor
// can no longer deadlock its own connection's writes or stall anyone else;
// the policy survives because each open cursor pins row versions engine-wide
// (and spill files on disk), and a protocol whose portals implicitly closed
// on the next Execute must keep doing so for existing clients. Clients that
// want interleaved result sets page them explicitly with Fetch.
func (s *session) quiesceExcept(keep *portal) {
	for _, p := range s.ports {
		if p != keep && p.rows != nil {
			p.rows.Close()
			p.rows = nil
		}
	}
}

func (s *session) handleExecute(m wire.Execute) bool {
	p, ok := s.ports[m.Portal]
	if !ok {
		s.c.sendError(errcode.NetUnknownPortal, fmt.Sprintf("no portal %q", m.Portal))
		return true
	}
	// Execute (re)starts the portal from scratch.
	if p.rows != nil {
		p.rows.Close()
		p.rows = nil
	}
	p.sentHdr, p.produced = false, 0
	s.quiesceExcept(p)
	rows, err := p.stmt.Query(s.c.ctx, p.args...)
	if err != nil {
		return s.sendErr(err)
	}
	p.rows = rows
	return s.stream(m.Portal, p, m.MaxRows)
}

func (s *session) handleFetch(m wire.Fetch) bool {
	p, ok := s.ports[m.Portal]
	if !ok {
		s.c.sendError(errcode.NetUnknownPortal, fmt.Sprintf("no portal %q", m.Portal))
		return true
	}
	if p.rows == nil {
		s.c.sendError(errcode.NetProtocol, fmt.Sprintf("portal %q is not executing; send Execute first", m.Portal))
		return true
	}
	return s.stream(m.Portal, p, m.MaxRows)
}

// stream sends the next batch of the portal's result: a RowHeader (first
// batch only), up to max Row frames (max <= 0 means all), then Suspended if
// the quota ran out or Complete when the cursor is exhausted. Exhaustion
// closes the cursor immediately — its MVCC snapshot is never kept pinned
// while waiting for the next client request unless rows genuinely remain.
func (s *session) stream(name string, p *portal, max int) bool {
	if !p.sentHdr {
		if !s.c.send(wire.TypeRowHeader, wire.RowHeader{Columns: p.rows.Columns()}.Encode()) {
			return false
		}
		p.sentHdr = true
	}
	sent := 0
	for max <= 0 || sent < max {
		if !p.rows.Next() {
			break
		}
		row := p.rows.Row()
		msg := wire.Row{Values: row.Values, Anns: flattenAnns(row)}
		if !s.c.send(wire.TypeRow, msg.Encode()) {
			return false
		}
		sent++
		p.produced++
	}
	if max > 0 && sent == max {
		// Quota reached with the cursor (and its pinned snapshot)
		// intentionally held open for the next Fetch.
		return s.c.send(wire.TypeSuspended, nil)
	}
	err := p.rows.Err()
	affected, message := p.rows.Affected(), p.rows.Message()
	p.rows.Close()
	p.rows = nil
	if err != nil {
		return s.sendErr(err)
	}
	return s.c.send(wire.TypeComplete, wire.Complete{
		Affected: affected,
		Message:  message,
		Rows:     p.produced,
	}.Encode())
}

// flattenAnns converts a row's per-cell annotation pointers to the wire
// representation.
func flattenAnns(row bdbms.Row) [][]wire.Ann {
	if len(row.Anns) == 0 {
		return nil
	}
	out := make([][]wire.Ann, len(row.Anns))
	for i, cell := range row.Anns {
		if len(cell) == 0 {
			continue
		}
		anns := make([]wire.Ann, len(cell))
		for j, a := range cell {
			anns[j] = wire.Ann{
				ID:       a.ID,
				AnnTable: a.AnnTable,
				Author:   a.Author,
				Body:     a.Body,
				Archived: a.Archived,
			}
		}
		out[i] = anns
	}
	return out
}

// handleTxControl runs BEGIN/COMMIT/ROLLBACK through the ordinary statement
// path, so wire transactions share every semantic of their A-SQL spelling
// (nesting errors, auto-rollback on close, savepoint interactions).
func (s *session) handleTxControl(sql string) bool {
	s.quiesceExcept(nil)
	rows, err := s.es.Query(s.c.ctx, sql)
	if err != nil {
		return s.sendErr(err)
	}
	message := rows.Message()
	rows.Close()
	return s.c.send(wire.TypeComplete, wire.Complete{Message: message}.Encode())
}

// closePortal closes one portal's cursor (if open) and forgets it.
func (s *session) closePortal(name string) {
	if p, ok := s.ports[name]; ok {
		if p.rows != nil {
			p.rows.Close()
		}
		delete(s.ports, name)
	}
}

// close releases everything the session holds: every open cursor (each
// Close releases its pinned MVCC snapshot — this is what lets the engine
// reclaim row versions when a client vanishes mid-stream), then the open
// transaction, rolled back (releasing its write latches). Runs on every
// disconnect path, graceful or not.
func (s *session) close() {
	for name := range s.ports {
		s.closePortal(name)
	}
	s.es.CloseTx()
}
