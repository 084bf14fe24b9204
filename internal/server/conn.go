package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"bdbms/internal/errcode"
	"bdbms/internal/server/wire"
)

// conn is one client connection: a handler goroutine reading frames,
// dispatching them against a session, and writing responses. Requests are
// served one at a time in arrival order, so a single goroutine per
// connection suffices and no response interleaving can occur. A client may
// pipeline several requests before reading; their replies leave in one flush.
type conn struct {
	srv *Server
	id  uint64
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer

	// ctx is canceled by forceClose; in-flight statements run under it, so a
	// hard shutdown aborts even a long scan mid-flight.
	ctx    context.Context
	cancel context.CancelFunc

	sess *session // nil until the Hello handshake succeeds

	mu       sync.Mutex
	busy     bool // a dispatch is in flight (between frame read and response)
	draining bool // Shutdown started: finish the current dispatch, then stop
	closed   bool // teardown ran
}

func newConn(s *Server, id uint64, nc net.Conn) *conn {
	ctx, cancel := context.WithCancel(context.Background())
	return &conn{
		srv:    s,
		id:     id,
		nc:     nc,
		br:     bufio.NewReaderSize(nc, 32<<10),
		bw:     bufio.NewWriterSize(nc, 32<<10),
		ctx:    ctx,
		cancel: cancel,
	}
}

// serve runs the connection to completion. It never lets a panic escape:
// one misbehaving statement (or a server bug it tickles) kills this
// connection, not the process and not its siblings.
func (c *conn) serve() {
	defer c.srv.forget(c)
	defer func() {
		if r := recover(); r != nil {
			c.srv.logf("conn %d: panic: %v\n%s", c.id, r, debug.Stack())
			// Best-effort notice; the write may fail if the panic came from a
			// broken socket, which teardown handles anyway.
			c.sendError(errcode.Internal, fmt.Sprintf("internal error: %v", r))
			c.teardown()
		}
	}()
	defer c.teardown()

	if !c.handshake() {
		return
	}
	for c.loopOnce() {
	}
}

// handshake authenticates the connection: the first frame must be a Hello
// with a known protocol version and valid credentials. Returns false when
// the connection should close (an error frame has been sent where useful).
func (c *conn) handshake() bool {
	c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.HandshakeTimeout))
	t, payload, err := wire.ReadFrame(c.br, wire.MaxFrame)
	if err != nil {
		return false
	}
	if t != wire.TypeHello {
		c.sendError(errcode.NetProtocol, "first frame must be Hello")
		return false
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		c.sendError(errcode.NetProtocol, "malformed Hello")
		return false
	}
	if hello.Version != wire.ProtocolVersion {
		c.sendError(errcode.NetProtocol,
			fmt.Sprintf("protocol version %d not supported (server speaks %d)", hello.Version, wire.ProtocolVersion))
		return false
	}
	if err := c.srv.cfg.Auth(hello.User, hello.Secret); err != nil {
		c.sendError(errcode.FromError(err), "authentication failed")
		return false
	}
	c.sess = newSession(c, hello.User)
	if !c.send(wire.TypeAuthOK, wire.AuthOK{ServerVersion: serverVersion, SessionID: c.id}.Encode()) {
		return false
	}
	return c.bw.Flush() == nil
}

// loopOnce reads and services one frame. Returns false when the connection
// is done (teardown has run or will run via serve's defer).
func (c *conn) loopOnce() bool {
	if c.checkDraining() {
		return false
	}
	c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
	t, payload, err := wire.ReadFrame(c.br, wire.MaxFrame)
	if err != nil {
		c.readFailed(err)
		return false
	}
	if !c.setBusy() {
		// Drain began between the read and now; the frame is abandoned — the
		// client is told the server is shutting down rather than having its
		// statement half-serviced.
		c.sendError(errcode.NetShutdown, "server is shutting down")
		return false
	}
	ok := c.dispatch(t, payload)
	c.setIdle()
	return ok
}

// checkDraining reports (and services) a pending drain: the client gets a
// shutdown notice and the connection closes.
func (c *conn) checkDraining() bool {
	c.mu.Lock()
	d := c.draining
	c.mu.Unlock()
	if d {
		c.sendError(errcode.NetShutdown, "server is shutting down")
	}
	return d
}

// readFailed classifies a frame-read error and notifies the client when
// there is something useful to say.
func (c *conn) readFailed(err error) {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		c.mu.Lock()
		d := c.draining
		c.mu.Unlock()
		if d {
			// beginDrain pokes idle readers with an immediate deadline; this
			// timeout is the drain, not inactivity.
			c.sendError(errcode.NetShutdown, "server is shutting down")
		} else {
			c.sendError(errcode.NetIdleTimeout,
				fmt.Sprintf("no request for %v; disconnecting", c.srv.cfg.IdleTimeout))
		}
	case errors.Is(err, wire.ErrFrameTooLarge):
		// The stream position is past a hostile length prefix; framing can't
		// be trusted afterwards, so tell the client and hang up.
		c.sendError(errcode.NetFrameTooLarge,
			fmt.Sprintf("frame exceeds %d byte limit", wire.MaxFrame))
	case errors.Is(err, io.EOF):
		// Clean disconnect between frames; nothing to say.
	default:
		// Torn frame, reset, forceClose — the socket is gone or garbage.
	}
}

// setBusy marks a dispatch in flight; returns false if draining won the
// race and the frame must not be serviced.
func (c *conn) setBusy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return false
	}
	c.busy = true
	return true
}

func (c *conn) setIdle() {
	c.mu.Lock()
	c.busy = false
	c.mu.Unlock()
}

// dispatch services one request frame. It returns false when the
// connection must close (Terminate, malformed payload, or a dead socket).
// Statement-level failures — bad SQL, unknown names, permission denials —
// send an error frame and keep the connection: they are the client's
// problem, not the connection's.
func (c *conn) dispatch(t wire.Type, payload []byte) bool {
	// All writes of this response burst share one deadline: a client that
	// stopped reading trips it and is disconnected, releasing its locks.
	c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
	if !c.sess.dispatch(t, payload) {
		return false
	}
	// A whole request already buffered behind this one was pipelined by the
	// client, which is not waiting for this reply yet: answer both in one
	// flush. Otherwise the client may be waiting, so flush now.
	if wire.FrameBuffered(c.br) {
		return true
	}
	return c.bw.Flush() == nil
}

// send writes one frame through the buffered writer. The flush happens at
// the end of the dispatch; errors surface there or on the next write.
func (c *conn) send(t wire.Type, payload []byte) bool {
	return wire.WriteFrame(c.bw, t, payload) == nil
}

// sendError writes an error frame and flushes it immediately, so it
// reaches clients even on paths that close the connection right after.
func (c *conn) sendError(code errcode.Code, msg string) {
	c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
	if wire.WriteFrame(c.bw, wire.TypeError, wire.Error{Code: code, Message: msg}.Encode()) == nil {
		c.bw.Flush()
	}
}

// beginDrain asks the connection to stop: an idle connection is poked out
// of its blocking read via an immediate deadline; a busy one finishes its
// current dispatch and then sees the flag.
func (c *conn) beginDrain() {
	c.mu.Lock()
	c.draining = true
	busy := c.busy
	c.mu.Unlock()
	if !busy {
		c.nc.SetReadDeadline(time.Now())
	}
}

// forceClose abandons graceful drain: the statement context is canceled
// (aborting scans mid-flight) and the socket closed.
func (c *conn) forceClose() {
	c.cancel()
	c.nc.Close()
}

// teardown releases everything the connection holds, in dependency order:
// open cursors first (each Close releases its pinned MVCC snapshot), then
// the open transaction (rolled back, releasing its per-table write
// latches), then the socket. Idempotent — every exit path runs it.
func (c *conn) teardown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()

	if c.sess != nil {
		c.sess.close()
	}
	c.bw.Flush()
	c.nc.Close()
	c.cancel()
}

// refuseConn tells a connection past MaxConns why it is being dropped.
func refuseConn(nc net.Conn, writeTimeout time.Duration) {
	nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	wire.WriteFrame(nc, wire.TypeError, wire.Error{
		Code:    errcode.NetConnLimit,
		Message: "connection limit reached",
	}.Encode())
	nc.Close()
}
