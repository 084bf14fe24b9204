// Package server exposes a bdbms database over TCP: a daemon speaking the
// length-prefixed binary protocol of internal/server/wire, with
// per-connection sessions mapped onto internal/authz users.
//
// The server is a classic listener/handler split. Serve accepts
// connections; each one runs in its own goroutine, authenticates with a
// user/secret Hello (checked against the authorization manager's
// credentials), and then services request/response commands one at a time
// in arrival order (a client may pipeline them):
// named prepared statements (Parse), portals (Bind/Execute with Fetch-N
// cursor paging), transaction control, Ping and Terminate. Statement
// execution rides the same exec.Session machinery as the embedded API, so
// GRANT/REVOKE enforcement, transactions, the plan cache and streaming
// cursors behave identically over the network.
//
// Robustness properties, each proven by a test in server_test.go:
//
//   - Per-connection deadlines: a connection idle past IdleTimeout is told
//     so and closed; a peer that stops reading its responses trips
//     WriteTimeout. Either way the connection's cursors and transaction are
//     released, so one dead client can never wedge the engine lock.
//   - Panic isolation: a panic while serving one connection tears down that
//     connection only.
//   - A connection limit: past MaxConns, new connections get a categorized
//     error frame and are closed before authentication.
//   - Graceful drain: Shutdown stops the listener, lets every in-flight
//     statement finish and send its response, then rolls back open
//     transactions, closes open cursors and disconnects — so a following
//     DB.Close checkpoints a quiesced engine. A drain deadline forces the
//     stragglers.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"bdbms"
)

// Config configures a Server. DB is required; zero values elsewhere select
// the documented defaults.
type Config struct {
	// DB is the open database to serve. The server does not close it:
	// callers own the Close (after Shutdown returns).
	DB *bdbms.DB
	// MaxConns bounds concurrently served connections (default 1024).
	// Connections past the bound are refused with a net.conn_limit error.
	MaxConns int
	// IdleTimeout disconnects a session that sends no frame for this long
	// (default 5 minutes).
	IdleTimeout time.Duration
	// WriteTimeout bounds each network write (default 30 seconds). A client
	// that stops draining its responses is disconnected, which releases any
	// cursor (and engine read lock) its portal holds.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the wait for the Hello frame (default 10s).
	HandshakeTimeout time.Duration
	// Auth validates a user/secret pair. Nil uses the database's
	// authorization manager (bdbms.DB.Authenticate): users connect with the
	// secrets installed by SetCredential.
	Auth func(user, secret string) error
	// Logf, when set, receives server diagnostics (one line per call).
	Logf func(format string, args ...any)
}

// Server is a bdbms network daemon.
type Server struct {
	cfg Config

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool
	nextID   uint64

	wg sync.WaitGroup // one unit per live connection handler
}

// serverVersion is the banner sent in AuthOK.
const serverVersion = "bdbms-server/1"

// New validates the configuration and returns an unstarted server.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.Auth == nil {
		db := cfg.DB
		cfg.Auth = db.Authenticate
	}
	return &Server{cfg: cfg, conns: make(map[*conn]struct{})}, nil
}

// logf forwards to Config.Logf when set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Listen binds the listener without serving yet, so callers can learn the
// bound address (addr ":0" selects a free port) before the first Accept.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		ln.Close()
		return errors.New("server: already shut down")
	}
	if s.ln != nil {
		ln.Close()
		return errors.New("server: already listening")
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listener address (nil before Listen).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until Shutdown. It returns nil after a
// Shutdown-initiated stop, or the fatal Accept error otherwise.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.startConn(nc)
	}
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	if err := s.Listen(addr); err != nil {
		return err
	}
	return s.Serve()
}

// startConn registers and launches a connection handler, enforcing the
// connection limit.
func (s *Server) startConn(nc net.Conn) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		nc.Close()
		return
	}
	over := len(s.conns) >= s.cfg.MaxConns
	var c *conn
	if !over {
		s.nextID++
		c = newConn(s, s.nextID, nc)
		s.conns[c] = struct{}{}
		s.wg.Add(1)
	}
	s.mu.Unlock()

	if over {
		// Refuse politely: a categorized error frame the client library can
		// surface, then close. Sent outside the lock — a slow reader must
		// not stall the accept path.
		refuseConn(nc, s.cfg.WriteTimeout)
		return
	}
	go c.serve()
}

// forget unregisters a finished connection.
func (s *Server) forget(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.wg.Done()
}

// liveConns snapshots the current connections.
func (s *Server) liveConns() []*conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		out = append(out, c)
	}
	return out
}

// Shutdown gracefully stops the server: the listener closes (Serve
// returns), every connection finishes the statement it is currently
// executing and sends its response, and then each connection's open cursors
// are closed, its open transaction is rolled back, and the socket is
// closed. When ctx expires first, the remaining connections are
// force-closed (their in-flight statements are canceled through their
// context) and Shutdown returns ctx.Err().
//
// Shutdown does not close the database; call DB.Close after it returns —
// by then no statement is in flight and no lock is held.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range s.liveConns() {
		c.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, c := range s.liveConns() {
			c.forceClose()
		}
		<-done
		return ctx.Err()
	}
}
