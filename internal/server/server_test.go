package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bdbms"
	"bdbms/internal/errcode"
	"bdbms/internal/server/client"
	"bdbms/internal/server/wire"
	"bdbms/internal/storage"
	"bdbms/internal/value"
)

// startServer launches a server for db on a random port and returns its
// address. Cleanup shuts the server down (bounded) and closes the db.
func startServer(t *testing.T, db *bdbms.DB, mutate func(*Config)) (*Server, string) {
	t.Helper()
	cfg := Config{DB: db, Logf: t.Logf}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveDone; err != nil {
			t.Errorf("Serve returned %v", err)
		}
		db.Close()
	})
	return srv, srv.Addr().String()
}

func openTestDB(t *testing.T) *bdbms.DB {
	t.Helper()
	db := bdbms.Open()
	db.SetCredential("admin", "admin-secret")
	return db
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr, "admin", "admin-secret")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestQueryRoundTrip(t *testing.T) {
	db := openTestDB(t)
	db.MustExec(`CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GSequence SEQUENCE)`)
	db.MustExec(`INSERT INTO Gene VALUES ('JW0080', 'ATGATGG')`)
	db.MustExec(`INSERT INTO Gene VALUES ('JW0082', 'CCGGTTA')`)
	_, addr := startServer(t, db, nil)

	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	rows, err := c.Query(`SELECT GID, GSequence FROM Gene WHERE GID = ?`, "JW0080")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "GID" {
		t.Fatalf("columns = %v", cols)
	}
	var got []string
	for rows.Next() {
		got = append(got, rows.Row()[0].Text()+"/"+rows.Row()[1].Text())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	if len(got) != 1 || got[0] != "JW0080/ATGATGG" {
		t.Fatalf("rows = %v", got)
	}

	// DML through the network session.
	aff, _, err := c.Exec(`INSERT INTO Gene VALUES (?, ?)`, "JW0100", "TTTT")
	if err != nil || aff != 1 {
		t.Fatalf("insert: affected=%d err=%v", aff, err)
	}
	res := db.MustExec(`SELECT GID FROM Gene`)
	if len(res.Rows) != 3 {
		t.Fatalf("table has %d rows, want 3", len(res.Rows))
	}
}

func TestAnnotationsOverWire(t *testing.T) {
	db := openTestDB(t)
	db.MustExec(`CREATE TABLE Gene (GID TEXT NOT NULL PRIMARY KEY, GSequence SEQUENCE)`)
	db.MustExec(`INSERT INTO Gene VALUES ('JW0080', 'ATGATGG')`)
	db.MustExec(`CREATE ANNOTATION TABLE Curation ON Gene CATEGORY 'comment'`)
	db.MustExec(`ADD ANNOTATION TO Gene.Curation
		VALUE '<Annotation>low quality read</Annotation>'
		ON (SELECT GSequence FROM Gene WHERE GID = 'JW0080')`)
	_, addr := startServer(t, db, nil)

	c := dial(t, addr)
	rows, err := c.Query(`SELECT GID, GSequence FROM Gene ANNOTATION(Curation)`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	anns := rows.Annotations()
	var found *wire.Ann
	for _, cell := range anns {
		for i := range cell {
			found = &cell[i]
		}
	}
	if found == nil {
		t.Fatalf("no annotation crossed the wire: %+v", anns)
	}
	if found.AnnTable != "Curation" || found.PlainBody() != "low quality read" {
		t.Fatalf("annotation = %+v", *found)
	}
}

func TestPreparedStatementAndFetchPaging(t *testing.T) {
	db := openTestDB(t)
	db.MustExec(`CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, V TEXT)`)
	_, addr := startServer(t, db, nil)

	c := dial(t, addr)
	ins, err := c.Prepare(`INSERT INTO T VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 2 {
		t.Fatalf("NumParams = %d", ins.NumParams())
	}
	const n = 57
	for i := 0; i < n; i++ {
		if _, _, err := ins.Exec(i, fmt.Sprintf("v%03d", i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	sel, err := c.Prepare(`SELECT ID FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	// Page with a fetch size that doesn't divide n, exercising the
	// Suspended → Fetch → ... → Complete path and the final short batch.
	rows, err := sel.QueryBatch(10)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for rows.Next() {
		seen[rows.Row()[0].Int()] = true
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("paged scan saw %d distinct ids, want %d", len(seen), n)
	}

	// Abandon a paged cursor mid-stream: Close must release it so a write
	// on the same connection proceeds.
	rows, err = sel.QueryBatch(10)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("expected a row")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ins.Exec(n, "after-close"); err != nil {
		t.Fatalf("write after abandoned cursor: %v", err)
	}
}

func TestAuthFailure(t *testing.T) {
	db := openTestDB(t)
	db.SetCredential("alice", "right")
	_, addr := startServer(t, db, nil)

	cases := []struct{ user, secret string }{
		{"alice", "wrong"},
		{"nobody", "x"},
		{"admin", ""},
	}
	for _, tc := range cases {
		_, err := client.Dial(addr, tc.user, tc.secret)
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != errcode.AuthFailed {
			t.Fatalf("Dial(%q,%q) = %v, want authz.auth_failed", tc.user, tc.secret, err)
		}
	}
	// And the good pair still works after the failures.
	c, err := client.Dial(addr, "alice", "right")
	if err != nil {
		t.Fatalf("valid login: %v", err)
	}
	c.Close()
}

func TestMalformedAndOversizedFrames(t *testing.T) {
	db := openTestDB(t)
	_, addr := startServer(t, db, nil)

	// A raw connection sending garbage instead of Hello.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wire.WriteFrame(nc, wire.TypeBind, []byte{0xFF, 0xFF}) // not a Hello
	typ, payload, err := wire.ReadFrame(nc, wire.MaxFrame)
	if err != nil || typ != wire.TypeError {
		t.Fatalf("reply = %c/%v, want error frame", typ, err)
	}
	if e, _ := wire.DecodeError(payload); e.Code != errcode.NetProtocol {
		t.Fatalf("code = %q, want net.protocol", e.Code)
	}
	assertClosed(t, nc)

	// A hostile length prefix: 1 GiB frame announced post-auth.
	c2 := dial(t, addr)
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello := wire.Hello{Version: wire.ProtocolVersion, User: "admin", Secret: "admin-secret"}
	wire.WriteFrame(nc2, wire.TypeHello, hello.Encode())
	if typ, _, err := wire.ReadFrame(nc2, wire.MaxFrame); err != nil || typ != wire.TypeAuthOK {
		t.Fatalf("handshake = %c/%v", typ, err)
	}
	nc2.Write([]byte{byte(wire.TypeParse), 0x40, 0x00, 0x00, 0x00}) // header claiming 1 GiB
	typ, payload, err = wire.ReadFrame(nc2, wire.MaxFrame)
	if err != nil || typ != wire.TypeError {
		t.Fatalf("oversized reply = %c/%v, want error frame", typ, err)
	}
	if e, _ := wire.DecodeError(payload); e.Code != errcode.NetFrameTooLarge {
		t.Fatalf("code = %q, want net.frame_too_large", e.Code)
	}
	assertClosed(t, nc2)

	// A malformed payload on an authenticated session also disconnects.
	nc3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wire.WriteFrame(nc3, wire.TypeHello, hello.Encode())
	wire.ReadFrame(nc3, wire.MaxFrame)
	wire.WriteFrame(nc3, wire.TypeParse, []byte{0x7F}) // truncated string
	typ, payload, err = wire.ReadFrame(nc3, wire.MaxFrame)
	if err != nil || typ != wire.TypeError {
		t.Fatalf("malformed reply = %c/%v", typ, err)
	}
	if e, _ := wire.DecodeError(payload); e.Code != errcode.NetProtocol {
		t.Fatalf("code = %q, want net.protocol", e.Code)
	}
	assertClosed(t, nc3)

	// The healthy session is unaffected throughout.
	if err := c2.Ping(); err != nil {
		t.Fatalf("healthy conn after sibling abuse: %v", err)
	}
}

// assertClosed waits for the server to hang up on nc.
func assertClosed(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := wire.ReadFrame(nc, wire.MaxFrame); err == nil {
		t.Fatal("connection still open, want server-side close")
	}
	nc.Close()
}

func TestIdleTimeout(t *testing.T) {
	db := openTestDB(t)
	_, addr := startServer(t, db, func(c *Config) { c.IdleTimeout = 150 * time.Millisecond })

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello := wire.Hello{Version: wire.ProtocolVersion, User: "admin", Secret: "admin-secret"}
	wire.WriteFrame(nc, wire.TypeHello, hello.Encode())
	if typ, _, err := wire.ReadFrame(nc, wire.MaxFrame); err != nil || typ != wire.TypeAuthOK {
		t.Fatalf("handshake = %c/%v", typ, err)
	}
	// Say nothing; the server must notify and disconnect.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := wire.ReadFrame(nc, wire.MaxFrame)
	if err != nil || typ != wire.TypeError {
		t.Fatalf("idle reply = %c/%v, want error frame", typ, err)
	}
	if e, _ := wire.DecodeError(payload); e.Code != errcode.NetIdleTimeout {
		t.Fatalf("code = %q, want net.idle_timeout", e.Code)
	}
	assertClosed(t, nc)
}

func TestClientVanishMidCursorReleasesResources(t *testing.T) {
	db := openTestDB(t)
	db.MustExec(`CREATE TABLE T (ID INT NOT NULL PRIMARY KEY)`)
	for i := 0; i < 100; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO T VALUES (%d)`, i))
	}
	_, addr := startServer(t, db, func(c *Config) { c.IdleTimeout = 200 * time.Millisecond })

	// Open a paged cursor (the server keeps its MVCC snapshot pinned across
	// the suspension) and then vanish without closing anything.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello := wire.Hello{Version: wire.ProtocolVersion, User: "admin", Secret: "admin-secret"}
	wire.WriteFrame(nc, wire.TypeHello, hello.Encode())
	wire.ReadFrame(nc, wire.MaxFrame)
	wire.WriteFrame(nc, wire.TypeParse, wire.Parse{SQL: `SELECT ID FROM T`}.Encode())
	wire.ReadFrame(nc, wire.MaxFrame)
	wire.WriteFrame(nc, wire.TypeBind, wire.Bind{}.Encode())
	wire.ReadFrame(nc, wire.MaxFrame)
	wire.WriteFrame(nc, wire.TypeExecute, wire.Execute{MaxRows: 5}.Encode())
	// Read the header and first row to be sure the cursor is live, then die.
	if typ, _, err := wire.ReadFrame(nc, wire.MaxFrame); err != nil || typ != wire.TypeRowHeader {
		t.Fatalf("header = %c/%v", typ, err)
	}
	nc.Close()

	// A write from another connection must succeed promptly — MVCC cursors
	// hold no locks, so the dead client cannot wedge it — and the server
	// must notice the dead client (teardown or idle reap) and close the
	// cursor, releasing its pinned snapshot so row versions are reclaimed.
	c := dial(t, addr)
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Exec(`INSERT INTO T VALUES (1000)`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after client vanished: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("write still blocked: vanished client's cursor was not reaped")
	}
}

func TestConnLimit(t *testing.T) {
	db := openTestDB(t)
	_, addr := startServer(t, db, func(c *Config) { c.MaxConns = 2 })

	c1, c2 := dial(t, addr), dial(t, addr)
	_, err := client.Dial(addr, "admin", "admin-secret")
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != errcode.NetConnLimit {
		t.Fatalf("third dial = %v, want net.conn_limit", err)
	}
	// Freeing a slot readmits.
	c1.Close()
	waitFor(t, 5*time.Second, func() bool {
		c, err := client.Dial(addr, "admin", "admin-secret")
		if err != nil {
			return false
		}
		c.Close()
		return true
	})
	_ = c2
}

func waitFor(t *testing.T, d time.Duration, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if f() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

func TestTransactionsOverWire(t *testing.T) {
	db := openTestDB(t)
	db.MustExec(`CREATE TABLE Account (ID INT NOT NULL PRIMARY KEY, Balance INT)`)
	db.MustExec(`INSERT INTO Account VALUES (1, 100)`)
	db.MustExec(`INSERT INTO Account VALUES (2, 0)`)
	_, addr := startServer(t, db, nil)

	c := dial(t, addr)
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Exec(`UPDATE Account SET Balance = Balance - 10 WHERE ID = 1`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Exec(`UPDATE Account SET Balance = Balance + 10 WHERE ID = 2`); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	res := db.MustExec(`SELECT Balance FROM Account WHERE ID = 2`)
	if res.Rows[0].Values[0].Int() != 10 {
		t.Fatalf("committed balance = %v", res.Rows[0].Values[0])
	}

	// Rollback reverts.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Exec(`UPDATE Account SET Balance = 9999 WHERE ID = 1`); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	res = db.MustExec(`SELECT Balance FROM Account WHERE ID = 1`)
	if res.Rows[0].Values[0].Int() != 90 {
		t.Fatalf("rolled-back balance = %v", res.Rows[0].Values[0])
	}

	// Commit with no open transaction is a categorized statement error, and
	// the connection survives it.
	err := c.Commit()
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != errcode.TxNone {
		t.Fatalf("commit outside tx = %v, want tx.none", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("conn after statement error: %v", err)
	}
}

func TestShutdownDrainsOpenTransaction(t *testing.T) {
	db := openTestDB(t)
	db.MustExec(`CREATE TABLE T (ID INT NOT NULL PRIMARY KEY)`)
	cfg := Config{DB: db, Logf: t.Logf}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	addr := srv.Addr().String()

	c, err := client.Dial(addr, "admin", "admin-secret")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Exec(`INSERT INTO T VALUES (1)`); err != nil {
		t.Fatal(err)
	}

	// Shutdown with the transaction still open: the server must roll it
	// back (releasing the exclusive lock) and disconnect the client.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	c.Close()

	// The uncommitted insert is gone and the engine lock is free.
	res := db.MustExec(`SELECT ID FROM T`)
	if len(res.Rows) != 0 {
		t.Fatalf("uncommitted rows survived shutdown: %v", res.Rows)
	}
	db.Close()
}

func TestShutdownLetsInFlightStatementFinish(t *testing.T) {
	db := openTestDB(t)
	db.MustExec(`CREATE TABLE T (ID INT NOT NULL PRIMARY KEY)`)
	for i := 0; i < 2000; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO T VALUES (%d)`, i))
	}
	srv, err := New(Config{DB: db, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	c, err := client.Dial(srv.Addr().String(), "admin", "admin-secret")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Start a full-table scan and call Shutdown while the server is still
	// streaming it: the in-flight statement must complete — every row plus
	// the Complete frame delivered — before the connection is drained.
	started := make(chan struct{})
	scanned := make(chan error, 1)
	go func() {
		rows, err := c.Query(`SELECT ID FROM T`)
		if err != nil {
			close(started)
			scanned <- err
			return
		}
		close(started) // RowHeader received: the dispatch is in flight
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Close(); err != nil {
			scanned <- err
			return
		}
		if n != 2000 {
			scanned <- fmt.Errorf("scan returned %d rows, want 2000", n)
			return
		}
		scanned <- nil
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := <-scanned; err != nil {
		t.Fatalf("in-flight scan: %v", err)
	}
	db.Close()
}

func TestPanicIsolation(t *testing.T) {
	db := openTestDB(t)
	auth := func(user, secret string) error {
		if user == "boom" {
			panic("auth hook exploded")
		}
		return db.Authenticate(user, secret)
	}
	_, addr := startServer(t, db, func(c *Config) { c.Auth = auth })

	// The panicking connection dies alone...
	if _, err := client.Dial(addr, "boom", "x"); err == nil {
		t.Fatal("panicking handshake reported success")
	}
	// ...and the server keeps serving.
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatalf("server dead after sibling panic: %v", err)
	}
}

// TestE2EConcurrentClientsWithOracle is the acceptance e2e: 64 concurrent
// network clients run prepared point reads and transactional writes against
// a durable database while an embedded oracle tracks expected state; then
// the server shuts down gracefully, the process is checked for leaked
// goroutines, and the database reopens and verifies clean.
func TestE2EConcurrentClientsWithOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e is not -short")
	}
	dataFile := filepath.Join(t.TempDir(), "e2e.bdbms")
	db, err := bdbms.OpenWith(bdbms.Options{DataFile: dataFile})
	if err != nil {
		t.Fatal(err)
	}
	db.SetCredential("admin", "admin-secret")
	db.MustExec(`CREATE TABLE Counter (ID INT NOT NULL PRIMARY KEY, N INT)`)
	const slots = 8
	for i := 0; i < slots; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO Counter VALUES (%d, 0)`, i))
	}

	baseline := runtime.NumGoroutine()
	srv, err := New(Config{DB: db, MaxConns: 256, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	addr := srv.Addr().String()

	// Oracle: per-slot expected increment counts, updated only when the
	// server acknowledged the commit.
	var oracleMu sync.Mutex
	oracle := make([]int64, slots)

	const clients = 64
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			c, err := client.Dial(addr, "admin", "admin-secret")
			if err != nil {
				errCh <- fmt.Errorf("worker %d dial: %w", w, err)
				return
			}
			defer c.Close()
			read, err := c.Prepare(`SELECT N FROM Counter WHERE ID = ?`)
			if err != nil {
				errCh <- err
				return
			}
			for op := 0; op < 30; op++ {
				slot := rng.Intn(slots)
				if rng.Intn(3) == 0 {
					// Transactional increment, acknowledged before the oracle
					// learns of it.
					if err := c.Begin(); err != nil {
						errCh <- fmt.Errorf("worker %d begin: %w", w, err)
						return
					}
					if _, _, err := c.Exec(`UPDATE Counter SET N = N + 1 WHERE ID = ?`, slot); err != nil {
						errCh <- fmt.Errorf("worker %d update: %w", w, err)
						return
					}
					if err := c.Commit(); err != nil {
						errCh <- fmt.Errorf("worker %d commit: %w", w, err)
						return
					}
					oracleMu.Lock()
					oracle[slot]++
					oracleMu.Unlock()
				} else {
					// Prepared point read; the count can only be <= the final
					// oracle value, and must be a sane non-negative integer.
					rows, err := read.Query(slot)
					if err != nil {
						errCh <- fmt.Errorf("worker %d read: %w", w, err)
						return
					}
					if !rows.Next() {
						rows.Close()
						errCh <- fmt.Errorf("worker %d: slot %d missing", w, slot)
						return
					}
					if n := rows.Row()[0].Int(); n < 0 {
						rows.Close()
						errCh <- fmt.Errorf("worker %d: negative count %d", w, n)
						return
					}
					if err := rows.Close(); err != nil {
						errCh <- fmt.Errorf("worker %d close: %w", w, err)
						return
					}
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Final state must equal the oracle exactly.
	c := dial(t, addr)
	rows, err := c.Query(`SELECT ID, N FROM Counter`)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int64, slots)
	for rows.Next() {
		got[rows.Row()[0].Int()] = rows.Row()[1].Int()
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	for i := 0; i < slots; i++ {
		if got[i] != oracle[i] {
			t.Fatalf("slot %d = %d, oracle says %d", i, got[i], oracle[i])
		}
	}

	// Graceful shutdown, then prove nothing leaked.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	waitFor(t, 10*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The database reopens and verifies clean, with the oracle's state.
	db2, err := bdbms.OpenWith(bdbms.Options{DataFile: dataFile})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	report, err := db2.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(report.Problems) != 0 {
		t.Fatalf("Verify found problems: %+v", report.Problems)
	}
	res := db2.MustExec(`SELECT ID, N FROM Counter`)
	for _, row := range res.Rows {
		id, n := row.Values[0].Int(), row.Values[1].Int()
		if n != oracle[id] {
			t.Fatalf("reopened slot %d = %d, oracle says %d", id, n, oracle[id])
		}
	}
}

func TestPermissionDeniedOverWire(t *testing.T) {
	db, err := bdbms.OpenWith(bdbms.Options{EnforceAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE T (ID INT NOT NULL PRIMARY KEY)`)
	db.SetCredential("admin", "admin-secret")
	db.SetCredential("intern", "intern-secret")
	_, addr := startServer(t, db, nil)

	c, err := client.Dial(addr, "intern", "intern-secret")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query(`SELECT ID FROM T`)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != errcode.PermissionDenied {
		t.Fatalf("unprivileged select = %v, want authz.permission_denied", err)
	}

	// GRANT over the wire from the admin, then the intern can read.
	a := dial(t, addr)
	if _, _, err := a.Exec(`GRANT SELECT ON T TO intern`); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(`SELECT ID FROM T`)
	if err != nil {
		t.Fatalf("post-grant select: %v", err)
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStatementErrorsCarryStableCodes(t *testing.T) {
	db := openTestDB(t)
	db.MustExec(`CREATE TABLE T (ID INT NOT NULL PRIMARY KEY)`)
	// A row to evaluate projections against: the unknown-column error is
	// raised when a row reaches the projector, not at parse time.
	db.MustExec(`INSERT INTO T VALUES (1)`)
	db.MustExec(`CREATE TABLE Wide (ID INT NOT NULL PRIMARY KEY, Body TEXT)`)
	_, addr := startServer(t, db, nil)
	c := dial(t, addr)

	cases := []struct {
		sql  string
		code errcode.Code
	}{
		{`SELEKT banana`, errcode.Syntax},
		{`SELECT ID FROM NoSuchTable`, errcode.TableNotFound},
		{`SELECT Nope FROM T`, errcode.UnknownColumn},
		{`INSERT INTO T VALUES (1)`, errcode.DuplicateKey},
		{`INSERT INTO Wide VALUES (2, '` + strings.Repeat("x", 5000) + `')`, errcode.RecordTooLarge},
	}
	for _, tc := range cases {
		// Exec drains the stream, so errors surface uniformly whether they
		// are raised at parse, plan, or first-row time.
		_, _, err := c.Exec(tc.sql)
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != tc.code {
			t.Errorf("%.60q -> %.200v, want code %q", tc.sql, err, tc.code)
		}
	}
	// A latch cycle needs two racing transactions; the code is what the
	// server sends for the error the closing statement fails with.
	if got := errcode.FromError(fmt.Errorf("exec: UPDATE: %w", storage.ErrDeadlock)); got != errcode.Deadlock {
		t.Errorf("deadlock -> %q, want %q", got, errcode.Deadlock)
	}
	// Unknown statement / portal names.
	if err := c.Bind("p", "ghost"); err == nil {
		t.Fatal("bind to ghost statement succeeded")
	} else {
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != errcode.NetUnknownStmt {
			t.Fatalf("ghost bind = %v, want net.unknown_stmt", err)
		}
	}
	if _, err := c.Execute("ghost", 0); err == nil {
		t.Fatal("execute of ghost portal succeeded")
	} else {
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != errcode.NetUnknownPortal {
			t.Fatalf("ghost execute = %v, want net.unknown_portal", err)
		}
	}
	// Wrong arg count is caught at Bind time.
	if _, err := c.Parse("one", `SELECT ID FROM T WHERE ID = ?`); err != nil {
		t.Fatal(err)
	}
	err := c.Bind("p1", "one", 1, 2)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != errcode.BadArgs {
		t.Fatalf("arity mismatch = %v, want exec.bad_args", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("conn dead after statement errors: %v", err)
	}
}

// TestPipelinedRequestsAfterAFailedParseOrBind: a Parse or Bind that fails
// discards the statement or portal of its name before validating, so the
// requests a client pipelined behind it in the same write fail by name
// instead of running the previous definition. Replies come back in request
// order and no Row frame is sent.
func TestPipelinedRequestsAfterAFailedParseOrBind(t *testing.T) {
	db := openTestDB(t)
	db.MustExec(`CREATE TABLE T (ID INT NOT NULL PRIMARY KEY)`)
	db.MustExec(`INSERT INTO T VALUES (1)`)
	_, addr := startServer(t, db, nil)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	type frame struct {
		t       wire.Type
		payload []byte
	}
	// send writes the frames in one write, so the server finds them all
	// buffered at once.
	send := func(frames ...frame) {
		t.Helper()
		var buf bytes.Buffer
		for _, f := range frames {
			wire.WriteFrame(&buf, f.t, f.payload)
		}
		if _, err := nc.Write(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	// expect reads one reply per entry: a frame type, or the code of an
	// Error frame.
	expect := func(want ...any) {
		t.Helper()
		for i, w := range want {
			typ, payload, err := wire.ReadFrame(nc, wire.MaxFrame)
			if err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			got := any(typ)
			if typ == wire.TypeError {
				e, _ := wire.DecodeError(payload)
				got = e.Code
			}
			if got != w {
				t.Fatalf("reply %d = %v, want %v", i, got, w)
			}
		}
	}
	hello := wire.Hello{Version: wire.ProtocolVersion, User: "admin", Secret: "admin-secret"}
	send(frame{wire.TypeHello, hello.Encode()})
	expect(wire.TypeAuthOK)
	one, two := value.NewInt(1), value.NewInt(2)

	// A named statement and portal: a good Bind and Execute, then a Bind with
	// the wrong arity and an Execute of the same portal in one write.
	send(frame{wire.TypeParse, wire.Parse{Name: "s", SQL: `SELECT ID FROM T WHERE ID = ?`}.Encode()})
	expect(wire.TypeParseOK)
	send(frame{wire.TypeBind, wire.Bind{Portal: "p", Stmt: "s", Args: value.Row{one}}.Encode()},
		frame{wire.TypeExecute, wire.Execute{Portal: "p"}.Encode()})
	expect(wire.TypeBindOK, wire.TypeRowHeader, wire.TypeRow, wire.TypeComplete)
	send(frame{wire.TypeBind, wire.Bind{Portal: "p", Stmt: "s", Args: value.Row{one, two}}.Encode()},
		frame{wire.TypeExecute, wire.Execute{Portal: "p"}.Encode()},
		frame{wire.TypePing, nil})
	expect(errcode.BadArgs, errcode.NetUnknownPortal, wire.TypePong)

	// The unnamed statement and portal: Parse, Bind and Execute in one write,
	// good and then with SQL that does not parse.
	send(frame{wire.TypeParse, wire.Parse{SQL: `SELECT ID FROM T`}.Encode()},
		frame{wire.TypeBind, wire.Bind{}.Encode()},
		frame{wire.TypeExecute, wire.Execute{}.Encode()})
	expect(wire.TypeParseOK, wire.TypeBindOK, wire.TypeRowHeader, wire.TypeRow, wire.TypeComplete)
	send(frame{wire.TypeParse, wire.Parse{SQL: `SELEKT ID FROM T`}.Encode()},
		frame{wire.TypeBind, wire.Bind{}.Encode()},
		frame{wire.TypeExecute, wire.Execute{}.Encode()},
		frame{wire.TypePing, nil})
	expect(errcode.Syntax, errcode.NetUnknownStmt, errcode.NetUnknownPortal, wire.TypePong)
}
