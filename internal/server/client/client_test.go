package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"bdbms"
	"bdbms/internal/errcode"
	"bdbms/internal/server"
	"bdbms/internal/server/wire"
	"bdbms/internal/value"
)

// startServer serves a fresh in-memory database with one credential
// (alice / wonder) and returns its address.
func startServer(t *testing.T) string {
	t.Helper()
	db := bdbms.Open()
	db.SetCredential("alice", "wonder")
	srv, err := server.New(server.Config{DB: db, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		db.Close()
	})
	return srv.Addr().String()
}

func dial(t *testing.T, addr string) *Conn {
	t.Helper()
	c, err := Dial(addr, "alice", "wonder")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestDialHandshake(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	if c.SessionID() == 0 {
		t.Error("SessionID = 0, want server-assigned id")
	}
	if !strings.Contains(c.ServerVersion(), "bdbms-server") {
		t.Errorf("ServerVersion = %q", c.ServerVersion())
	}
	if err := c.Ping(); err != nil {
		t.Errorf("Ping: %v", err)
	}
}

func TestDialAuthFailure(t *testing.T) {
	addr := startServer(t)
	_, err := Dial(addr, "alice", "nope")
	var se *ServerError
	if !errors.As(err, &se) || se.Code != errcode.AuthFailed {
		t.Fatalf("Dial with bad secret = %v, want ServerError[%s]", err, errcode.AuthFailed)
	}
}

func TestQueryExecRoundTrip(t *testing.T) {
	c := dial(t, startServer(t))
	if _, msg, err := c.Exec(`CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, Name TEXT)`); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(msg, "created") {
		t.Errorf("DDL message = %q", msg)
	}
	affected, _, err := c.Exec(`INSERT INTO T VALUES (1, 'ada'), (2, 'grace'), (3, 'edith')`)
	if err != nil {
		t.Fatal(err)
	}
	if affected != 3 {
		t.Errorf("affected = %d, want 3", affected)
	}

	rows, err := c.Query(`SELECT ID, Name FROM T WHERE ID >= ? ORDER BY ID`, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "ID" || cols[1] != "Name" {
		t.Errorf("Columns = %v", cols)
	}
	var names []string
	for rows.Next() {
		row := rows.Row()
		names = append(names, row[1].String())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names, ","); got != "grace,edith" {
		t.Errorf("rows = %q, want %q", got, "grace,edith")
	}
	// The connection is reusable after a drained stream.
	if err := c.Ping(); err != nil {
		t.Errorf("Ping after Query: %v", err)
	}
}

func TestPreparedStatementPaging(t *testing.T) {
	c := dial(t, startServer(t))
	mustExec(t, c, `CREATE TABLE N (I INT NOT NULL PRIMARY KEY)`)
	ins, err := c.Prepare(`INSERT INTO N VALUES (?)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 1 {
		t.Errorf("NumParams = %d, want 1", ins.NumParams())
	}
	for i := 0; i < 37; i++ {
		if _, _, err := ins.Exec(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := ins.Close(); err != nil {
		t.Fatal(err)
	}

	sel, err := c.Prepare(`SELECT I FROM N ORDER BY I`)
	if err != nil {
		t.Fatal(err)
	}
	// fetchSize 5 forces transparent Fetch paging across 8 batches.
	rows, err := sel.QueryBatch(5)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for rows.Next() {
		count++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if count != 37 {
		t.Errorf("paged scan saw %d rows, want 37", count)
	}
}

func TestRowsCloseReleasesSuspendedCursor(t *testing.T) {
	c := dial(t, startServer(t))
	mustExec(t, c, `CREATE TABLE N (I INT NOT NULL PRIMARY KEY)`)
	for i := 0; i < 20; i++ {
		mustExec(t, c, `INSERT INTO N VALUES (?)`, i)
	}
	sel, err := c.Prepare(`SELECT I FROM N`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sel.QueryBatch(4)
	if err != nil {
		t.Fatal(err)
	}
	// Read one batch and abandon at the suspend boundary: Close must issue
	// the ClosePortal that frees the server-side cursor.
	for i := 0; i < 4 && rows.Next(); i++ {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	// The cursor's read lock is released: a write proceeds.
	mustExec(t, c, `INSERT INTO N VALUES (100)`)
}

func TestTransactions(t *testing.T) {
	c := dial(t, startServer(t))
	mustExec(t, c, `CREATE TABLE T (I INT NOT NULL PRIMARY KEY)`)
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `INSERT INTO T VALUES (1)`)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `INSERT INTO T VALUES (2)`)
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := countRows(t, c, `SELECT I FROM T`); got != 1 {
		t.Errorf("after commit+rollback: %d rows, want 1", got)
	}
	// Commit with no open transaction is a categorized, non-fatal error.
	err := c.Commit()
	var se *ServerError
	if !errors.As(err, &se) || se.Code != errcode.TxNone {
		t.Fatalf("Commit outside tx = %v, want ServerError[%s]", err, errcode.TxNone)
	}
	if err := c.Ping(); err != nil {
		t.Errorf("conn unusable after tx error: %v", err)
	}
}

func TestStatementErrorCodes(t *testing.T) {
	c := dial(t, startServer(t))
	cases := []struct {
		sql  string
		want errcode.Code
	}{
		{`SELEKT 1`, errcode.Syntax},
		{`SELECT X FROM NoSuchTable`, errcode.TableNotFound},
	}
	for _, tc := range cases {
		_, _, err := c.Exec(tc.sql)
		var se *ServerError
		if !errors.As(err, &se) || se.Code != tc.want {
			t.Errorf("Exec(%q) = %v, want ServerError[%s]", tc.sql, err, tc.want)
		}
		if !strings.Contains(se.Error(), string(tc.want)) {
			t.Errorf("Error() = %q misses the code", se.Error())
		}
	}
	// Protocol-level name errors.
	if err := c.Bind("p", "no-such-stmt"); err == nil {
		t.Error("Bind to unknown statement succeeded")
	}
	if _, err := c.Execute("no-such-portal", 0); err == nil {
		t.Error("Execute of unknown portal succeeded")
	}
	if err := c.Ping(); err != nil {
		t.Errorf("conn unusable after statement errors: %v", err)
	}
}

func TestActiveRowsBlocksRequests(t *testing.T) {
	c := dial(t, startServer(t))
	mustExec(t, c, `CREATE TABLE T (I INT NOT NULL PRIMARY KEY)`)
	mustExec(t, c, `INSERT INTO T VALUES (1), (2)`)
	rows, err := c.Query(`SELECT I FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err == nil || !strings.Contains(err.Error(), "not closed") {
		t.Errorf("Ping with open Rows = %v, want not-closed error", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Errorf("Ping after Close: %v", err)
	}
	// Close again is a no-op.
	if err := rows.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestBrokenConnIsSticky(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr, "alice", "wonder")
	if err != nil {
		t.Fatal(err)
	}
	c.nc.Close() // sever the socket under the client
	if err := c.Ping(); err == nil {
		t.Fatal("Ping on severed conn succeeded")
	}
	if err := c.Ping(); !errors.Is(err, c.broken) {
		t.Errorf("second Ping = %v, want the sticky broken error", err)
	}
	c.Close()
}

func TestArgumentConversions(t *testing.T) {
	c := dial(t, startServer(t))
	mustExec(t, c, `CREATE TABLE V (I INT NOT NULL PRIMARY KEY, F FLOAT, T TEXT, B BOOL, TS TIMESTAMP)`)
	ts := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	args := []any{int64(1), float32(2.5), []byte("bytes"), true, ts}
	mustExec(t, c, `INSERT INTO V VALUES (?, ?, ?, ?, ?)`, args...)
	mustExec(t, c, `INSERT INTO V VALUES (?, ?, ?, ?, ?)`,
		int32(2), float64(3.5), "text", value.NewBool(false), nil)
	mustExec(t, c, `INSERT INTO V VALUES (?, ?, ?, ?, ?)`,
		uint32(3), nil, nil, nil, nil)
	if got := countRows(t, c, `SELECT I FROM V`); got != 3 {
		t.Errorf("rows = %d, want 3", got)
	}
	rows, err := c.Query(`SELECT T FROM V WHERE I = ?`, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no row for I=1")
	}
	if got := rows.Row()[0].String(); got != "bytes" {
		t.Errorf("T = %q, want %q", got, "bytes")
	}
	rows.Close()

	// Unsupported argument types are rejected client-side.
	if _, err := c.Query(`SELECT I FROM V WHERE I = ?`, struct{}{}); err == nil ||
		!strings.Contains(err.Error(), "unsupported argument type") {
		t.Errorf("struct arg = %v, want unsupported-type error", err)
	}
	if err := c.Ping(); err != nil {
		t.Errorf("conn unusable after arg error: %v", err)
	}
}

func TestAnnotationsCrossTheWire(t *testing.T) {
	c := dial(t, startServer(t))
	mustExec(t, c, `CREATE TABLE Gene (ID INT NOT NULL PRIMARY KEY, Name TEXT)`)
	mustExec(t, c, `INSERT INTO Gene VALUES (1, 'BRCA1')`)
	mustExec(t, c, `CREATE ANNOTATION TABLE Curation ON Gene CATEGORY 'comment'`)
	mustExec(t, c, `ADD ANNOTATION TO Gene.Curation VALUE 'verified' ON (SELECT Name FROM Gene WHERE ID = 1)`)
	rows, err := c.Query(`SELECT Name FROM Gene ANNOTATION(Curation)`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no row: %v", rows.Err())
	}
	anns := rows.Annotations()
	if len(anns) != 1 || len(anns[0]) != 1 {
		t.Fatalf("Annotations = %v, want one annotation on the one column", anns)
	}
	if got := anns[0][0].PlainBody(); got != "verified" {
		t.Errorf("annotation body = %q, want %q", got, "verified")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRowsFailOnSeveredConn(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr, "alice", "wonder")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExec(t, c, `CREATE TABLE N (I INT NOT NULL PRIMARY KEY)`)
	for i := 0; i < 10; i++ {
		mustExec(t, c, `INSERT INTO N VALUES (?)`, i)
	}
	sel, err := c.Prepare(`SELECT I FROM N`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sel.QueryBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("first row: %v", rows.Err())
	}
	c.nc.Close() // sever mid-stream
	for rows.Next() {
	}
	if rows.Err() == nil {
		t.Error("Err = nil after severed stream")
	}
	if err := rows.Close(); err == nil {
		t.Error("Close = nil after severed stream")
	}
	if err := c.Ping(); err == nil {
		t.Error("conn usable after severed stream")
	}
}

func TestCloseTerminatesPolitely(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr, "alice", "wonder")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := c.Ping(); err == nil {
		t.Error("Ping after Close succeeded")
	}
}

func TestDialConnectionRefused(t *testing.T) {
	if _, err := DialTimeout("127.0.0.1:1", "u", "s", time.Second); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}

func mustExec(t *testing.T, c *Conn, sql string, args ...any) {
	t.Helper()
	if _, _, err := c.Exec(sql, args...); err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
}

func countRows(t *testing.T, c *Conn, sql string) int {
	t.Helper()
	rows, err := c.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

// fakeServer accepts one connection, answers its Hello, then reads the
// request types in want before it writes any reply, and answers with
// replies. A client that waited for a reply between those requests would
// leave fakeServer's read to time out.
func fakeServer(t *testing.T, want []wire.Type, replies ...frame) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			nc, err := ln.Accept()
			if err != nil {
				return err
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(5 * time.Second))
			if _, _, err := wire.ReadFrame(nc, 0); err != nil {
				return err
			}
			if err := wire.WriteFrame(nc, wire.TypeAuthOK, wire.AuthOK{SessionID: 1}.Encode()); err != nil {
				return err
			}
			for _, w := range want {
				typ, _, err := wire.ReadFrame(nc, 0)
				if err != nil {
					return fmt.Errorf("waiting for request %c before any reply: %w", w, err)
				}
				if typ != w {
					return fmt.Errorf("request %c, want %c", typ, w)
				}
			}
			var buf bytes.Buffer
			for _, r := range replies {
				wire.WriteFrame(&buf, r.t, r.payload)
			}
			_, err = nc.Write(buf.Bytes())
			return err
		}()
	}()
	t.Cleanup(func() {
		ln.Close()
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
	return ln.Addr().String()
}

type frame struct {
	t       wire.Type
	payload []byte
}

// TestQueriesAreOneRoundTrip: Stmt.Query sends Bind and Execute, and
// Conn.Query sends Parse, Bind and Execute, before reading any reply.
func TestQueriesAreOneRoundTrip(t *testing.T) {
	result := []frame{
		{wire.TypeRowHeader, wire.RowHeader{Columns: []string{"I"}}.Encode()},
		{wire.TypeRow, wire.Row{Values: value.Row{value.NewInt(7)}}.Encode()},
		{wire.TypeComplete, wire.Complete{Rows: 1}.Encode()},
	}
	check := func(rows *Rows, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() || rows.Row()[0].Int() != 7 || rows.Next() {
			t.Fatalf("rows: want the one row 7, err %v", rows.Err())
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}

	addr := fakeServer(t, []wire.Type{wire.TypeBind, wire.TypeExecute},
		append([]frame{{wire.TypeBindOK, nil}}, result...)...)
	c := dial(t, addr)
	check((&Stmt{c: c, name: "s1", numParams: 1}).Query(7))

	addr = fakeServer(t, []wire.Type{wire.TypeParse, wire.TypeBind, wire.TypeExecute},
		append([]frame{{wire.TypeParseOK, wire.ParseOK{NumParams: 1}.Encode()}, {wire.TypeBindOK, nil}}, result...)...)
	c = dial(t, addr)
	check(c.Query(`SELECT I FROM T WHERE I = ?`, 7))
}

// TestFailedBindIsReportedAndRunsNothing: when the pipelined Bind (or Parse)
// fails, the query returns that error, the Execute sent behind it runs
// nothing, and the connection stays in step for the next call.
func TestFailedBindIsReportedAndRunsNothing(t *testing.T) {
	c := dial(t, startServer(t))
	mustExec(t, c, `CREATE TABLE T (I INT NOT NULL PRIMARY KEY)`)
	mustExec(t, c, `INSERT INTO T VALUES (1), (2)`)
	sel, err := c.Prepare(`SELECT I FROM T WHERE I = ?`)
	if err != nil {
		t.Fatal(err)
	}
	wantCode := func(err error, code errcode.Code) {
		t.Helper()
		var se *ServerError
		if !errors.As(err, &se) || se.Code != code {
			t.Fatalf("err = %v, want ServerError[%s]", err, code)
		}
	}
	for range 2 {
		rows, err := sel.Query(1)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() || rows.Row()[0].Int() != 1 {
			t.Fatalf("good bind: no row 1 (%v)", rows.Err())
		}
		rows.Close()
		// The portal's previous binding must not run in place of this one.
		_, err = sel.Query(1, 2)
		wantCode(err, errcode.BadArgs)
	}
	_, err = c.Query(`SELEKT I FROM T`)
	wantCode(err, errcode.Syntax)
	if got := countRows(t, c, `SELECT I FROM T`); got != 2 {
		t.Errorf("rows after failed queries = %d, want 2", got)
	}
	if err := c.Ping(); err != nil {
		t.Errorf("conn unusable after failed binds: %v", err)
	}
}
