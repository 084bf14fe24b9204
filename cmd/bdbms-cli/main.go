// Command bdbms-cli is an interactive A-SQL shell over a bdbms database.
// Statements are read from standard input (terminated by ';') and results are
// rendered as textual grids with propagated annotations listed under each
// row — the textual stand-in for the spreadsheet visualization tool the paper
// discusses in Section 3.2.
//
// Results stream: the shell pulls rows through the database's cursor API
// (Query) and prints each one as it arrives, so a SELECT over a large table
// starts printing immediately and never buffers the whole grid in memory.
//
// With -data the database is durable: the page file is accompanied by a
// write-ahead log and checkpoint files next to it, every invocation reopens
// the previous state, and exiting checkpoints it — so a script can build a
// database in one invocation and a later invocation can query it.
//
// Statements between BEGIN and COMMIT run as one atomic transaction;
// ROLLBACK (or exiting the shell mid-transaction, or crashing — see
// -crash-exit) reverts all of them. SAVEPOINT / ROLLBACK TO SAVEPOINT give
// partial rollbacks inside a transaction.
//
// Two maintenance subcommands complement the shell. `bdbms-cli verify -data
// file.db` scrubs the whole database — page checksums (bit rot, torn pages,
// misdirected writes, including in pages no live table references), heap ↔
// index agreement, manifest consistency and annotation reachability
// — and exits non-zero with a line per problem when anything is broken.
// `bdbms-cli backup -data file.db -dest dir/` takes a consistent online
// snapshot: a checkpointed copy of the database files that opens (and
// verifies) as a normal database.
//
// Usage:
//
//	bdbms-cli [-data file.db] [-user name] [-enforce-auth] [-script file.sql] [-crash-exit]
//	bdbms-cli verify -data file.db
//	bdbms-cli backup -data file.db -dest dir
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"unicode/utf8"

	"bdbms"
	"bdbms/internal/sqlparse"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable CLI body; it returns the process exit code and closes
// (checkpoints) the database on every path.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	// Maintenance subcommands dispatch before flag parsing; everything else
	// is the interactive/script shell.
	if len(args) > 0 {
		switch args[0] {
		case "verify":
			return runVerify(args[1:], stdout, stderr)
		case "backup":
			return runBackup(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("bdbms-cli", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dataFile := fs.String("data", "", "back the database with this file (plus .wal/.manifest next to it); reopens existing state")
	user := fs.String("user", "admin", "user to run statements as")
	enforce := fs.Bool("enforce-auth", false, "enable GRANT/REVOKE privilege checks")
	script := fs.String("script", "", "execute this A-SQL script file before reading stdin")
	quiet := fs.Bool("quiet", false, "suppress the banner and prompts")
	crashExit := fs.Bool("crash-exit", false, "exit after the script WITHOUT closing the database (crash-recovery testing: open transactions are neither committed nor rolled back in-process)")
	connect := fs.String("connect", "", "connect to a bdbms-server at host:port instead of opening a database in-process")
	secret := fs.String("secret", "", "login secret for -connect (pair with -user)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *connect != "" {
		if *dataFile != "" || *enforce || *crashExit {
			fmt.Fprintln(stderr, "bdbms-cli: -data, -enforce-auth and -crash-exit do not apply with -connect (the server owns the database)")
			return 2
		}
		return runRemote(*connect, *user, *secret, *script, *quiet, stdin, stdout, stderr)
	}

	db, err := bdbms.OpenWith(bdbms.Options{DataFile: *dataFile, EnforceAuth: *enforce})
	if err != nil {
		fmt.Fprintln(stderr, "bdbms-cli:", err)
		return 1
	}
	if *enforce {
		db.Authorization().MakeAdmin("admin")
	}
	session := db.Session(*user)

	closed := false
	closeDB := func() int {
		if closed {
			return 0
		}
		closed = true
		// A transaction left open when the shell exits is rolled back —
		// exactly what a disconnect does in a client/server database. (It
		// also holds the database's exclusive lock, so closing without the
		// rollback would deadlock the checkpoint.)
		if session.InTx() {
			fmt.Fprintln(stderr, "warning: open transaction rolled back")
			if err := session.CloseTx(); err != nil {
				fmt.Fprintln(stderr, "bdbms-cli: rollback:", err)
			}
		}
		if err := db.Close(); err != nil {
			fmt.Fprintln(stderr, "bdbms-cli: close:", err)
			return 1
		}
		return 0
	}
	defer closeDB()

	if !*quiet {
		fmt.Fprintln(stdout, "bdbms — a database management system for biological data")
		fmt.Fprintln(stdout, "Enter A-SQL statements terminated by ';'.  \\q quits, \\tables lists tables.")
	}

	runStmt := func(sql string) bool {
		rows, err := session.Query(context.Background(), sql)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return false
		}
		defer rows.Close()
		streamResult(stdout, rows)
		if err := rows.Err(); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return false
		}
		return true
	}

	if *script != "" {
		content, err := os.ReadFile(*script)
		if err != nil {
			fmt.Fprintln(stderr, "bdbms-cli:", err)
			return 1
		}
		// Validate the whole script before executing anything, so a syntax
		// error cannot leave the database half-migrated.
		if _, err := sqlparse.ParseAll(string(content)); err != nil {
			fmt.Fprintln(stderr, "bdbms-cli:", err)
			return 1
		}
		for _, stmt := range sqlparse.SplitStatements(string(content)) {
			if !runStmt(stmt) {
				// Close (checkpoint) so the statements that DID commit
				// survive into the next invocation.
				if rc := closeDB(); rc != 0 {
					return rc
				}
				return 1
			}
		}
		if *crashExit {
			// Simulated crash: skip the rollback and the checkpoint — the
			// next invocation recovers from the WAL alone, and an open
			// transaction's records form an unclosed frame it rolls back.
			closed = true
			return 0
		}
	}

	scanner := bufio.NewScanner(stdin)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	var buf strings.Builder
	if !*quiet {
		fmt.Fprint(stdout, "bdbms> ")
	}
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case "\\q", "\\quit", "exit", "quit":
			return closeDB()
		case "\\tables":
			for _, tbl := range db.Storage().Tables() {
				fmt.Fprintf(stdout, "%s (%d rows)\n", tbl.Name(), tbl.RowCount())
				for _, ann := range db.Storage().Catalog().AnnotationTables(tbl.Name()) {
					fmt.Fprintf(stdout, "  annotation table: %s [%s]\n", ann.Name, ann.Category)
				}
			}
			if !*quiet {
				fmt.Fprint(stdout, "bdbms> ")
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			runStmt(buf.String())
			buf.Reset()
			if !*quiet {
				fmt.Fprint(stdout, "bdbms> ")
			}
		}
	}
	if buf.Len() > 0 && strings.TrimSpace(buf.String()) != "" {
		runStmt(buf.String())
	}
	return closeDB()
}

// runVerify is the `bdbms-cli verify` subcommand: scrub the database named
// by -data and report every problem. Exit 0 = clean, 1 = problems found (or
// the database does not even open), 2 = usage error.
func runVerify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bdbms-cli verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dataFile := fs.String("data", "", "database file to verify (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dataFile == "" {
		fmt.Fprintln(stderr, "bdbms-cli verify: -data is required")
		return 2
	}
	db, err := bdbms.OpenWith(bdbms.Options{DataFile: *dataFile})
	if err != nil {
		// Corruption in a live heap page surfaces when Open scans the heaps
		// to rebuild indexes — report it as a verification failure, with the
		// open error as the diagnostic, rather than a usage problem.
		fmt.Fprintln(stdout, "FAILED: database does not open:", err)
		return 1
	}
	defer db.Close()
	rep, err := db.Verify()
	if err != nil {
		fmt.Fprintln(stderr, "bdbms-cli verify:", err)
		return 1
	}
	fmt.Fprintln(stdout, rep.String())
	if !rep.Clean() {
		return 1
	}
	return 0
}

// runBackup is the `bdbms-cli backup` subcommand: open the database named
// by -data and snapshot it into -dest. The snapshot is itself a database —
// point -data at the copied file to restore.
func runBackup(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bdbms-cli backup", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dataFile := fs.String("data", "", "database file to back up (required)")
	dest := fs.String("dest", "", "destination directory for the snapshot (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dataFile == "" || *dest == "" {
		fmt.Fprintln(stderr, "bdbms-cli backup: -data and -dest are required")
		return 2
	}
	db, err := bdbms.OpenWith(bdbms.Options{DataFile: *dataFile})
	if err != nil {
		fmt.Fprintln(stderr, "bdbms-cli backup:", err)
		return 1
	}
	defer db.Close()
	if err := db.Backup(*dest); err != nil {
		fmt.Fprintln(stderr, "bdbms-cli backup:", err)
		return 1
	}
	fmt.Fprintf(stdout, "backup complete: %s\n", filepath.Join(*dest, filepath.Base(*dataFile)))
	return 0
}

// annLine is one annotation line below a grid row, already flattened: the
// shared format code below is agnostic to whether the annotation came from
// the embedded cursor or across the wire.
type annLine struct {
	table, author, body string
}

// streamGrid prints a streaming result grid: header, separator, one line
// per row the moment next yields it (annotations listed beneath), and the
// row-count footer. Column widths are fixed from the header (cells are
// truncated to 40 runes), trading the perfectly-fitted grid of bdbms.Render
// for output that streams. Local and remote mode share this function, which
// is what keeps their golden outputs byte-identical.
func streamGrid(w io.Writer, cols []string, next func() ([]string, []annLine, bool)) {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = utf8.RuneCountInString(c)
		if widths[i] < 8 {
			widths[i] = 8
		}
	}
	writeRow := func(parts []string) {
		for i, p := range parts {
			if i > 0 {
				fmt.Fprint(w, " | ")
			}
			fmt.Fprint(w, p)
			// Pad by rune count, not bytes, so multi-byte cells align.
			for pad := utf8.RuneCountInString(p); pad < widths[i]; pad++ {
				fmt.Fprint(w, " ")
			}
		}
		fmt.Fprintln(w)
	}
	writeRow(cols)
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	n := 0
	for {
		cells, anns, ok := next()
		if !ok {
			break
		}
		writeRow(cells)
		for _, ann := range anns {
			fmt.Fprintf(w, "    [%s by %s] %s\n", ann.table, ann.author, ann.body)
		}
		n++
	}
	fmt.Fprintf(w, "(%d row(s))\n", n)
}

// streamResult prints an embedded cursor's result as it is pulled.
func streamResult(w io.Writer, rows *bdbms.Rows) {
	if msg := rows.Message(); msg != "" {
		fmt.Fprintln(w, msg)
	}
	cols := rows.Columns()
	if len(cols) == 0 {
		return
	}
	streamGrid(w, cols, func() ([]string, []annLine, bool) {
		if !rows.Next() {
			return nil, nil, false
		}
		row := rows.Row()
		cells := make([]string, len(cols))
		for i := range cells {
			if i < len(row.Values) {
				cells[i] = bdbms.TruncateCell(row.Values[i].String(), 40)
			}
		}
		var anns []annLine
		for _, ann := range row.AnnotationsFlat() {
			anns = append(anns, annLine{ann.AnnTable, ann.Author, ann.PlainBody()})
		}
		return cells, anns, true
	})
}
