package exec

// Fault-injection tests for the spill surface: a query whose temp file hits
// ENOSPC/EIO mid-spill must fail with a categorized error, remove the temp
// file, and leave the session fully usable.

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"bdbms/internal/pager"
)

// redirectSpill points openSpillPager at dir and passes each created pager
// through wrap, restoring the original hook when the test ends.
func redirectSpill(t *testing.T, dir string, wrap func(*pager.FilePager) (pager.Pager, error)) {
	t.Helper()
	orig := openSpillPager
	openSpillPager = func() (pager.Pager, error) {
		p, err := pager.OpenTemp(dir)
		if err != nil {
			return nil, err
		}
		return wrap(p)
	}
	t.Cleanup(func() { openSpillPager = orig })
}

// requireNoSpillFiles asserts every temp file in dir was removed.
func requireNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("%d spill file(s) left behind after failed query: %v", len(entries), entries)
	}
}

func loadSpillFaultTable(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE Big (ID INT NOT NULL PRIMARY KEY, Grp TEXT, Score INT)`)
	ins, err := s.Prepare(`INSERT INTO Big VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := ins.Exec(i, fmt.Sprintf("g%02d", i%17), i%101); err != nil {
			t.Fatal(err)
		}
	}
}

// checkSessionUsable proves the engine survived the failed query: the same
// spilling query succeeds once the disk recovers, and writes still work.
func checkSessionUsable(t *testing.T, s *Session, sql string) {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("session unusable after spill fault, %q: %v", sql, err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("session returned no rows for %q after spill fault", sql)
	}
	mustExec(t, s, `INSERT INTO Big VALUES (9999, 'gXX', 1)`)
	mustExec(t, s, `DELETE FROM Big WHERE ID = 9999`)
}

func TestSpillWriteENOSPCFailsQueryCleanly(t *testing.T) {
	dir := t.TempDir()
	queries := []string{
		`SELECT Grp, COUNT(*), SUM(Score) FROM Big GROUP BY Grp`, // spilling hash aggregation
		`SELECT ID, Score FROM Big ORDER BY Score DESC, ID`,      // external sort
		`SELECT DISTINCT Grp FROM Big`,                           // spilling distinct
	}
	for _, sql := range queries {
		t.Run(sql, func(t *testing.T) {
			s := newSession(t)
			s.SpillBudget = 1
			loadSpillFaultTable(t, s)

			faulty := true
			redirectSpill(t, dir, func(p *pager.FilePager) (pager.Pager, error) {
				fp := pager.NewFaultPager(p)
				if faulty {
					fp.FailWriteAfter(2, pager.ErrInjectedENOSPC)
				}
				return fp, nil
			})

			_, err := s.Exec(sql)
			if err == nil {
				t.Fatal("query with failing spill writes succeeded")
			}
			if !errors.Is(err, ErrSpill) {
				t.Fatalf("error not categorized as ErrSpill: %v", err)
			}
			if !errors.Is(err, pager.ErrInjectedENOSPC) {
				t.Fatalf("underlying ENOSPC lost: %v", err)
			}
			requireNoSpillFiles(t, dir)

			faulty = false
			checkSessionUsable(t, s, sql)
			requireNoSpillFiles(t, dir)
		})
	}
}

// TestSpillAllocateENOSPC fails the very first page allocation of the run
// file — the earliest point a full disk can bite.
func TestSpillAllocateENOSPC(t *testing.T) {
	dir := t.TempDir()
	s := newSession(t)
	s.SpillBudget = 1
	loadSpillFaultTable(t, s)

	faulty := true
	redirectSpill(t, dir, func(p *pager.FilePager) (pager.Pager, error) {
		fp := pager.NewFaultPager(p)
		if faulty {
			fp.FailAllocateAfter(0, pager.ErrInjectedENOSPC)
		}
		return fp, nil
	})

	sql := `SELECT Grp, COUNT(*) FROM Big GROUP BY Grp`
	_, err := s.Exec(sql)
	if !errors.Is(err, ErrSpill) || !errors.Is(err, pager.ErrInjectedENOSPC) {
		t.Fatalf("allocate fault = %v, want ErrSpill wrapping ENOSPC", err)
	}
	requireNoSpillFiles(t, dir)
	faulty = false
	checkSessionUsable(t, s, sql)
}

// TestSpillOpenFailure fails creating the temp file itself (ENOSPC or a
// bad TMPDIR at open time).
func TestSpillOpenFailure(t *testing.T) {
	s := newSession(t)
	s.SpillBudget = 1
	loadSpillFaultTable(t, s)

	faulty := true
	orig := openSpillPager
	openSpillPager = func() (pager.Pager, error) {
		if faulty {
			return nil, pager.ErrInjectedENOSPC
		}
		return orig()
	}
	t.Cleanup(func() { openSpillPager = orig })

	sql := `SELECT DISTINCT Grp FROM Big`
	_, err := s.Exec(sql)
	if !errors.Is(err, ErrSpill) || !errors.Is(err, pager.ErrInjectedENOSPC) {
		t.Fatalf("open fault = %v, want ErrSpill wrapping ENOSPC", err)
	}
	faulty = false
	checkSessionUsable(t, s, sql)
}

// readFaultPager fails Read once its countdown expires; writes and
// allocations pass through. It drives the merge phase (reading runs back)
// into EIO after the spill writes succeeded.
type readFaultPager struct {
	pager.Pager
	remaining int
	armed     bool
}

func (p *readFaultPager) Read(id pager.PageID, dst []byte) error {
	if p.armed {
		if p.remaining == 0 {
			return pager.ErrInjectedEIO
		}
		p.remaining--
	}
	return p.Pager.Read(id, dst)
}

// TestSpillReadEIO: EIO while reading runs back during the merge phase must
// also surface as a categorized failure with the temp file removed.
func TestSpillReadEIO(t *testing.T) {
	dir := t.TempDir()
	s := newSession(t)
	s.SpillBudget = 1
	loadSpillFaultTable(t, s)

	faulty := true
	redirectSpill(t, dir, func(p *pager.FilePager) (pager.Pager, error) {
		return &readFaultPager{Pager: p, remaining: 4, armed: faulty}, nil
	})

	sql := `SELECT ID, Score FROM Big ORDER BY Score, ID`
	_, err := s.Exec(sql)
	if !errors.Is(err, ErrSpill) || !errors.Is(err, pager.ErrInjectedEIO) {
		t.Fatalf("read fault = %v, want ErrSpill wrapping EIO", err)
	}
	requireNoSpillFiles(t, dir)
	faulty = false
	checkSessionUsable(t, s, sql)
	requireNoSpillFiles(t, dir)
}
