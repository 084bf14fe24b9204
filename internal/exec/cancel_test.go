package exec

import (
	"context"
	"errors"
	"testing"
	"time"
	"unsafe"
)

// TestCanceledCursorStopsAtOnce: once its context is canceled, a streaming
// cursor hands out no further row — not even one an operator already holds
// (a Restore run, a sorted or grouped output, a prepared statement's
// scan) — and Err reports the context's error.
func TestCanceledCursorStopsAtOnce(t *testing.T) {
	s := newSession(t)
	s.User = "admin"
	loadRestoreTables(t, s)
	join := `SELECT f.FID, d1.Name FROM F f, D1 d1, D2 d2 WHERE f.A = d1.Cat AND f.B = d2.Key AND d2.Tag = 'hot' AND f.V = 7`
	if k := keptPrefix(plannedOrder(t, s, join)); k == 0 {
		t.Fatalf("%s is not planned in runs", join)
	}
	st, err := s.Prepare(`SELECT FID, V FROM F WHERE V < ?`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		spill bool
		query func(ctx context.Context) (*Rows, error)
	}{
		{"reordered join run", false, func(ctx context.Context) (*Rows, error) { return s.Query(ctx, join) }},
		{"order by", false, func(ctx context.Context) (*Rows, error) { return s.Query(ctx, `SELECT FID, V FROM F ORDER BY V, FID`) }},
		{"spilled group by", true, func(ctx context.Context) (*Rows, error) {
			return s.Query(ctx, `SELECT W, COUNT(*), SUM(V) FROM F GROUP BY W`)
		}},
		{"prepared statement", false, func(ctx context.Context) (*Rows, error) { return st.Query(ctx, 50) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.spill {
				s.SpillBudget = 1
				defer func() { s.SpillBudget = 0 }()
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rows, err := tc.query(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			if !rows.Next() {
				t.Fatalf("first row: %v", rows.Err())
			}
			cancel()
			after := 0
			for rows.Next() {
				after++
			}
			if after != 0 {
				t.Errorf("%d rows after cancel, want 0", after)
			}
			if !errors.Is(rows.Err(), context.Canceled) {
				t.Errorf("Err = %v, want context.Canceled", rows.Err())
			}
		})
	}
	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		rows, err := s.Query(ctx, `SELECT FID FROM F ORDER BY V`)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("first row: %v", rows.Err())
		}
		<-ctx.Done()
		if rows.Next() {
			t.Error("a row after the deadline")
		}
		if !errors.Is(rows.Err(), context.DeadlineExceeded) {
			t.Errorf("Err = %v, want context.DeadlineExceeded", rows.Err())
		}
	})
	// The context sits in the bytes the cursor's allocation had free.
	if size := unsafe.Sizeof(Rows{}); size > 256 {
		t.Errorf("Rows is %d bytes, over its 256-byte allocation", size)
	}
}
