package undo

import (
	"errors"
	"testing"
)

func TestRollbackRunsNewestFirstAndEmpties(t *testing.T) {
	l := New()
	var order []int
	for i := 1; i <= 3; i++ {
		i := i
		l.Push(Func(func() error { order = append(order, i); return nil }))
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	if err := l.Rollback(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 3 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("rollback order = %v, want [3 2 1]", order)
	}
	if l.Len() != 0 {
		t.Fatalf("Len after rollback = %d, want 0", l.Len())
	}
	// Rolling back an empty log is a no-op.
	if err := l.Rollback(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackToMarkKeepsEarlierEntries(t *testing.T) {
	var l Log // the zero value works
	var order []int
	push := func(i int) { l.Push(Func(func() error { order = append(order, i); return nil })) }
	push(1)
	mark := l.Len()
	push(2)
	push(3)
	if err := l.RollbackTo(mark); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 3 || order[1] != 2 {
		t.Fatalf("partial rollback ran %v, want [3 2]", order)
	}
	if l.Len() != mark {
		t.Fatalf("Len = %d, want the mark %d", l.Len(), mark)
	}
	// A negative mark clamps to a full rollback.
	if err := l.RollbackTo(-5); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[2] != 1 {
		t.Fatalf("clamped rollback ran %v, want [3 2 1]", order)
	}
}

func TestRollbackJoinsErrorsButRunsEverything(t *testing.T) {
	l := New()
	e1, e2 := errors.New("first"), errors.New("second")
	ran := 0
	l.Push(Func(func() error { ran++; return e1 }))
	l.Push(Func(func() error { ran++; return nil }))
	l.Push(Func(func() error { ran++; return e2 }))
	err := l.Rollback()
	if ran != 3 {
		t.Fatalf("%d actions ran, want all 3 despite errors", ran)
	}
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Fatalf("joined error %v misses one of the action errors", err)
	}
}

func TestResetDiscardsWithoutRunning(t *testing.T) {
	l := New()
	ran := false
	l.Push(Func(func() error { ran = true; return nil }))
	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("Len after Reset = %d", l.Len())
	}
	if ran {
		t.Fatal("Reset ran an action")
	}
}
