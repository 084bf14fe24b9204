// Package errcode assigns stable, categorized codes to the sentinel errors
// of every bdbms subsystem. The codes travel in wire error frames
// (internal/server/wire) so network clients can branch on failure classes
// without matching error strings, and they are stable across releases: a
// code, once shipped, never changes meaning.
//
// A code is a dotted lowercase path, category first: "parse.syntax",
// "tx.done", "authz.denied", "storage.page_corrupt". The category (the
// segment before the first dot) groups codes coarsely — parse, exec, tx,
// authz, catalog, annotation, value, storage, ctx, net — so a client can
// handle a whole class ("any tx.* means my transaction is gone") or a
// precise code ("catalog.table_exists means CREATE TABLE raced me").
package errcode

import (
	"context"
	"errors"
	"strings"

	"bdbms/internal/annotation"
	"bdbms/internal/authz"
	"bdbms/internal/catalog"
	"bdbms/internal/exec"
	"bdbms/internal/heap"
	"bdbms/internal/pager"
	"bdbms/internal/sqlparse"
	"bdbms/internal/value"
	"bdbms/internal/wal"
)

// Code is a stable categorized error code.
type Code string

// The code vocabulary. Every code maps from a sentinel error of an internal
// package (see FromError), except the net.* codes, which originate in the
// network server itself.
const (
	// OK is the zero code: no error.
	OK Code = ""

	// Parse errors.
	Syntax Code = "parse.syntax"

	// Executor errors.
	BadArgs         Code = "exec.bad_args"
	Unsupported     Code = "exec.unsupported"
	UnknownColumn   Code = "exec.unknown_column"
	AmbiguousColumn Code = "exec.ambiguous_column"
	Spill           Code = "exec.spill"

	// Transaction-protocol errors.
	TxDone        Code = "tx.done"
	TxOpen        Code = "tx.open"
	TxNone        Code = "tx.none"
	TxNoSavepoint Code = "tx.no_savepoint"

	// Authorization errors.
	PermissionDenied Code = "authz.denied"
	NotApprover      Code = "authz.not_approver"
	AlreadyDecided   Code = "authz.already_decided"
	OpNotFound       Code = "authz.op_not_found"
	NoApproval       Code = "authz.no_approval"
	AuthFailed       Code = "authz.auth_failed"

	// Catalog errors.
	TableExists      Code = "catalog.table_exists"
	TableNotFound    Code = "catalog.table_not_found"
	ColumnNotFound   Code = "catalog.column_not_found"
	AnnTableExists   Code = "catalog.ann_table_exists"
	AnnTableNotFound Code = "catalog.ann_table_not_found"
	SchemaMismatch   Code = "catalog.schema_mismatch"

	// Annotation errors.
	NoAnnotationTable Code = "annotation.no_table"
	EmptyRegion       Code = "annotation.empty_region"
	SystemManaged     Code = "annotation.system_managed"

	// Value errors.
	TypeMismatch Code = "value.type_mismatch"
	BadEncoding  Code = "value.bad_encoding"

	// Storage-fault errors: the disk lied or can no longer be trusted.
	PageCorrupt  Code = "storage.page_corrupt"
	WALCorrupt   Code = "storage.wal_corrupt"
	SyncPoisoned Code = "storage.sync_poisoned"
	// Closed: a write reached a database whose log is already closed.
	Closed Code = "storage.closed"

	// Context errors.
	Canceled         Code = "ctx.canceled"
	DeadlineExceeded Code = "ctx.deadline"

	// Network-server errors (originate in internal/server, not mapped from
	// sentinels).
	NetAuthRequired  Code = "net.auth_required"
	NetProtocol      Code = "net.protocol"
	NetFrameTooLarge Code = "net.frame_too_large"
	NetConnLimit     Code = "net.conn_limit"
	NetIdleTimeout   Code = "net.idle_timeout"
	NetShutdown      Code = "net.shutdown"
	NetUnknownStmt   Code = "net.unknown_stmt"
	NetUnknownPortal Code = "net.unknown_portal"

	// Internal is the fallback for errors no code covers.
	Internal Code = "internal"
)

// Category returns the code's coarse class — the segment before the first
// dot ("tx" for "tx.done"). Internal and OK are their own categories.
func (c Code) Category() string {
	if i := strings.IndexByte(string(c), '.'); i >= 0 {
		return string(c[:i])
	}
	return string(c)
}

// String returns the code itself.
func (c Code) String() string { return string(c) }

// codeOf pairs a sentinel error with its code. Order matters only for
// errors that wrap each other; the sentinels below are all distinct.
var sentinels = []struct {
	err  error
	code Code
}{
	{sqlparse.ErrSyntax, Syntax},

	{exec.ErrBadArgs, BadArgs},
	{exec.ErrUnsupported, Unsupported},
	{exec.ErrUnknownColumn, UnknownColumn},
	{exec.ErrAmbiguousColumn, AmbiguousColumn},
	{exec.ErrSpill, Spill},

	{exec.ErrTxDone, TxDone},
	{exec.ErrTxOpen, TxOpen},
	{exec.ErrNoTx, TxNone},
	{exec.ErrNoSavepoint, TxNoSavepoint},

	{authz.ErrPermissionDenied, PermissionDenied},
	{authz.ErrNotApprover, NotApprover},
	{authz.ErrAlreadyDecided, AlreadyDecided},
	{authz.ErrOpNotFound, OpNotFound},
	{authz.ErrNoApproval, NoApproval},
	{authz.ErrAuthFailed, AuthFailed},

	{catalog.ErrTableExists, TableExists},
	{catalog.ErrTableNotFound, TableNotFound},
	{catalog.ErrColumnNotFound, ColumnNotFound},
	{catalog.ErrAnnotationTableExists, AnnTableExists},
	{catalog.ErrAnnotationTableNotFound, AnnTableNotFound},
	{catalog.ErrSchemaMismatch, SchemaMismatch},

	{annotation.ErrNoAnnotationTable, NoAnnotationTable},
	{annotation.ErrEmptyRegion, EmptyRegion},
	{annotation.ErrSystemManaged, SystemManaged},

	{value.ErrTypeMismatch, TypeMismatch},
	{value.ErrBadEncoding, BadEncoding},

	{pager.ErrPageCorrupt, PageCorrupt},
	{heap.ErrPageCorrupt, PageCorrupt},
	{wal.ErrCorrupt, WALCorrupt},
	{pager.ErrSyncPoisoned, SyncPoisoned},
	{wal.ErrSyncPoisoned, SyncPoisoned},
	{wal.ErrClosed, Closed},

	{context.Canceled, Canceled},
	{context.DeadlineExceeded, DeadlineExceeded},
}

// FromError classifies err. Nil maps to OK; an error wrapping a known
// sentinel maps to that sentinel's code; anything else maps to Internal.
func FromError(err error) Code {
	if err == nil {
		return OK
	}
	for _, s := range sentinels {
		if errors.Is(err, s.err) {
			return s.code
		}
	}
	return Internal
}

// Valid reports whether c is a code this package defines (OK included).
// Wire decoding uses it to reject made-up codes without failing the frame:
// an unknown code degrades to Internal rather than erroring, so old clients
// survive new server codes.
func Valid(c Code) bool {
	if c == OK || c == Internal {
		return true
	}
	_, ok := byName[c]
	return ok
}

// byName indexes every non-OK, non-Internal code.
var byName = func() map[Code]struct{} {
	m := make(map[Code]struct{}, len(sentinels)+8)
	for _, s := range sentinels {
		m[s.code] = struct{}{}
	}
	for _, c := range []Code{
		NetAuthRequired, NetProtocol, NetFrameTooLarge, NetConnLimit,
		NetIdleTimeout, NetShutdown, NetUnknownStmt, NetUnknownPortal,
	} {
		m[c] = struct{}{}
	}
	return m
}()
