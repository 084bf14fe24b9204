// Package authz implements bdbms's authorization manager (Section 6 of the
// paper). It combines the classical identity-based GRANT/REVOKE model with
// the paper's content-based approval: update operations on monitored tables
// are applied immediately (so users can see pending data) but logged together
// with an automatically generated inverse statement; an approver later
// approves the change or disapproves it, in which case the inverse statement
// is executed to remove its effect.
package authz

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bdbms/internal/storage"
	"bdbms/internal/value"
	"bdbms/internal/wal"
)

// Privilege is an identity-based right on a table.
type Privilege string

// Privileges of the GRANT/REVOKE model.
const (
	PrivSelect Privilege = "SELECT"
	PrivInsert Privilege = "INSERT"
	PrivUpdate Privilege = "UPDATE"
	PrivDelete Privilege = "DELETE"
	// PrivAll expands to every privilege.
	PrivAll Privilege = "ALL"
)

// OpKind is the kind of a logged update operation.
type OpKind string

// Update operation kinds.
const (
	OpInsert OpKind = "INSERT"
	OpUpdate OpKind = "UPDATE"
	OpDelete OpKind = "DELETE"
)

// Status of a logged operation in the content-approval workflow.
type Status string

// Operation statuses.
const (
	StatusPending     Status = "PENDING"
	StatusApproved    Status = "APPROVED"
	StatusDisapproved Status = "DISAPPROVED"
)

// Errors returned by the authorization manager.
var (
	// ErrPermissionDenied is returned when an identity lacks a privilege.
	ErrPermissionDenied = errors.New("authz: permission denied")
	// ErrNotApprover is returned when a non-approver decides an operation.
	ErrNotApprover = errors.New("authz: user is not an approver for this table")
	// ErrAlreadyDecided is returned when deciding an operation twice.
	ErrAlreadyDecided = errors.New("authz: operation already decided")
	// ErrOpNotFound is returned for unknown operation IDs.
	ErrOpNotFound = errors.New("authz: operation not found")
	// ErrNoApproval is returned when content approval is not enabled on a table.
	ErrNoApproval = errors.New("authz: content approval not enabled")
	// ErrAuthFailed is returned when a user/secret pair does not authenticate.
	// The message never says whether the user or the secret was wrong.
	ErrAuthFailed = errors.New("authz: authentication failed")
)

// Operation is one logged update under content-based approval.
type Operation struct {
	// ID identifies the operation in the log.
	ID int64
	// User issued the operation.
	User string
	// Time is when the operation was issued.
	Time time.Time
	// Table is the affected user table.
	Table string
	// Kind is INSERT, UPDATE or DELETE.
	Kind OpKind
	// RowID is the affected row.
	RowID int64
	// OldRow is the row image before the operation (nil for INSERT).
	OldRow value.Row
	// NewRow is the row image after the operation (nil for DELETE).
	NewRow value.Row
	// Statement is a rendering of the original operation.
	Statement string
	// Inverse is the automatically generated inverse statement.
	Inverse string
	// Status is the approval status.
	Status Status
	// Approver is who decided the operation ("" while pending).
	Approver string
	// DecidedAt is when the decision happened.
	DecidedAt time.Time
}

// ApprovalConfig is the configuration installed by START CONTENT APPROVAL
// (Figure 11).
type ApprovalConfig struct {
	// Table is the monitored user table.
	Table string
	// Columns restricts monitoring to these columns (empty = whole table).
	Columns []string
	// Approver is the user or group allowed to approve/disapprove.
	Approver string
}

// MonitorsColumn reports whether the config covers the named column.
func (c *ApprovalConfig) MonitorsColumn(column string) bool {
	if len(c.Columns) == 0 {
		return true
	}
	for _, col := range c.Columns {
		if strings.EqualFold(col, column) {
			return true
		}
	}
	return false
}

// Manager is the authorization manager.
type Manager struct {
	mu        sync.RWMutex
	eng       *storage.Engine
	log       *wal.Log
	users     map[string]map[string]bool // user -> set of groups
	secrets   map[string]string          // user -> login secret (network auth)
	admins    map[string]bool
	grants    map[string]map[Privilege]bool // principal|table -> privileges
	approvals map[string]*ApprovalConfig    // table (lower) -> config
	ops       map[int64]*Operation
	order     []int64
	nextOp    int64
	clock     func() time.Time
}

// NewManager builds an authorization manager over the storage engine. The
// operation log is mirrored into the engine's WAL: recording an operation,
// approving and disapproving each append one KindApproval record before they
// apply, so rolling back a monitored DML statement also retracts its
// operation, and a rolled-back decision goes back to pending.
func NewManager(eng *storage.Engine) *Manager {
	return &Manager{
		eng:       eng,
		log:       eng.WAL(),
		users:     make(map[string]map[string]bool),
		secrets:   make(map[string]string),
		admins:    make(map[string]bool),
		grants:    make(map[string]map[Privilege]bool),
		approvals: make(map[string]*ApprovalConfig),
		ops:       make(map[int64]*Operation),
		nextOp:    1,
		clock:     time.Now,
	}
}

// SetClock overrides the time source (tests).
func (m *Manager) SetClock(clock func() time.Time) { m.clock = clock }

// --- identity model ------------------------------------------------------------

// CreateUser registers a user.
func (m *Manager) CreateUser(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := m.users[key]; !ok {
		m.users[key] = make(map[string]bool)
	}
}

// MakeAdmin marks a user as a database administrator: admins pass every
// privilege check and may approve anything.
func (m *Manager) MakeAdmin(name string) {
	m.CreateUser(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.admins[strings.ToLower(name)] = true
}

// AddToGroup puts a user in a group, creating both as needed.
func (m *Manager) AddToGroup(user, group string) {
	m.CreateUser(user)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.users[strings.ToLower(user)][strings.ToLower(group)] = true
}

// UserExists reports whether the user is registered.
func (m *Manager) UserExists(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.users[strings.ToLower(name)]
	return ok
}

// SetSecret installs (or, with "", removes) the user's login secret for
// network authentication, registering the user if needed. Secrets are
// session-scoped configuration like GRANT state: they are not persisted and
// must be re-installed after reopening a durable database.
func (m *Manager) SetSecret(user, secret string) {
	m.CreateUser(user)
	m.mu.Lock()
	defer m.mu.Unlock()
	key := strings.ToLower(user)
	if secret == "" {
		delete(m.secrets, key)
		return
	}
	m.secrets[key] = secret
}

// Authenticate checks a user/secret pair for network login. It fails with
// ErrAuthFailed for an unknown user, a wrong secret, or a user with no
// secret installed — a user becomes connectable only by an explicit
// SetSecret. The comparison is constant-time.
func (m *Manager) Authenticate(user, secret string) error {
	m.mu.RLock()
	stored, ok := m.secrets[strings.ToLower(user)]
	m.mu.RUnlock()
	if !ok {
		// Burn the comparison anyway so an attacker cannot time-probe which
		// user names exist.
		subtle.ConstantTimeCompare([]byte(secret), []byte(secret))
		return ErrAuthFailed
	}
	if subtle.ConstantTimeCompare([]byte(stored), []byte(secret)) != 1 {
		return ErrAuthFailed
	}
	return nil
}

// MemberOf reports whether the user belongs to the group.
func (m *Manager) MemberOf(user, group string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	groups, ok := m.users[strings.ToLower(user)]
	return ok && groups[strings.ToLower(group)]
}

func grantKey(principal, table string) string {
	return strings.ToLower(principal) + "|" + strings.ToLower(table)
}

// Grant gives the principal (user or group) privileges on a table.
func (m *Manager) Grant(principal, table string, privs ...Privilege) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := grantKey(principal, table)
	set, ok := m.grants[k]
	if !ok {
		set = make(map[Privilege]bool)
		m.grants[k] = set
	}
	for _, p := range privs {
		if p == PrivAll {
			set[PrivSelect], set[PrivInsert], set[PrivUpdate], set[PrivDelete] = true, true, true, true
			continue
		}
		set[p] = true
	}
}

// Revoke removes privileges from a principal on a table.
func (m *Manager) Revoke(principal, table string, privs ...Privilege) {
	m.mu.Lock()
	defer m.mu.Unlock()
	set, ok := m.grants[grantKey(principal, table)]
	if !ok {
		return
	}
	for _, p := range privs {
		if p == PrivAll {
			delete(set, PrivSelect)
			delete(set, PrivInsert)
			delete(set, PrivUpdate)
			delete(set, PrivDelete)
			continue
		}
		delete(set, p)
	}
}

// Check reports whether the user holds the privilege on the table, directly,
// via any of their groups, or as an admin.
func (m *Manager) Check(user, table string, priv Privilege) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	key := strings.ToLower(user)
	if m.admins[key] {
		return true
	}
	if set, ok := m.grants[grantKey(user, table)]; ok && set[priv] {
		return true
	}
	for group := range m.users[key] {
		if set, ok := m.grants[grantKey(group, table)]; ok && set[priv] {
			return true
		}
	}
	return false
}

// Require returns ErrPermissionDenied unless Check passes.
func (m *Manager) Require(user, table string, priv Privilege) error {
	if m.Check(user, table, priv) {
		return nil
	}
	return fmt.Errorf("%w: %s needs %s on %s", ErrPermissionDenied, user, priv, table)
}

// --- content-based approval ------------------------------------------------------

// StartContentApproval enables content-based approval on a table
// (START CONTENT APPROVAL, Figure 11).
func (m *Manager) StartContentApproval(table string, columns []string, approver string) error {
	if _, err := m.eng.Table(table); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.approvals[strings.ToLower(table)] = &ApprovalConfig{
		Table:    table,
		Columns:  append([]string(nil), columns...),
		Approver: approver,
	}
	return nil
}

// StopContentApproval disables content-based approval on a table
// (STOP CONTENT APPROVAL). When columns are given, only those columns stop
// being monitored; monitoring of the rest continues.
func (m *Manager) StopContentApproval(table string, columns []string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := strings.ToLower(table)
	cfg, ok := m.approvals[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoApproval, table)
	}
	if len(columns) == 0 || len(cfg.Columns) == 0 {
		delete(m.approvals, key)
		return nil
	}
	var kept []string
	for _, col := range cfg.Columns {
		remove := false
		for _, stop := range columns {
			if strings.EqualFold(col, stop) {
				remove = true
				break
			}
		}
		if !remove {
			kept = append(kept, col)
		}
	}
	if len(kept) == 0 {
		delete(m.approvals, key)
	} else {
		cfg.Columns = kept
	}
	return nil
}

// ApprovalConfigFor returns the approval configuration of a table, or nil.
func (m *Manager) ApprovalConfigFor(table string) *ApprovalConfig {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.approvals[strings.ToLower(table)]
}

// Monitored reports whether updates to the table (and, when given, the
// specific columns) are subject to content approval.
func (m *Manager) Monitored(table string, columns ...string) bool {
	cfg := m.ApprovalConfigFor(table)
	if cfg == nil {
		return false
	}
	if len(columns) == 0 {
		return true
	}
	for _, col := range columns {
		if cfg.MonitorsColumn(col) {
			return true
		}
	}
	return false
}

// RecordOperation logs an already-applied update operation for later
// approval. It returns the pending operation, with the automatically
// generated inverse statement.
func (m *Manager) RecordOperation(user string, kind OpKind, table string, rowID int64, oldRow, newRow value.Row) (*Operation, error) {
	tbl, err := m.eng.Table(table)
	if err != nil {
		return nil, err
	}
	if m.ApprovalConfigFor(table) == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoApproval, table)
	}
	op := &Operation{
		User:   user,
		Time:   m.clock(),
		Table:  tbl.Name(),
		Kind:   kind,
		RowID:  rowID,
		OldRow: cloneRow(oldRow),
		NewRow: cloneRow(newRow),
		Status: StatusPending,
	}
	op.Statement = renderStatement(tbl, op)
	op.Inverse = renderInverse(tbl, op)

	// Write-ahead order: the operation exists only once its record does.
	m.mu.Lock()
	defer m.mu.Unlock()
	op.ID = m.nextOp
	payload := fmt.Sprintf("op=%d user=%s kind=%s table=%s row=%d inverse=%q",
		op.ID, user, kind, table, rowID, op.Inverse)
	if _, err := m.log.Append(wal.KindApproval, table, []byte(payload)); err != nil {
		return nil, err
	}
	m.nextOp++
	m.ops[op.ID] = op
	m.order = append(m.order, op.ID)
	return op, nil
}

// DecodeApprovalPayload parses the operation ID from the "op=<id>" prefix of
// a KindApproval record and reports whether the record is a decision
// (APPROVE / DISAPPROVE) rather than a recorded operation.
func DecodeApprovalPayload(payload []byte) (opID int64, decision bool, err error) {
	head, rest, _ := strings.Cut(string(payload), " ")
	num, ok := strings.CutPrefix(head, "op=")
	if opID, err = strconv.ParseInt(num, 10, 64); !ok || err != nil {
		return 0, false, fmt.Errorf("authz: bad approval payload %q", payload)
	}
	return opID, !strings.HasPrefix(rest, "user="), nil
}

// RemoveOperation retracts a recorded operation, if present — the undo of a
// RecordOperation record.
func (m *Manager) RemoveOperation(id int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.ops, id)
	kept := m.order[:0]
	for _, other := range m.order {
		if other != id {
			kept = append(kept, other)
		}
	}
	m.order = kept
}

func cloneRow(r value.Row) value.Row {
	if r == nil {
		return nil
	}
	return r.Clone()
}

// Operations returns the logged operations for a table (all tables when
// table == ""), optionally filtered by status ("" = any), in log order.
func (m *Manager) Operations(table string, status Status) []*Operation {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []*Operation
	for _, id := range m.order {
		op := m.ops[id]
		if table != "" && !strings.EqualFold(op.Table, table) {
			continue
		}
		if status != "" && op.Status != status {
			continue
		}
		out = append(out, op)
	}
	return out
}

// Pending returns the pending operations for a table.
func (m *Manager) Pending(table string) []*Operation { return m.Operations(table, StatusPending) }

// Operation returns the logged operation with the given ID.
func (m *Manager) Operation(id int64) (*Operation, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	op, ok := m.ops[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrOpNotFound, id)
	}
	return op, nil
}

// canApprove reports whether the user may decide operations on the table.
func (m *Manager) canApprove(user, table string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.admins[strings.ToLower(user)] {
		return true
	}
	cfg := m.approvals[strings.ToLower(table)]
	if cfg == nil {
		return false
	}
	if strings.EqualFold(cfg.Approver, user) {
		return true
	}
	groups := m.users[strings.ToLower(user)]
	return groups[strings.ToLower(cfg.Approver)]
}

// Approve marks a pending operation approved.
func (m *Manager) Approve(opID int64, approver string) error {
	op, err := m.Operation(opID)
	if err != nil {
		return err
	}
	if !m.canApprove(approver, op.Table) {
		return fmt.Errorf("%w: %s on %s", ErrNotApprover, approver, op.Table)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.decideLocked(op, StatusApproved, approver, fmt.Sprintf("op=%d approved-by=%s", op.ID, approver))
}

// decideLocked logs a decision on a pending operation and then applies it.
// The caller holds m.mu.
func (m *Manager) decideLocked(op *Operation, status Status, approver, payload string) error {
	if op.Status != StatusPending {
		return fmt.Errorf("%w: operation %d is %s", ErrAlreadyDecided, op.ID, op.Status)
	}
	if _, err := m.log.Append(wal.KindApproval, op.Table, []byte(payload)); err != nil {
		return err
	}
	op.Status = status
	op.Approver = approver
	op.DecidedAt = m.clock()
	return nil
}

// ReopenOperation returns a decided operation, if present, to pending — the
// undo of an APPROVE or DISAPPROVE record. (A disapproval's inverse DML is
// undone by its own row records.)
func (m *Manager) ReopenOperation(id int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if op, ok := m.ops[id]; ok {
		op.Status = StatusPending
		op.Approver = ""
		op.DecidedAt = time.Time{}
	}
}

// Disapprove marks a pending operation disapproved and executes its inverse
// statement against the storage engine, removing the operation's effect. The
// affected cells are returned so the dependency manager can re-run its
// cascade over them.
func (m *Manager) Disapprove(opID int64, approver string) ([]int64, error) {
	op, err := m.Operation(opID)
	if err != nil {
		return nil, err
	}
	if !m.canApprove(approver, op.Table) {
		return nil, fmt.Errorf("%w: %s on %s", ErrNotApprover, approver, op.Table)
	}
	// The decision is logged and applied before the inverse runs, so a
	// rollback undoes the inverse's row changes first and then the decision.
	m.mu.Lock()
	err = m.decideLocked(op, StatusDisapproved, approver,
		fmt.Sprintf("op=%d disapproved-by=%s inverse-executed=%q", op.ID, approver, op.Inverse))
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	tbl, err := m.eng.Table(op.Table)
	if err != nil {
		return nil, err
	}
	var affected []int64
	switch op.Kind {
	case OpInsert:
		// Inverse of INSERT is DELETE.
		if err := tbl.Delete(op.RowID); err != nil && !errors.Is(err, storage.ErrRowNotFound) {
			return nil, err
		}
		affected = append(affected, op.RowID)
	case OpDelete:
		// Inverse of DELETE is INSERT of the old row (it gets a fresh RowID).
		newID, err := tbl.Insert(op.OldRow)
		if err != nil {
			return nil, err
		}
		affected = append(affected, newID)
	case OpUpdate:
		// Inverse of UPDATE restores the old values.
		if err := tbl.Update(op.RowID, op.OldRow); err != nil {
			return nil, err
		}
		affected = append(affected, op.RowID)
	}
	return affected, nil
}

// --- statement rendering ---------------------------------------------------------

func renderRowValues(tbl *storage.Table, row value.Row) string {
	if row == nil {
		return "()"
	}
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = renderValue(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func renderValue(v value.Value) string {
	switch v.Type() {
	case value.Text, value.Sequence, value.Timestamp:
		return "'" + strings.ReplaceAll(v.String(), "'", "''") + "'"
	default:
		return v.String()
	}
}

func renderSetClause(tbl *storage.Table, row value.Row) string {
	cols := tbl.Schema().Columns
	parts := make([]string, 0, len(cols))
	for i, col := range cols {
		if i < len(row) {
			parts = append(parts, fmt.Sprintf("%s = %s", col.Name, renderValue(row[i])))
		}
	}
	return strings.Join(parts, ", ")
}

func renderStatement(tbl *storage.Table, op *Operation) string {
	switch op.Kind {
	case OpInsert:
		return fmt.Sprintf("INSERT INTO %s VALUES %s", op.Table, renderRowValues(tbl, op.NewRow))
	case OpDelete:
		return fmt.Sprintf("DELETE FROM %s WHERE _rowid = %d", op.Table, op.RowID)
	case OpUpdate:
		return fmt.Sprintf("UPDATE %s SET %s WHERE _rowid = %d", op.Table, renderSetClause(tbl, op.NewRow), op.RowID)
	default:
		return ""
	}
}

// renderInverse generates the inverse statement the paper's log stores: a
// DELETE for an INSERT, an INSERT for a DELETE, and an UPDATE restoring the
// old values for an UPDATE.
func renderInverse(tbl *storage.Table, op *Operation) string {
	switch op.Kind {
	case OpInsert:
		return fmt.Sprintf("DELETE FROM %s WHERE _rowid = %d", op.Table, op.RowID)
	case OpDelete:
		return fmt.Sprintf("INSERT INTO %s VALUES %s", op.Table, renderRowValues(tbl, op.OldRow))
	case OpUpdate:
		return fmt.Sprintf("UPDATE %s SET %s WHERE _rowid = %d", op.Table, renderSetClause(tbl, op.OldRow), op.RowID)
	default:
		return ""
	}
}

// Summary returns per-status counts of the operation log for a table (all
// tables when table == ""), for the CLI and the experiments.
func (m *Manager) Summary(table string) map[Status]int {
	out := map[Status]int{}
	for _, op := range m.Operations(table, "") {
		out[op.Status]++
	}
	return out
}

// Approvers returns the distinct approver principals configured across tables.
func (m *Manager) Approvers() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	seen := map[string]bool{}
	var out []string
	for _, cfg := range m.approvals {
		k := strings.ToLower(cfg.Approver)
		if !seen[k] {
			seen[k] = true
			out = append(out, cfg.Approver)
		}
	}
	sort.Strings(out)
	return out
}
