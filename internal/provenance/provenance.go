// Package provenance implements bdbms's provenance management (Section 4 of
// the paper). Provenance is treated as a special kind of annotation: records
// follow a well-defined structure (serialised as XML), they are attached to
// data at any granularity through the annotation manager's region model, and
// only registered system agents (integration tools, loaders) may insert them —
// end users can only query and propagate them.
package provenance

import (
	"encoding/xml"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"bdbms/internal/annotation"
	"bdbms/internal/catalog"
	"bdbms/internal/undo"
	"bdbms/internal/wal"
)

// TableName is the reserved annotation table that holds provenance records
// for every user table.
const TableName = "Provenance"

// Action enumerates how a value reached the database (Figure 8).
type Action string

// Provenance actions.
const (
	// ActionCopy records a value copied from an external source database.
	ActionCopy Action = "copy"
	// ActionInsert records a locally inserted value.
	ActionInsert Action = "local-insert"
	// ActionUpdate records a value updated by a program.
	ActionUpdate Action = "update"
	// ActionOverwrite records a value overwritten by a newer source.
	ActionOverwrite Action = "overwrite"
	// ActionDerive records a value derived by an analysis procedure.
	ActionDerive Action = "derive"
)

// Record is one structured provenance entry.
type Record struct {
	XMLName xml.Name `xml:"Provenance"`
	// Source is the originating database or dataset (e.g. "RegulonDB").
	Source string `xml:"Source,omitempty"`
	// Program is the tool that produced or moved the value (e.g. "BLAST-2.2.15").
	Program string `xml:"Program,omitempty"`
	// Action describes how the value arrived.
	Action Action `xml:"Action"`
	// Agent is the system agent that inserted the provenance record.
	Agent string `xml:"Agent"`
	// Time is when the data operation happened.
	Time time.Time `xml:"Time"`
	// Detail carries free-form extra information.
	Detail string `xml:"Detail,omitempty"`
}

// Errors returned by the provenance manager.
var (
	// ErrUnauthorizedAgent is returned when an unregistered agent writes provenance.
	ErrUnauthorizedAgent = errors.New("provenance: agent not authorized")
	// ErrInvalidRecord is returned when a record fails schema validation.
	ErrInvalidRecord = errors.New("provenance: invalid record")
	// ErrNotFound is returned when no provenance covers the requested cell/time.
	ErrNotFound = errors.New("provenance: no provenance record found")
)

// Validate enforces the provenance schema: an action is required, and at
// least one of Source or Program must be set.
func (r Record) Validate() error {
	switch r.Action {
	case ActionCopy, ActionInsert, ActionUpdate, ActionOverwrite, ActionDerive:
	default:
		return fmt.Errorf("%w: unknown action %q", ErrInvalidRecord, r.Action)
	}
	if r.Source == "" && r.Program == "" {
		return fmt.Errorf("%w: record needs a Source or a Program", ErrInvalidRecord)
	}
	return nil
}

// MarshalXML is provided by encoding/xml; Encode renders the record as the
// annotation body stored in the annotation manager.
func (r Record) Encode() (string, error) {
	if err := r.Validate(); err != nil {
		return "", err
	}
	data, err := xml.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("provenance: encode: %w", err)
	}
	return string(data), nil
}

// Decode parses a provenance record from an annotation body.
func Decode(body string) (Record, error) {
	var r Record
	if err := xml.Unmarshal([]byte(body), &r); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrInvalidRecord, err)
	}
	return r, nil
}

// Entry is a provenance record together with the annotation that stores it.
type Entry struct {
	Record     Record
	Annotation *annotation.Annotation
}

// Manager is the provenance manager, layered on the annotation manager.
type Manager struct {
	mu     sync.RWMutex
	ann    *annotation.Manager
	agents map[string]bool
	logger annotation.Logger
	undo   *undo.Log
	clock  func() time.Time
}

// NewManager builds a provenance manager over the annotation manager.
func NewManager(ann *annotation.Manager) *Manager {
	return &Manager{
		ann:    ann,
		agents: make(map[string]bool),
		clock:  time.Now,
	}
}

// SetClock overrides the time source (tests).
func (m *Manager) SetClock(clock func() time.Time) { m.clock = clock }

// SetLogger wires the manager to a WAL so agent (de)registrations survive a
// reopen. Provenance records themselves are annotations and are made durable
// by the annotation manager.
func (m *Manager) SetLogger(l annotation.Logger) { m.logger = l }

// SetUndo installs (or, with nil, clears) the open transaction's undo log;
// agent (de)registrations then push their inverse. Only touched by the write
// frame holding the storage.ScopeWAL latch. Provenance attachments are
// annotations and are covered by the annotation manager's hook.
func (m *Manager) SetUndo(u *undo.Log) { m.undo = u }

// logAgent appends one agent-registry record when a logger is wired. The
// payload is "+name" for registration and "-name" for revocation.
func (m *Manager) logAgent(name string, register bool) error {
	if m.logger == nil {
		return nil
	}
	op := "-"
	if register {
		op = "+"
	}
	_, err := m.logger.Append(wal.KindProvAgent, "", []byte(op+strings.ToLower(name)))
	return err
}

// DecodeAgentPayload parses the WAL payload of a KindProvAgent record.
func DecodeAgentPayload(payload []byte) (name string, register bool, err error) {
	s := string(payload)
	if len(s) < 2 || (s[0] != '+' && s[0] != '-') {
		return "", false, fmt.Errorf("provenance: bad agent payload %q", s)
	}
	return s[1:], s[0] == '+', nil
}

// RegisterAgent authorizes a system agent (integration tool, loader) to
// insert provenance records. The registration is logged before it applies
// (write-ahead order); on a log failure nothing changes and the error is
// returned. Empty names are rejected — an agent must be nameable, and the
// WAL payload format requires at least one character.
func (m *Manager) RegisterAgent(name string) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("%w: empty agent name", ErrInvalidRecord)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.agents[strings.ToLower(name)] {
		return nil
	}
	if err := m.logAgent(name, true); err != nil {
		return err
	}
	m.agents[strings.ToLower(name)] = true
	if m.undo != nil {
		m.undo.Push(undo.Func(func() error { m.RecoverAgent(name, false); return nil }))
	}
	return nil
}

// UnregisterAgent revokes an agent's authorization.
func (m *Manager) UnregisterAgent(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.agents[strings.ToLower(name)] {
		return nil
	}
	if err := m.logAgent(name, false); err != nil {
		return err
	}
	delete(m.agents, strings.ToLower(name))
	if m.undo != nil {
		m.undo.Push(undo.Func(func() error { m.RecoverAgent(name, true); return nil }))
	}
	return nil
}

// Agents returns the registered agent names, sorted — the state a checkpoint
// persists.
func (m *Manager) Agents() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.agents))
	for name := range m.agents {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RecoverAgent replays a logged agent-registry transition.
func (m *Manager) RecoverAgent(name string, register bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if register {
		m.agents[strings.ToLower(name)] = true
	} else {
		delete(m.agents, strings.ToLower(name))
	}
}

// IsAgent reports whether name is a registered agent.
func (m *Manager) IsAgent(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.agents[strings.ToLower(name)]
}

// EnsureTable creates the reserved provenance annotation table for the user
// table when it does not yet exist.
func (m *Manager) EnsureTable(userTable string) error {
	err := m.ann.CreateAnnotationTable(userTable, TableName, "provenance", true)
	if errors.Is(err, catalog.ErrAnnotationTableExists) {
		return nil
	}
	return err
}

// Attach records provenance for the given regions of a user table. Only
// registered agents may call it; the record's Agent and Time fields are
// filled in by the manager.
func (m *Manager) Attach(agent, userTable string, rec Record, regions []annotation.Region) (*Entry, error) {
	if !m.IsAgent(agent) {
		return nil, fmt.Errorf("%w: %q", ErrUnauthorizedAgent, agent)
	}
	rec.Agent = agent
	if rec.Time.IsZero() {
		rec.Time = m.clock().UTC()
	}
	body, err := rec.Encode()
	if err != nil {
		return nil, err
	}
	if err := m.EnsureTable(userTable); err != nil {
		return nil, err
	}
	a, err := m.ann.Add(userTable, TableName, body, "system:"+agent, regions)
	if err != nil {
		return nil, err
	}
	return &Entry{Record: rec, Annotation: a}, nil
}

// ForCell returns every provenance entry covering the cell, oldest first.
func (m *Manager) ForCell(userTable string, rowID int64, col int) []Entry {
	anns := m.ann.ForCell(userTable, rowID, col, annotation.Filter{AnnTables: []string{TableName}})
	return decodeAll(anns)
}

// ForRow returns every provenance entry covering any cell of the row.
func (m *Manager) ForRow(userTable string, rowID int64) []Entry {
	anns := m.ann.ForRow(userTable, rowID, annotation.Filter{AnnTables: []string{TableName}})
	return decodeAll(anns)
}

func decodeAll(anns []*annotation.Annotation) []Entry {
	var out []Entry
	for _, a := range anns {
		rec, err := Decode(a.Body)
		if err != nil {
			continue
		}
		out = append(out, Entry{Record: rec, Annotation: a})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Record.Time.Before(out[j].Record.Time) })
	return out
}

// SourceAt answers Figure 8's question "what is the source of this value at
// time T?": the most recent provenance entry covering the cell whose
// operation time is not after at.
func (m *Manager) SourceAt(userTable string, rowID int64, col int, at time.Time) (Entry, error) {
	entries := m.ForCell(userTable, rowID, col)
	var best *Entry
	for i := range entries {
		if entries[i].Record.Time.After(at) {
			continue
		}
		if best == nil || entries[i].Record.Time.After(best.Record.Time) {
			best = &entries[i]
		}
	}
	if best == nil {
		return Entry{}, fmt.Errorf("%w: %s row %d col %d at %s", ErrNotFound, userTable, rowID, col, at)
	}
	return *best, nil
}

// Sources returns the distinct Source names contributing to the cell over its
// whole history ("where do these values come from?" in Figure 8).
func (m *Manager) Sources(userTable string, rowID int64, col int) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range m.ForCell(userTable, rowID, col) {
		src := e.Record.Source
		if src == "" {
			src = e.Record.Program
		}
		if src == "" || seen[src] {
			continue
		}
		seen[src] = true
		out = append(out, src)
	}
	sort.Strings(out)
	return out
}
