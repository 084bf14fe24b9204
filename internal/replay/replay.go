// Package replay is the one place a write-ahead-log record turns back into
// state. Every mutation in bdbms is validated, appended to the WAL as one
// record and then applied through its kind's applier; Apply maps each data
// record kind to that applier (redo) and to the applier that reverts it
// (undo). Both directions set state absolutely — a row to an image, a bit
// to a value, a table to present or absent — and tolerate finding it
// already so, which makes replaying a record twice harmless.
//
// Two callers share it. Recovery (internal/core) redoes the log tail and
// undoes what its frames rolled back. Live rollback (internal/exec) undoes
// the open transaction frame: ROLLBACK, ROLLBACK TO SAVEPOINT, a failed
// statement, a context-cancel auto-rollback and DB.Close of a leaked
// transaction all read the frame back from the log (wal.Log.FrameTail) and
// call Undo on it — the frame is the transaction's undo log.
package replay

import (
	"encoding/json"
	"errors"
	"fmt"

	"bdbms/internal/annotation"
	"bdbms/internal/authz"
	"bdbms/internal/catalog"
	"bdbms/internal/dependency"
	"bdbms/internal/provenance"
	"bdbms/internal/storage"
	"bdbms/internal/wal"
)

// Target is the set of subsystems records apply to.
type Target struct {
	Eng  *storage.Engine
	Ann  *annotation.Manager
	Dep  *dependency.Manager
	Prov *provenance.Manager
	Auth *authz.Manager
}

// Undo reverts recs newest first. Every record is undone even when one
// fails; the errors are joined.
func (t Target) Undo(recs []wal.Record) error {
	var errs []error
	for i := len(recs) - 1; i >= 0; i-- {
		if err := t.Apply(recs[i], true); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Apply redoes one data record or, with undo set, reverts it. A record whose
// table does not exist is a no-op in either direction: its table was created
// and dropped again, and its effect is moot.
func (t Target) Apply(rec wal.Record, undo bool) error {
	err := t.apply(rec, undo)
	if err == nil || errors.Is(err, catalog.ErrTableNotFound) {
		return nil
	}
	dir := "redo"
	if undo {
		dir = "undo"
	}
	return fmt.Errorf("replay: %s LSN %d (%s %s): %w", dir, rec.LSN, rec.Kind, rec.Table, err)
}

func (t Target) apply(rec wal.Record, undo bool) error {
	switch rec.Kind {
	case wal.KindInsert, wal.KindUpdate, wal.KindDelete:
		tbl, err := t.Eng.Table(rec.Table)
		if err != nil {
			return err
		}
		c, err := storage.DecodeChange(rec.Kind, rec.Payload)
		if err != nil {
			return err
		}
		if undo {
			return tbl.Apply(c.RowID, c.Before)
		}
		return tbl.Apply(c.RowID, c.After)
	case wal.KindCreateTable:
		if undo {
			return t.Eng.ApplyDropTable(rec.Table, rec.LSN)
		}
		var schema catalog.Schema
		if err := json.Unmarshal(rec.Payload, &schema); err != nil {
			return err
		}
		_, err := t.Eng.ApplyCreateTable(&schema)
		return err
	case wal.KindDropTable:
		if undo {
			return t.Eng.UndoDropTable(rec.LSN)
		}
		return t.Eng.ApplyDropTable(rec.Table, rec.LSN)
	case wal.KindCreateIndex:
		tbl, err := t.Eng.Table(rec.Table)
		if err != nil {
			return err
		}
		if undo {
			tbl.DropIndex(string(rec.Payload))
			return nil
		}
		return tbl.ApplyCreateIndex(string(rec.Payload))
	case wal.KindAnnotation:
		a, err := annotation.DecodeAnnotationPayload(rec.Payload)
		if err != nil {
			return err
		}
		if undo {
			t.Ann.Remove(a.ID)
		} else {
			t.Ann.ApplyAdd(a)
		}
		return nil
	case wal.KindAnnArchive:
		r, err := annotation.DecodeArchivePayload(rec.Payload)
		if err != nil {
			return err
		}
		if undo {
			t.Ann.UndoArchive(r)
		} else {
			t.Ann.ApplyArchive(r)
		}
		return nil
	case wal.KindCreateAnnTable:
		r, err := annotation.DecodeAnnTablePayload(rec.Payload)
		if err != nil {
			return err
		}
		if undo {
			return t.Ann.ApplyDropAnnotationTable(r.UserTable, r.Name)
		}
		return t.Ann.ApplyCreateAnnotationTable(&r.AnnotationTable)
	case wal.KindDropAnnTable:
		r, err := annotation.DecodeAnnTablePayload(rec.Payload)
		if err != nil {
			return err
		}
		if !undo {
			return t.Ann.ApplyDropAnnotationTable(r.UserTable, r.Name)
		}
		if err := t.Ann.ApplyCreateAnnotationTable(&r.AnnotationTable); err != nil {
			return err
		}
		for _, a := range r.Annotations {
			t.Ann.ApplyAdd(a)
		}
		return nil
	case wal.KindDepMark:
		table, rowID, col, set, err := dependency.DecodeMarkPayload(rec.Payload)
		if err != nil {
			return err
		}
		t.Dep.ApplyMark(table, rowID, col, set != undo)
		return nil
	case wal.KindProvAgent:
		name, register, err := provenance.DecodeAgentPayload(rec.Payload)
		if err != nil {
			return err
		}
		t.Prov.ApplyAgent(name, register != undo)
		return nil
	case wal.KindApproval:
		// Approval workflow state is session-scoped (see the package docs of
		// bdbms): recovery starts without it, so there is nothing to redo.
		if !undo {
			return nil
		}
		id, decision, err := authz.DecodeApprovalPayload(rec.Payload)
		if err != nil {
			return err
		}
		if decision {
			t.Auth.ReopenOperation(id)
		} else {
			t.Auth.RemoveOperation(id)
		}
		return nil
	case wal.KindCheckpoint:
		return nil
	default:
		return fmt.Errorf("no applier for record kind %s", rec.Kind)
	}
}
