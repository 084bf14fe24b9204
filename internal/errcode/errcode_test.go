package errcode

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bdbms/internal/authz"
	"bdbms/internal/catalog"
	"bdbms/internal/exec"
	"bdbms/internal/pager"
	"bdbms/internal/sqlparse"
	"bdbms/internal/storage"
)

func TestFromErrorMapsEverySentinel(t *testing.T) {
	for _, s := range sentinels {
		if got := FromError(s.err); got != s.code {
			t.Errorf("FromError(%v) = %q, want %q", s.err, got, s.code)
		}
		// Wrapped sentinels classify identically: codes must survive the
		// fmt.Errorf("%w") chains the executor builds.
		wrapped := fmt.Errorf("outer context: %w", s.err)
		if got := FromError(wrapped); got != s.code {
			t.Errorf("FromError(wrapped %v) = %q, want %q", s.err, got, s.code)
		}
	}
}

func TestFromErrorFallbacks(t *testing.T) {
	if got := FromError(nil); got != OK {
		t.Errorf("FromError(nil) = %q, want OK", got)
	}
	if got := FromError(errors.New("novel failure")); got != Internal {
		t.Errorf("FromError(unknown) = %q, want Internal", got)
	}
}

func TestSpecificMappings(t *testing.T) {
	cases := []struct {
		err  error
		code Code
	}{
		{sqlparse.ErrSyntax, Syntax},
		{exec.ErrBadArgs, BadArgs},
		{exec.ErrTxDone, TxDone},
		{pager.ErrPageCorrupt, PageCorrupt},
		{authz.ErrPermissionDenied, PermissionDenied},
		{authz.ErrAuthFailed, AuthFailed},
		{catalog.ErrTableNotFound, TableNotFound},
		{storage.ErrRowNotFound, RowNotFound},
		{context.Canceled, Canceled},
	}
	for _, c := range cases {
		if got := FromError(c.err); got != c.code {
			t.Errorf("FromError(%v) = %q, want %q", c.err, got, c.code)
		}
	}
}

func TestCategory(t *testing.T) {
	cases := []struct {
		code Code
		cat  string
	}{
		{TxDone, "tx"},
		{Syntax, "parse"},
		{PageCorrupt, "storage"},
		{NetShutdown, "net"},
		{Internal, "internal"},
		{OK, ""},
	}
	for _, c := range cases {
		if got := c.code.Category(); got != c.cat {
			t.Errorf("%q.Category() = %q, want %q", c.code, got, c.cat)
		}
	}
}

func TestCodesAreUniqueAndStable(t *testing.T) {
	// Two different sentinels may share a code only when they mean the same
	// failure class (page-corrupt, sync-poisoned, closed); otherwise a
	// duplicate constant value is a bug.
	byCode := map[Code][]error{}
	for _, s := range sentinels {
		byCode[s.code] = append(byCode[s.code], s.err)
	}
	allowedShared := map[Code]bool{PageCorrupt: true, SyncPoisoned: true, Closed: true}
	for code, errs := range byCode {
		if len(errs) > 1 && !allowedShared[code] {
			t.Errorf("code %q maps from %d sentinels: %v", code, len(errs), errs)
		}
	}
}

func TestValid(t *testing.T) {
	for _, c := range []Code{OK, Internal, TxDone, NetShutdown, NetConnLimit} {
		if !Valid(c) {
			t.Errorf("Valid(%q) = false, want true", c)
		}
	}
	if Valid(Code("made.up")) {
		t.Error(`Valid("made.up") = true, want false`)
	}
}

// unmapped lists the exported Err* sentinels under internal/ that FromError
// leaves at Internal on purpose, keyed "<dir under internal>.<name>", each
// with the reason no wire client can receive it.
var unmapped = map[string]string{
	"wal.ErrInjectedFailure":          "fault injection: raised only by a log a test armed",
	"wal.ErrInjectedSyncFailure":      "fault injection: raised only by a log a test armed",
	"pager.ErrInjectedEIO":            "fault injection: raised only by a FaultPager, which only tests install",
	"pager.ErrInjectedENOSPC":         "fault injection: raised only by a FaultPager, which only tests install",
	"pager.ErrInjectedSyncFailure":    "fault injection: raised only by a FaultPager, which only tests install",
	"pager.ErrPageNotFound":           "the heap reads only pages it allocated or attached, and open reads every attached page",
	"server/wire.ErrFrameTooLarge":    "the server answers it with net.frame_too_large",
	"server/wire.ErrMalformed":        "the server answers it with net.protocol",
	"btree.ErrNotFound":               "btree internals: storage ignores a Delete of an absent entry",
	"rle.ErrOutOfRange":               "rle internals: the engine only encodes and decodes whole sequences",
	"rle.ErrBadFormat":                "rle internals: the engine only encodes and decodes whole sequences",
	"spgist.ErrKNNUnsupported":        "spgist is reachable from Go only, not from SQL",
	"rtree.ErrInvalidRect":            "rtree internals: annotation regions are never inverted and the store ignores the error",
	"heap.ErrNotFound":                "storage resolves RowIDs through its row index and reports storage.ErrRowNotFound",
	"heap.ErrRunExhausted":            "spill runs: exec wraps every spill-surface error in exec.ErrSpill",
	"buffer.ErrNotPinned":             "an unbalanced Unpin is an engine bug, not a statement failure",
	"storage.ErrNoIndex":              "every caller of the index lookups checks HasIndex first",
	"provenance.ErrUnauthorizedAgent": "provenance is written and read through DB.Provenance, which no SQL statement reaches",
	"provenance.ErrInvalidRecord":     "provenance is written and read through DB.Provenance, which no SQL statement reaches",
	"provenance.ErrNotFound":          "provenance is written and read through DB.Provenance, which no SQL statement reaches",
	"dependency.ErrInvalidRule":       "rules are added through DB.Dependencies, which no SQL statement reaches",
	"dependency.ErrConflict":          "rules are added through DB.Dependencies, which no SQL statement reaches",
}

// TestEverySentinelIsMappedOrUnmappedOnPurpose parses the non-test sources of
// internal/ and fails on an exported Err* sentinel that neither the
// sentinels table maps to a code nor unmapped excuses: a new sentinel must
// not reach wire clients as "internal" by default. A sentinel is matched to
// the table by its message, so each must be errors.New of a literal.
func TestEverySentinelIsMappedOrUnmappedOnPurpose(t *testing.T) {
	mapped := map[string]bool{}
	for _, s := range sentinels {
		mapped[s.err.Error()] = true
	}
	declared := declaredSentinels(t)
	for name, msg := range declared {
		reason, excused := unmapped[name]
		switch {
		case mapped[msg] && excused:
			t.Errorf("%s is mapped and also listed as unmapped (%q)", name, reason)
		case !mapped[msg] && !excused:
			t.Errorf("%s maps to no code: add it to sentinels, or to unmapped with the reason no wire client sees it", name)
		}
	}
	for name := range unmapped {
		if _, ok := declared[name]; !ok {
			t.Errorf("unmapped lists %s, which is not declared under internal/", name)
		}
	}
}

// declaredSentinels returns the message of every package-level Err* variable
// in the non-test sources under internal/, keyed "<dir>.<name>"; the message
// is empty unless the variable is errors.New of a string literal.
func declaredSentinels(t *testing.T) map[string]string {
	t.Helper()
	declared := map[string]string{}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel("..", filepath.Dir(path))
		for _, decl := range f.Decls {
			if gen, ok := decl.(*ast.GenDecl); ok && gen.Tok == token.VAR {
				for _, spec := range gen.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if strings.HasPrefix(name.Name, "Err") {
							declared[filepath.ToSlash(dir)+"."+name.Name] = errorsNewMessage(vs, i)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

// errorsNewMessage returns the string literal of the one-argument call that
// initializes vs.Names[i] — s in `ErrX = errors.New(s)` — or "".
func errorsNewMessage(vs *ast.ValueSpec, i int) string {
	if i < len(vs.Values) {
		if call, ok := vs.Values[i].(*ast.CallExpr); ok && len(call.Args) == 1 {
			if lit, ok := call.Args[0].(*ast.BasicLit); ok {
				msg, _ := strconv.Unquote(lit.Value)
				return msg
			}
		}
	}
	return ""
}
