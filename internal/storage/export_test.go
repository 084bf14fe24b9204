package storage

// VersionCount returns the length of t's MVCC version list, for the
// external tests of this package.
func VersionCount(t *Table) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.versions)
}
