package layers

import (
	"bdbms"
	"bdbms/internal/wal"
)

// WALAppendSync measures the log alone, on a scratch file: Log.Append of a
// payload of the given size, and Log.Sync after 4 KiB of appends. The fsync
// is the sandbox's, not a device's.
func WALAppendSync(path string, payloadBytes int) (appendUs, fsyncUs float64, err error) {
	log, err := wal.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer log.Close()
	payload := make([]byte, payloadBytes)
	appendUs = MedianUs(2000, func(int) {
		if _, aerr := log.Append(wal.KindInsert, "Gene", payload); aerr != nil {
			err = aerr
		}
	})
	chunk := make([]byte, 4096)
	appendChunk := func(int) {
		if _, aerr := log.Append(wal.KindInsert, "Gene", chunk); aerr != nil {
			err = aerr
		}
	}
	unsynced := MedianUs(15, appendChunk)
	fsyncUs = MedianUs(15, func(i int) {
		appendChunk(i)
		if serr := log.Sync(); serr != nil {
			err = serr
		}
	}) - unsynced
	return appendUs, fsyncUs, err
}

// WALRecords returns the number of records in the database's log.
func WALRecords(db *bdbms.DB) int { return db.Storage().WAL().Len() }

// SetSyncOnCommit switches the log's commit fsync, so a workload can replay
// its transactions without the wait.
func SetSyncOnCommit(db *bdbms.DB, on bool) { db.Storage().WAL().SetSyncOnCommit(on) }
