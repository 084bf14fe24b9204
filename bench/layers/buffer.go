package layers

import "bdbms"

// IO is a reading of the buffer pool's and the pager's public counters.
type IO struct {
	Hits, Misses, Evictions, WriteBacks float64
	Reads, Writes                       float64
}

// ReadIO reads Engine.BufferStats and Engine.PagerStats.
func ReadIO(db *bdbms.DB) IO {
	b, p := db.Storage().BufferStats(), db.Storage().PagerStats()
	return IO{Hits: float64(b.Hits), Misses: float64(b.Misses), Evictions: float64(b.Evictions),
		WriteBacks: float64(b.WriteBacks), Reads: float64(p.Reads), Writes: float64(p.Writes)}
}

// Sub returns the counters' growth since an earlier reading.
func (a IO) Sub(b IO) IO {
	return IO{a.Hits - b.Hits, a.Misses - b.Misses, a.Evictions - b.Evictions, a.WriteBacks - b.WriteBacks, a.Reads - b.Reads, a.Writes - b.Writes}
}
