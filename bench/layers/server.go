package layers

import (
	"bytes"

	"bdbms"
	"bdbms/internal/server/wire"
)

// WireRow measures the server's row framing on result rows of the embedded
// engine: Row.Encode + WriteFrame, then ReadFrame + DecodeRowMsg, and the
// framed size. rows are the annotated rows a point read returns.
func WireRow(rows []bdbms.Row) (encodeUs, decodeUs, bytesPerRow float64, err error) {
	msgs := make([]wire.Row, len(rows))
	for i, r := range rows {
		msgs[i] = wire.Row{Values: r.Values, Anns: make([][]wire.Ann, len(r.Anns))}
		for c, anns := range r.Anns {
			for _, a := range anns {
				msgs[i].Anns[c] = append(msgs[i].Anns[c], wire.Ann{ID: a.ID, AnnTable: a.AnnTable, Author: a.Author, Body: a.Body, Archived: a.Archived})
			}
		}
	}
	frames := make([]bytes.Buffer, len(rows))
	encodeUs = MedianUs(len(msgs), func(i int) {
		if werr := wire.WriteFrame(&frames[i], wire.TypeRow, msgs[i].Encode()); werr != nil {
			err = werr
		}
	})
	var total int
	for i := range frames {
		total += frames[i].Len()
	}
	decodeUs = MedianUs(len(msgs), func(i int) {
		_, payload, rerr := wire.ReadFrame(&frames[i], wire.MaxFrame)
		if rerr == nil {
			_, rerr = wire.DecodeRowMsg(payload)
		}
		if rerr != nil {
			err = rerr
		}
	})
	return encodeUs, decodeUs, float64(total) / float64(len(rows)), err
}
