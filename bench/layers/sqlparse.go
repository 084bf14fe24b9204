package layers

import "bdbms/internal/sqlparse"

// ParseUs returns the median time of sqlparse.Parse over the statement texts
// a workload uses, each parsed rounds times.
func ParseUs(stmts []string, rounds int) (float64, error) {
	var err error
	us := MedianUs(len(stmts)*rounds, func(i int) {
		if _, perr := sqlparse.Parse(stmts[i%len(stmts)]); perr != nil {
			err = perr
		}
	})
	return us, err
}
