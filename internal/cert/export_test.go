package cert

import "repro/internal/dqbf"

// CheckWork is Check with the exhaustive decider's work bound given. A
// negative bound lies below any work, so every certificate goes to the SAT
// call; the differential tests compare the two deciders through it.
func CheckWork(f *dqbf.Formula, c *Certificate, maxWork int64) error {
	return check(f, c, maxWork)
}
