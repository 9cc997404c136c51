//go:build race

package problem_test

func init() { raceEnabled = true }
