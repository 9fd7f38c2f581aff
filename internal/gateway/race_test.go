//go:build race

package gateway_test

// raceEnabled: the allocation budgets are skipped under the race
// detector, where sync.Pool drops a share of what is Put.
const raceEnabled = true
