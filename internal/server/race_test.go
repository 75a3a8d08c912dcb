//go:build race

package server

// raceEnabled is set in race-detector builds, where sync.Pool drops items
// at random and allocation counts stop being deterministic.
const raceEnabled = true
