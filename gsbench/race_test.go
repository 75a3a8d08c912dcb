//go:build race

package main

// raceDetector is set in race-detector builds, which run the serving path
// several times slower.
const raceDetector = true
