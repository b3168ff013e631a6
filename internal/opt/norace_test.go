//go:build !race

package opt

const raceEnabled = false
