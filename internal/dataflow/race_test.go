//go:build race

package dataflow_test

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation performs bookkeeping allocations that would make
// testing.AllocsPerRun report false positives.
const raceEnabled = true
