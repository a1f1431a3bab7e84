//go:build race

package core_test

// raceBuild: the race detector's instrumentation changes what escapes to
// the heap, so allocation counts are asserted only without it.
const raceBuild = true
