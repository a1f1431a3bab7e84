//go:build race

package server

// raceBuild: the race detector's instrumentation changes what escapes to
// the heap, and sync.Pool drops items at random under it, so allocation
// budgets are asserted only without it.
const raceBuild = true
