//go:build race

package trace

// raceBuild: the race detector's runtime allocates differently, so
// allocation budgets are asserted only without it.
const raceBuild = true
