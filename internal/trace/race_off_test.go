//go:build !race

package trace

const raceBuild = false
