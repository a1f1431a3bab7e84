//go:build !race

package core_test

const raceBuild = false
