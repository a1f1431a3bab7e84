package repro_test

import (
	"os"
	"regexp"
	"runtime"
	"testing"
)

// TestToolchainMatchesGoMod: CI installs the release go.mod's go line
// names, and the tests here compile against whatever toolchain runs
// them. Two minor releases apart, a test that builds here can fail to
// build there: testing.B.Loop and package weak are Go 1.24 API, and a
// go 1.23 line once kept CI from compiling three test packages.
func TestToolchainMatchesGoMod(t *testing.T) {
	data, _ := os.ReadFile("go.mod")
	mod := regexp.MustCompile(`(?m)^go 1\.(\d+)`).FindSubmatch(data)
	run := regexp.MustCompile(`^go1\.(\d+)`).FindStringSubmatch(runtime.Version())
	if run == nil {
		t.Skipf("toolchain %s is not a release", runtime.Version())
	}
	if mod == nil || string(mod[1]) != run[1] {
		t.Errorf("go.mod says go 1.%s, the toolchain is %s: raise or lower one of them", mod[1], runtime.Version())
	}
}
