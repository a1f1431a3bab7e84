package repro_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/serial"
	"repro/internal/trace"
)

// corpusVerdicts records the expected verdict and blamed method for each
// trace file under testdata/.
var corpusVerdicts = map[string]struct {
	serializable bool
	blamed       string
}{
	"rmw_violation.txt": {false, "increment"},
	"flag_handoff.txt":  {true, ""},
	"intro_cycle.txt":   {false, "A"},
	"setadd.txt":        {false, "Set.add"},
	"forkjoin.txt":      {true, ""},
}

// TestTraceCorpus checks every testdata trace end to end: parse, validate,
// run the online checker, cross-check the offline oracle, and confirm the
// expected blame.
func TestTraceCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	seen := 0
	for _, file := range files {
		name := filepath.Base(file)
		want, ok := corpusVerdicts[name]
		if !ok {
			t.Errorf("%s: no expected verdict registered", name)
			continue
		}
		seen++
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.ReadAuto(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := trace.Validate(tr); err != nil {
			t.Fatalf("%s: ill-formed: %v", name, err)
		}
		res := core.CheckTrace(tr, core.Options{})
		if res.Serializable != want.serializable {
			t.Errorf("%s: serializable = %v, want %v", name, res.Serializable, want.serializable)
			continue
		}
		offline, _ := serial.Check(tr)
		if offline != res.Serializable {
			t.Errorf("%s: offline oracle disagrees", name)
		}
		if !want.serializable {
			if got := string(res.Warnings[0].Method()); got != want.blamed {
				t.Errorf("%s: blamed %q, want %q", name, got, want.blamed)
			}
		}
	}
	if seen != len(corpusVerdicts) {
		t.Errorf("corpus has %d files, verdicts registered for %d", seen, len(corpusVerdicts))
	}
}

// TestCorpusRoundTrips re-marshals each corpus trace and re-parses it.
func TestCorpusRoundTrips(t *testing.T) {
	files, _ := filepath.Glob("testdata/*.txt")
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.ReadAuto(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		tmp, err := os.CreateTemp(t.TempDir(), "trace")
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Marshal(tmp, tr); err != nil {
			t.Fatal(err)
		}
		if _, err := tmp.Seek(0, 0); err != nil {
			t.Fatal(err)
		}
		tr2, err := trace.ReadAuto(tmp)
		tmp.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tr.String() != tr2.String() {
			t.Errorf("%s: round trip changed the trace", file)
		}
	}
}
