package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"
)

func TestCLIFlagsRegister(t *testing.T) {
	var c Flags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c.Register(fs, "t", Log|Metrics|Profile|Heartbeat)
	err := fs.Parse([]string{
		"-metrics-addr", ":0", "-profile", "cpu", "-heartbeat", "5s",
		"-log-level", "debug", "-log-json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.MetricsAddr != ":0" || c.Profile != "cpu" || c.Heartbeat.Seconds() != 5 ||
		c.LogLevel != "debug" || !c.LogJSON {
		t.Errorf("parsed flags: %+v", c)
	}

	// A command that opts out of a flag must not register it.
	for _, args := range [][]string{{"-metrics-addr", ":0"}, {"-log-level", "warn"}, {"-engine", "basic"}} {
		var c2 Flags
		fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
		fs2.SetOutput(io.Discard)
		c2.Register(fs2, "t2", 0)
		if err := fs2.Parse(args); err == nil {
			t.Errorf("unselected %s was accepted", args[0])
		}
	}
}

// TestRefuse: a flag one mode of a command honours is refused in the
// others, naming the modes that do honour it; a flag no mode lists is
// never refused; an unknown mode honours none of the scoped flags.
func TestRefuse(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		modes []string
		want  string
	}{
		{[]string{"-json"}, []string{"-backend velodrome"}, ""},
		{[]string{"-json"}, []string{"-backend atomizer"}, "-json does not apply to -backend atomizer (only to -backend velodrome)"},
		{[]string{"-seed", "3"}, []string{"-backend eraser"}, ""},
		{[]string{"-stats"}, []string{"-backend nosuch"}, "-stats does not apply to -backend nosuch (only to -backend velodrome)"},
	} {
		var c Flags
		fs := flag.NewFlagSet("velodrome", flag.ContinueOnError)
		c.Register(fs, "velodrome", Engine)
		fs.Bool("json", false, "")
		fs.Bool("stats", false, "")
		fs.Int("seed", 1, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := Refuse(fs, "velodrome", tc.modes...)
		if got := ""; err != nil {
			got = err.Error()
			if got != tc.want {
				t.Errorf("%v under %v: %q, want %q", tc.args, tc.modes, got, tc.want)
			}
		} else if tc.want != "" {
			t.Errorf("%v under %v accepted, want %q", tc.args, tc.modes, tc.want)
		}
	}
}

func TestCLIFlagsLogger(t *testing.T) {
	var buf bytes.Buffer
	c := Flags{LogLevel: "warn"}
	lg, err := c.Logger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hidden")
	lg.Warn("shown", "k", "v")
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "shown") || !strings.Contains(out, "k=v") {
		t.Errorf("text logger output: %q", out)
	}

	buf.Reset()
	c = Flags{LogLevel: "info", LogJSON: true}
	lg, err = c.Logger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("json line", "n", 3)
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("JSON logger emitted %q: %v", buf.String(), err)
	}
	if obj["msg"] != "json line" || obj["n"] != float64(3) {
		t.Errorf("JSON log object: %v", obj)
	}

	if _, err := (&Flags{LogLevel: "loud"}).Logger(io.Discard); err == nil {
		t.Error("bad level accepted")
	}
}

func TestCLIFlagsStartProfileUnset(t *testing.T) {
	var c Flags
	c.Start(nil)() // no -metrics-addr, no -profile: nothing to start or stop
}
