package repro_test

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// retiredMetrics are metric names the docs may still cite although
// BENCHMARK.json no longer declares them, each mapped to the change that
// retired it.
var retiredMetrics = map[string]string{}

// metricToken matches a layer of the ledger, a dot and a lower-case
// name; metricTokens drops the matches that are part of a longer path or
// identifier, or a call.
var metricToken = regexp.MustCompile(`(?:trace|core|graph|pipeline|server|store|instr|ledger)\.[a-z0-9_]+`)

func metricTokens(s string) []string {
	var toks []string
	for _, loc := range metricToken.FindAllStringIndex(s, -1) {
		before, after := byte(' '), byte(' ')
		if loc[0] > 0 {
			before = s[loc[0]-1]
		}
		if loc[1] < len(s) {
			after = s[loc[1]]
		}
		if isIdent(before) || before == '.' || before == '/' || isIdent(after) || after == '(' {
			continue
		}
		toks = append(toks, s[loc[0]:loc[1]])
	}
	return toks
}

func isIdent(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// TestDocMetricsExist: every backticked layer.snake_name token in README,
// DESIGN and EXPERIMENTS is a per_layer metric of BENCHMARK.json, or is
// listed in retiredMetrics. A token counts only if its name contains an
// underscore, so Go identifiers such as `core.Check` do not.
func TestDocMetricsExist(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range bench.PerLayer {
		declared[m.Name] = true
	}
	if len(declared) == 0 {
		t.Fatal("BENCHMARK.json declares no per_layer metrics")
	}
	backticked := regexp.MustCompile("`([^`\n]+)`")
	seen := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range backticked.FindAllStringSubmatch(string(text), -1) {
			for _, tok := range metricTokens(span[1]) {
				if _, name, _ := strings.Cut(tok, "."); !strings.Contains(name, "_") {
					continue
				}
				seen++
				if !declared[tok] && retiredMetrics[tok] == "" {
					t.Errorf("%s cites `%s`, which is neither a per_layer metric of BENCHMARK.json nor retired", doc, tok)
				}
			}
		}
	}
	if seen == 0 {
		t.Error("no metric token found in the docs: the scan is broken")
	}
}
