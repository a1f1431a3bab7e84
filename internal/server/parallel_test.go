package server

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/rr"
	"repro/internal/trace"
)

// TestParallelSessionsMatchSerial runs the same sessions against a
// serial daemon and one configured with pipeline workers: status,
// verdict, op counts, warnings and the filtered-count metric must all
// match, for clean, buggy and empty streams across engines.
func TestParallelSessionsMatchSerial(t *testing.T) {
	rep := rr.Run(rr.Options{Seed: 1, Record: true}, func(th *rr.Thread) {
		bench.ByName("elevator").Body(th, bench.Params{Scale: 1})
	})
	var elevator bytes.Buffer
	if err := trace.MarshalBinary(&elevator, rep.Trace); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		hdr  trace.SessionHeader
		body []byte
	}{
		{"clean", trace.SessionHeader{}, encode(t, cleanTrace(), true)},
		{"buggy", trace.SessionHeader{}, encode(t, buggyTrace(), true)},
		{"basic-refused", trace.SessionHeader{Engine: "basic"}, encode(t, buggyTrace(), false)},
		{"buggy-aero", trace.SessionHeader{Engine: "aerodrome"}, encode(t, buggyTrace(), true)},
		{"elevator", trace.SessionHeader{}, elevator.Bytes()},
		{"empty", trace.SessionHeader{}, nil},
		{"forensics", trace.SessionHeader{Forensics: true}, encode(t, buggyTrace(), true)},
	}

	_, serialAddr, stopSerial := startServer(t, Config{Metrics: obs.NewRegistry()})
	defer stopSerial()
	_, parAddr, stopPar := startServer(t, Config{Metrics: obs.NewRegistry(), Parallel: 4})
	defer stopPar()

	for _, tc := range cases {
		want, err := CheckReader(serialAddr, tc.hdr, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: serial: %v", tc.name, err)
		}
		got, err := CheckReader(parAddr, tc.hdr, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: parallel: %v", tc.name, err)
		}
		if got.Status != want.Status || got.Code != want.Code ||
			got.Serializable != want.Serializable || got.Ops != want.Ops {
			t.Errorf("%s: parallel verdict (%s/%s ser=%v ops=%d) != serial (%s/%s ser=%v ops=%d)",
				tc.name, got.Status, got.Code, got.Serializable, got.Ops,
				want.Status, want.Code, want.Serializable, want.Ops)
		}
		if len(got.Warnings) != len(want.Warnings) {
			t.Errorf("%s: %d warnings, serial %d", tc.name, len(got.Warnings), len(want.Warnings))
			continue
		}
		for i := range want.Warnings {
			if got.Warnings[i] != want.Warnings[i] {
				t.Errorf("%s: warning %d:\n%s\nserial:\n%s", tc.name, i, got.Warnings[i], want.Warnings[i])
			}
		}
		if gf, wf := got.Metrics["core_events_filtered_total"], want.Metrics["core_events_filtered_total"]; gf != wf {
			t.Errorf("%s: filtered=%d, serial=%d", tc.name, gf, wf)
		}
		if len(got.Reports) != len(want.Reports) {
			t.Errorf("%s: %d forensic reports, serial %d", tc.name, len(got.Reports), len(want.Reports))
		}
	}
}
