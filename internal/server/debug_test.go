package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/forensic"
	"repro/internal/obs"
	"repro/internal/trace"
)

// getDebugState scrapes the JSON rendering of /debug/velo.
func getDebugState(t *testing.T, url string) DebugState {
	t.Helper()
	resp, err := http.Get(url + "?format=json")
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var state DebugState
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatalf("decoding debug state: %v", err)
	}
	return state
}

// TestDebugVeloLiveSessions holds two sessions open mid-stream — one
// with a warning already recorded, one with forensics requested — and
// asserts the /debug/velo listing tracks them live: ids, engines, op
// counts, warning summaries, and the forensics marker.
func TestDebugVeloLiveSessions(t *testing.T) { t.Run(sessionSubtest, testDebugVeloLiveSessions) }

func testDebugVeloLiveSessions(t *testing.T) {
	s, addr, stop := startServer(t, Config{MaxSessions: 8, Metrics: obs.NewRegistry()})
	web := httptest.NewServer(s.DebugHandler())
	defer web.Close()

	// Session one: a complete buggy cycle, held open so it stays active.
	warm, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	warm.Write(trace.SessionHeader{Engine: "optimized", Name: "warm"}.Encode())
	warm.Write([]byte("begin.inc(1)\nrd(1,x0)\nwr(2,x0)\nwr(1,x0)\n"))

	// Session two: the flight recorder on.
	cold, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	cold.Write(trace.SessionHeader{Engine: "optimized", Forensics: true, Name: "cold"}.Encode())
	cold.Write([]byte("rd(1,x0)\nwr(1,x0)\n"))

	// The sessions are admitted and stepped asynchronously; poll until
	// the listing reflects both.
	var state DebugState
	deadline := time.Now().Add(10 * time.Second)
	for {
		state = getDebugState(t, web.URL)
		warmed := false
		forensicsOn := false
		for _, info := range state.Sessions {
			if !info.Forensics && len(info.Warnings) >= 1 && info.Ops >= 4 {
				warmed = true
			}
			if info.Forensics && info.Ops >= 2 {
				forensicsOn = true
			}
		}
		if state.Active == 2 && warmed && forensicsOn {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listing never converged: %+v", state)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if state.MaxSessions != 8 || state.Draining {
		t.Errorf("state header = %+v, want max 8, not draining", state)
	}
	for _, info := range state.Sessions {
		if !strings.HasPrefix(info.Session, "s") || info.Remote == "" {
			t.Errorf("session row missing identity: %+v", info)
		}
		if info.Forensics {
			// rd, wr by the only thread, outside any transaction: both
			// redundant, the graph never touched.
			if info.Filtered != 2 || info.GraphNodes != 0 || info.GraphEdges != 0 {
				t.Errorf("cold row filtered=%d graphNodes=%d graphEdges=%d, want 2, 0, 0", info.Filtered, info.GraphNodes, info.GraphEdges)
			}
		} else {
			// The engine's counters as of the last batch boundary: the open
			// transaction and the writer it conflicts with, one edge kept.
			if info.Filtered != 0 || info.GraphNodes != 2 || info.GraphEdges != 1 {
				t.Errorf("warm row filtered=%d graphNodes=%d graphEdges=%d, want 0, 2, 1", info.Filtered, info.GraphNodes, info.GraphEdges)
			}
			last := info.Warnings[len(info.Warnings)-1]
			if !strings.Contains(last, "inc") {
				t.Errorf("last warning %q does not name the blamed block", last)
			}
			if strings.Contains(last, "\n") {
				t.Errorf("last warning must be one line: %q", last)
			}
		}
	}

	// The HTML rendering carries the same sessions plus the forensics tag.
	resp, err := http.Get(web.URL)
	if err != nil {
		t.Fatal(err)
	}
	html, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"velodromed sessions", "2 active / 8 max", "optimized +forensics", "optimized"} {
		if !strings.Contains(string(html), want) {
			t.Errorf("HTML listing missing %q:\n%s", want, html)
		}
	}

	// Both sessions finish normally and leave the listing.
	for _, conn := range []net.Conn{warm, cold} {
		conn.Write([]byte("end(1)\n"))
		conn.(*net.TCPConn).CloseWrite()
		if _, err := trace.ReadVerdict(conn); err != nil {
			t.Fatalf("final verdict: %v", err)
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for getDebugState(t, web.URL).Active != 0 {
		if time.Now().After(deadline) {
			t.Fatal("sessions never left the listing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The history records carry the engines' final counters: every
	// transaction over, the graph collected. Each is its session's last
	// live row carried on: the same identity, no fewer ops or warnings.
	rows := map[string]SessionRecord{}
	for _, info := range state.Sessions {
		rows[info.Session] = info
	}
	for _, rec := range s.History().Recent(10, 0) {
		row, ok := rows[rec.Session]
		if !ok {
			t.Errorf("record %s was never a live row", rec.Session)
		} else if rec.Remote != row.Remote || rec.Engine != row.Engine || rec.Forensics != row.Forensics ||
			!rec.Started.Equal(row.Started) || rec.Ops < row.Ops || len(rec.Warnings) < len(row.Warnings) ||
			!slices.Equal(rec.Warnings[:len(row.Warnings)], row.Warnings) {
			t.Errorf("record %+v does not carry on its last live row %+v", rec, row)
		}
		wantFiltered := int64(0)
		if rec.Forensics {
			wantFiltered = 2
		}
		if rec.Filtered != wantFiltered || rec.GraphNodes != 0 || rec.GraphEdges != 0 {
			t.Errorf("record %s: filtered=%d graphNodes=%d graphEdges=%d, want %d, 0, 0",
				rec.Session, rec.Filtered, rec.GraphNodes, rec.GraphEdges, wantFiltered)
		}
	}
	stop()
}

// multiBatchBuggy repeats buggyTrace's cycle once per batch, each under
// its own label and variable, so the session's warning digests grow
// across the copies it publishes.
func multiBatchBuggy(batches int) trace.Trace {
	var tr trace.Trace
	for k := 0; k < batches; k++ {
		x := trace.Var(int32(k))
		tr = append(tr, trace.Beg(1, trace.Label(fmt.Sprintf("inc%d", k))), trace.Rd(1, x), trace.Wr(2, x), trace.Wr(1, x), trace.Fin(1))
		for len(tr) < (k+1)*sessionBatch {
			tr = append(tr, trace.Rd(3, 1000))
		}
	}
	return tr
}

// TestDebugVeloConcurrent is the race exercise: many checking sessions
// (a third with forensics) run while scrapers hammer /debug/velo, so the
// session's per-batch publications and the handler's loads overlap
// constantly. The buggy sessions warn in every batch: the live copies
// share the record's warning slice while the session appends to it. Run
// under -race. It also pins the verdict contract: session ids are
// unique, durations set, and forensics verdicts carry one parseable
// provenance report per warning.
func TestDebugVeloConcurrent(t *testing.T) {
	s, addr, stop := startServer(t, Config{MaxSessions: 32, Metrics: obs.NewRegistry()})
	web := httptest.NewServer(s.DebugHandler())
	defer web.Close()

	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				state := getDebugState(t, web.URL)
				if state.Active > 32 {
					t.Errorf("listing exceeds the session cap: %d", state.Active)
				}
				resp, err := http.Get(web.URL) // HTML path too
				if err != nil {
					t.Errorf("GET html: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	const sessions = 24
	verdicts := make(chan *trace.SessionVerdict, sessions)
	var clients sync.WaitGroup
	for i := 0; i < sessions; i++ {
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			buggy := i%2 == 0
			body := cleanTrace()
			if buggy {
				body = multiBatchBuggy(4)
			}
			hdr := trace.SessionHeader{Name: fmt.Sprintf("c%d", i), Forensics: i%3 == 0}
			v, err := CheckReader(addr, hdr, bytes.NewReader(encode(t, body, i%2 == 1)))
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			if v.Status != trace.StatusOK {
				t.Errorf("session %d: verdict %+v", i, v)
				return
			}
			if buggy == v.Serializable || (buggy && len(v.Warnings) != 4) {
				t.Errorf("session %d: serializable=%v with %d warnings for buggy=%v", i, v.Serializable, len(v.Warnings), buggy)
			}
			if v.DurationMs < 0 || !strings.HasPrefix(v.Session, "s") {
				t.Errorf("session %d: verdict identity %q/%dms", i, v.Session, v.DurationMs)
			}
			if hdr.Forensics {
				if len(v.Reports) != len(v.Warnings) {
					t.Errorf("session %d: %d reports for %d warnings", i, len(v.Reports), len(v.Warnings))
				}
				for j, raw := range v.Reports {
					rep, err := forensic.ParseReport(raw)
					if err != nil {
						t.Errorf("session %d report %d: %v", i, j, err)
						continue
					}
					if len(rep.Txns) == 0 || len(rep.Edges) == 0 {
						t.Errorf("session %d report %d: empty provenance %+v", i, j, rep)
					}
				}
			} else if len(v.Reports) != 0 {
				t.Errorf("session %d: %d reports without forensics", i, len(v.Reports))
			}
			verdicts <- v
		}(i)
	}
	clients.Wait()
	close(done)
	scrapers.Wait()
	close(verdicts)

	ids := map[string]bool{}
	for v := range verdicts {
		if ids[v.Session] {
			t.Errorf("duplicate session id %s", v.Session)
		}
		ids[v.Session] = true
	}
	stop()
	if state := s.DebugState(); state.Active != 0 || !state.Draining {
		t.Errorf("post-drain state %+v, want empty and draining", state)
	}
}
