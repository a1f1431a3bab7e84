package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

func TestParseKeyfile(t *testing.T) {
	cfgs, err := ParseKeyfile(strings.NewReader(`
# production tenants
tenant checkout key=ck_live_27f rate=50 burst=100 concurrent=16
tenant batch    key=bt_9a1      rate=5  concurrent=2   # nightly jobs
tenant default  rate=200
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 3 {
		t.Fatalf("parsed %d tenants, want 3", len(cfgs))
	}
	co := cfgs[0]
	if co.Name != "checkout" || co.Key != "ck_live_27f" || co.RatePerSec != 50 || co.Burst != 100 || co.MaxConcurrent != 16 {
		t.Errorf("checkout parsed as %+v", co)
	}
	if cfgs[2].Name != "default" || cfgs[2].Key != "" || cfgs[2].RatePerSec != 200 {
		t.Errorf("default parsed as %+v", cfgs[2])
	}
}

func TestParseKeyfileErrors(t *testing.T) {
	for name, text := range map[string]string{
		"missing-key":    "tenant prod rate=5\n",
		"bad-name":       "tenant bad/name key=k1\n",
		"duplicate-name": "tenant a key=k1\ntenant a key=k2\n",
		"duplicate-key":  "tenant a key=k1\ntenant b key=k1\n",
		"unknown-field":  "tenant a key=k1 color=red\n",
		"bad-rate":       "tenant a key=k1 rate=fast\n",
		"not-a-tenant":   "client a key=k1\n",
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseKeyfile(strings.NewReader(text)); err == nil {
				t.Errorf("ParseKeyfile accepted %q", text)
			}
		})
	}
}

// TestTenantQuotas pins the admission arithmetic: the rate bucket burns
// down and refills with time, the concurrency cap holds slots, and being
// refused on concurrency does not also drain the rate budget.
func TestTenantQuotas(t *testing.T) {
	ts, err := NewTenants([]TenantConfig{
		{Name: "a", Key: "ka", RatePerSec: 10, Burst: 3, MaxConcurrent: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts.bind(obs.NewRegistry())
	ten := ts.lookup("ka")
	if ten == nil {
		t.Fatal("lookup(ka) = nil")
	}
	// The bucket's lastRefill is the construction instant; run the whole
	// timeline at a fixed point safely past it so only our explicit time
	// steps refill tokens.
	now := time.Now().Add(time.Hour)
	if got := ten.admit(now); got != admitOK {
		t.Fatalf("first admit: %v", got)
	}
	if got := ten.admit(now); got != admitOK {
		t.Fatalf("second admit: %v", got)
	}
	// A token remains but both slots are held: the concurrency refusal
	// must not also charge the rate budget.
	if got := ten.admit(now); got != admitConcurrencyLimited {
		t.Fatalf("third admit: %v, want concurrency-limited", got)
	}
	ten.release()
	if got := ten.admit(now); got != admitOK {
		t.Fatalf("admit after release: %v, want ok (token kept by the concurrency refusal)", got)
	}
	// Bucket now empty at the same instant.
	if got := ten.admit(now); got != admitRateLimited {
		t.Fatalf("admit with empty bucket: %v, want rate-limited", got)
	}
	ten.release()
	// 100ms at rate 10/s refills one token, and a slot is free again.
	if got := ten.admit(now.Add(100 * time.Millisecond)); got != admitOK {
		t.Fatalf("admit after refill: %v, want ok", got)
	}
}

func TestTenantsDefaultAlwaysPresent(t *testing.T) {
	ts, err := NewTenants(nil)
	if err != nil {
		t.Fatal(err)
	}
	ts.bind(obs.NewRegistry())
	def := ts.lookup("")
	if def == nil || def.Name() != DefaultTenant {
		t.Fatalf("keyless lookup = %+v, want the default tenant", def)
	}
	// Unlimited: admits never refuse.
	for i := 0; i < 100; i++ {
		if got := def.admit(time.Now()); got != admitOK {
			t.Fatalf("default admit %d: %v", i, got)
		}
	}
	if ts.lookup("no-such-key") != nil {
		t.Error("unknown key resolved to a tenant")
	}
}

// TestServerTenantQuotaVerdicts drives a live server with a keyed,
// concurrency-capped tenant and asserts the three verdict classes stay
// distinct on the wire: unknown-key (malformed, pre-admission),
// quota-exceeded (busy-status but tenant-scoped), and ok with the tenant
// echoed.
func TestServerTenantQuotaVerdicts(t *testing.T) {
	reg := obs.NewRegistry()
	tens, err := NewTenants([]TenantConfig{
		{Name: "capped", Key: "cap-key", MaxConcurrent: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s, addr, stop := startServer(t, Config{
		MaxSessions: 8,
		Metrics:     reg,
		Tenants:     tens,
		stepHook: func(trace.Op) {
			once.Do(func() { close(hold) })
			<-release
		},
	})
	defer stop()
	_ = s

	// Session 1 occupies the tenant's only slot, parked on its first op.
	data := encode(t, cleanTrace(), true)
	done := make(chan *trace.SessionVerdict, 1)
	go func() {
		v, err := CheckReader(addr, trace.SessionHeader{Key: "cap-key"}, bytes.NewReader(data))
		if err != nil {
			t.Errorf("held session: %v", err)
		}
		done <- v
	}()
	<-hold

	// Session 2, same tenant: quota-exceeded — not busy, the daemon has
	// seven free slots.
	v, err := CheckReader(addr, trace.SessionHeader{Key: "cap-key"}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != trace.StatusBusy || v.Code != trace.CodeQuotaExceeded {
		t.Fatalf("over-quota verdict %s/%s, want %s/%s", v.Status, v.Code, trace.StatusBusy, trace.CodeQuotaExceeded)
	}
	if v.Tenant != "capped" {
		t.Errorf("quota verdict tenant %q, want capped", v.Tenant)
	}

	// Unknown key: rejected pre-admission as malformed, stable code.
	v, err = CheckReader(addr, trace.SessionHeader{Key: "wrong-key"}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != trace.StatusMalformed || v.Code != trace.CodeUnknownKey {
		t.Fatalf("unknown-key verdict %s/%s, want %s/%s", v.Status, v.Code, trace.StatusMalformed, trace.CodeUnknownKey)
	}

	close(release)
	v = <-done
	if v.Status != trace.StatusOK || v.Tenant != "capped" {
		t.Fatalf("held session verdict %s tenant=%q, want ok/capped", v.Status, v.Tenant)
	}

	// A default-tenant session is unaffected by the capped tenant's limit
	// and carries no tenant field.
	v, err = CheckReader(addr, trace.SessionHeader{}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != trace.StatusOK || v.Tenant != "" {
		t.Fatalf("default-tenant verdict %s tenant=%q, want ok with no tenant field", v.Status, v.Tenant)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[`velodromed_tenant_quota_rejected_total{tenant="capped"}`]; got != 1 {
		t.Errorf("tenant quota counter = %d, want 1", got)
	}
	if got := snap.Counters[`velodromed_tenant_sessions_total{tenant="capped"}`]; got != 1 {
		t.Errorf("tenant sessions counter = %d, want 1", got)
	}
	if got := snap.Counters["velodromed_sessions_quota_rejected_total"]; got != 1 {
		t.Errorf("daemon quota counter = %d, want 1", got)
	}
}

// TestServerTenantQuotaConcurrentClients drives tenant quotas under
// concurrent load: four closed-loop clients send 40 sessions, three in
// four through the unlimited default tenant and one in four through a
// tenant limited to one session per second. Every session must end ok or
// quota-exceeded (never error, never shed: the daemon has spare slots),
// rejects must land on the limited tenant only, the per-tenant counters
// must account for every session sent and agree with what the clients
// saw, and the buggy traces in the mix must still be found.
func TestServerTenantQuotaConcurrentClients(t *testing.T) {
	const sessions, clients = 40, 4
	reg := obs.NewRegistry()
	tens, err := NewTenants([]TenantConfig{
		{Name: "tight", Key: "tight-key", RatePerSec: 1, Burst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, addr, stop := startServer(t, Config{MaxSessions: 8, Metrics: reg, Tenants: tens})

	bodies := [][]byte{encode(t, cleanTrace(), true), encode(t, buggyTrace(), true)}
	verdicts := make([]*trace.SessionVerdict, sessions)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				hdr := trace.SessionHeader{}
				if i%4 == 3 {
					hdr.Key = "tight-key"
				}
				v, err := CheckReader(addr, hdr, bytes.NewReader(bodies[i%2]))
				if err != nil {
					t.Errorf("session %d: %v", i, err)
					continue
				}
				verdicts[i] = v
			}
		}()
	}
	for i := 0; i < sessions; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	stop()

	// What the clients saw, by tenant.
	ok := map[string]int64{}
	rejected := map[string]int64{}
	notSerializable := 0
	for i, v := range verdicts {
		if v == nil {
			continue // transport error, already reported
		}
		name, wantLabel := DefaultTenant, ""
		if i%4 == 3 {
			name, wantLabel = "tight", "tight"
		}
		if v.Tenant != wantLabel {
			t.Errorf("session %d: verdict tenant %q, want %q", i, v.Tenant, wantLabel)
		}
		switch {
		case v.Status == trace.StatusOK:
			ok[name]++
			if !v.Serializable {
				notSerializable++
			}
		case v.Status == trace.StatusBusy && v.Code == trace.CodeQuotaExceeded:
			rejected[name]++
		default:
			t.Errorf("session %d: verdict %s/%s (%s), want ok or %s/%s",
				i, v.Status, v.Code, v.Error, trace.StatusBusy, trace.CodeQuotaExceeded)
		}
	}
	if rejected["tight"] == 0 {
		t.Error("tight tenant (1/s, burst 1) sent 10 sessions and never hit its quota")
	}
	if rejected[DefaultTenant] != 0 {
		t.Errorf("%d quota rejects on the unlimited default tenant", rejected[DefaultTenant])
	}
	if notSerializable == 0 {
		t.Error("no verdict found the buggy trace's violation")
	}

	// What the daemon counted: the same numbers, and all 40 of them.
	snap := reg.Snapshot()
	var counted int64
	for _, name := range []string{DefaultTenant, "tight"} {
		admitted := snap.Counters[fmt.Sprintf("velodromed_tenant_sessions_total{tenant=%q}", name)]
		quota := snap.Counters[fmt.Sprintf("velodromed_tenant_quota_rejected_total{tenant=%q}", name)]
		if admitted != ok[name] || quota != rejected[name] {
			t.Errorf("tenant %s: daemon counted %d admitted / %d quota-rejected, clients saw %d / %d",
				name, admitted, quota, ok[name], rejected[name])
		}
		counted += admitted + quota
	}
	if counted != sessions {
		t.Errorf("per-tenant counters account for %d sessions, sent %d", counted, sessions)
	}
	if got := snap.Counters["velodromed_sessions_quota_rejected_total"]; got != rejected["tight"] {
		t.Errorf("daemon quota counter = %d, want %d", got, rejected["tight"])
	}
}

// TestLegacyVerdictShape locks the backward-compatibility contract: a
// keyless session's verdict JSON must not contain a tenant field at all.
func TestLegacyVerdictShape(t *testing.T) {
	_, addr, stop := startServer(t, Config{MaxSessions: 4})
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(trace.SessionHeader{}.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(encode(t, cleanTrace(), false)); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(line, `"tenant"`) {
		t.Errorf("keyless verdict leaks a tenant field: %s", line)
	}
	var v trace.SessionVerdict
	if err := json.Unmarshal([]byte(line), &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != trace.StatusOK || !v.Serializable {
		t.Errorf("verdict %+v, want ok/serializable", v)
	}
}

// FuzzParseKeyfile: no keyfile panics the parser, and what it accepts
// the daemon can run: names valid and distinct, keys distinct and
// header-safe, every tenant but default keyed, quotas finite and
// non-negative, and NewTenants builds a table in which each key finds
// its tenant and a rate-limited tenant can admit a session.
func FuzzParseKeyfile(f *testing.F) {
	f.Add("# production tenants\ntenant checkout key=ck_live_27f rate=50 burst=100 concurrent=16\ntenant default rate=200\n")
	f.Add("tenant a key=k1 rate=NaN\n")
	f.Add("tenant a key=k1 rate=1e300\n")
	f.Add("tenant a key=k1\ntenant b key=k1\n")
	f.Fuzz(func(t *testing.T, text string) {
		cfgs, err := ParseKeyfile(strings.NewReader(text))
		if err != nil {
			return
		}
		names, keys := map[string]bool{}, map[string]bool{}
		for _, c := range cfgs {
			if !validTenantName(c.Name) || names[c.Name] {
				t.Fatalf("accepted tenant name %q twice or malformed", c.Name)
			}
			names[c.Name] = true
			if c.Key == "" && c.Name != DefaultTenant || c.Key != "" && keys[c.Key] ||
				(trace.SessionHeader{Key: c.Key}).Validate() != nil {
				t.Fatalf("accepted key %q for %q", c.Key, c.Name)
			}
			keys[c.Key] = true
			if !(c.RatePerSec >= 0) || math.IsInf(c.RatePerSec, 0) || c.Burst < 0 || c.MaxConcurrent < 0 {
				t.Fatalf("accepted quotas %+v", c)
			}
		}
		ts, err := NewTenants(cfgs)
		if err != nil {
			t.Fatalf("NewTenants refused what ParseKeyfile accepted: %v", err)
		}
		for _, c := range cfgs {
			ten := ts.byName[c.Name]
			if c.Key != "" && ts.lookup(c.Key) != ten {
				t.Fatalf("key %q does not find tenant %q", c.Key, c.Name)
			}
			if c.RatePerSec > 0 && ten.cfg.Burst < 1 {
				t.Fatalf("tenant %+v can never admit a session", ten.cfg)
			}
		}
	})
}
