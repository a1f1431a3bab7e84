package server

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Tenant accounting: velodromed's answer to "which service flooded us
// with sessions last night?". A tenant is identified by the API key its
// sessions carry in the VELOSESS/1 header ("key=..."); a keyless session
// runs under the always-present default tenant, so legacy clients keep
// working unchanged. Each tenant owns a session-rate token bucket and a
// concurrent-session cap, both enforced before the daemon-wide slot
// claim, and a family of per-tenant metrics so /metrics can answer the
// question the dashboard renders.

// DefaultTenant is the tenant keyless sessions run under.
const DefaultTenant = "default"

// TenantConfig is one keyfile entry.
type TenantConfig struct {
	// Name labels the tenant in metrics, records and the dashboard.
	// [A-Za-z0-9_-]+ only, so it embeds safely in metric label strings.
	Name string
	// Key authenticates the tenant's sessions. Empty only for the
	// default tenant (which needs no key but may still carry quotas).
	Key string
	// RatePerSec caps new sessions per second (token bucket); 0 means
	// unlimited.
	RatePerSec float64
	// Burst is the bucket depth; defaults to max(1, ceil(RatePerSec)).
	Burst int
	// MaxConcurrent caps the tenant's simultaneously running sessions;
	// 0 means unlimited (the daemon-wide cap still applies).
	MaxConcurrent int
}

// ParseKeyfile reads the tenant keyfile format:
//
//	# comment
//	tenant checkout key=ck_live_27f rate=50 burst=100 concurrent=16
//	tenant batch    key=bt_9a1      rate=5  concurrent=2
//	tenant default  rate=200                 # quotas for keyless sessions
//
// One "tenant <name> [k=v ...]" line per tenant; keys must be unique and
// free of spaces, '=' and control characters (they travel in the session
// header). A "default" entry needs no key and bounds legacy clients.
func ParseKeyfile(r io.Reader) ([]TenantConfig, error) {
	var out []TenantConfig
	names := map[string]bool{}
	keys := map[string]bool{}
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] != "tenant" || len(fields) < 2 {
			return nil, fmt.Errorf("keyfile line %d: want \"tenant <name> [k=v ...]\"", lineno)
		}
		cfg := TenantConfig{Name: fields[1]}
		if !validTenantName(cfg.Name) {
			return nil, fmt.Errorf("keyfile line %d: tenant name %q: [A-Za-z0-9_-]+ only", lineno, cfg.Name)
		}
		if names[cfg.Name] {
			return nil, fmt.Errorf("keyfile line %d: duplicate tenant %q", lineno, cfg.Name)
		}
		names[cfg.Name] = true
		for _, f := range fields[2:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("keyfile line %d: malformed field %q", lineno, f)
			}
			switch k {
			case "key":
				if v == "" || (trace.SessionHeader{Key: v}).Validate() != nil {
					return nil, fmt.Errorf("keyfile line %d: bad key %q", lineno, v)
				}
				cfg.Key = v
			case "rate":
				rate, err := strconv.ParseFloat(v, 64)
				if err != nil || !(rate >= 0) || math.IsInf(rate, 0) {
					return nil, fmt.Errorf("keyfile line %d: bad rate %q", lineno, v)
				}
				cfg.RatePerSec = rate
			case "burst":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("keyfile line %d: bad burst %q", lineno, v)
				}
				cfg.Burst = n
			case "concurrent":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("keyfile line %d: bad concurrent %q", lineno, v)
				}
				cfg.MaxConcurrent = n
			default:
				return nil, fmt.Errorf("keyfile line %d: unknown field %q", lineno, k)
			}
		}
		if cfg.Key == "" && cfg.Name != DefaultTenant {
			return nil, fmt.Errorf("keyfile line %d: tenant %q needs a key (only %q may go without)",
				lineno, cfg.Name, DefaultTenant)
		}
		if cfg.Key != "" && keys[cfg.Key] {
			return nil, fmt.Errorf("keyfile line %d: duplicate key", lineno)
		}
		keys[cfg.Key] = true
		out = append(out, cfg)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("keyfile: %w", err)
	}
	return out, nil
}

// LoadKeyfile reads and parses path.
func LoadKeyfile(path string) ([]TenantConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfgs, err := ParseKeyfile(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfgs, nil
}

func validTenantName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// tenant is one tenant's live state.
type tenant struct {
	cfg TenantConfig

	// Token bucket for the session rate: refilled on demand under mu.
	mu         sync.Mutex
	tokens     float64
	lastRefill time.Time
	concurrent int // sessions currently admitted under this tenant

	// Per-tenant instrument family (see Tenants.bind for the names).
	sessions  *obs.Counter
	ops       *obs.Counter
	warnings  *obs.Counter
	shed      *obs.Counter
	quota     *obs.Counter
	duration  *obs.Histogram
	activeNow *obs.Gauge
}

// Tenants is the immutable-after-construction tenant table: key → tenant
// plus the always-present default.
type Tenants struct {
	byKey  map[string]*tenant
	byName map[string]*tenant
	def    *tenant

	bindOnce sync.Once
}

// NewTenants builds the table from keyfile entries. A "default" entry,
// when present, bounds keyless sessions; otherwise the default tenant is
// unlimited. nil cfgs is valid: one unlimited default tenant.
func NewTenants(cfgs []TenantConfig) (*Tenants, error) {
	ts := &Tenants{byKey: map[string]*tenant{}, byName: map[string]*tenant{}}
	now := time.Now()
	for _, cfg := range cfgs {
		if cfg.Burst <= 0 && cfg.RatePerSec > 0 {
			cfg.Burst = int(math.Min(math.Ceil(cfg.RatePerSec), math.MaxInt32))
		}
		t := &tenant{cfg: cfg, tokens: float64(cfg.Burst), lastRefill: now}
		if _, dup := ts.byName[cfg.Name]; dup {
			return nil, fmt.Errorf("server: duplicate tenant %q", cfg.Name)
		}
		ts.byName[cfg.Name] = t
		if cfg.Key != "" {
			if _, dup := ts.byKey[cfg.Key]; dup {
				return nil, fmt.Errorf("server: duplicate tenant key")
			}
			ts.byKey[cfg.Key] = t
		}
		if cfg.Name == DefaultTenant {
			ts.def = t
		}
	}
	if ts.def == nil {
		ts.def = &tenant{cfg: TenantConfig{Name: DefaultTenant}, lastRefill: now}
		ts.byName[DefaultTenant] = ts.def
	}
	return ts, nil
}

// bind attaches the per-tenant instrument families to reg. Called once
// by Server.New.
func (ts *Tenants) bind(reg *obs.Registry) {
	ts.bindOnce.Do(func() {
		for _, t := range ts.byName {
			label := fmt.Sprintf("{tenant=%q}", t.cfg.Name)
			t.sessions = reg.Counter("velodromed_tenant_sessions_total" + label)
			t.ops = reg.Counter("velodromed_tenant_ops_total" + label)
			t.warnings = reg.Counter("velodromed_tenant_warnings_total" + label)
			t.shed = reg.Counter("velodromed_tenant_shed_total" + label)
			t.quota = reg.Counter("velodromed_tenant_quota_rejected_total" + label)
			t.duration = reg.Histogram("velodromed_tenant_session_duration_ns" + label)
			t.activeNow = reg.Gauge("velodromed_tenant_sessions_active" + label)
		}
	})
}

// admission outcomes.
type admitResult int

const (
	admitOK admitResult = iota
	admitUnknownKey
	admitRateLimited
	admitConcurrencyLimited
)

// lookup resolves a header key to its tenant ("" → default; unknown →
// nil).
func (ts *Tenants) lookup(key string) *tenant {
	if key == "" {
		return ts.def
	}
	return ts.byKey[key]
}

// admit charges one session against the tenant's quotas: a token from
// the rate bucket and a concurrency slot. On admitOK the caller must
// release() when the session ends. Runs before the daemon-wide slot
// claim so an over-quota tenant never competes for shared capacity.
func (t *tenant) admit(now time.Time) admitResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.cfg.RatePerSec; r > 0 {
		elapsed := now.Sub(t.lastRefill).Seconds()
		if elapsed > 0 {
			t.tokens = math.Min(t.tokens+elapsed*r, float64(t.cfg.Burst))
			t.lastRefill = now
		}
		if t.tokens < 1 {
			return admitRateLimited
		}
		// The token is only spent if the concurrency check passes too, so
		// a tenant pinned at its concurrency cap does not also drain its
		// rate budget while being refused.
		if t.cfg.MaxConcurrent > 0 && t.concurrent >= t.cfg.MaxConcurrent {
			return admitConcurrencyLimited
		}
		t.tokens--
	} else if t.cfg.MaxConcurrent > 0 && t.concurrent >= t.cfg.MaxConcurrent {
		return admitConcurrencyLimited
	}
	t.concurrent++
	t.activeNow.Set(int64(t.concurrent))
	return admitOK
}

// release returns the concurrency slot taken by admit.
func (t *tenant) release() {
	t.mu.Lock()
	t.concurrent--
	t.activeNow.Set(int64(t.concurrent))
	t.mu.Unlock()
}

// Name returns the tenant's name (for verdicts, records, logs).
func (t *tenant) Name() string { return t.cfg.Name }

// TenantNames lists the configured tenants sorted, for the dashboard.
func (ts *Tenants) TenantNames() []string {
	out := make([]string, 0, len(ts.byName))
	for name := range ts.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
