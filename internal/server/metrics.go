package server

import (
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// serverMetrics are the daemon-level instruments, registered on
// Config.Metrics (which New never leaves nil).
//
// Exposed names (see EXPERIMENTS.md):
//
//	velodromed_sessions_accepted_total   every accepted connection
//	velodromed_sessions_shed_total       connections refused at the cap
//	velodromed_sessions_rejected_total   connections refused before admission
//	                                     (bad header, unknown engine, unknown key)
//	velodromed_sessions_quota_rejected_total  sessions refused by a tenant quota
//	velodromed_sessions_active           currently running sessions
//	velodromed_session_panics_total      sessions ended by a recovered panic
//	velodromed_ops_total                 operations fed to engines
//	velodromed_verdicts_total{status=}   verdicts by status
//	velodromed_serializable_total        ok-verdicts that were serializable
//	velodromed_session_duration_ns       accept-to-verdict latency histogram
//	velodromed_store_lag                 records appended but not yet fsynced
//	velodromed_store_appended_total      records written to the durable store
//	velodromed_store_errors_total        failed store appends (history still
//	                                     holds the record in memory)
type serverMetrics struct {
	accepted     *obs.Counter
	shed         *obs.Counter
	rejected     *obs.Counter
	quota        *obs.Counter
	active       *obs.Gauge
	panics       *obs.Counter
	ops          *obs.Counter
	verdictOK    *obs.Counter
	verdictMal   *obs.Counter
	verdictErr   *obs.Counter
	serializable *obs.Counter
	duration     *obs.Histogram
	storeLag     *obs.Gauge
	storeWrites  *obs.Counter
	storeErrors  *obs.Counter
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	return &serverMetrics{
		accepted:     r.Counter("velodromed_sessions_accepted_total"),
		shed:         r.Counter("velodromed_sessions_shed_total"),
		rejected:     r.Counter("velodromed_sessions_rejected_total"),
		quota:        r.Counter("velodromed_sessions_quota_rejected_total"),
		active:       r.Gauge("velodromed_sessions_active"),
		panics:       r.Counter("velodromed_session_panics_total"),
		ops:          r.Counter("velodromed_ops_total"),
		verdictOK:    r.Counter(`velodromed_verdicts_total{status="ok"}`),
		verdictMal:   r.Counter(`velodromed_verdicts_total{status="malformed"}`),
		verdictErr:   r.Counter(`velodromed_verdicts_total{status="error"}`),
		serializable: r.Counter("velodromed_serializable_total"),
		duration:     r.Histogram("velodromed_session_duration_ns"),
		storeLag:     r.Gauge("velodromed_store_lag"),
		storeWrites:  r.Counter("velodromed_store_appended_total"),
		storeErrors:  r.Counter("velodromed_store_errors_total"),
	}
}

func (m *serverMetrics) observeVerdict(v *trace.SessionVerdict, d time.Duration) {
	switch v.Status {
	case trace.StatusOK:
		m.verdictOK.Inc()
		if v.Serializable {
			m.serializable.Inc()
		}
	case trace.StatusMalformed:
		m.verdictMal.Inc()
	default:
		m.verdictErr.Inc()
	}
	m.duration.Observe(int64(d))
}
