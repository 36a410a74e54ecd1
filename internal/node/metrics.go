package node

import (
	"strconv"

	"fedms/internal/obs"
)

// psMetrics holds a parameter server's collectors. They are the one
// place the server counts anything: PS.Stats reads PSStats back from
// them, and the registry exports the same values, plus the barrier-
// wait distribution that lifetime counters cannot express.
type psMetrics struct {
	rounds         *obs.Counter
	uploadsRecv    *obs.Counter
	uploadsMissed  *obs.Counter
	clientsLost    *obs.Counter
	badAccepts     *obs.Counter
	prefilterDrops *obs.Counter
	tokenRejects   *obs.Counter
	rateLimited    *obs.Counter
	handshakePool  *obs.Gauge
	framesSkipped  *obs.Counter
	sendsFailed    *obs.Counter
	bytesIn        *obs.Counter
	bytesOut       *obs.Counter
	floatsIn       *obs.Counter
	floatsOut      *obs.Counter
	aggFused       *obs.Counter
	aggFallback    *obs.Counter
	aggDecodeBytes *obs.Counter
	oracleEvals    *obs.Counter
	barrierWait    *obs.Histogram
	// Async lifecycle collectors (untouched in sync mode): window-close
	// counters split by admission outcome, the window-expiry count, the
	// per-admitted-upload staleness distribution, and the deferred-
	// upload spill buffer's depth, byte footprint and disk high-water
	// mark.
	winFresh      *obs.Counter
	winStale      *obs.Counter
	winDropped    *obs.Counter
	winDeferred   *obs.Counter
	windowExpired *obs.Counter
	staleHist     *obs.Histogram
	spillDepth    *obs.Gauge
	spillBytes    *obs.Gauge
	spillPeak     *obs.Gauge
}

// newPSMetrics registers the collectors on reg, or on a private
// registry when reg is nil, so they are always live: without them the
// server would have nothing to report its stats from. It takes the
// aggregation rule's name so the decode-bytes counter carries a
// per-rule label: aggregate decode volume is a property of the
// (server, rule) pair, and dashboards comparing fused rules against
// densify-first fallbacks need the split.
func newPSMetrics(reg *obs.Registry, id int, rule string) *psMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := `{ps="` + strconv.Itoa(id) + `"}`
	c := func(name string) *obs.Counter { return reg.Counter("fedms_ps_" + name + "_total" + l) }
	return &psMetrics{
		rounds:         c("rounds_served"),
		uploadsRecv:    c("uploads_received"),
		uploadsMissed:  c("uploads_missed"),
		clientsLost:    c("clients_lost"),
		badAccepts:     c("bad_accepts"),
		prefilterDrops: c("prefilter_drops"),
		tokenRejects:   c("token_rejects"),
		rateLimited:    c("rate_limited_conns"),
		handshakePool:  reg.Gauge("fedms_ps_handshake_pool_depth" + l),
		framesSkipped:  c("frames_skipped"),
		sendsFailed:    c("sends_failed"),
		bytesIn:        c("bytes_in"),
		bytesOut:       c("bytes_out"),
		floatsIn:       c("floats_in"),
		floatsOut:      c("floats_out"),
		aggFused:       c("agg_fused"),
		aggFallback:    c("agg_fallback"),
		aggDecodeBytes: reg.Counter(
			`fedms_ps_agg_decode_bytes_total{ps="` + strconv.Itoa(id) + `",rule="` + rule + `"}`),
		oracleEvals: reg.Counter(
			`fedms_ps_oracle_evals_total{ps="` + strconv.Itoa(id) + `",rule="` + rule + `"}`),
		barrierWait: reg.Histogram("fedms_ps_barrier_wait_seconds"+l, nil),
		winFresh: reg.Counter(
			`fedms_ps_window_uploads_total{ps="` + strconv.Itoa(id) + `",result="fresh"}`),
		winStale: reg.Counter(
			`fedms_ps_window_uploads_total{ps="` + strconv.Itoa(id) + `",result="stale"}`),
		winDropped: reg.Counter(
			`fedms_ps_window_uploads_total{ps="` + strconv.Itoa(id) + `",result="dropped"}`),
		winDeferred: reg.Counter(
			`fedms_ps_window_uploads_total{ps="` + strconv.Itoa(id) + `",result="deferred"}`),
		windowExpired: c("window_expired"),
		staleHist:     reg.Histogram("fedms_ps_upload_staleness_rounds"+l, []float64{0, 1, 2, 3, 5, 8, 13}),
		spillDepth:    reg.Gauge("fedms_ps_spill_depth" + l),
		spillBytes:    reg.Gauge("fedms_ps_spill_bytes" + l),
		spillPeak:     reg.Gauge("fedms_ps_spill_peak_bytes" + l),
	}
}

// clientMetrics is the client-side counterpart of psMetrics.
type clientMetrics struct {
	rounds         *obs.Counter
	degraded       *obs.Counter
	modelsRecv     *obs.Counter
	modelsMissed   *obs.Counter
	redialAttempts *obs.Counter
	redialsOK      *obs.Counter
	uploadBytes    *obs.Counter
	downloadBytes  *obs.Counter
	framesSkipped  *obs.Counter
	filterFused    *obs.Counter
	filterFallback *obs.Counter
	oracleEvals    *obs.Counter
	recvWait       *obs.Histogram
	// Async lifecycle collectors (untouched in sync mode): stale-tagged
	// backlog sends, due backlog models abandoned because every target
	// server died, and the local backlog depth after each round's sends.
	staleSent      *obs.Counter
	uploadsDropped *obs.Counter
	backlogDepth   *obs.Gauge
}

// newClientMetrics takes the client filter rule's name to label the
// oracle-eval counter per rule, as newPSMetrics does. A nil registry
// hands out nil collectors: a client's per-round stats are its own
// record, so it needs no private registry.
func newClientMetrics(reg *obs.Registry, id int, rule string) *clientMetrics {
	l := `{client="` + strconv.Itoa(id) + `"}`
	c := func(name string) *obs.Counter { return reg.Counter("fedms_client_" + name + "_total" + l) }
	return &clientMetrics{
		rounds:         c("rounds"),
		degraded:       c("degraded_rounds"),
		modelsRecv:     c("models_received"),
		modelsMissed:   c("models_missed"),
		redialAttempts: c("redial_attempts"),
		redialsOK:      c("redials_ok"),
		uploadBytes:    c("upload_bytes"),
		downloadBytes:  c("download_bytes"),
		framesSkipped:  c("frames_skipped"),
		filterFused:    c("filter_fused"),
		filterFallback: c("filter_fallback"),
		oracleEvals: reg.Counter(
			`fedms_client_oracle_evals_total{client="` + strconv.Itoa(id) + `",rule="` + rule + `"}`),
		recvWait:       reg.Histogram("fedms_client_recv_wait_seconds"+l, nil),
		staleSent:      c("stale_uploads"),
		uploadsDropped: c("uploads_dropped"),
		backlogDepth:   reg.Gauge("fedms_client_backlog_depth" + l),
	}
}
