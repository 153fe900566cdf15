package main

import (
	"testing"

	"rfipad/internal/obs"
)

// TestLiveHealthAndReady evaluates /healthz and /readyz over a
// hand-set registry holding the series the engine and session export:
// the calibration detail fields come from the engine_* gauges in every
// mode, and readiness needs a calibrated stream on an engine that is
// still accepting pushes.
func TestLiveHealthAndReady(t *testing.T) {
	for _, tc := range []struct {
		name                            string
		connected, accepting            float64
		calibrated, deadTags            float64
		wantHealthy, wantCalib, wantRdy bool
	}{
		{name: "before calibration", connected: 1, accepting: 1,
			wantHealthy: true},
		{name: "calibrated and accepting", connected: 1, accepting: 1, calibrated: 1, deadTags: 2,
			wantHealthy: true, wantCalib: true, wantRdy: true},
		{name: "after Close", calibrated: 1, deadTags: 2,
			wantCalib: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			reg.Gauge("llrp_session_connected", "").Set(tc.connected)
			reg.Gauge("engine_accepting", "").Set(tc.accepting)
			reg.Gauge("engine_streams_calibrated", "").Set(tc.calibrated)
			reg.Gauge("engine_dead_tags", "").Set(tc.deadTags)

			h := liveHealth(reg)()
			if h.OK != tc.wantHealthy {
				t.Errorf("healthz OK = %v, want %v", h.OK, tc.wantHealthy)
			}
			if got := h.Detail["calibrated"]; got != tc.wantCalib {
				t.Errorf("healthz calibrated = %v, want %v", got, tc.wantCalib)
			}
			if got := h.Detail["dead_tags"]; got != tc.deadTags {
				t.Errorf("healthz dead_tags = %v, want %v", got, tc.deadTags)
			}
			if r := liveReady(reg)(); r.OK != tc.wantRdy {
				t.Errorf("readyz OK = %v, want %v (detail %v)", r.OK, tc.wantRdy, r.Detail)
			}
		})
	}
}
