//~ rule: metric-by-name
//~ path: crates/core/src/engine.rs
// A by-name metric update on the eddy's per-tuple path: every call
// compares strings down the registry's name index. (That the id forms
// stay silent is what the tree lint of the real engine.rs shows.)

pub fn on_result(metrics: &mut Metrics, now: Time) {
    metrics.bump("results", now, 1);
    metrics
        .observe("stem_bytes_total", now, 0.0);
}
