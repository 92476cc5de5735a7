//! Shared harness for the paper experiments and the bench series, both
//! reached through the one `stems-bench` binary.
//!
//! `stems-bench paper <name|all>`: [`paper::PAPER`] is the table of the
//! paper's figures and reconstructed experiments (`fig7`, `fig8`,
//! `competition`, `spanning_tree`, `reorder`, `nary_shj`, `grace_hybrid`,
//! `buildfirst`, `robustness`, `selection_order`). Each entry runs the SteM
//! architecture and its baselines on the same workload and registers
//! labelled curves and the paper's qualitative claims as measured value ·
//! comparison · threshold; [`paper::run`] prints the series as aligned
//! rows and an ASCII chart, writes CSVs to `results/`, prints one
//! `[PASS|FAIL]` line per claim and emits `PAPER_RESULTS.json`. `cargo
//! test` runs every entry.
//!
//! `stems-bench <series|all>`: the perf trajectory `BENCH_<n>.json`.
//! [`series::SERIES`] is the table of series, [`harness`] times and checks
//! them, [`drive`] holds what they run, [`json`] writes them.

pub mod drive;
pub mod harness;
pub mod json;
pub mod paper;
pub mod series;

use std::fmt::Write as _;
use std::path::PathBuf;
use stems_sim::{ascii_plot, to_secs, PlotSpec, Series, Time};

/// Where CSV outputs go: `$STEMS_RESULTS_DIR` or `./results`.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("STEMS_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&p);
    p
}

/// Render several series as an aligned table sampled on a uniform time
/// grid — the textual equivalent of one paper figure panel.
fn series_table(title: &str, horizon: Time, rows: usize, series: &[(&str, &Series)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n{title}");
    let _ = write!(out, "{:>10}", "time(s)");
    for (name, _) in series {
        let _ = write!(out, "{name:>16}");
    }
    let _ = writeln!(out);
    for i in 0..=rows {
        let t = (horizon as u128 * i as u128 / rows as u128) as Time;
        let _ = write!(out, "{:>10.1}", to_secs(t));
        for (_, s) in series {
            let _ = write!(out, "{:>16.1}", s.value_at(t));
        }
        let _ = writeln!(out);
    }
    out
}

/// Render the figure as an ASCII chart.
fn chart(title: &str, y_label: &str, horizon: Time, series: &[(&str, &Series)]) -> String {
    let spec = PlotSpec {
        title: title.to_string(),
        y_label: y_label.to_string(),
        horizon,
        ..PlotSpec::default()
    };
    ascii_plot(&spec, series)
}

/// FNV-1a over a byte slice — the deterministic primitive behind the
/// bench binaries' result hashes.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = seed;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A machine-independent hash of a result multiset, rendered as 16 hex
/// digits. Rows are rendered to strings by the caller; the hash sorts
/// them first, so emission order never matters — two series hash equal
/// iff they produced the same result multiset. Benchmarks embed this as
/// the `result_hash` JSON field, and `tools/bench_check.py` gates CI on
/// cross-series (and cross-commit) equality.
pub fn result_hash(mut rows: Vec<String>) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    rows.sort_unstable();
    let mut h = OFFSET;
    for row in &rows {
        h = fnv1a(h, row.as_bytes());
        h = fnv1a(h, &[0x1e]); // row separator
    }
    h = fnv1a(h, &rows.len().to_le_bytes());
    format!("{h:016x}")
}

/// Render a canonical result multiset (`Report::canonical`) for hashing.
pub fn render_canonical(rows: &[Vec<stems_types::Value>]) -> Vec<String> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|v| format!("{v:?}"))
                .collect::<Vec<_>>()
                .join("\u{1f}")
        })
        .collect()
}

/// Convenience: the fraction of grid points in `[from, to]` where series
/// `a` ≥ series `b` (used for "curve X dominates curve Y" claims).
pub fn dominance_fraction(a: &Series, b: &Series, from: Time, to: Time, points: usize) -> f64 {
    let mut wins = 0;
    for i in 0..=points {
        let t = from + ((to - from) as u128 * i as u128 / points as u128) as Time;
        if a.value_at(t) >= b.value_at(t) {
            wins += 1;
        }
    }
    wins as f64 / (points + 1) as f64
}

/// Linearity measure: maximum absolute deviation of a cumulative series
/// from the straight line through (0,0)–(horizon, final), normalized by
/// the final value. Small ⇒ the curve is nearly linear (fig 7's SteM
/// curve); large ⇒ strongly convex/concave (the index join parabola).
pub fn linearity_deviation(s: &Series, horizon: Time, points: usize) -> f64 {
    let total = s.value_at(horizon);
    if total <= 0.0 {
        return 0.0;
    }
    let mut max_dev = 0.0f64;
    for i in 0..=points {
        let t = (horizon as u128 * i as u128 / points as u128) as Time;
        let line = total * t as f64 / horizon as f64;
        max_dev = max_dev.max((s.value_at(t) - line).abs());
    }
    max_dev / total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear(rate: f64, horizon: Time) -> Series {
        let mut s = Series::new();
        for i in 0..=100u64 {
            let t = horizon * i / 100;
            s.push(t, rate * to_secs(t));
        }
        s
    }

    fn quadratic(scale: f64, horizon: Time) -> Series {
        let mut s = Series::new();
        for i in 0..=100u64 {
            let t = horizon * i / 100;
            s.push(t, scale * to_secs(t) * to_secs(t));
        }
        s
    }

    #[test]
    fn dominance_of_faster_series() {
        let fast = linear(2.0, 1_000_000);
        let slow = linear(1.0, 1_000_000);
        assert_eq!(dominance_fraction(&fast, &slow, 0, 1_000_000, 20), 1.0);
        assert!(dominance_fraction(&slow, &fast, 100, 1_000_000, 20) < 0.1);
    }

    #[test]
    fn linearity_separates_line_from_parabola() {
        let h = stems_sim::secs(100);
        let line = linear(5.0, h);
        let para = quadratic(0.05, h);
        assert!(linearity_deviation(&line, h, 50) < 0.02);
        assert!(linearity_deviation(&para, h, 50) > 0.15);
    }

    #[test]
    fn table_contains_header_and_values() {
        let s = linear(1.0, 1_000_000);
        let t = series_table("fig", 1_000_000, 4, &[("stems", &s)]);
        assert!(t.contains("stems"));
        assert!(t.contains("time(s)"));
        assert!(t.lines().count() >= 7);
    }

    #[test]
    fn results_dir_exists() {
        let d = results_dir();
        assert!(d.exists());
    }

    #[test]
    fn result_hash_is_order_insensitive_and_content_sensitive() {
        let a = result_hash(vec!["r1".into(), "r2".into()]);
        let b = result_hash(vec!["r2".into(), "r1".into()]);
        assert_eq!(a, b, "multiset hash must ignore emission order");
        assert_eq!(a.len(), 16);
        assert_ne!(a, result_hash(vec!["r1".into()]));
        assert_ne!(a, result_hash(vec!["r1".into(), "r3".into()]));
        // Duplicates count: a multiset, not a set.
        assert_ne!(
            result_hash(vec!["r1".into(), "r1".into()]),
            result_hash(vec!["r1".into()])
        );
    }

    #[test]
    fn render_canonical_distinguishes_types() {
        use stems_types::Value;
        let a = render_canonical(&[vec![Value::Int(1), Value::Null]]);
        let b = render_canonical(&[vec![Value::Float(1.0), Value::Null]]);
        assert_ne!(a, b, "Int(1) and Float(1.0) are distinct result values");
        assert_eq!(a.len(), 1);
    }
}
