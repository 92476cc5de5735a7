//! Shared harness for the paper experiments and the folding sweep, both
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
//! `stems-bench server`: [`server::run`] times a query stream through
//! `QueryServer` with SteM folding off and on, and asserts both modes
//! return every query the same rows. Speed claims belong to `benchmark/`;
//! this sweep only shows where folding stands.

pub mod json;
pub mod paper;
pub mod server;

use std::fmt::Write as _;
use std::path::PathBuf;
use stems_sim::{ascii_plot, to_secs, PlotSpec, Series, Time};

/// Where CSV outputs go: `$STEMS_RESULTS_DIR` or `./results`.
// An output path of the bench binary, not engine configuration.
#[allow(clippy::disallowed_methods)]
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

/// Render a canonical result multiset (`Report::canonical`) as strings.
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
    fn render_canonical_distinguishes_types() {
        use stems_types::Value;
        let a = render_canonical(&[vec![Value::Int(1), Value::Null]]);
        let b = render_canonical(&[vec![Value::Float(1.0), Value::Null]]);
        assert_ne!(a, b, "Int(1) and Float(1.0) are distinct result values");
        assert_eq!(a.len(), 1);
    }
}
