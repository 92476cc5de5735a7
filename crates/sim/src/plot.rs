//! ASCII rendering of time series, used by the bench binaries to print the
//! paper's figures directly in the terminal.

use crate::metrics::grid_time;
use crate::{to_secs, Series, Time};
use std::fmt::Write as _;

/// Plot layout parameters.
#[derive(Debug, Clone)]
pub struct PlotSpec {
    /// Plot width in character columns (x axis).
    pub width: usize,
    /// Plot height in character rows (y axis).
    pub height: usize,
    /// Horizon of the x axis in virtual time (series are clipped to this).
    pub horizon: Time,
    /// Y-axis label.
    pub y_label: String,
    /// Title printed above the plot.
    pub title: String,
}

impl Default for PlotSpec {
    fn default() -> Self {
        PlotSpec {
            width: 72,
            height: 20,
            horizon: 0,
            y_label: String::new(),
            title: String::new(),
        }
    }
}

/// Render one or more `(name, series)` pairs as an ASCII chart. Each series
/// is drawn with its own glyph; a legend is appended.
///
/// This is step-plotting of cumulative curves — good enough to eyeball the
/// paper's "parabolic vs linear" and crossover claims in a terminal.
pub fn ascii_plot(spec: &PlotSpec, series: &[(&str, &Series)]) -> String {
    const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let horizon = if spec.horizon > 0 {
        spec.horizon
    } else {
        series
            .iter()
            .filter_map(|(_, s)| s.end_time())
            .max()
            .unwrap_or(1)
    };
    let y_max = series
        .iter()
        .map(|(_, s)| s.value_at(horizon))
        .fold(0.0f64, f64::max)
        .max(1e-9);

    let w = spec.width.max(10);
    let h = spec.height.max(5);
    let mut grid = vec![vec![' '; w]; h];

    for (idx, (_, s)) in series.iter().enumerate() {
        let glyph = GLYPHS[idx % GLYPHS.len()];
        #[allow(clippy::needless_range_loop)]
        for col in 0..w {
            // Last column lands exactly on the horizon so completed curves
            // touch the top row.
            let t = grid_time(horizon, w - 1, col);
            let v = s.value_at(t);
            let row_f = (v / y_max) * (h as f64 - 1.0);
            let row = h - 1 - (row_f.round() as usize).min(h - 1);
            if grid[row][col] == ' ' {
                grid[row][col] = glyph;
            }
        }
    }

    let mut out = String::new();
    if !spec.title.is_empty() {
        let _ = writeln!(out, "{}", spec.title);
    }
    for (i, row) in grid.iter().enumerate() {
        let y_val = y_max * (h - 1 - i) as f64 / (h as f64 - 1.0);
        let _ = writeln!(out, "{y_val:>9.1} |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{:>9} +{}", "", "-".repeat(w));
    let _ = writeln!(
        out,
        "{:>9} 0{}{:.0}s",
        "",
        " ".repeat(w.saturating_sub(6)),
        to_secs(horizon)
    );
    let legend = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {}", GLYPHS[i % GLYPHS.len()], name))
        .collect::<Vec<_>>()
        .join("   ");
    let _ = writeln!(out, "{:>10}{}", "", legend);
    if !spec.y_label.is_empty() {
        let _ = writeln!(out, "{:>10}y: {}", "", spec.y_label);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secs;

    fn linear_series(rate: f64, end: Time, step: Time) -> Series {
        let mut s = Series::new();
        let mut t = 0;
        while t <= end {
            s.push(t, rate * to_secs(t));
            t += step;
        }
        s
    }

    #[test]
    fn plot_contains_legend_and_axes() {
        let s = linear_series(2.0, secs(100), secs(1));
        let spec = PlotSpec {
            title: "results".into(),
            horizon: secs(100),
            ..PlotSpec::default()
        };
        let out = ascii_plot(&spec, &[("stems", &s)]);
        assert!(out.contains("results"));
        assert!(out.contains("* stems"));
        assert!(out.contains("100s"));
    }

    #[test]
    fn taller_curve_reaches_top_row() {
        let hi = linear_series(10.0, secs(10), secs(1));
        let lo = linear_series(1.0, secs(10), secs(1));
        let spec = PlotSpec {
            horizon: secs(10),
            ..PlotSpec::default()
        };
        let out = ascii_plot(&spec, &[("hi", &hi), ("lo", &lo)]);
        let first_plot_line = out.lines().next().unwrap();
        assert!(first_plot_line.contains('*'));
    }

    #[test]
    fn empty_series_plot_does_not_panic() {
        let s = Series::new();
        let out = ascii_plot(&PlotSpec::default(), &[("empty", &s)]);
        assert!(out.contains("empty"));
    }
}
