//! `--compare A.json B.json`: judge run B against run A, one row per
//! (workload, end-to-end metric), by the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::ratio;

/// A wall-clock difference is not called a regression when the static
/// baseline — code the change cannot have touched — moved by more than
/// this between the two files: the host drifted.
const DRIFT_TOLERANCE: f64 = 0.10;

#[derive(Debug, PartialEq)]
enum Status {
    Ok,
    Regressed,
    Unresolved,
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
    /// Wall-clock metrics are noisy; the rest repeat exactly.
    wall: bool,
}

fn bounds(benchmark: &Json) -> Vec<Bound> {
    benchmark
        .get("end_to_end")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
            Bound {
                name: text("name").to_string(),
                lower_is_better: text("better") == "lower",
                bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                wall: matches!(text("unit"), "s" | "1/s" | "MB"),
            }
        })
        .collect()
}

/// Share of `a` by which `b` is worse (negative when better).
fn worsening(b: &Bound, a: f64, v: f64) -> f64 {
    if b.lower_is_better {
        ratio(v - a, a)
    } else {
        ratio(a - v, a)
    }
}

fn judge(b: &Bound, a: f64, v: f64, drifted: bool, noisy: bool) -> Status {
    if worsening(b, a, v) <= b.bound {
        Status::Ok
    } else if b.wall && (drifted || noisy) {
        Status::Unresolved
    } else {
        Status::Regressed
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value(workload: &Json, section: &str, metric: &str) -> Option<f64> {
    workload.get(section)?.get(metric)?.get("value")?.as_f64()
}

pub fn run(path_a: &str, path_b: &str) -> Result<(), String> {
    let benchmark = load(&crate::benchmark_json_path().to_string_lossy())?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    let bounds = bounds(&benchmark);
    let workloads_a = a.get("workloads").ok_or("A has no workloads")?;
    let workloads_b = b.get("workloads").ok_or("B has no workloads")?;
    println!(
        "{:<14} {:<22} {:>16} {:>16} {:>8}  status",
        "workload", "metric", "A", "B", "B/A"
    );
    let mut regressed = 0;
    for (name, wa) in workloads_a.as_obj() {
        let Some(wb) = workloads_b.get(name) else {
            println!("{name:<14} missing from B");
            regressed += 1;
            continue;
        };
        let layer = |w: &Json, m: &str| value(w, "per_layer", m).unwrap_or(0.0);
        let drift = ratio(
            layer(wb, "baseline.static_ms"),
            layer(wa, "baseline.static_ms"),
        );
        let drifted = (drift - 1.0).abs() > DRIFT_TOLERANCE;
        for bound in &bounds {
            let (Some(va), Some(vb)) = (
                value(wa, "end_to_end", &bound.name),
                value(wb, "end_to_end", &bound.name),
            ) else {
                println!("{name:<14} {:<22} missing", bound.name);
                regressed += 1;
                continue;
            };
            let noisy = layer(wa, "e2e.spread").max(layer(wb, "e2e.spread")) > bound.bound;
            let status = judge(bound, va, vb, drifted, noisy);
            let note = match status {
                Status::Ok if !bound.wall && va != vb => "ok (changed)",
                Status::Ok => "ok",
                Status::Regressed => "regressed",
                Status::Unresolved if drifted => "unresolved (host drift)",
                Status::Unresolved => "unresolved (spread > bound)",
            };
            regressed += usize::from(status == Status::Regressed);
            println!(
                "{name:<14} {:<22} {va:>16.6} {vb:>16.6} {:>8.4}  {note}",
                bound.name,
                ratio(vb, va)
            );
        }
        let fail_rate = |w: &Json| {
            let n = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            ratio(n("failed"), n("attempted"))
        };
        let (fa, fb) = (fail_rate(wa), fail_rate(wb));
        // Bound 0: any failure B has that A did not is a regression.
        let worse = fb > fa;
        regressed += usize::from(worse);
        println!(
            "{name:<14} {:<22} {fa:>16.6} {fb:>16.6} {:>8}  {}",
            "failed/attempted",
            "-",
            if worse { "regressed" } else { "ok" }
        );
        println!(
            "{name:<14} {:<22} {:>16.6} {:>16.6} {drift:>8.4}  {}",
            "(baseline.static_ms)",
            layer(wa, "baseline.static_ms"),
            layer(wb, "baseline.static_ms"),
            if drifted {
                "host drifted"
            } else {
                "host steady"
            }
        );
    }
    if regressed > 0 {
        return Err(format!("{regressed} row(s) regressed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, bound: f64, wall: bool) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound,
            wall,
        }
    }

    #[test]
    fn direction_and_bound_decide_ok_or_regressed() {
        let higher = bound(false, 0.10, true);
        assert_eq!(judge(&higher, 100.0, 95.0, false, false), Status::Ok);
        assert_eq!(judge(&higher, 100.0, 130.0, false, false), Status::Ok);
        assert_eq!(judge(&higher, 100.0, 85.0, false, false), Status::Regressed);
        let lower = bound(true, 0.25, true);
        assert_eq!(judge(&lower, 1.0, 1.2, false, false), Status::Ok);
        assert_eq!(judge(&lower, 1.0, 1.3, false, false), Status::Regressed);
    }

    #[test]
    fn drift_or_spread_makes_a_wall_loss_unresolved_only() {
        let wall = bound(false, 0.10, true);
        assert_eq!(judge(&wall, 100.0, 80.0, true, false), Status::Unresolved);
        assert_eq!(judge(&wall, 100.0, 80.0, false, true), Status::Unresolved);
        // A deterministic metric has no noise to hide behind.
        let exact = bound(true, 0.02, false);
        assert_eq!(judge(&exact, 100.0, 110.0, true, true), Status::Regressed);
        assert_eq!(judge(&exact, 100.0, 101.0, true, true), Status::Ok);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let b = Json::parse(
            r#"{"end_to_end": [
                {"name": "rows_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "virt_end_s", "unit": "sim_s", "better": "lower", "bound": 0.02}]}"#,
        )
        .unwrap();
        let bs = bounds(&b);
        assert_eq!(bs.len(), 2);
        assert!(bs[0].wall && !bs[0].lower_is_better && bs[0].bound == 0.1);
        assert!(!bs[1].wall && bs[1].lower_is_better);
    }
}
