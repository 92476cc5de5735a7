//! Counters and time series.
//!
//! The paper's figures plot cumulative quantities ("number of result tuples
//! output", "number of index probes made") against time. [`Series`] records
//! exactly that: monotone `(time, value)` step points. [`Metrics`] is the
//! registry of counters and series attached to an execution.
//!
//! # Ids on the hot path, names at the edges
//!
//! A metric's name is resolved to a [`MetricId`] once ([`Metrics::id`] /
//! [`Metrics::count_id`] — the only places a name is allocated) and every
//! update after that is an indexed write plus at most one series point
//! ([`Metrics::bump_id`], [`Metrics::observe_id`]). The engine resolves all
//! of its ids when an executor is built, so nothing on its per-tuple path
//! hashes, compares or allocates a name. [`Metrics::bump`] /
//! [`Metrics::observe`] by name are `id()` + the id form, for callers off
//! the hot path.
//!
//! # A curve or a count, decided at declaration
//!
//! A metric registered with [`Metrics::id`] is a **curve**: a counter plus
//! its step-function series, for whatever a figure, example, report or
//! benchmark reads point by point. One registered with
//! [`Metrics::count_id`] is a **count**: the value only — [`Metrics::counter`]
//! answers for it, [`Metrics::series`] is `None`, [`Metrics::series_names`]
//! skips it and [`Metrics::names`] lists it. The first registration of a
//! name fixes its kind, and the engine registers each of its metrics in
//! one declaration, so which counters keep a curve is written down once,
//! next to their names — not chosen per run, per call site or by sampling.
//! A per-tuple counter nobody plots (routing decisions, SteM probes,
//! bounces) would otherwise append a point at nearly every instant of a
//! tuple-at-a-time run.
//!
//! **Invisibility rule:** registering an id records nothing. Until it is
//! first bumped or observed the metric does not exist for any reader —
//! `counter` is 0, `series` is `None`, `series_names` and `names` skip it
//! and `==` ignores it — so an executor may resolve every id it *might*
//! use without changing what a report shows, and two registries compare
//! equal whenever their recorded values and points do, whatever order
//! their ids were issued in. A count is compared by its value.
//!
//! **A series is a step function, and the step function is exact.** What
//! a reader may ask of a series is the value in effect at a time
//! ([`Series::value_at`], and through it `sample_grid`, `to_csv`), where
//! it ends (`last_value`, `end_time`) and when a counter first reached a
//! value ([`Series::time_reaching`] — "when was result *i* emitted").
//! A *counter* is monotone, so the last value bumped at an instant is that
//! instant's value: [`Metrics::bump_id`] overwrites the last point when it
//! carries the same time instead of appending another, a counter's points
//! are strictly increasing in time, and every one of those readers answers
//! as if each bump had been kept. A *raw* series
//! ([`Metrics::observe_id`]) never coalesces: it may fall, and a reader
//! may want more than its step function — `peak_state_bytes` is the
//! maximum over `stem_bytes_total`'s points, which two observations at one
//! instant must both survive. Sampling or decimating beyond that would
//! change what is observed, not how cheaply it is recorded.

use crate::{to_secs, Time};
use std::fmt::Write as _;

/// A named time series of `(virtual time, value)` observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    points: Vec<(Time, f64)>,
}

/// Time of row `i` on a uniform grid of `n + 1` rows over `[0, horizon]`.
/// Row `n` lands exactly on the horizon whether or not `n` divides it.
pub(crate) fn grid_time(horizon: Time, n: usize, i: usize) -> Time {
    (horizon as u128 * i as u128 / n as u128) as Time
}

impl Series {
    pub fn new() -> Series {
        Series::default()
    }

    /// Append an observation. Time must be non-decreasing.
    pub fn push(&mut self, t: Time, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|(pt, _)| *pt <= t),
            "series time went backwards"
        );
        self.points.push((t, v));
    }

    /// All raw points.
    pub fn points(&self) -> &[(Time, f64)] {
        &self.points
    }

    /// Last observed value (0.0 if empty).
    pub fn last_value(&self) -> f64 {
        self.points.last().map_or(0.0, |(_, v)| *v)
    }

    /// Time of the last observation.
    pub fn end_time(&self) -> Option<Time> {
        self.points.last().map(|(t, _)| *t)
    }

    /// The value in effect at time `t` (step interpolation; 0.0 before the
    /// first point).
    pub fn value_at(&self, t: Time) -> f64 {
        match self.points.partition_point(|(pt, _)| *pt <= t) {
            0 => 0.0,
            i => self.points[i - 1].1,
        }
    }

    /// The first time the series' value was at least `value`; `None` if it
    /// never was. For a monotone series (a counter's): a binary search.
    /// `series("results").time_reaching(i as f64)` is when the `i`-th
    /// result was emitted.
    pub fn time_reaching(&self, value: f64) -> Option<Time> {
        let i = self.points.partition_point(|(_, v)| *v < value);
        self.points.get(i).map(|(t, _)| *t)
    }

    /// Resample to `n+1` equally spaced points over `[0, horizon]` — used
    /// for printing figure rows and for CSV export.
    pub fn sample_grid(&self, horizon: Time, n: usize) -> Vec<(Time, f64)> {
        assert!(n > 0);
        (0..=n)
            .map(|i| {
                let t = grid_time(horizon, n, i);
                (t, self.value_at(t))
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Handle on one metric of one [`Metrics`] registry (or a clone of it),
/// issued by [`Metrics::id`] or [`Metrics::count_id`]. Using it on another
/// registry is a bug: it panics or updates an unrelated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(u32);

/// One metric: its name and everything recorded under it.
#[derive(Debug, Clone, PartialEq)]
struct Slot {
    name: String,
    counter: u64,
    /// Set by the first bump: tells a counter that was bumped by 0 from a
    /// series that was only ever observed.
    is_counter: bool,
    /// A curve keeps `series`; a count never records a point (see the
    /// module doc). Fixed at registration.
    curve: bool,
    series: Series,
}

impl Slot {
    /// Something was recorded here (see the module's invisibility rule).
    fn visible(&self) -> bool {
        self.is_counter || !self.series.is_empty()
    }
}

/// Metric registry for one execution: monotone counters (each mirrored
/// into a series for plotting, unless registered as a count) and raw
/// series.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Indexed by [`MetricId`], in registration order.
    slots: Vec<Slot>,
    /// Every id, ordered by name: the lookup index and the order
    /// [`Self::series_names`] reports.
    by_name: Vec<MetricId>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Position of `name` in `by_name`, or where it would be inserted.
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.by_name
            .binary_search_by(|id| self.slots[id.0 as usize].name.as_str().cmp(name))
    }

    /// The recorded slot for `name`, if anything was recorded under it.
    fn slot(&self, name: &str) -> Option<&Slot> {
        let pos = self.position(name).ok()?;
        Some(&self.slots[self.by_name[pos].0 as usize]).filter(|s| s.visible())
    }

    /// Recorded slots in name order.
    fn visible(&self) -> impl Iterator<Item = &Slot> {
        self.by_name
            .iter()
            .map(|id| &self.slots[id.0 as usize])
            .filter(|s| s.visible())
    }

    /// Resolve `name` to its id, registering it as a curve on first use.
    /// Registering records nothing (the invisibility rule).
    pub fn id(&mut self, name: &str) -> MetricId {
        self.register(name, true)
    }

    /// Resolve `name` to its id, registering it as a count — a value with
    /// no series — on first use.
    pub fn count_id(&mut self, name: &str) -> MetricId {
        self.register(name, false)
    }

    /// The id of `name`; the first registration fixes whether it is a
    /// curve.
    fn register(&mut self, name: &str, curve: bool) -> MetricId {
        match self.position(name) {
            Ok(pos) => self.by_name[pos],
            Err(pos) => {
                let id = MetricId(u32::try_from(self.slots.len()).expect("metric count fits u32"));
                self.slots.push(Slot {
                    name: name.to_string(),
                    counter: 0,
                    is_counter: false,
                    curve,
                    series: Series::new(),
                });
                self.by_name.insert(pos, id);
                id
            }
        }
    }

    /// Add `delta` to a counter and, for a curve, record the new value as
    /// the counter's value at time `t`: one point per instant, the last
    /// bump's (see the module's step-function rule).
    pub fn bump_id(&mut self, id: MetricId, t: Time, delta: u64) {
        let slot = &mut self.slots[id.0 as usize];
        slot.counter += delta;
        slot.is_counter = true;
        if !slot.curve {
            return;
        }
        let v = slot.counter as f64;
        match slot.series.points.last_mut() {
            Some(last) if last.0 == t => last.1 = v,
            _ => slot.series.push(t, v),
        }
    }

    /// Record a raw (non-counter) observation in a curve's series, e.g.
    /// memory footprint or a routing fraction. Always a new point.
    pub fn observe_id(&mut self, id: MetricId, t: Time, v: f64) {
        let slot = &mut self.slots[id.0 as usize];
        debug_assert!(slot.curve, "`{}` is a count: it has no series", slot.name);
        slot.series.push(t, v);
    }

    /// [`Self::bump_id`] by name, for callers off the hot path.
    pub fn bump(&mut self, name: &str, t: Time, delta: u64) {
        let id = self.id(name);
        self.bump_id(id, t, delta);
    }

    /// [`Self::observe_id`] by name, for callers off the hot path.
    pub fn observe(&mut self, name: &str, t: Time, v: f64) {
        let id = self.id(name);
        self.observe_id(id, t, v);
    }

    /// Current counter value of a curve or a count (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.slot(name).map_or(0, |s| s.counter)
    }

    /// Fetch a series by name (`None` if nothing was recorded under it, or
    /// if it is a count).
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.slot(name).filter(|s| s.curve).map(|s| &s.series)
    }

    /// Names of all recorded series, sorted: the curves.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.visible().filter(|s| s.curve).map(|s| s.name.as_str())
    }

    /// Names of every recorded metric, curves and counts, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.visible().map(|s| s.name.as_str())
    }

    /// Render selected series as CSV: `time_secs,<name1>,<name2>,...` on a
    /// uniform grid of `n+1` rows over `[0, horizon]`.
    pub fn to_csv(&self, names: &[&str], horizon: Time, n: usize) -> String {
        let mut out = String::new();
        out.push_str("time_secs");
        for name in names {
            let _ = write!(out, ",{name}");
        }
        out.push('\n');
        for i in 0..=n {
            let t = grid_time(horizon, n, i);
            let _ = write!(out, "{:.3}", to_secs(t));
            for name in names {
                let v = self.series(name).map_or(0.0, |s| s.value_at(t));
                let _ = write!(out, ",{v:.3}");
            }
            out.push('\n');
        }
        out
    }
}

/// Equality of the observable view: the same names carry the same kind,
/// the same counter and the same points (a count has none). Ids that were
/// registered but never touched, and the order ids were issued in, do not
/// count.
impl PartialEq for Metrics {
    fn eq(&self, other: &Metrics) -> bool {
        self.visible().eq(other.visible())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn series_step_interpolation() {
        let mut s = Series::new();
        s.push(10, 1.0);
        s.push(20, 2.0);
        s.push(20, 3.0);
        assert_eq!(s.value_at(5), 0.0);
        assert_eq!(s.value_at(10), 1.0);
        assert_eq!(s.value_at(15), 1.0);
        assert_eq!(s.value_at(20), 3.0);
        assert_eq!(s.value_at(100), 3.0);
        assert_eq!(s.last_value(), 3.0);
        assert_eq!(s.end_time(), Some(20));
    }

    #[test]
    fn sample_grid_covers_horizon() {
        let mut s = Series::new();
        s.push(0, 0.0);
        s.push(50, 5.0);
        let g = s.sample_grid(100, 4);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0], (0, 0.0));
        assert_eq!(g[2], (50, 5.0));
        assert_eq!(g[4], (100, 5.0));
    }

    /// `n ∤ horizon`: the last grid row still lands on the horizon, so a
    /// point recorded at the very end is not lost.
    #[test]
    fn sample_grid_reaches_an_indivisible_horizon() {
        let mut s = Series::new();
        s.push(0, 1.0);
        s.push(101, 9.0);
        let g = s.sample_grid(101, 4);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0], (0, 1.0));
        assert_eq!(g[4], (101, 9.0));
        assert!(g.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn counters_mirror_into_series() {
        let mut m = Metrics::new();
        m.bump("results", 100, 1);
        m.bump("results", 200, 2);
        assert_eq!(m.counter("results"), 3);
        assert_eq!(m.counter("absent"), 0);
        let s = m.series("results").unwrap();
        assert_eq!(s.points(), &[(100, 1.0), (200, 3.0)]);
    }

    #[test]
    fn observe_records_raw_values() {
        let mut m = Metrics::new();
        m.observe("mem", 0, 10.0);
        m.observe("mem", 5, 7.0); // may go down
        assert_eq!(m.series("mem").unwrap().value_at(6), 7.0);
    }

    #[test]
    fn time_reaching_finds_the_first_point_at_or_above() {
        let mut m = Metrics::new();
        assert_eq!(Series::new().time_reaching(0.0), None);
        m.bump("results", 10, 1);
        m.bump("results", 10, 1);
        m.bump("results", 25, 3);
        let s = m.series("results").unwrap();
        assert_eq!(s.points(), &[(10, 2.0), (25, 5.0)]);
        assert_eq!(s.time_reaching(0.0), Some(10));
        assert_eq!(s.time_reaching(1.0), Some(10));
        assert_eq!(s.time_reaching(2.0), Some(10));
        assert_eq!(s.time_reaching(3.0), Some(25));
        assert_eq!(s.time_reaching(5.0), Some(25));
        assert_eq!(s.time_reaching(5.5), None);
    }

    /// A raw series may fall, and its maximum is read point by point
    /// (`peak_state_bytes`): observations at one instant are all kept.
    #[test]
    fn observations_at_one_instant_keep_every_point() {
        let mut m = Metrics::new();
        m.observe("mem", 7, 90.0);
        m.observe("mem", 7, 40.0);
        let s = m.series("mem").unwrap();
        assert_eq!(s.points(), &[(7, 90.0), (7, 40.0)]);
        assert_eq!(s.value_at(7), 40.0);
        assert_eq!(s.points().iter().map(|p| p.1).fold(0.0, f64::max), 90.0);
    }

    /// The step function is the contract. Random interleavings of bumps
    /// and observations, most of them at an instant already recorded,
    /// against a reference registry that keeps every point (it records
    /// each update as an observation): every reader answers the same. A
    /// count bumped among them changes none of it and keeps its value.
    #[test]
    fn coalesced_counters_read_as_if_every_point_were_kept() {
        const NAMES: [&str; 4] = ["results", "stem_probes", "mem", "fraction"];
        const COUNTERS: usize = 2;
        const COUNT: &str = "route_batches";
        for seed in 0..60 {
            let mut rng = SimRng::new(seed);
            let mut m = Metrics::new();
            let ids = NAMES.map(|n| m.id(n));
            let count = m.count_id(COUNT);
            let mut counted: Option<u64> = None;
            let mut every_point = Metrics::new();
            let mut counts = [0u64; COUNTERS];
            let mut now: Time = 0;
            for _ in 0..rng.below(300) {
                if rng.chance(0.3) {
                    now += rng.below(5);
                }
                if rng.chance(0.3) {
                    let delta = rng.below(3);
                    *counted.get_or_insert(0) += delta;
                    m.bump_id(count, now, delta);
                    continue;
                }
                let i = rng.below(NAMES.len() as u64) as usize;
                let v = if i < COUNTERS {
                    let delta = rng.below(3);
                    counts[i] += delta;
                    m.bump_id(ids[i], now, delta);
                    counts[i] as f64
                } else {
                    let v = rng.unit() * 100.0;
                    m.observe_id(ids[i], now, v);
                    v
                };
                every_point.observe(NAMES[i], now, v);
            }
            let horizon = now + 3;
            for (i, name) in NAMES.into_iter().enumerate() {
                let Some(want) = every_point.series(name) else {
                    assert!(m.series(name).is_none(), "seed {seed} {name}");
                    continue;
                };
                let got = m.series(name).unwrap();
                assert_eq!(got.last_value(), want.last_value(), "seed {seed} {name}");
                assert_eq!(got.end_time(), want.end_time(), "seed {seed} {name}");
                // Every recorded instant, and every instant between.
                for t in 0..=horizon {
                    assert_eq!(
                        got.value_at(t),
                        want.value_at(t),
                        "seed {seed} {name} t={t}"
                    );
                }
                assert_eq!(got.sample_grid(horizon, 7), want.sample_grid(horizon, 7));
                if i < COUNTERS {
                    assert_eq!(m.counter(name), counts[i], "seed {seed} {name}");
                    assert!(
                        got.points().windows(2).all(|w| w[0].0 < w[1].0),
                        "seed {seed} {name}: one point per instant"
                    );
                    for reached in 0..=counts[i] + 1 {
                        let reached = reached as f64;
                        assert_eq!(got.time_reaching(reached), want.time_reaching(reached));
                    }
                } else {
                    assert_eq!(got.points(), want.points(), "seed {seed} {name}");
                }
            }
            assert_eq!(
                m.to_csv(&NAMES, horizon, 9),
                every_point.to_csv(&NAMES, horizon, 9),
                "seed {seed}"
            );
            assert_eq!(m.counter(COUNT), counted.unwrap_or(0), "seed {seed}");
            assert!(m.series(COUNT).is_none(), "seed {seed}");
            assert_eq!(
                m.series_names().collect::<Vec<_>>(),
                every_point.series_names().collect::<Vec<_>>(),
                "seed {seed}: a count has no series"
            );
            assert_eq!(
                m.names().any(|n| n == COUNT),
                counted.is_some(),
                "seed {seed}: a count exists once bumped"
            );
        }
    }

    #[test]
    fn csv_layout() {
        let mut m = Metrics::new();
        m.bump("a", 0, 1);
        m.bump("b", 50, 2);
        let csv = m.to_csv(&["a", "b"], 100, 2);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_secs,a,b");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("0.000,1.000,0.000"));
        assert!(lines[3].contains(",1.000,2.000"));
    }

    /// `n ∤ horizon`: the last CSV row carries the horizon and the series'
    /// last value (the truncating grid stopped at 999 999 µs and printed 1).
    #[test]
    fn csv_last_row_carries_the_horizon() {
        let mut m = Metrics::new();
        m.bump("results", 10, 1);
        m.bump("results", 1_000_001, 4);
        let csv = m.to_csv(&["results"], 1_000_001, 3);
        assert_eq!(csv.lines().last(), Some("1.000,5.000"));
        assert_eq!(csv.lines().count(), 5);
    }

    #[test]
    fn registered_but_never_touched_is_invisible() {
        let mut m = Metrics::new();
        let idle = m.id("idle");
        assert_eq!(m.id("idle"), idle, "resolving twice yields one id");
        assert_eq!(m.counter("idle"), 0);
        assert!(m.series("idle").is_none());
        assert_eq!(m.series_names().count(), 0);
        assert_eq!(m, Metrics::new());
        assert_eq!(
            m.to_csv(&["idle"], 10, 1),
            "time_secs,idle\n0.000,0.000\n0.000,0.000\n"
        );

        let used = m.id("used");
        m.bump_id(used, 3, 2);
        assert_eq!(m.series_names().collect::<Vec<_>>(), ["used"]);
        let mut by_name = Metrics::new();
        by_name.bump("used", 3, 2);
        assert_eq!(m, by_name);
        // A bump by 0 is a recorded counter; an equal-valued observation
        // is a raw series. The view tells them apart.
        let mut bumped = Metrics::new();
        bumped.bump("x", 1, 0);
        let mut observed = Metrics::new();
        observed.observe("x", 1, 0.0);
        assert_eq!(bumped.series("x"), observed.series("x"));
        assert_ne!(bumped, observed);
    }

    #[test]
    fn a_count_keeps_a_value_and_no_series() {
        let mut m = Metrics::new();
        let lookups = m.count_id("lookups");
        assert_eq!(
            m.count_id("lookups"),
            lookups,
            "resolving twice yields one id"
        );
        assert_eq!(
            m.id("lookups"),
            lookups,
            "the first registration fixes the kind"
        );
        // Invisible until bumped.
        assert_eq!(m.counter("lookups"), 0);
        assert!(m.series("lookups").is_none());
        assert_eq!(m.names().count(), 0);
        assert_eq!(m, Metrics::new());

        m.bump_id(lookups, 3, 2);
        m.bump_id(lookups, 3, 1);
        m.bump_id(lookups, 9, 0);
        assert_eq!(m.counter("lookups"), 3);
        assert!(m.series("lookups").is_none());
        assert_eq!(m.series_names().count(), 0);
        assert_eq!(m.names().collect::<Vec<_>>(), ["lookups"]);
        assert_ne!(m, Metrics::new(), "a bumped count exists");
        // By name, too: `bump` resolves the count's id.
        m.bump("lookups", 12, 4);
        assert_eq!(m.counter("lookups"), 7);
        assert!(m.series("lookups").is_none());

        // `==` compares a count by its value, whenever and however it got
        // there, and tells it from a curve with the same value.
        let mut other = Metrics::new();
        let id = other.count_id("lookups");
        other.bump_id(id, 1, 7);
        assert_eq!(m, other);
        other.bump_id(id, 2, 1);
        assert_ne!(m, other);
        let mut curve = Metrics::new();
        curve.bump("lookups", 1, 7);
        assert_eq!(curve.counter("lookups"), 7);
        assert_ne!(m, curve);
        // A count bumped by 0 exists, with the value 0.
        let mut zero = Metrics::new();
        let id = zero.count_id("waits");
        zero.bump_id(id, 5, 0);
        assert_eq!(zero.names().collect::<Vec<_>>(), ["waits"]);
        assert_ne!(zero, Metrics::new());
    }

    /// Random interleavings of by-name and by-id updates, applied to two
    /// registries whose ids were issued in different orders and padded
    /// with ids that are never touched, leave the same observable view.
    #[test]
    fn view_is_independent_of_registration_order() {
        const NAMES: [&str; 7] = ["results", "a", "span2_formed", "zz", "b", "mem", "end"];
        for seed in 0..50 {
            let mut rng = SimRng::new(seed);
            // `left` resolves nothing up front; `right` resolves every
            // name in a shuffled order, between never-touched extras.
            let mut left = Metrics::new();
            let mut right = Metrics::new();
            let mut order: Vec<usize> = (0..NAMES.len()).collect();
            rng.shuffle(&mut order);
            let mut right_ids = [None; NAMES.len()];
            for (k, &i) in order.iter().enumerate() {
                right.id(&format!("idle{k}"));
                right_ids[i] = Some(right.id(NAMES[i]));
            }
            let mut touched = [false; NAMES.len()];
            let steps = rng.below(200);
            for t in 0..steps {
                let i = rng.below(NAMES.len() as u64) as usize;
                let name = NAMES[i];
                touched[i] = true;
                let by_id = rng.chance(0.5);
                if rng.chance(0.6) {
                    let delta = rng.below(4);
                    left.bump(name, t, delta);
                    if by_id {
                        right.bump_id(right_ids[i].unwrap(), t, delta);
                    } else {
                        right.bump(name, t, delta);
                    }
                } else {
                    let v = rng.unit() * 100.0;
                    if by_id {
                        let id = left.id(name);
                        left.observe_id(id, t, v);
                    } else {
                        left.observe(name, t, v);
                    }
                    right.observe(name, t, v);
                }
            }
            assert_eq!(left, right, "seed {seed}");
            assert_eq!(right, left, "seed {seed}");
            let names: Vec<&str> = left.series_names().collect();
            assert_eq!(names, right.series_names().collect::<Vec<_>>());
            let mut expected: Vec<&str> = NAMES
                .iter()
                .zip(touched)
                .filter_map(|(n, hit)| hit.then_some(*n))
                .collect();
            expected.sort_unstable();
            assert_eq!(names, expected, "seed {seed}: sorted, touched names only");
            for name in NAMES {
                assert_eq!(left.counter(name), right.counter(name), "{name}");
                assert_eq!(
                    left.series(name).map(Series::points),
                    right.series(name).map(Series::points),
                    "{name}"
                );
            }
            // One more point on one side breaks equality.
            right.bump("results", steps, 1);
            assert_ne!(left, right, "seed {seed}");
        }
    }
}
