//! Routing policies.
//!
//! The eddy "continuously routes tuples among the rest of the modules,
//! according to a routing policy" (paper §2.1.1). The constraint layer
//! ([`crate::router`]) guarantees that *any* policy produces correct
//! results; policies differ only in performance. Three are provided:
//!
//! * `FixedOrderPolicy` — a static priority order. With hash SteMs this
//!   realizes the n-ary symmetric hash join of §2.3, and it can emulate a
//!   static plan for baselines.
//! * `LotteryPolicy` — ticket-based weighted-random routing in the style
//!   of the original eddies paper \[Avnur & Hellerstein 2000\], rewarding
//!   destinations that produce matches / drop tuples.
//! * `BenefitCostPolicy` — a reconstruction of the paper's §4.1 policy
//!   ("the eddy continually routes so as to maximize benefit/cost"): per
//!   (destination, choice-kind) EWMAs of observed benefit over expected
//!   completion time, with an exploration floor so the eddy keeps probing
//!   alternatives — this is what hybridizes index and hash joins in the
//!   fig-8 experiment ("the eddy keeps sending a small fraction of the
//!   tuples to the index throughout ... to explore").

use crate::router::Action;
use stems_sim::{SimRng, Time};
use stems_storage::fxhash::FxHashMap;
use stems_types::{TableIdx, Tuple};

use crate::tuple_state::TupleState;

/// Per-candidate hints the engine computes for the policy: rough expected
/// time-to-effect for the action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hint {
    /// Estimated completion time of the action's effect in µs (service +
    /// backlog; for AM probes: queue delay + lookup latency).
    pub est_cost_us: Time,
}

/// Observations fed back to the policy by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Feedback {
    /// A SteM probe finished: how many concatenations were emitted.
    StemProbe { table: TableIdx, emitted: usize },
    /// A selection was applied.
    Selected {
        pred: stems_types::PredId,
        passed: bool,
    },
    /// A row originating from index AM `mid` built into a SteM: was it new
    /// (fresh) or absorbed as a duplicate? Freshness decays as the scan
    /// fills the SteM — the hybridization signal.
    AmBuild { mid: usize, fresh: bool },
    /// An expensive (UDF) selection envelope finished: `rows` tuples cost
    /// `cost_us` of virtual time *in total*, memoization and dedup
    /// included. Emitted only by the UDF fast path, so cheap comparison
    /// selections keep their purely hint-driven cost. Lets benefit/cost
    /// ranking learn the *observed* per-row price of an expensive
    /// predicate — high when every verdict is computed, decaying toward
    /// the plain SM cost as the memo warms — and defer it behind
    /// selective joins.
    SelectCost {
        pred: stems_types::PredId,
        rows: usize,
        cost_us: Time,
    },
}

/// A routing policy: pick one of the legal candidate actions.
pub trait RoutingPolicy: Send {
    fn choose(
        &mut self,
        tuple: &Tuple,
        state: &TupleState,
        actions: &[(Action, Hint)],
        rng: &mut SimRng,
    ) -> usize;

    /// Pick one action for a whole batch of tuples sharing the same legal
    /// candidate set — the batched engine's hot path. One decision is
    /// amortized over every member, which is what makes per-tuple
    /// adaptivity affordable at high input rates.
    ///
    /// # Contract
    ///
    /// * `batch` is **never empty**: route groups only open around a first
    ///   member, and the engine debug-asserts this at the dispatch site
    ///   (`EddyExecutor::dispatch_group`). Implementations may rely on
    ///   `batch.first()` being `Some`; the default
    ///   implementation panics on an (impossible) empty batch rather than
    ///   silently picking an arbitrary action.
    /// * `actions` is non-empty, and the `Hint` costs are recomputed at
    ///   dispatch time — they reflect module backlogs at the moment of
    ///   the decision, not at group flush.
    ///
    /// The default falls back to the scalar [`RoutingPolicy::choose`] on
    /// the batch's first tuple (all members face identical candidates, so
    /// any member is a valid representative); `state` is that tuple's
    /// state. Policies that want batch-size-aware scoring override this.
    fn choose_batch(
        &mut self,
        batch: &[Tuple],
        state: &TupleState,
        actions: &[(Action, Hint)],
        rng: &mut SimRng,
    ) -> usize {
        let rep = batch
            .first()
            .expect("choose_batch contract violated: the engine flushes only non-empty groups");
        self.choose(rep, state, actions, rng)
    }

    /// Observe an execution event (default: ignore).
    fn feedback(&mut self, _fb: &Feedback) {}

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Factory enum so configs stay plain data.
#[derive(Debug, Clone)]
pub enum RoutingPolicyKind {
    /// Fixed priority order; optional explicit SteM-probe table order.
    Fixed { probe_order: Option<Vec<TableIdx>> },
    /// Lottery/ticket scheduling.
    Lottery,
    /// Benefit/cost with exploration floor `epsilon` and a value-rate for
    /// the Drop arm (results/sec credited to "wait for the scan").
    BenefitCost { epsilon: f64, drop_rate: f64 },
}

impl Default for RoutingPolicyKind {
    fn default() -> Self {
        RoutingPolicyKind::Fixed { probe_order: None }
    }
}

impl RoutingPolicyKind {
    pub fn build(&self) -> Box<dyn RoutingPolicy> {
        match self {
            RoutingPolicyKind::Fixed { probe_order } => Box::new(FixedOrderPolicy {
                probe_order: probe_order.clone(),
            }),
            RoutingPolicyKind::Lottery => Box::new(LotteryPolicy::new()),
            RoutingPolicyKind::BenefitCost { epsilon, drop_rate } => {
                Box::new(BenefitCostPolicy::new(*epsilon, *drop_rate))
            }
        }
    }
}

/// Rank of an action under the fixed policy: lower runs first.
fn fixed_rank(a: &Action, probe_order: &Option<Vec<TableIdx>>) -> (u8, usize) {
    match a {
        Action::Build { .. } => (0, 0),
        // Selections before probes: cheap filters first (the classic
        // static heuristic).
        Action::Select { .. } => (1, 0),
        Action::ProbeStem { table, .. } => {
            let pos = probe_order
                .as_ref()
                .and_then(|o| o.iter().position(|t| t == table))
                .unwrap_or(table.as_usize());
            (2, pos)
        }
        Action::ProbeAm { .. } => (3, 0),
        Action::Drop => (4, 0),
    }
}

/// Deterministic fixed-priority policy (n-ary SHJ / static-plan emulation).
#[derive(Debug, Clone, Default)]
pub(crate) struct FixedOrderPolicy {
    pub(crate) probe_order: Option<Vec<TableIdx>>,
}

impl RoutingPolicy for FixedOrderPolicy {
    fn choose(
        &mut self,
        _tuple: &Tuple,
        _state: &TupleState,
        actions: &[(Action, Hint)],
        _rng: &mut SimRng,
    ) -> usize {
        actions
            .iter()
            .enumerate()
            .min_by_key(|(_, (a, _))| fixed_rank(a, &self.probe_order))
            .map(|(i, _)| i)
            .expect("choose called with no actions")
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// Ticket-based policy à la the original eddies paper: each destination
/// holds tickets; routing is a weighted lottery; productive destinations
/// (matches emitted, tuples dropped by selections) win tickets.
#[derive(Debug)]
pub(crate) struct LotteryPolicy {
    stem_tickets: FxHashMap<TableIdx, f64>,
    sm_tickets: FxHashMap<stems_types::PredId, f64>,
}

impl LotteryPolicy {
    pub(crate) fn new() -> LotteryPolicy {
        LotteryPolicy {
            stem_tickets: FxHashMap::default(),
            sm_tickets: FxHashMap::default(),
        }
    }

    fn weight(&self, a: &Action) -> f64 {
        match a {
            Action::Build { .. } => return 1e9, // builds are mandatory-ish
            Action::ProbeStem { table, .. } => *self.stem_tickets.get(table).unwrap_or(&1.0),
            Action::Select { pred, .. } => *self.sm_tickets.get(pred).unwrap_or(&1.0),
            Action::ProbeAm { .. } => 1.0,
            Action::Drop => 0.5,
        }
        .max(0.05)
    }
}

impl Default for LotteryPolicy {
    fn default() -> Self {
        LotteryPolicy::new()
    }
}

impl RoutingPolicy for LotteryPolicy {
    fn choose(
        &mut self,
        _tuple: &Tuple,
        _state: &TupleState,
        actions: &[(Action, Hint)],
        rng: &mut SimRng,
    ) -> usize {
        let weights: Vec<f64> = actions.iter().map(|(a, _)| self.weight(a)).collect();
        let total: f64 = weights.iter().sum();
        let mut draw = rng.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            draw -= w;
            if draw <= 0.0 {
                return i;
            }
        }
        actions.len() - 1
    }

    fn feedback(&mut self, fb: &Feedback) {
        match fb {
            Feedback::StemProbe { table, emitted } => {
                let t = self.stem_tickets.entry(*table).or_insert(1.0);
                // Reward matches; mild decay keeps the lottery adaptive.
                *t = (*t * 0.95 + *emitted as f64 * 0.5).clamp(0.05, 100.0);
            }
            Feedback::Selected { pred, passed } => {
                let t = self.sm_tickets.entry(*pred).or_insert(1.0);
                // Selections earn tickets by *dropping* tuples.
                let reward = if *passed { 0.0 } else { 1.0 };
                *t = (*t * 0.95 + reward).clamp(0.05, 100.0);
            }
            Feedback::AmBuild { .. } => {}
            // The lottery already rewards selections only for dropping
            // tuples; observed cost has no ticket to adjust.
            Feedback::SelectCost { .. } => {}
        }
    }

    fn name(&self) -> &'static str {
        "lottery"
    }
}

/// Benefit/cost policy (reconstruction of \[22\] as summarized in §4.1).
///
/// Scores every candidate as expected-benefit per unit expected time and
/// routes to the argmax, with probability `epsilon` of exploring uniformly.
/// Benefits are EWMAs of observations:
///
/// * SteM probe → average concatenations emitted per probe;
/// * selection → expected drop probability (pruning is progress);
/// * AM probe → *freshness*: the fraction of recent AM-fetched rows that
///   were not already in the SteM. As the competing scan fills the SteM,
///   freshness decays and bounced tuples shift from "probe the index" to
///   "drop and let the scan finish" — index→hash hybridization.
#[derive(Debug)]
pub(crate) struct BenefitCostPolicy {
    epsilon: f64,
    /// Value-rate (results/s) credited to the Drop arm — the expected rate
    /// at which the scan side will deliver the same results for free.
    drop_rate: f64,
    stem_yield: FxHashMap<TableIdx, Ewma>,
    sel_pass: FxHashMap<stems_types::PredId, Ewma>,
    /// Observed per-row cost (µs) of expensive selections, from
    /// [`Feedback::SelectCost`]. Absent for cheap comparison predicates,
    /// whose cost stays hint-driven.
    sel_cost: FxHashMap<stems_types::PredId, Ewma>,
    am_fresh: FxHashMap<usize, Ewma>,
}

#[derive(Debug, Clone, Copy)]
struct Ewma {
    value: f64,
    alpha: f64,
}

impl Ewma {
    fn new(init: f64, alpha: f64) -> Ewma {
        Ewma { value: init, alpha }
    }

    fn update(&mut self, obs: f64) {
        self.value += self.alpha * (obs - self.value);
    }
}

impl BenefitCostPolicy {
    pub(crate) fn new(epsilon: f64, drop_rate: f64) -> BenefitCostPolicy {
        BenefitCostPolicy {
            epsilon: epsilon.clamp(0.0, 1.0),
            drop_rate,
            stem_yield: FxHashMap::default(),
            sel_pass: FxHashMap::default(),
            sel_cost: FxHashMap::default(),
            am_fresh: FxHashMap::default(),
        }
    }

    /// Results (or equivalent progress) per second of action time.
    fn score(&self, a: &Action, h: &Hint) -> f64 {
        let secs = (h.est_cost_us.max(1)) as f64 / 1e6;
        match a {
            Action::Build { .. } => 1e12, // BuildFirst: effectively mandatory
            Action::ProbeStem { table, .. } => {
                let y = self.stem_yield.get(table).map(|e| e.value).unwrap_or(1.0);
                (y + 0.05) / secs
            }
            Action::Select { pred, .. } => {
                let pass = self.sel_pass.get(pred).map(|e| e.value).unwrap_or(0.5);
                // Expensive predicates report their observed per-row cost;
                // take the worse of the hint and the observation so a warm
                // memo can cheapen the arm but a cold one never hides its
                // price behind an optimistic static estimate.
                let obs_us = self.sel_cost.get(pred).map(|e| e.value).unwrap_or(0.0);
                let secs = (h.est_cost_us.max(1) as f64).max(obs_us) / 1e6;
                // Benefit of a selection is pruning early: (1 - pass).
                ((1.0 - pass) + 0.05) / secs
            }
            Action::ProbeAm { mid, .. } => {
                let fresh = self.am_fresh.get(mid).map(|e| e.value).unwrap_or(1.0);
                fresh / secs
            }
            Action::Drop => self.drop_rate,
        }
    }
}

impl RoutingPolicy for BenefitCostPolicy {
    fn choose(
        &mut self,
        _tuple: &Tuple,
        _state: &TupleState,
        actions: &[(Action, Hint)],
        rng: &mut SimRng,
    ) -> usize {
        if actions.len() > 1 && rng.chance(self.epsilon) {
            return rng.below(actions.len() as u64) as usize;
        }
        actions
            .iter()
            .enumerate()
            .max_by(|(_, (a1, h1)), (_, (a2, h2))| {
                self.score(a1, h1)
                    .partial_cmp(&self.score(a2, h2))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .expect("choose called with no actions")
    }

    fn feedback(&mut self, fb: &Feedback) {
        match fb {
            Feedback::StemProbe { table, emitted } => {
                self.stem_yield
                    .entry(*table)
                    .or_insert_with(|| Ewma::new(1.0, 0.1))
                    .update(*emitted as f64);
            }
            Feedback::Selected { pred, passed } => {
                self.sel_pass
                    .entry(*pred)
                    .or_insert_with(|| Ewma::new(0.5, 0.1))
                    .update(if *passed { 1.0 } else { 0.0 });
            }
            Feedback::AmBuild { mid, fresh } => {
                self.am_fresh
                    .entry(*mid)
                    .or_insert_with(|| Ewma::new(1.0, 0.05))
                    .update(if *fresh { 1.0 } else { 0.0 });
            }
            Feedback::SelectCost {
                pred,
                rows,
                cost_us,
            } => {
                let per_row = *cost_us as f64 / (*rows).max(1) as f64;
                self.sel_cost
                    .entry(*pred)
                    .or_insert_with(|| Ewma::new(per_row, 0.2))
                    .update(per_row);
            }
        }
    }

    fn name(&self) -> &'static str {
        "benefit-cost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_types::{PredId, Value};

    fn dummy_tuple() -> Tuple {
        Tuple::singleton_of(TableIdx(0), vec![Value::Int(1)])
    }

    fn h(us: Time) -> Hint {
        Hint { est_cost_us: us }
    }

    #[test]
    fn fixed_policy_orders_kinds() {
        let mut p = FixedOrderPolicy::default();
        let acts = vec![
            (Action::Drop, h(1)),
            (
                Action::ProbeStem {
                    mid: 3,
                    table: TableIdx(2),
                },
                h(50),
            ),
            (
                Action::Select {
                    mid: 1,
                    pred: PredId(0),
                },
                h(20),
            ),
        ];
        let i = p.choose(
            &dummy_tuple(),
            &TupleState::new(),
            &acts,
            &mut SimRng::new(1),
        );
        assert!(matches!(acts[i].0, Action::Select { .. }));
    }

    #[test]
    fn fixed_policy_respects_probe_order() {
        let mut p = FixedOrderPolicy {
            probe_order: Some(vec![TableIdx(2), TableIdx(1)]),
        };
        let acts = vec![
            (
                Action::ProbeStem {
                    mid: 1,
                    table: TableIdx(1),
                },
                h(50),
            ),
            (
                Action::ProbeStem {
                    mid: 2,
                    table: TableIdx(2),
                },
                h(50),
            ),
        ];
        let i = p.choose(
            &dummy_tuple(),
            &TupleState::new(),
            &acts,
            &mut SimRng::new(1),
        );
        assert!(matches!(
            acts[i].0,
            Action::ProbeStem {
                table: TableIdx(2),
                ..
            }
        ));
    }

    #[test]
    fn lottery_rewards_productive_stems() {
        let mut p = LotteryPolicy::new();
        for _ in 0..50 {
            p.feedback(&Feedback::StemProbe {
                table: TableIdx(1),
                emitted: 5,
            });
            p.feedback(&Feedback::StemProbe {
                table: TableIdx(2),
                emitted: 0,
            });
        }
        let acts = vec![
            (
                Action::ProbeStem {
                    mid: 1,
                    table: TableIdx(1),
                },
                h(50),
            ),
            (
                Action::ProbeStem {
                    mid: 2,
                    table: TableIdx(2),
                },
                h(50),
            ),
        ];
        let mut rng = SimRng::new(7);
        let wins: usize = (0..1000)
            .filter(|_| {
                let i = p.choose(&dummy_tuple(), &TupleState::new(), &acts, &mut rng);
                matches!(
                    acts[i].0,
                    Action::ProbeStem {
                        table: TableIdx(1),
                        ..
                    }
                )
            })
            .count();
        assert!(wins > 800, "productive stem won only {wins}/1000");
    }

    #[test]
    fn lottery_rewards_selective_sms() {
        let mut p = LotteryPolicy::new();
        for _ in 0..50 {
            p.feedback(&Feedback::Selected {
                pred: PredId(0),
                passed: false, // drops everything: very selective
            });
            p.feedback(&Feedback::Selected {
                pred: PredId(1),
                passed: true,
            });
        }
        let t0 = p.sm_tickets[&PredId(0)];
        let t1 = p.sm_tickets[&PredId(1)];
        assert!(t0 > t1 * 2.0, "t0={t0} t1={t1}");
    }

    #[test]
    fn benefit_cost_prefers_fresh_index_early_then_drops() {
        let mut p = BenefitCostPolicy::new(0.0, 2.0);
        let acts = vec![
            (
                Action::ProbeAm {
                    mid: 9,
                    table: TableIdx(1),
                },
                h(200_000), // 0.2 s lookup
            ),
            (Action::Drop, h(1)),
        ];
        let mut rng = SimRng::new(1);
        // Early: freshness starts at 1.0 ⇒ 5 results/s > drop_rate 2.0.
        let i = p.choose(&dummy_tuple(), &TupleState::new(), &acts, &mut rng);
        assert!(matches!(acts[i].0, Action::ProbeAm { .. }));
        // Feed many duplicate builds: freshness decays, Drop wins.
        for _ in 0..200 {
            p.feedback(&Feedback::AmBuild {
                mid: 9,
                fresh: false,
            });
        }
        let i = p.choose(&dummy_tuple(), &TupleState::new(), &acts, &mut rng);
        assert!(matches!(acts[i].0, Action::Drop));
    }

    #[test]
    fn benefit_cost_cost_sensitivity() {
        let mut p = BenefitCostPolicy::new(0.0, 0.0);
        // Two stems with equal yield: the cheaper one wins.
        let acts = vec![
            (
                Action::ProbeStem {
                    mid: 1,
                    table: TableIdx(1),
                },
                h(1_000),
            ),
            (
                Action::ProbeStem {
                    mid: 2,
                    table: TableIdx(2),
                },
                h(100_000),
            ),
        ];
        let i = p.choose(
            &dummy_tuple(),
            &TupleState::new(),
            &acts,
            &mut SimRng::new(3),
        );
        assert!(matches!(
            acts[i].0,
            Action::ProbeStem {
                table: TableIdx(1),
                ..
            }
        ));
    }

    #[test]
    fn exploration_floor_visits_all_arms() {
        let mut p = BenefitCostPolicy::new(0.2, 10.0);
        let acts = vec![
            (
                Action::ProbeAm {
                    mid: 9,
                    table: TableIdx(1),
                },
                h(200_000),
            ),
            (Action::Drop, h(1)),
        ];
        // Saturate so Drop dominates deterministically.
        for _ in 0..200 {
            p.feedback(&Feedback::AmBuild {
                mid: 9,
                fresh: false,
            });
        }
        let mut rng = SimRng::new(11);
        let am_picks = (0..1000)
            .filter(|_| {
                let i = p.choose(&dummy_tuple(), &TupleState::new(), &acts, &mut rng);
                matches!(acts[i].0, Action::ProbeAm { .. })
            })
            .count();
        // ~ epsilon/2 of choices explore the AM arm.
        assert!(am_picks > 30 && am_picks < 300, "am_picks={am_picks}");
    }

    #[test]
    fn benefit_cost_learns_to_defer_expensive_selection() {
        let mut p = BenefitCostPolicy::new(0.0, 0.0);
        // An unselective, nominally-cheap selection vs a selective join
        // probe. On the static hint alone the selection wins (cheap
        // filters first).
        let acts = vec![
            (
                Action::Select {
                    mid: 1,
                    pred: PredId(0),
                },
                h(10),
            ),
            (
                Action::ProbeStem {
                    mid: 2,
                    table: TableIdx(1),
                },
                h(500),
            ),
        ];
        let mut rng = SimRng::new(5);
        let i = p.choose(&dummy_tuple(), &TupleState::new(), &acts, &mut rng);
        assert!(matches!(acts[i].0, Action::Select { .. }));
        // Observations arrive: the selection passes almost everything and
        // each envelope reports a huge per-row cost (a cold expensive
        // UDF), while the probe's yield stays modest.
        for _ in 0..50 {
            p.feedback(&Feedback::Selected {
                pred: PredId(0),
                passed: true,
            });
            p.feedback(&Feedback::SelectCost {
                pred: PredId(0),
                rows: 10,
                cost_us: 10_000 * 10,
            });
            p.feedback(&Feedback::StemProbe {
                table: TableIdx(1),
                emitted: 1,
            });
        }
        // The learned cost overrides the optimistic hint: defer the
        // selection behind the join.
        let i = p.choose(&dummy_tuple(), &TupleState::new(), &acts, &mut rng);
        assert!(matches!(acts[i].0, Action::ProbeStem { .. }));
    }

    #[test]
    fn policy_kind_factory() {
        assert_eq!(RoutingPolicyKind::default().build().name(), "fixed");
        assert_eq!(RoutingPolicyKind::Lottery.build().name(), "lottery");
        assert_eq!(
            RoutingPolicyKind::BenefitCost {
                epsilon: 0.05,
                drop_rate: 2.0
            }
            .build()
            .name(),
            "benefit-cost"
        );
    }
}
