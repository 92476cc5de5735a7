//! Every legal routing of tiny plans, run to completion.
//!
//! Theorems 1–2 promise the exact result "under any legal routing"; the
//! other suites sample three policies. Here a [`Scripted`] policy replays
//! a script of choice indices, and a depth-first search over its choice
//! points runs *every* routing the router offers, at `batch_size` 1 (one
//! decision per tuple) with `check_constraints` on. Arrival order, which no
//! policy chooses, is varied through scan rates and stall windows. Each
//! run must end with no violation and the reference executor's canonical
//! result.
//!
//! The search never truncates: a case whose routing tree holds more than
//! [`RUN_BOUND`] runs ([`LONG_RUN_BOUND`] in the ignored long mode)
//! fails, and must be made smaller.

use crate::engine::{EddyExecutor, ExecConfig};
use crate::plan::PlanOptions;
use crate::policy::{Hint, RoutingPolicy};
use crate::router::Action;
use crate::stem::StemOptions;
use crate::sync::Lock;
use crate::tuple_state::TupleState;
use std::sync::Arc;
use stems_catalog::{
    reference, Catalog, IndexSpec, QuerySpec, ScanSpec, SourceId, TableDef, TableInstance,
};
use stems_sim::SimRng;
use stems_types::{
    CmpOp, ColRef, ColumnType, PredId, Predicate, Schema, TableIdx, TableSet, Tuple, UdfSpec, Value,
};

/// Most runs one tier-1 case (every arrival order and fusion setting
/// together) may take.
const RUN_BOUND: usize = 50_000;

/// Most runs one case of the long mode may take.
const LONG_RUN_BOUND: usize = 500_000;

/// The choice points of one run: at each, the index taken and how many
/// actions were offered.
type Trail = Vec<(usize, usize)>;

/// Takes the `i`-th choice point's action from the script, and the first
/// action past its end; records every choice point it meets.
struct Scripted {
    script: Vec<usize>,
    trail: Arc<Lock<Trail>>,
}

impl RoutingPolicy for Scripted {
    fn choose(
        &mut self,
        _tuple: &Tuple,
        _state: &TupleState,
        actions: &[(Action, Hint)],
        _rng: &mut SimRng,
    ) -> usize {
        let mut trail = self.trail.lock_ok();
        let pick = self.script.get(trail.len()).copied().unwrap_or(0);
        trail.push((pick, actions.len()));
        pick
    }

    fn name(&self) -> &'static str {
        "scripted"
    }
}

/// How a source is reached.
#[derive(Clone, Copy)]
enum Access {
    Scan,
    /// An index on column 1 only: rows arrive as probe replies.
    Index,
    /// A scan beside an index on column 1 (index/hash hybridization).
    ScanAndIndex,
}

/// One tiny query: its sources (rows of `(k, a)`), the source of each
/// instance, its predicates, and the plan options it runs under.
struct Case {
    name: &'static str,
    sources: Vec<(Vec<[i64; 2]>, Access)>,
    instances: Vec<usize>,
    predicates: Vec<Predicate>,
    plan: PlanOptions,
}

fn col(t: u8, c: usize) -> ColRef {
    ColRef::new(TableIdx(t), c)
}

fn join(id: u16, l: (u8, usize), r: (u8, usize)) -> Predicate {
    Predicate::join(PredId(id), col(l.0, l.1), CmpOp::Eq, col(r.0, r.1))
}

fn select(id: u16, t: u8, c: usize, op: CmpOp, v: i64) -> Predicate {
    Predicate::selection(PredId(id), col(t, c), op, Value::Int(v))
}

impl Case {
    /// The catalog and query, every scan delivering under `arrival(i)`
    /// for source `i`.
    fn build(&self, arrival: fn(usize) -> ScanSpec) -> (Catalog, QuerySpec) {
        let mut c = Catalog::new();
        let schema = Schema::of(&[("k", ColumnType::Int), ("a", ColumnType::Int)]);
        let ids: Vec<SourceId> = self
            .sources
            .iter()
            .enumerate()
            .map(|(i, (rows, access))| {
                let rows = rows
                    .iter()
                    .map(|r| vec![Value::Int(r[0]), Value::Int(r[1])])
                    .collect();
                let def = TableDef::new(&format!("t{i}"), schema.clone()).with_rows(rows);
                let id = c.add_table(def).unwrap();
                if matches!(access, Access::Scan | Access::ScanAndIndex) {
                    c.add_scan(id, arrival(i)).unwrap();
                }
                if matches!(access, Access::Index | Access::ScanAndIndex) {
                    c.add_index(id, IndexSpec::new(vec![1], 40)).unwrap();
                }
                id
            })
            .collect();
        let tables = self
            .instances
            .iter()
            .enumerate()
            .map(|(i, &s)| TableInstance {
                source: ids[s],
                alias: format!("i{i}"),
            })
            .collect();
        let q = QuerySpec::new(&c, tables, self.predicates.clone(), None).unwrap();
        (c, q)
    }
}

/// How a source's scan delivers under one arrival order.
type Arrival = (&'static str, fn(usize) -> ScanSpec);

/// Arrival orders: every source at one fast rate (rows of different
/// sources land together, while earlier rows are still in flight); a
/// burst, each scan done before its first row is served (so its EOT
/// queues behind rows still in flight); the burst with source 0 a little
/// late; staggered rates; and source 0 stalled behind the others.
const ARRIVALS: [Arrival; 5] = [
    ("together", |_| ScanSpec::with_rate(25_000.0)),
    ("burst", |_| ScanSpec::with_rate(1_000_000.0)),
    ("burst, first late", |i| {
        let spec = ScanSpec::with_rate(1_000_000.0);
        if i == 0 {
            spec.stalled_during(0, 30)
        } else {
            spec
        }
    }),
    ("staggered", |i| {
        ScanSpec::with_rate(25_000.0 / (i + 1) as f64)
    }),
    ("first stalled", |i| {
        let spec = ScanSpec::with_rate(25_000.0);
        if i == 0 {
            spec.stalled_during(0, 200)
        } else {
            spec
        }
    }),
];

/// The long mode's further orders: the stagger reversed, and the last
/// source stalled while the first finishes.
const MORE_ARRIVALS: [Arrival; 2] = [
    ("reverse staggered", |i| {
        ScanSpec::with_rate(25_000.0 / (3 - i.min(2)) as f64)
    }),
    ("others stalled", |i| {
        let spec = ScanSpec::with_rate(25_000.0);
        if i == 0 {
            spec
        } else {
            spec.stalled_during(0, 150)
        }
    }),
];

/// One run under `script`: its choice points, checked against the
/// reference executor.
fn run_one(case: &Case, c: &Catalog, q: &QuerySpec, fuse: bool, script: &[usize]) -> Trail {
    let config = ExecConfig {
        batch_size: 1,
        fuse_selections: fuse,
        check_constraints: true,
        plan: case.plan.clone(),
        ..ExecConfig::default()
    };
    let mut exec = EddyExecutor::build(c, q, config).unwrap();
    let trail = Arc::default();
    exec.set_policy(Box::new(Scripted {
        script: script.to_vec(),
        trail: Arc::clone(&trail),
    }));
    let report = exec.run();
    let ctx = format!("{} (fuse {fuse}), script {script:?}", case.name);
    assert!(
        report.violations.is_empty(),
        "{ctx}: {:?}",
        report.violations
    );
    let want = reference::canonical(c, q, &reference::execute(c, q));
    assert_eq!(report.canonical(c, q), want, "{ctx}");
    let trail = trail.lock_ok().clone();
    trail
}

/// Run every routing of `case` under every arrival order of `arrivals`,
/// fused and unfused; returns the number of runs, which must not exceed
/// `bound`.
fn search(case: &Case, arrivals: &[Arrival], bound: usize) -> usize {
    let mut runs = 0;
    for (arrival, spec) in arrivals {
        let (c, q) = case.build(*spec);
        for fuse in [false, true] {
            let ctx = format!("{} ({arrival}, fuse {fuse})", case.name);
            // Depth first: rerun the trail's prefix up to its last choice
            // point with an untried action, taking that action next.
            let mut script: Trail = Vec::new();
            loop {
                runs += 1;
                assert!(
                    runs <= bound,
                    "{ctx}: more than {bound} routings; make the case smaller"
                );
                let picks: Vec<usize> = script.iter().map(|&(pick, _)| pick).collect();
                let trail = run_one(case, &c, &q, fuse, &picks);
                // The engine is deterministic: a replayed prefix meets the
                // same choice points.
                assert_eq!(
                    trail.get(..script.len()),
                    Some(&script[..]),
                    "{ctx}: a replay diverged"
                );
                script = trail;
                while let Some((pick, n)) = script.pop() {
                    if pick + 1 < n {
                        script.push((pick + 1, n));
                        break;
                    }
                }
                if script.is_empty() {
                    break;
                }
            }
        }
    }
    eprintln!("{}: {runs} runs", case.name);
    runs
}

/// R(k, a) ⋈ S(k, a) on `a`, two selections on R that fail different
/// rows, so their order before R's build is a choice point.
fn two_selections() -> Case {
    Case {
        name: "two selections",
        sources: vec![
            (vec![[0, 1], [1, 1], [3, 2]], Access::Scan),
            (vec![[1, 1], [2, 2]], Access::Scan),
        ],
        instances: vec![0, 1],
        predicates: vec![
            join(0, (0, 1), (1, 1)),
            select(1, 0, 0, CmpOp::Gt, 0),
            select(2, 0, 0, CmpOp::Lt, 3),
        ],
        plan: PlanOptions::default(),
    }
}

/// A `hash_sieve` UDF selection on S beside a plain one on R.
fn udf_selection() -> Case {
    Case {
        name: "udf selection",
        sources: vec![
            (vec![[0, 1], [1, 2]], Access::Scan),
            (vec![[3, 1], [4, 2], [5, 1]], Access::Scan),
        ],
        instances: vec![0, 1],
        predicates: vec![
            join(0, (0, 1), (1, 1)),
            select(1, 0, 0, CmpOp::Gt, 0),
            Predicate::udf(PredId(2), col(1, 0), UdfSpec::hash_sieve(500, 100)),
        ],
        plan: PlanOptions::default(),
    }
}

/// S is reached only through an index on `a`, and selected: its rows
/// arrive as probe replies, some of which fail the selection. R's UDF
/// selection runs after R's build, so R chooses between it and the
/// index.
fn index_source() -> Case {
    Case {
        name: "index source",
        sources: vec![
            (vec![[0, 1], [1, 2]], Access::Scan),
            (vec![[1, 1], [2, 1], [3, 2]], Access::Index),
        ],
        instances: vec![0, 1],
        predicates: vec![
            join(0, (0, 1), (1, 1)),
            select(1, 1, 0, CmpOp::Gt, 1),
            Predicate::udf(PredId(2), col(0, 0), UdfSpec::hash_sieve(500, 100)),
        ],
        plan: PlanOptions::default(),
    }
}

/// S has a scan and an index: a row may arrive twice, and the index arm
/// may be dropped.
fn hybrid_source() -> Case {
    Case {
        name: "hybrid source",
        sources: vec![
            (vec![[0, 1], [1, 2]], Access::Scan),
            (vec![[1, 1], [2, 2]], Access::ScanAndIndex),
        ],
        instances: vec![0, 1],
        predicates: vec![join(0, (0, 1), (1, 1)), select(1, 1, 0, CmpOp::Gt, 1)],
        plan: PlanOptions::default(),
    }
}

/// R ⋈ R on `a = k`, one instance selected: the two instances share a
/// scan and differ in what they keep. The other instance's UDF selection
/// runs after its build, so it chooses between that and the probe.
fn self_join() -> Case {
    Case {
        name: "self-join",
        sources: vec![(vec![[1, 1], [2, 1], [1, 2]], Access::Scan)],
        instances: vec![0, 0],
        predicates: vec![
            join(0, (0, 1), (1, 0)),
            select(1, 0, 0, CmpOp::Lt, 2),
            Predicate::udf(PredId(2), col(1, 1), UdfSpec::hash_sieve(500, 100)),
        ],
        plan: PlanOptions::default(),
    }
}

/// A 3-table chain R ⋈ S ⋈ T, S selected.
fn chain3() -> Case {
    Case {
        name: "chain of three",
        sources: vec![
            (vec![[0, 1], [1, 2]], Access::Scan),
            (vec![[1, 1], [2, 2]], Access::Scan),
            (vec![[1, 0], [2, 1]], Access::Scan),
        ],
        instances: vec![0, 1, 2],
        predicates: vec![
            join(0, (0, 1), (1, 1)),
            join(1, (1, 0), (2, 0)),
            select(2, 1, 0, CmpOp::Gt, 1),
        ],
        plan: PlanOptions::default(),
    }
}

/// R has no SteM (§3.5): its tuples probe S's SteM unbuilt and take S's
/// EOT as the sign that every S row is there. S is selected.
fn stemless_prober() -> Case {
    Case {
        name: "stemless prober",
        sources: vec![
            (vec![[0, 1], [1, 2]], Access::Scan),
            (vec![[1, 1], [2, 2], [3, 1]], Access::Scan),
        ],
        instances: vec![0, 1],
        predicates: vec![
            join(0, (0, 1), (1, 1)),
            select(1, 1, 0, CmpOp::Gt, 1),
            select(2, 1, 1, CmpOp::Gt, 0),
        ],
        plan: PlanOptions {
            no_stem: TableSet::single(TableIdx(0)),
            ..PlanOptions::default()
        },
    }
}

/// Grace mode (§3.1): every build bounce-back is withheld until its
/// table's scan EOT releases them. R and S are selected.
fn grace() -> Case {
    Case {
        name: "grace",
        sources: vec![
            (vec![[0, 1], [1, 2]], Access::Scan),
            (vec![[1, 1], [2, 2], [3, 1]], Access::Scan),
        ],
        instances: vec![0, 1],
        predicates: vec![
            join(0, (0, 1), (1, 1)),
            select(1, 0, 0, CmpOp::Gt, 0),
            select(2, 1, 0, CmpOp::Gt, 1),
        ],
        plan: PlanOptions {
            default_stem: StemOptions {
                deferred_bounce: true,
                ..StemOptions::default()
            },
            ..PlanOptions::default()
        },
    }
}

/// Larger cases for the long mode: three selected instances of three
/// rows, one reached through an index; and a selected self-join inside a
/// chain.
fn long_cases() -> [Case; 3] {
    [
        Case {
            name: "selected chain with an index",
            sources: vec![
                (vec![[0, 1], [1, 2], [2, 1]], Access::Scan),
                (vec![[1, 1], [3, 1]], Access::Index),
                (vec![[1, 0], [3, 2]], Access::Scan),
            ],
            instances: vec![0, 1, 2],
            predicates: vec![
                join(0, (0, 1), (1, 1)),
                join(1, (1, 0), (2, 0)),
                select(2, 0, 0, CmpOp::Gt, 0),
                select(3, 0, 1, CmpOp::Lt, 3),
                select(4, 1, 0, CmpOp::Lt, 3),
                select(5, 2, 1, CmpOp::Gt, 0),
            ],
            plan: PlanOptions::default(),
        },
        Case {
            name: "self-join in a chain",
            sources: vec![
                (vec![[1, 1], [2, 1], [1, 2]], Access::Scan),
                (vec![[1, 0], [2, 1]], Access::Scan),
            ],
            instances: vec![0, 0, 1],
            predicates: vec![
                join(0, (0, 1), (1, 0)),
                join(1, (1, 1), (2, 0)),
                select(2, 0, 0, CmpOp::Lt, 2),
                select(3, 1, 1, CmpOp::Gt, 0),
                Predicate::udf(PredId(4), col(2, 1), UdfSpec::hash_sieve(500, 100)),
            ],
            plan: PlanOptions::default(),
        },
        Case {
            name: "UDF selections on a chain",
            sources: vec![
                (vec![[0, 1], [1, 2], [2, 1]], Access::Scan),
                (vec![[1, 1], [2, 2], [3, 1]], Access::Scan),
                (vec![[1, 0], [2, 1], [3, 3]], Access::Scan),
            ],
            instances: vec![0, 1, 2],
            predicates: vec![
                join(0, (0, 1), (1, 1)),
                join(1, (1, 0), (2, 0)),
                select(2, 0, 0, CmpOp::Gt, 0),
                Predicate::udf(PredId(3), col(0, 0), UdfSpec::hash_sieve(500, 100)),
                Predicate::udf(PredId(4), col(1, 1), UdfSpec::hash_sieve(500, 100)),
                Predicate::udf(PredId(5), col(2, 1), UdfSpec::hash_sieve(500, 100)),
            ],
            plan: PlanOptions::default(),
        },
    ]
}

#[test]
fn every_routing_of_two_selections_is_exact() {
    search(&two_selections(), &ARRIVALS, RUN_BOUND);
}

#[test]
fn every_routing_of_a_udf_selection_is_exact() {
    search(&udf_selection(), &ARRIVALS, RUN_BOUND);
}

#[test]
fn every_routing_of_an_index_source_is_exact() {
    search(&index_source(), &ARRIVALS, RUN_BOUND);
}

#[test]
fn every_routing_of_a_hybrid_source_is_exact() {
    search(&hybrid_source(), &ARRIVALS, RUN_BOUND);
}

#[test]
fn every_routing_of_a_self_join_is_exact() {
    search(&self_join(), &ARRIVALS, RUN_BOUND);
}

#[test]
fn every_routing_of_a_chain_of_three_is_exact() {
    search(&chain3(), &ARRIVALS, RUN_BOUND);
}

#[test]
fn every_routing_of_a_stemless_prober_is_exact() {
    search(&stemless_prober(), &ARRIVALS, RUN_BOUND);
}

#[test]
fn every_routing_of_grace_mode_is_exact() {
    search(&grace(), &ARRIVALS, RUN_BOUND);
}

/// The long mode: the tier-1 cases under two more arrival orders, and
/// larger plans. `cargo test --release -p stems-core --lib
/// routing_search::long_mode -- --ignored` runs it.
#[test]
#[ignore = "long mode: the scheduled CI leg runs it"]
fn long_mode_every_routing_of_larger_plans_is_exact() {
    let arrivals: Vec<Arrival> = ARRIVALS.into_iter().chain(MORE_ARRIVALS).collect();
    let tier1 = [
        two_selections(),
        udf_selection(),
        index_source(),
        hybrid_source(),
        self_join(),
        chain3(),
        stemless_prober(),
        grace(),
    ];
    for case in tier1.into_iter().chain(long_cases()) {
        search(&case, &arrivals, LONG_RUN_BOUND);
    }
}
