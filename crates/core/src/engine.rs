//! The eddy executor: a discrete-event loop that routes tuples between
//! modules (paper §2.1.1).
//!
//! "The eddy's role is to continuously route tuples among the rest of the
//! modules, according to a routing policy. ... A tuple is removed from the
//! eddy's dataflow and sent to the output if it spans all base tables and
//! is verified to pass all predicates. The eddy terminates the query when
//! there are no tuples in the dataflow, and each module has finished
//! processing all the tuples sent to it."
//!
//! Every module runs as a serial server with its own input queue and
//! per-operation virtual service times; index AMs additionally answer
//! probes asynchronously with their configured latency. Termination is the
//! natural emptiness of the event agenda — exactly the paper's condition.
//!
//! # Batched routing
//!
//! The default engine path routes batches of tuples, not single tuples.
//! Whenever a set of tuples re-enters the eddy together (a probe's
//! concatenations, an index AM's response, a Grace release, an unpark
//! wave), the eddy computes each tuple's legal candidate set — the Table 2
//! constraint checks stay **per tuple** — and then groups tuples whose
//! candidate sets are identical. Each group of up to
//! [`ExecConfig::batch_size`] tuples pays *one* routing-policy decision,
//! one envelope, and one pair of start/complete events, amortizing the
//! per-tuple adaptivity overhead that tuple-at-a-time eddies suffer.
//! `batch_size: 1` reproduces the scalar tuple-at-a-time engine exactly.
//!
//! # The per-tuple rule
//!
//! The eddy touches every tuple on every hop, so whatever it does per
//! tuple besides the join work is the price of adaptivity. One rule keeps
//! that price to bookkeeping: **nothing on the per-tuple path may hash,
//! compare or allocate a name or a graph.** Every metric the engine can
//! record is resolved to a [`MetricId`] once, in [`EddyExecutor::build`]
//! (`MetricIds`), and updated by id — and only the metrics something plots
//! keep a series point per instant, the rest being declared counts; the
//! join graph is built once by [`crate::plan::instantiate`] into
//! `PlanLayout::graph`; and the router fills one candidate buffer the
//! executor owns. It runs once per run of members with equal routing keys
//! (`router::RouteKey`: everything the router reads of a member), not once
//! per member. Clippy's `disallowed_methods` (by-name `Metrics::bump` and
//! `Metrics::observe` are banned in this crate, `crates/core/clippy.toml`)
//! and `tests/alloc_route.rs` keep it that way. (`format!` remains in configuration errors, in id
//! resolution at build, and in violation and trace messages, which a
//! correct untraced run never builds.)
//!
//! The same holds for memory: **the envelope is the unit of allocation,
//! and envelopes are recycled.** A module's output, a route group and a
//! queued envelope are one `Wave` that changes hands (`wave.rs` has the
//! life cycle) and returns to a bounded per-executor `WavePool`; the
//! other per-envelope lists live in the executor; what is a pure
//! function of the query — `PlanLayout::links` — is a table built at plan
//! time; and a queued envelope carries the [`Action`] it was routed by,
//! which names everything its module needs of the decision. There is one
//! path: a tuple-at-a-time run is the batched code on one-member waves,
//! and `tests/alloc_step.rs` holds both to allocating for their tuples
//! only.

use crate::am::IndexProbeOutcome;
use crate::plan::{instantiate, Module, PlanLayout, PlanOptions};
use crate::policy::{Feedback, Hint, RoutingPolicy, RoutingPolicyKind};
use crate::report::Report;
use crate::router::{self, Action, NoCandidates, RouteKey};
use crate::server::Registry;
use crate::stem::{eot_bindings, BuildResult, ProbeOutcome, ProbeReplySet, Stem};
use crate::tuple_state::{CompletionNeed, PriorProber, TupleState};
use crate::wave::{Wave, WavePool};
use std::collections::VecDeque;
use std::ops::Range;
use stems_catalog::{Catalog, QuerySpec};
use stems_sim::{EventQueue, MetricId, Metrics, SimRng, Time};
use stems_storage::fxhash::FxHashSet;
use stems_types::{Predicate, Result, StemsError, TableIdx, Timestamp, Tuple, Value};

/// Virtual service times of local (in-process) operations, in µs. These
/// stand in for the CPU costs of the paper's Java modules; remote costs
/// (scan rates, index latencies) come from the access-method specs.
#[derive(Debug, Clone)]
pub struct CostModel {
    pub stem_build_us: u64,
    pub stem_probe_us: u64,
    pub per_match_us: u64,
    pub sm_us: u64,
    pub am_accept_us: u64,
    /// Probe-cost multiplier for Grace-mode clustered releases (< 1.0
    /// models the I/O locality of partition-clustered probing, §3.1).
    pub clustered_probe_discount: f64,
    /// Ignored; removed when `benchmark/` stops naming it. A SteM
    /// envelope is charged per member.
    pub shard_parallel_service: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            stem_build_us: 20,
            stem_probe_us: 30,
            per_match_us: 5,
            sm_us: 10,
            am_accept_us: 10,
            clustered_probe_discount: 1.0,
            shard_parallel_service: false,
        }
    }
}

/// Execution configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    pub policy: RoutingPolicyKind,
    pub seed: u64,
    pub costs: CostModel,
    /// Instantiation options (SteM backends, BuildFirst mode, §3.5
    /// exemptions).
    pub plan: PlanOptions,
    /// Restrict SteM probes to these join-graph edges (static spanning
    /// tree emulation, §3.4). `None` = fully dynamic.
    pub probe_edges: Option<Vec<(TableIdx, TableIdx)>>,
    /// User-interest predicate (§4.1): matching tuples jump module queues
    /// and their results are counted separately.
    pub priority_pred: Option<Predicate>,
    /// Maximum tuples routed per policy decision / module envelope, and
    /// the cap on rows a scan may emit per event (chunked ingestion). `1`
    /// reproduces the scalar tuple-at-a-time engine; larger values
    /// amortize routing overhead over same-destination tuples. Default
    /// 64; the suites that build executors run each case at 1 and 64.
    pub batch_size: usize,
    /// Ignored; removed when `benchmark/` stops naming it.
    pub num_shards: usize,
    /// Worker budget of the query server's wave drain: how many threads
    /// (the server's own included) step a wave's independent executors
    /// (`runtime::for_each_parallel`). Defaults to the host's available
    /// parallelism; the server suites run at 1, 2 and 4. `1` steps every
    /// executor on the server's thread. A single executor never reads it.
    /// Splitting one probe envelope of ≥ 256 members across `workers`
    /// threads (`runtime::for_each_parallel`, one `ProbeReplySet` per
    /// chunk, concatenated in member order) was tried and lost: on a
    /// 2-core host `join_sharded` fell from 1.52 M to 1.26 M rows/s
    /// (0.83×, 6 of 6 pairs lost) — a thread scope per envelope costs
    /// more than the probe work it spreads.
    pub workers: usize,
    /// Ignored; removed when `benchmark/` stops naming it.
    pub parallel_min_rows: usize,
    /// Conjunction fusion: when a batch is routed to a Selection Module,
    /// also apply every *sibling* selection over the same table instance
    /// that all batch members are still eligible for, in one pass with
    /// short-circuit verdict merging ([`crate::sm::Sm::apply_batch_fused`]).
    /// Per-predicate feedback and virtual cost are charged exactly as the
    /// sequential cascade would have been; the saving is the dropped
    /// routing hops and envelopes. `false` reproduces the strict
    /// one-SM-per-hop cascade.
    pub fuse_selections: bool,
    /// Verdict memoization for expensive UDF predicates: when `true`
    /// (the default), every UDF predicate gets a [`crate::memo::MemoCache`]
    /// so its verdict is computed — and its virtual latency paid — once
    /// per distinct input key; the query server additionally folds one
    /// cache across queries sharing a predicate identity. Verdicts are
    /// bit-identical either way; only computed-call counts and virtual
    /// time change.
    pub memo: bool,
    /// Byte budget per memo cache, enforced shard-locally with
    /// clock/second-chance eviction over `Value::approx_bytes`
    /// accounting. Default `crate::memo::DEFAULT_MEMO_BYTES`.
    pub memo_bytes: usize,
    /// Envelope-level dedup for UDF predicates: group an envelope's rows
    /// by input key and evaluate one representative per distinct key
    /// ([`crate::sm::Sm::apply_batch_udf`]). Independent of `memo` (the
    /// four on/off combinations are held equal by `engine_e2e`). Default
    /// on.
    pub udf_dedup: bool,
    /// BoundedRepetition backstop.
    pub max_hops: u32,
    /// Simulation guards.
    pub max_events: u64,
    pub max_time: Option<Time>,
    /// Verify invariants while running (tests); violations are collected
    /// in the report instead of panicking.
    pub check_constraints: bool,
    /// Record a routing trace (capped at `trace_limit` events) — the
    /// observability hook for debugging policies and demos.
    pub trace: bool,
    pub trace_limit: usize,
}

/// A rejected engine configuration: a field value no engine layer can
/// run with (`ExecConfig::validate`). Long-lived callers (the query
/// server) handle it as a startup error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

impl ExecConfig {
    /// Reject field values no engine layer can run with. Called by
    /// [`EddyExecutor::build`] (and thus the server at admission) and by
    /// the server builder.
    pub(crate) fn validate(&self) -> std::result::Result<(), ConfigError> {
        for (name, value) in [
            ("batch_size", self.batch_size),
            ("workers", self.workers),
            ("memo_bytes", self.memo_bytes),
        ] {
            if value == 0 {
                return Err(ConfigError(format!("ExecConfig.{name} must be >= 1")));
            }
        }
        Ok(())
    }
}

impl Default for ExecConfig {
    /// The batched engine (64 tuples an envelope) with a worker budget of
    /// the host's available parallelism. Reads no environment.
    fn default() -> Self {
        ExecConfig {
            policy: RoutingPolicyKind::default(),
            seed: 42,
            costs: CostModel::default(),
            plan: PlanOptions::default(),
            probe_edges: None,
            priority_pred: None,
            batch_size: 64,
            num_shards: 1,
            workers: crate::runtime::host_parallelism(),
            parallel_min_rows: 1,
            fuse_selections: true,
            memo: true,
            memo_bytes: crate::memo::DEFAULT_MEMO_BYTES,
            udf_dedup: true,
            max_hops: 1_000_000,
            max_events: 200_000_000,
            max_time: None,
            check_constraints: false,
            trace: false,
            trace_limit: 100_000,
        }
    }
}

/// A wave of same-destination tuples in a module's input queue: all
/// members were routed by one policy decision, `action` (never
/// [`Action::Drop`]), and are processed under one service envelope.
#[derive(Debug)]
struct Envelope {
    wave: Wave,
    action: Action,
}

/// A group [`EddyExecutor::route_wave`] opened from the pool: its
/// members, and where the candidate signature they share sits in the
/// routing call's signature buffer — a group is the only phase of a wave
/// that has a signature, so the wave carries none.
#[derive(Debug)]
struct Group {
    wave: Wave,
    sig: Range<usize>,
}

/// What [`EddyExecutor::route_wave`] does with a member — a function of
/// its [`RouteKey`], so a run of members with equal keys shares one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// Full span, every predicate passed: a result.
    Output,
    /// Nothing left to do ([`NoCandidates::Retire`]).
    Retire,
    /// Wait for the completion table's SteM ([`NoCandidates::Park`]).
    Park(TableIdx),
    /// Group by the candidate list, for one policy decision per group.
    Route,
}

/// Whether a member the eddy routes is an EOT. Only a singleton can be:
/// a SteM stores no EOT row and an index reply's EOT is a singleton, so no
/// composite the engine forms holds one, and the cold component headers of
/// a composite are never read to find that out.
fn is_eot_member(tuple: &Tuple) -> bool {
    tuple.is_singleton() && tuple.is_eot()
}

/// Where [`EddyExecutor::route_wave`] puts a routed member: the group the
/// delivery hosts in place, or the `i`-th group it opened from the pool.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Home,
    Open(usize),
}

/// Signal attached to a completed build, used to wake parked tuples.
#[derive(Debug)]
enum UnparkSignal {
    AnyBuild(TableIdx),
    Eot {
        table: TableIdx,
        /// `None` = full-relation (scan) EOT.
        bindings: Option<Vec<(usize, Value)>>,
    },
}

impl UnparkSignal {
    fn wakes(&self, p: &ParkedTuple) -> bool {
        match self {
            UnparkSignal::AnyBuild(t) => p.table == *t && matches!(p.kind, ParkKind::AnyBuild),
            UnparkSignal::Eot { table, bindings } => {
                p.table == *table
                    && match (&p.kind, bindings) {
                        (ParkKind::AnyBuild, _) | (ParkKind::Coverage(_), None) => true,
                        (ParkKind::Coverage(pb), Some(eb)) => eb.iter().all(|b| pb.contains(b)),
                    }
            }
        }
    }
}

enum Event {
    /// A module may begin its next queued envelope.
    Start(usize),
    /// A module finished an envelope: deliver what it left in its
    /// [`ModuleRt::out`] slot. A module serves one envelope at a time, so
    /// the slot needs no key and the event carries no buffer.
    Complete(usize),
    /// A scan emits its next row (or EOT).
    ScanEmit(usize),
    /// An index lookup entered service (fig-7(ii)'s probe counter).
    AmIssue(usize),
    /// An index lookup finished; deliver matches + EOT.
    AmResponse(usize, Vec<Value>),
    /// A later wave of a chunked index reply ([`IndexSpec::reply_chunk`]):
    /// tuples already produced by the lookup, arriving on the burst-gap
    /// cadence. The response event carved the reply and scheduled these;
    /// the AM itself is not consulted again.
    AmReplyWave(usize, Vec<Tuple>),
}

enum ParkKind {
    /// Unbuilt re-prober (§3.5): any build to the table may help.
    AnyBuild,
    /// Built prior prober awaiting coverage: only a matching EOT helps.
    Coverage(Vec<(usize, Value)>),
}

struct ParkedTuple {
    tuple: Tuple,
    state: TupleState,
    table: TableIdx,
    kind: ParkKind,
}

struct ModuleRt {
    queue: VecDeque<Envelope>,
    busy: bool,
    /// What the envelope in service emits, held until its
    /// [`Event::Complete`] fires.
    out: Option<Wave>,
    /// The wake-up signals of the build envelope in service (the buffer
    /// stays with the module across envelopes).
    unparks: Vec<UnparkSignal>,
}

/// Declares [`MetricIds`]: one [`MetricId`] field per listed metric,
/// named exactly as the metric is, plus the two families whose names
/// carry a number (both curves). `resolve` is the only place the engine
/// spells a metric name — a name missing here cannot be recorded at all —
/// and the list a name sits in is the only place its kind is chosen: a
/// `curves` entry keeps its series ([`Metrics::id`]), a `counts` entry its
/// value alone ([`Metrics::count_id`]).
macro_rules! metric_ids {
    (
        curves { $($curve:ident),* $(,)? }
        counts { $($count:ident),* $(,)? }
    ) => {
        /// Every metric id an executor can touch, resolved once at build.
        struct MetricIds {
            $($curve: MetricId,)*
            $($count: MetricId,)*
            /// `span<k>_formed`, indexed by span size `k`.
            span_formed: Vec<MetricId>,
            /// `stem_bytes_<t>`, indexed by table instance.
            stem_bytes: Vec<MetricId>,
        }

        impl MetricIds {
            fn resolve(metrics: &mut Metrics, n_tables: usize) -> MetricIds {
                MetricIds {
                    $($curve: metrics.id(stringify!($curve)),)*
                    $($count: metrics.count_id(stringify!($count)),)*
                    span_formed: (0..=n_tables)
                        .map(|k| metrics.id(&format!("span{k}_formed")))
                        .collect(),
                    stem_bytes: (0..n_tables)
                        .map(|t| metrics.id(&format!("stem_bytes_{}", TableIdx(t as u8))))
                        .collect(),
                }
            }
        }

        /// The `counts` names: the metrics that keep no series.
        #[cfg(test)]
        pub(crate) const COUNTS: &[&str] = &[$(stringify!($count)),*];
    };
}

metric_ids! {
    // What a figure, example, report or the benchmark reads point by
    // point: counters first, then the raw series.
    curves {
        am_probe_choices,
        duplicates_absorbed,
        filtered,
        index_probes,
        policy_drops,
        priority_results,
        results,
        scanned,
        sm_applied,
        end,
        stem_bytes_total,
    }
    // Totals only: read as `counter`, never as a curve (the test
    // `source_guard::no_count_is_read_as_a_series` holds every reader to
    // that).
    counts {
        am_dup_builds,
        am_fresh_builds,
        am_responses,
        fused_selects,
        hints_recosted,
        hops_exceeded,
        memo_evictions,
        memo_hits,
        memo_misses,
        parked,
        probes_bounced,
        probes_coalesced,
        probes_consumed,
        probes_queued,
        retired,
        route_batches,
        stem_probes,
        udf_calls,
        unparked,
    }
}

/// The eddy executor. Build one with [`EddyExecutor::build`], run it to
/// completion with [`EddyExecutor::run`].
pub struct EddyExecutor {
    query: QuerySpec,
    config: ExecConfig,
    modules: Vec<Module>,
    rt: Vec<ModuleRt>,
    layout: PlanLayout,
    agenda: EventQueue<Event>,
    policy: Box<dyn RoutingPolicy>,
    rng: SimRng,
    now: Time,
    ts_counter: Timestamp,
    /// A simulation guard tripped: the executor stops stepping for good.
    halted: bool,
    /// The guard that halted us was `max_time` — the query's deadline —
    /// rather than `max_events`. The query server reaps deadline halts
    /// as `QueryStatus::TimedOut`.
    timed_out: bool,
    parked: Vec<ParkedTuple>,
    results: Vec<Tuple>,
    metrics: Metrics,
    ids: MetricIds,
    events: u64,
    violations: Vec<String>,
    output_seen: FxHashSet<Tuple>,
    trace: Vec<crate::report::TraceEvent>,
    /// Reusable probe-reply arena, with the probe's envelope buffers: one
    /// per executor, cleared per probe envelope, so the steady-state reply
    /// path never allocates per tuple.
    reply_set: ProbeReplySet,
    /// Reusable candidate list for [`Self::route_wave`] (taken out and
    /// restored around it, like `reply_set`): the router fills it per
    /// tuple and it is copied — into a recycled wave's signature — only
    /// when a tuple opens a new group.
    candidates: Vec<Action>,
    /// Debug builds decide again into this buffer for every member whose
    /// routing decision [`Self::route_wave`] reused, and compare.
    recheck: Vec<Action>,
    /// The bounded free list every wave buffer comes from and returns to
    /// (see [`crate::wave`] for the life cycle and the bound).
    waves: WavePool,
    /// [`Self::route_wave`]'s working lists, empty between calls: the
    /// open groups of the wave being routed, the flushed groups awaiting
    /// dispatch, and every group's candidate signature, end to end.
    groups: Vec<Group>,
    flushed: Vec<Group>,
    signatures: Vec<Action>,
    /// Modules earlier dispatches of the current burst routed into — any
    /// later wave offering one of them had a stale flush-time backlog
    /// view. At most one entry per module.
    touched: Vec<usize>,
    /// [`Self::dispatch_group`]'s costed candidate list.
    pairs: Vec<(Action, Hint)>,
    /// [`Self::process_build`]'s per-member results.
    build_results: Vec<BuildResult>,
    /// [`Self::process_select`]'s fused siblings: their module ids.
    siblings: Vec<usize>,
    /// The Select hop's verdicts — an unfused or UDF envelope's, and a
    /// fused one's — and the UDF pipeline's working lists.
    verdicts: Vec<Option<bool>>,
    fused: Vec<crate::sm::FusedVerdict>,
    udf_scratch: crate::sm::UdfScratch,
    /// [`Self::process_am_probe`]'s per-member lookup outcomes.
    am_outcomes: Vec<(IndexProbeOutcome, Option<Vec<Value>>)>,
    /// The chunk a scan emits per event, on its way into a wave.
    emitted: Vec<Tuple>,
}

impl EddyExecutor {
    /// Instantiate the query (paper §2.2 steps 1–4). Step 5, seeding the
    /// scans, is [`Self::run`]'s first act — or the query server's, which
    /// feeds a folded query's instances from its own shared scans and
    /// seeds a private query's at its admission instant.
    pub fn build(catalog: &Catalog, query: &QuerySpec, config: ExecConfig) -> Result<Self> {
        config
            .validate()
            .map_err(|e| StemsError::Schema(e.to_string()))?;
        if let Some(p) = &config.priority_pred {
            if !p.is_selection() {
                return Err(StemsError::Schema(
                    "priority predicate must be a selection".into(),
                ));
            }
        }
        let (mut modules, layout) = instantiate(catalog, query, &config.plan)?;
        // Attach a private verdict memo to every UDF SM — one cache per
        // distinct UDF spec, shared by same-spec SMs within the query
        // (a verdict function's memo entries are query-agnostic, keyed
        // only on input values). The server later *replaces* these cells
        // with registry-shared ones when folding compatible queries.
        if config.memo {
            let mut cells: Vec<(stems_types::UdfSpec, crate::memo::MemoCell)> = Vec::new();
            for &(_, mid) in &layout.sm_mids {
                let Module::Sm(sm) = &mut modules[mid] else {
                    continue;
                };
                let Some(&spec) = sm.pred.udf_spec() else {
                    continue;
                };
                let cell = match cells.iter().find(|(s, _)| *s == spec) {
                    Some((_, c)) => c.clone(),
                    None => {
                        let c = crate::memo::MemoCache::cell(
                            crate::memo::DEFAULT_MEMO_SHARDS,
                            config.memo_bytes,
                        );
                        cells.push((spec, c.clone()));
                        c
                    }
                };
                sm.set_memo(Some(cell));
            }
        }
        let rt = modules
            .iter()
            .map(|_| ModuleRt {
                queue: VecDeque::new(),
                busy: false,
                out: None,
                unparks: Vec::new(),
            })
            .collect();
        let policy = config.policy.build();
        let rng = SimRng::new(config.seed);
        let mut metrics = Metrics::new();
        let ids = MetricIds::resolve(&mut metrics, layout.n_tables);
        let mut exec = EddyExecutor {
            query: query.clone(),
            modules,
            rt,
            layout,
            agenda: EventQueue::new(),
            policy,
            rng,
            now: 0,
            ts_counter: 0,
            halted: false,
            timed_out: false,
            parked: Vec::new(),
            results: Vec::new(),
            metrics,
            ids,
            events: 0,
            violations: Vec::new(),
            output_seen: FxHashSet::default(),
            trace: Vec::new(),
            reply_set: ProbeReplySet::new(),
            candidates: Vec::new(),
            recheck: Vec::new(),
            waves: WavePool::new(config.batch_size),
            groups: Vec::new(),
            flushed: Vec::new(),
            signatures: Vec::new(),
            touched: Vec::new(),
            pairs: Vec::new(),
            build_results: Vec::new(),
            siblings: Vec::new(),
            verdicts: Vec::new(),
            fused: Vec::new(),
            udf_scratch: crate::sm::UdfScratch::default(),
            am_outcomes: Vec::new(),
            emitted: Vec::new(),
            config,
        };
        // Emission chunks are capped at the routing batch size — a larger
        // burst would only be split again at ingestion. The server mirrors
        // the chunking on its shared scans.
        let batch_size = exec.config.batch_size;
        for &mid in &exec.layout.scan_mids {
            if let Module::ScanAm(scan) = &mut exec.modules[mid] {
                scan.clamp_chunk(batch_size);
            }
        }
        Ok(exec)
    }

    /// Step 5: schedule every scan's first emission, its start-up delay
    /// after `at` — the virtual instant this query starts — shifted past
    /// any stall window open then.
    pub(crate) fn seed_scans(&mut self, at: Time) {
        for &mid in &self.layout.scan_mids {
            if let Module::ScanAm(scan) = &self.modules[mid] {
                self.agenda
                    .push(scan.first_emit_at(at), Event::ScanEmit(mid));
            }
        }
    }

    /// Run to completion and produce the report.
    pub fn run(mut self) -> Report {
        self.seed_scans(0);
        while self.step(&[]) {}
        self.finish()
    }

    /// Process one event off the agenda. Returns `false` when the agenda
    /// is exhausted or a simulation guard (max_time / max_events)
    /// tripped — after which the executor is permanently halted. The
    /// query server interleaves many executors by stepping each one up to
    /// the global virtual time, lending each its registry of shared SteMs
    /// as `shared` (a solo run lends an empty one).
    pub(crate) fn step(&mut self, shared: &Registry) -> bool {
        if self.halted {
            return false;
        }
        let Some((t, ev)) = self.agenda.pop() else {
            return false;
        };
        self.now = t;
        self.events += 1;
        if let Some(max) = self.config.max_time {
            if self.now > max {
                self.halted = true;
                self.timed_out = true;
                return false;
            }
        }
        if self.events > self.config.max_events {
            self.violations
                .push("max_events exceeded — possible routing livelock".into());
            self.halted = true;
            return false;
        }
        match ev {
            Event::Start(mid) => self.on_start(mid, shared),
            Event::Complete(mid) => self.on_complete(mid, shared),
            Event::ScanEmit(mid) => self.on_scan_emit(mid, shared),
            Event::AmIssue(_mid) => {
                self.metrics.bump_id(self.ids.index_probes, self.now, 1);
            }
            Event::AmResponse(mid, key) => self.on_am_response(mid, key, shared),
            Event::AmReplyWave(mid, tuples) => self.on_am_reply_wave(mid, tuples, shared),
        }
        true
    }

    /// Virtual time of the next pending event (`None` when drained or
    /// halted) — the server's merge key for interleaving executors.
    pub(crate) fn next_time(&self) -> Option<Time> {
        if self.halted {
            None
        } else {
            self.agenda.peek_time()
        }
    }

    /// Step every pending event up to and including virtual time `t`,
    /// returning the next pending time past the horizon (`None` when
    /// drained or halted). The server's per-wave batch: one call per
    /// executor per wave, so the drain loop reads each agenda head once
    /// instead of polling around every `step`.
    pub(crate) fn step_until(&mut self, t: Time, shared: &Registry) -> Option<Time> {
        loop {
            match self.next_time() {
                Some(nt) if nt <= t => {
                    self.step(shared);
                }
                nt => return nt,
            }
        }
    }

    /// Current virtual time (last processed event).
    pub(crate) fn now(&self) -> Time {
        self.now
    }

    /// Produce the final report after the agenda drained.
    pub(crate) fn finish(mut self) -> Report {
        self.metrics.observe_id(self.ids.end, self.now, 1.0);
        Report {
            results: self.results,
            metrics: self.metrics,
            end_time: self.now,
            events: self.events,
            violations: self.violations,
            policy_name: self.policy.name(),
            trace: self.trace,
        }
    }

    fn record(&mut self, kind: crate::report::TraceKind, tuple: &Tuple) {
        if self.config.trace && self.trace.len() < self.config.trace_limit {
            self.trace.push(crate::report::TraceEvent {
                t: self.now,
                kind,
                tuple: tuple.to_string(),
            });
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_start(&mut self, mid: usize, shared: &Registry) {
        if self.rt[mid].busy {
            return;
        }
        let Some(env) = self.rt[mid].queue.pop_front() else {
            return;
        };
        self.rt[mid].busy = true;
        let (dur, out) = self.process(mid, env, shared);
        self.rt[mid].out = Some(out);
        self.agenda
            .push(self.now + dur.max(1), Event::Complete(mid));
    }

    fn on_complete(&mut self, mid: usize, shared: &Registry) {
        self.rt[mid].busy = false;
        if !self.rt[mid].queue.is_empty() {
            self.agenda.push(self.now, Event::Start(mid));
        }
        let out = self.rt[mid].out.take();
        let mut unparks = std::mem::take(&mut self.rt[mid].unparks);
        let built = unparks
            .iter()
            .any(|u| matches!(u, UnparkSignal::AnyBuild(_)));
        if let Some(out) = out {
            self.route_wave(out, shared);
        }
        self.wake(built, &unparks, shared);
        unparks.clear();
        self.rt[mid].unparks = unparks;
    }

    /// Wake whatever `unparks` release and route it as one wave. After a
    /// build, first sample total SteM memory (the fig-2
    /// singleton-vs-intermediate storage comparison watches this).
    fn wake<'a>(
        &mut self,
        built: bool,
        unparks: impl IntoIterator<Item = &'a UnparkSignal>,
        shared: &Registry,
    ) {
        if built {
            let total: usize = self
                .modules
                .iter()
                .filter_map(|m| m.stem(shared))
                .map(Stem::approx_bytes)
                .sum();
            self.metrics
                .observe_id(self.ids.stem_bytes_total, self.now, total as f64);
        }
        if self.parked.is_empty() {
            return;
        }
        let mut woken = self.waves.take();
        for sig in unparks {
            self.unpark(sig, &mut woken);
        }
        self.route_wave(woken, shared);
    }

    fn on_scan_emit(&mut self, mid: usize, shared: &Registry) {
        let mut emitted = std::mem::take(&mut self.emitted);
        if let Module::ScanAm(scan) = &mut self.modules[mid] {
            if let Some(nt) = scan.emit_next_into(self.now, &mut emitted) {
                self.agenda.push(nt, Event::ScanEmit(mid));
            }
        }
        self.route_singletons(emitted.drain(..), None, shared);
        self.emitted = emitted;
    }

    /// A chunk of singletons entering the dataflow from an AM (EOT markers
    /// included) is routed as one wave: same-span singletons share a
    /// candidate set, so they ride one envelope instead of exploding into
    /// per-row deliveries with per-row policy decisions. `origin_am` is
    /// the index AM that answered; `None` for a scan, whose data rows
    /// count as scanned.
    fn route_singletons(
        &mut self,
        tuples: impl IntoIterator<Item = Tuple>,
        origin_am: Option<u16>,
        shared: &Registry,
    ) {
        let tuples = tuples.into_iter();
        // Sized once to the chunk: the wave may become its own envelope.
        let mut wave = self.waves.take_sized(tuples.size_hint().0);
        for tuple in tuples {
            if origin_am.is_none() && !is_eot_member(&tuple) {
                self.metrics.bump_id(self.ids.scanned, self.now, 1);
            }
            let mut state = TupleState::new();
            state.origin_am = origin_am;
            state.prioritized = self.is_prioritized(&tuple);
            wave.push(tuple, state, false);
        }
        self.route_wave(wave, shared);
    }

    fn on_am_response(&mut self, mid: usize, key: Vec<Value>, shared: &Registry) {
        let mut module = std::mem::replace(&mut self.modules[mid], Module::Hole);
        let mut next = None;
        let mut waves = Vec::new();
        if let Module::IndexAm(am) = &mut module {
            let tuples = am.respond(&key, &self.query);
            // The freed server picks up the next pending lookup
            // (prioritized first, §4.1).
            next = am.dequeue_pending(self.now);
            // A chunked-reply spec streams the answer back on the
            // burst-gap cadence; the default is one wave at `now`.
            waves = am.chunk_reply(tuples, self.now);
        }
        self.modules[mid] = module;
        if let Some((key2, start, complete)) = next {
            self.agenda.push(start, Event::AmIssue(mid));
            self.agenda.push(complete, Event::AmResponse(mid, key2));
        }
        self.metrics.bump_id(self.ids.am_responses, self.now, 1);
        for (at, tuples) in waves {
            if at <= self.now {
                self.on_am_reply_wave(mid, tuples, shared);
            } else {
                self.agenda.push(at, Event::AmReplyWave(mid, tuples));
            }
        }
    }

    /// One arrival wave of an index reply re-enters the eddy together:
    /// its matches share a destination and route as a batch. An unchunked
    /// reply is a single wave fired inline by the response event.
    fn on_am_reply_wave(&mut self, mid: usize, tuples: Vec<Tuple>, shared: &Registry) {
        let am = u16::try_from(mid).expect("the plan checks index AM ids");
        self.route_singletons(tuples, Some(am), shared);
    }

    // ------------------------------------------------------------------
    // Module processing (at service start)
    // ------------------------------------------------------------------

    /// Serve one envelope: the virtual service time, and the wave the
    /// module emits when it completes. Every `process_*` body either
    /// reworks the envelope's wave in place or drains it into one taken
    /// from the pool and hands the drained buffer back. A folded SteM is
    /// read in `shared`, the registry the server lent.
    fn process(&mut self, mid: usize, env: Envelope, shared: &Registry) -> (u64, Wave) {
        let Envelope { wave, action } = env;
        let mut module = std::mem::replace(&mut self.modules[mid], Module::Hole);
        let out = match (&mut module, action) {
            (Module::Stem(stem), Action::Build { .. }) => self.process_build(mid, stem, wave),
            (Module::Sm(sm), Action::Select { .. }) => self.process_select(sm, wave),
            (Module::IndexAm(am), Action::ProbeAm { table, .. }) => {
                self.process_am_probe(mid, am, wave, table)
            }
            // A probe's table is the action's, not the SteM's own: a
            // shared SteM was built under another query's instance
            // numbering.
            (module, _) => match (module.stem(shared), action) {
                (Some(stem), Action::ProbeStem { table, .. }) => {
                    self.process_probe(stem, table, wave)
                }
                _ => {
                    self.violations
                        .push(format!("envelope {action:?} routed to wrong module"));
                    self.waves.put(wave);
                    (1, self.waves.take())
                }
            },
        };
        self.modules[mid] = module;
        out
    }

    /// A build's envelope is its own bounce-back wave: each fresh singleton
    /// is stamped where it sits, and duplicates, EOTs and Grace-deferred
    /// members are compacted out. A Grace release goes in, clustered, where
    /// the first EOT stood among the survivors.
    fn process_build(&mut self, mid: usize, stem: &mut Stem, mut wave: Wave) -> (u64, Wave) {
        let table = stem.instance;
        let dur = self.config.costs.stem_build_us * (wave.len() as u64).max(1);
        let mut results = std::mem::take(&mut self.build_results);
        let mut ts = self.ts_counter;
        let built_before = stem.build_count();
        // A fresh member moves into its result, leaving an empty tuple in
        // its place; the compaction below moves it back.
        let (tuples, states) = wave.tuples_mut();
        stem.build_batch_into(tuples, states, &mut ts, &mut results);
        self.ts_counter = ts;
        let mut unparks = std::mem::take(&mut self.rt[mid].unparks);
        // Grace mode: once the build phase has ended, the envelope's first
        // EOT releases the withheld bounce-backs, clustered by partition —
        // after the survivors ahead of it.
        let releases = stem.scan_complete() && stem.deferred_len() > 0;
        let mut release_at = None;
        // One AnyBuild wake-up per envelope is enough (parked tuples
        // re-park if still not helped); it keeps its place among the EOTs.
        let mut any_build = false;
        let mut survivors = 0;
        let mut results_in_order = results.drain(..);
        wave.compact(|_, tuple, state| {
            let result = results_in_order.next().expect("one result per member");
            let fresh = matches!(result, BuildResult::Fresh(_) | BuildResult::Deferred);
            let kept = match result {
                BuildResult::Fresh(stamped) => {
                    self.observe_am_build(state, true);
                    *tuple = stamped;
                    true
                }
                BuildResult::Deferred => {
                    self.observe_am_build(state, true);
                    false
                }
                BuildResult::Duplicate => {
                    self.observe_am_build(state, false);
                    self.metrics
                        .bump_id(self.ids.duplicates_absorbed, self.now, 1);
                    false
                }
                BuildResult::Eot => {
                    if releases && release_at.is_none() {
                        release_at = Some(survivors);
                    }
                    unparks.push(UnparkSignal::Eot {
                        table,
                        bindings: eot_bindings(&tuple.components()[0].row),
                    });
                    false
                }
            };
            if fresh && !any_build {
                any_build = true;
                unparks.push(UnparkSignal::AnyBuild(table));
            }
            survivors += usize::from(kept);
            kept
        });
        drop(results_in_order);
        if let Some(at) = release_at {
            wave.insert_clustered(at, stem.release_deferred());
        }
        self.observe_stem_mem(stem, built_before);
        self.build_results = results;
        self.rt[mid].unparks = unparks;
        (dur, wave)
    }

    fn process_probe(&mut self, stem: &Stem, table: TableIdx, mut wave: Wave) -> (u64, Wave) {
        let links = &self.layout.links[table.as_usize()];
        // Probe into the executor's reusable reply arena (taken out for
        // the borrow, restored below): no per-tuple `Vec`s are built.
        let mut reply_set = std::mem::take(&mut self.reply_set);
        reply_set.clear();
        // What the probe concatenates holds no EOT row: the stored row
        // cannot (see `Stem::probe_linked_into`), nor can this prober.
        debug_assert!(
            wave.tuples().iter().all(|t| !t.is_eot()),
            "EOTs are routed to builds alone"
        );
        stem.probe_linked_into(
            links,
            wave.tuples(),
            wave.states(),
            &self.query,
            &mut reply_set,
        );
        let stem_version = stem.version();
        let probe_units = wave.len() as u64;
        let clustered = wave.clustered();

        // The probe drains its envelope into a wave sized to it: each
        // member's concatenations, then the member itself if it bounced,
        // in member order.
        let mut out = self.waves.take_sized(wave.len());
        let (metas, mut results) = reply_set.metas_and_results();
        for ((tuple, state, _), reply) in wave.drain().zip(metas) {
            self.policy.feedback(&Feedback::StemProbe {
                table,
                emitted: reply.len,
            });
            self.metrics.bump_id(self.ids.stem_probes, self.now, 1);
            for (result, done) in results.by_ref().take(reply.len) {
                // Track intermediate-result formation per span size — the
                // §3.4 spanning-tree experiments watch these to see
                // progress continue while a source is stalled.
                self.metrics
                    .bump_id(self.ids.span_formed[result.span().len()], self.now, 1);
                let mut rstate = TupleState::for_result(done);
                rstate.prioritized = state.prioritized || self.is_prioritized(&result);
                out.push(result, rstate, false);
            }

            match reply.outcome {
                ProbeOutcome::Consumed => {
                    self.metrics.bump_id(self.ids.probes_consumed, self.now, 1);
                }
                ProbeOutcome::Bounced(need) => {
                    let mut state = state;
                    state.mark_probed(table);
                    state.last_match_ts = state.last_match_ts.max(reply.observed_ts);
                    state.last_probe_version = stem_version;
                    match state.prior_prober {
                        // Re-bounce of an existing prior prober for the
                        // same table: once the need has weakened to
                        // Optional it never strengthens back to Required.
                        Some(pp) if pp.table == table => {
                            let need = if pp.need == CompletionNeed::Optional {
                                CompletionNeed::Optional
                            } else {
                                need
                            };
                            state.prior_prober = Some(PriorProber { table, need });
                        }
                        // A prior prober for a *different* table probed
                        // this SteM: the router must never allow that.
                        Some(pp) => {
                            self.violations.push(format!(
                                "ProbeCompletion violated: prior prober for {} probed {}",
                                pp.table, table
                            ));
                        }
                        None => {
                            state.prior_prober = Some(PriorProber { table, need });
                        }
                    }
                    self.metrics.bump_id(self.ids.probes_bounced, self.now, 1);
                    out.push(tuple, state, false);
                }
            }
        }
        drop(results);
        self.reply_set = reply_set;
        self.waves.put(wave);

        let base = self.config.costs.stem_probe_us * probe_units.max(1)
            + self.config.costs.per_match_us * out.len() as u64;
        let dur = if clustered {
            ((base as f64) * self.config.costs.clustered_probe_discount).max(1.0) as u64
        } else {
            base
        };
        (dur, out)
    }

    fn process_select(&mut self, sm: &crate::sm::Sm, mut wave: Wave) -> (u64, Wave) {
        // Expensive UDF predicates take their own path: per-call cost
        // charging, envelope dedup, and the verdict memo. They are also
        // excluded from fusion chains (below) — fusing one would tangle
        // a milliseconds-scale call into a cheap comparison cascade and
        // bypass the dedup/memo accounting.
        if sm.is_udf() {
            return self.select_udf(sm, wave);
        }
        // Conjunction fusion: sibling SMs pinned to the same table
        // instance whose predicate every envelope member is still eligible
        // for ride this pass, in ascending predicate order (the order the
        // fixed cascade would visit them in), each through its own cached
        // kernel. Members of one envelope share a candidate signature, so
        // their pending-selection sets agree; the per-member check below
        // is the safety net, not the common case.
        let modules = &self.modules;
        let mut siblings = std::mem::take(&mut self.siblings);
        siblings.clear();
        if self.config.fuse_selections {
            siblings.extend(self.layout.sm_mids.iter().filter_map(|&(pid, mid)| {
                let other = modules[mid].sm().filter(|_| pid != sm.pred_id())?;
                let p = &other.pred;
                let fuses = !other.is_udf()
                    && p.tables() == sm.pred.tables()
                    && wave.states().iter().all(|s| !s.done.contains(p.id))
                    && wave.tuples().iter().all(|t| p.evaluable_on(t.span()));
                fuses.then_some(mid)
            }));
        }
        if siblings.is_empty() {
            // Nothing to fuse: the plain single-predicate kernel path,
            // with no per-tuple cascade bookkeeping.
            self.siblings = siblings;
            return self.select_single(sm, wave);
        }
        let chain = || siblings.iter().filter_map(|mid| modules[*mid].sm());
        let mut verdicts = std::mem::take(&mut self.fused);
        sm.apply_chain_into(wave.tuples(), chain(), &mut verdicts);
        // Virtual cost: one SM service per member (exactly the unfused
        // charge) plus one per extra sibling evaluation actually performed
        // — fusion saves routing hops and envelopes, not predicate work.
        let total_evals: usize = verdicts.iter().map(|v| v.evaluated as usize).sum();
        let dur = self.config.costs.sm_us
            * (wave.len() + total_evals.saturating_sub(wave.len())).max(1) as u64;
        // The Select hop compacts its envelope to the survivors in place.
        wave.compact(|i, _, state| {
            let fused = verdicts[i];
            for (pred, passed) in fused.evals(sm, chain()) {
                self.metrics.bump_id(self.ids.sm_applied, self.now, 1);
                self.policy.feedback(&Feedback::Selected { pred, passed });
            }
            match fused.verdict {
                Some(true) => state.done = state.done.union(fused.passed),
                Some(false) => self.metrics.bump_id(self.ids.filtered, self.now, 1),
                None => self.violations.push(format!(
                    "selection {} not evaluable on routed tuple",
                    sm.describe()
                )),
            }
            fused.verdict == Some(true)
        });
        self.metrics
            .bump_id(self.ids.fused_selects, self.now, siblings.len() as u64);
        self.fused = verdicts;
        self.siblings = siblings;
        (dur, wave)
    }

    /// The unfused Select hop: apply exactly this SM's predicate to the
    /// whole envelope.
    fn select_single(&mut self, sm: &crate::sm::Sm, mut wave: Wave) -> (u64, Wave) {
        let dur = self.config.costs.sm_us * wave.len().max(1) as u64;
        let mut verdicts = std::mem::take(&mut self.verdicts);
        sm.apply_batch_into(wave.tuples(), &mut verdicts);
        self.apply_verdicts(sm, &mut wave, &verdicts);
        self.verdicts = verdicts;
        (dur, wave)
    }

    /// The tail of an unfused Select hop: count and feed back every
    /// verdict, and compact the envelope in place to the survivors, with
    /// the predicate marked done.
    fn apply_verdicts(&mut self, sm: &crate::sm::Sm, wave: &mut Wave, verdicts: &[Option<bool>]) {
        wave.compact(|i, _, state| {
            let Some(passed) = verdicts[i] else {
                self.violations.push(format!(
                    "selection {} not evaluable on routed tuple",
                    sm.describe()
                ));
                return false;
            };
            self.metrics.bump_id(self.ids.sm_applied, self.now, 1);
            self.policy.feedback(&Feedback::Selected {
                pred: sm.pred_id(),
                passed,
            });
            if passed {
                state.done.insert(sm.pred_id());
            } else {
                self.metrics.bump_id(self.ids.filtered, self.now, 1);
            }
            passed
        });
    }

    /// The Select hop for an expensive UDF predicate: evaluate through
    /// the dedup/memo pipeline ([`crate::sm::Sm::apply_batch_udf`]),
    /// charge the configured per-call virtual latency only for verdicts
    /// actually *computed*, and feed the observed envelope cost back to
    /// the routing policy so benefit/cost ranking learns to defer
    /// expensive selections behind selective joins. Verdict handling and
    /// `Selected` feedback are identical to [`Self::select_single`] —
    /// memo and dedup change time, never semantics.
    fn select_udf(&mut self, sm: &crate::sm::Sm, mut wave: Wave) -> (u64, Wave) {
        let spec = *sm.pred.udf_spec().expect("select_udf on a UDF SM");
        let mut verdicts = std::mem::take(&mut self.verdicts);
        let calls = sm.apply_batch_udf_into(
            wave.tuples(),
            self.config.udf_dedup,
            &mut self.udf_scratch,
            &mut verdicts,
        );
        let rows = wave.len();
        let dur = self.config.costs.sm_us * rows.max(1) as u64 + spec.cost_us * calls.computed;
        self.metrics
            .bump_id(self.ids.udf_calls, self.now, calls.computed);
        if calls.memo.hits > 0 {
            self.metrics
                .bump_id(self.ids.memo_hits, self.now, calls.memo.hits);
        }
        if calls.memo.misses > 0 {
            self.metrics
                .bump_id(self.ids.memo_misses, self.now, calls.memo.misses);
        }
        if calls.memo.evictions > 0 {
            self.metrics
                .bump_id(self.ids.memo_evictions, self.now, calls.memo.evictions);
        }
        self.apply_verdicts(sm, &mut wave, &verdicts);
        self.verdicts = verdicts;
        // Observed cost: what this envelope actually charged, per row —
        // with an effective memo this decays toward `sm_us`, without one
        // it stays near `cost_us`, and the policy's EWMA tracks it.
        self.policy.feedback(&Feedback::SelectCost {
            pred: sm.pred_id(),
            rows,
            cost_us: dur,
        });
        (dur, wave)
    }

    fn process_am_probe(
        &mut self,
        mid: usize,
        am: &mut crate::am::IndexAm,
        mut wave: Wave,
        t: TableIdx,
    ) -> (u64, Wave) {
        let dur = self.config.costs.am_accept_us * wave.len().max(1) as u64;
        let links = &self.layout.links[t.as_usize()];
        let mut outcomes = std::mem::take(&mut self.am_outcomes);
        // The AM asynchronously bounces back each probe tuple (Table 1):
        // the envelope, marked, is its own output.
        wave.compact(|_, tuple, state| {
            // One outcome per bound key — a multi-member IN binding fans
            // the probe out across member lookups.
            am.probe_linked_into(links, tuple, self.now, state.prioritized, &mut outcomes);
            for (outcome, key) in outcomes.drain(..) {
                match (outcome, key) {
                    (IndexProbeOutcome::Scheduled { start, complete }, Some(key)) => {
                        self.agenda.push(start, Event::AmIssue(mid));
                        self.agenda.push(complete, Event::AmResponse(mid, key));
                    }
                    (IndexProbeOutcome::Queued, _) => {
                        self.metrics.bump_id(self.ids.probes_queued, self.now, 1);
                    }
                    (IndexProbeOutcome::Coalesced, _) => {
                        self.metrics.bump_id(self.ids.probes_coalesced, self.now, 1);
                    }
                    (IndexProbeOutcome::Unbindable | IndexProbeOutcome::Scheduled { .. }, _) => {
                        self.violations
                            .push("router sent an unbindable probe to an index AM".into());
                    }
                }
            }
            state.mark_am_probed(t);
            true
        });
        self.am_outcomes = outcomes;
        (dur, wave)
    }

    // ------------------------------------------------------------------
    // The eddy: ingestion, routing, output, parking
    // ------------------------------------------------------------------

    fn is_prioritized(&self, tuple: &Tuple) -> bool {
        self.config
            .priority_pred
            .as_ref()
            .is_some_and(|p| p.eval(tuple) == Some(true))
    }

    /// Route a wave of tuples re-entering the eddy together.
    ///
    /// Per tuple (constraint side, paper Table 2): hop accounting, output
    /// detection, candidate computation, parking and retirement. All but
    /// the hop count are a function of the member's [`RouteKey`], and a
    /// delivery's members mostly share one, so the decision is re-derived
    /// only when the key differs from the previous member's. Tuples
    /// whose legal candidate sets are identical are then grouped, and each
    /// group of up to `batch_size` tuples is routed by **one** policy
    /// decision into **one** module envelope — the batching that amortizes
    /// per-tuple adaptivity overhead. With `batch_size == 1` every group
    /// closes immediately and this is exactly the scalar routing loop —
    /// the same code, on the same recycled buffers.
    ///
    /// A group is itself a [`Wave`]; the signature its members share is a
    /// span of one executor-owned buffer the call fills as groups open, so
    /// a signature costs no allocation of its own. A delivery that fits
    /// one envelope is its own first group: the members that join it stay
    /// where they are, compacted in place, and only members bound
    /// elsewhere move — into a group from the pool, a result, a park. A
    /// key-uniform delivery thus becomes its envelope without a member
    /// moving. A larger delivery moves every member out, since its groups
    /// may fill and flush before it ends. While open a group accumulates
    /// members; once it flushes (fills up, or the wave ends) it awaits
    /// dispatch: full groups first, in fill order, then the wave's
    /// leftovers in opening order, all dispatched after the whole wave is
    /// grouped. Queue-backlog hints are **not**
    /// captured at flush time: earlier dispatches of the same burst shift
    /// module backlogs between flush and dispatch, so any snapshot taken
    /// here would go stale (ROADMAP "hint freshness"). `Hint::est_cost_us`
    /// is computed only when the group is actually dequeued, in
    /// [`EddyExecutor::dispatch_group`].
    fn route_wave(&mut self, mut wave: Wave, shared: &Registry) {
        let cap = self.config.batch_size.max(1);
        let mut groups = std::mem::take(&mut self.groups);
        let mut flushed = std::mem::take(&mut self.flushed);
        let mut acts = std::mem::take(&mut self.candidates);
        let mut sigs = std::mem::take(&mut self.signatures);
        // Whether the delivery may host its first group. Its members are at
        // most one envelope, so no other group can fill before the wave
        // ends, and the hosted group — opened first — dispatches first.
        let hosts = wave.len() <= cap;
        // The hosted group's flags and signature, once a member opens it.
        let mut home: Option<(bool, bool, Range<usize>)> = None;
        let mut members = wave.sift();
        // The previous member's key and decision: `acts` holds that
        // decision's candidate list until a member with another key (or
        // an EOT) rewrites it. And the group the previous member joined,
        // with its flags — the next member joins it too if its decision
        // was reused and its flags are equal.
        let mut last: Option<(RouteKey, Decision)> = None;
        let mut last_group: Option<(Slot, bool, bool)> = None;
        while let Some((tuple, state, clustered)) = members.next() {
            state.hops += 1;
            if state.hops > self.config.max_hops {
                self.metrics.bump_id(self.ids.hops_exceeded, self.now, 1);
                self.violations
                    .push("BoundedRepetition backstop hit (max_hops)".into());
                continue;
            }

            let decision = if is_eot_member(tuple) {
                // EOTs go straight to their table's SteM; they join the
                // same build group as sibling data rows so arrival order
                // into the SteM is preserved.
                let t = tuple.components()[0].table;
                let Some(mid) = self.layout.stem_mid[t.as_usize()] else {
                    continue;
                };
                acts.clear();
                acts.push(Action::Build { mid, table: t });
                (last, last_group) = (None, None);
                Decision::Route
            } else {
                let key = RouteKey::of(&self.modules, &self.layout, tuple, state);
                match last {
                    Some((k, decision)) if k == key => {
                        // Debug builds decide again and compare. The router
                        // sees a member only through its key, so this
                        // catches a change, between two members of one
                        // wave, to what else it reads: a SteM's version.
                        if cfg!(debug_assertions) {
                            let mut fresh = std::mem::take(&mut self.recheck);
                            assert_eq!(self.decide(&key, shared, &mut fresh), decision);
                            assert!(decision != Decision::Route || fresh == acts);
                            self.recheck = fresh;
                        }
                        decision
                    }
                    _ => {
                        let decision = self.decide(&key, shared, &mut acts);
                        (last, last_group) = (Some((key, decision)), None);
                        decision
                    }
                }
            };
            let prio = state.prioritized;
            match decision {
                Decision::Output => {
                    let (tuple, state) = members.take();
                    self.output(tuple, &state);
                    continue;
                }
                Decision::Retire => {
                    self.metrics.bump_id(self.ids.retired, self.now, 1);
                    self.record(crate::report::TraceKind::Retire, tuple);
                    continue;
                }
                Decision::Park(table) => {
                    self.record(crate::report::TraceKind::Park { table }, tuple);
                    let (tuple, state) = members.take();
                    self.park(tuple, state, table);
                    continue;
                }
                Decision::Route => {}
            }

            // Find the open group with the same flags and candidate
            // signature, or open a new one (the only point the candidate
            // list is copied, into `sigs`). Signature equality is what
            // lets one policy decision stand for every member.
            let joins = |c: bool, p: bool, sig: &Range<usize>| {
                (c, p) == (clustered, prio) && sigs[sig.clone()] == acts[..]
            };
            let slot = match last_group {
                Some((slot, c, p)) if c == clustered && p == prio => slot,
                _ if home.as_ref().is_some_and(|h| joins(h.0, h.1, &h.2)) => Slot::Home,
                _ => {
                    let takes = |g: &Group| joins(g.wave.clustered(), g.wave.prioritized(), &g.sig);
                    let open = groups.iter().position(takes);
                    match open {
                        Some(i) => Slot::Open(i),
                        None => {
                            let sig = sigs.len()..sigs.len() + acts.len();
                            sigs.extend_from_slice(&acts);
                            if hosts && home.is_none() {
                                home = Some((clustered, prio, sig));
                                Slot::Home
                            } else {
                                // This member, and at most the rest of the
                                // delivery.
                                let rows = cap.min(members.remaining() + 1);
                                let wave = self.waves.take_sized(rows);
                                groups.push(Group { wave, sig });
                                Slot::Open(groups.len() - 1)
                            }
                        }
                    }
                }
            };
            let Slot::Open(i) = slot else {
                debug_assert!(members.kept() < cap, "the hosted group never fills early");
                members.keep(clustered);
                last_group = Some((Slot::Home, clustered, prio));
                continue;
            };
            let (tuple, state) = members.take();
            groups[i].wave.push(tuple, state, clustered);
            // A full group flushes immediately (with cap 1 this
            // degenerates to the scalar per-tuple loop, preserving its
            // decision order exactly).
            if groups[i].wave.len() >= cap {
                flushed.push(groups.remove(i));
                last_group = None;
            } else {
                last_group = Some((slot, clustered, prio));
            }
        }
        drop(members);
        self.candidates = acts;
        flushed.append(&mut groups);
        self.touched.clear();
        match home {
            Some((.., sig)) if !wave.is_empty() => self.dispatch_group(wave, &sigs[sig]),
            _ => self.waves.put(wave),
        }
        for group in flushed.drain(..) {
            self.dispatch_group(group.wave, &sigs[group.sig]);
        }
        sigs.clear();
        self.groups = groups;
        self.flushed = flushed;
        self.signatures = sigs;
    }

    /// What [`Self::route_wave`] does with a member whose key is `key`;
    /// for [`Decision::Route`], `acts` holds the candidate list.
    fn decide(&self, key: &RouteKey, shared: &Registry, acts: &mut Vec<Action>) -> Decision {
        if key.span == self.query.full_span() && key.done.is_superset_of(self.query.all_preds()) {
            return Decision::Output;
        }
        let edges = self.config.probe_edges.as_deref();
        match router::route(
            &self.modules,
            shared,
            &self.layout,
            &self.query,
            key,
            edges,
            acts,
        ) {
            Ok(()) => Decision::Route,
            Err(NoCandidates::Retire) => Decision::Retire,
            Err(NoCandidates::Park { table }) => Decision::Park(table),
        }
    }

    /// Dispatch one flushed group: a single policy decision, per-tuple
    /// constraint verification, one envelope. Candidate costs are
    /// **computed here, at dequeue time** — earlier dispatches of the
    /// same burst (`touched`) may have shifted module backlogs since the
    /// group flushed, and a decision taken on a flush-time snapshot would
    /// route into queues that no longer look like the estimate. `sig` is
    /// the candidate signature the group's members share.
    fn dispatch_group(&mut self, group: Wave, sig: &[Action]) {
        // The RoutingPolicy contract requires non-empty batches; groups
        // only ever open around a first member, so an empty flush is an
        // engine bug, caught here rather than inside the policy.
        debug_assert!(
            !group.is_empty(),
            "dispatch_group flushed an empty batch; RoutingPolicy::choose_batch requires ≥ 1 member"
        );
        // Observability: this group's candidate set includes a module an
        // earlier dispatch of the same burst just routed into — a
        // flush-time backlog estimate would have been stale here.
        if sig
            .iter()
            .any(|a| a.mid().is_some_and(|m| self.touched.contains(&m)))
        {
            self.metrics.bump_id(self.ids.hints_recosted, self.now, 1);
        }
        let mut pairs = std::mem::take(&mut self.pairs);
        pairs.clear();
        pairs.extend(sig.iter().map(|a| (*a, self.hint_for(a))));
        let idx = if pairs.len() == 1 {
            0
        } else {
            self.policy
                .choose_batch(group.tuples(), &group.states()[0], &pairs, &mut self.rng)
        };
        let (action, _) = pairs[idx];
        self.pairs = pairs;
        if self.config.trace {
            for tuple in group.tuples().iter().filter(|t| !is_eot_member(t)) {
                self.record(
                    crate::report::TraceKind::Route {
                        action: action.kind(),
                        table: match action {
                            Action::Build { table, .. }
                            | Action::ProbeStem { table, .. }
                            | Action::ProbeAm { table, .. } => Some(table),
                            _ => None,
                        },
                    },
                    tuple,
                );
            }
        }
        if self.config.check_constraints {
            // Constraints are per tuple: every member is verified against
            // the chosen action, not just a representative.
            for (tuple, state) in group.tuples().iter().zip(group.states()) {
                if !is_eot_member(tuple) {
                    self.check_choice(tuple, state, &action);
                }
            }
        }
        let Some(mid) = action.mid() else {
            self.metrics
                .bump_id(self.ids.policy_drops, self.now, group.len() as u64);
            self.waves.put(group);
            return;
        };
        if matches!(action, Action::ProbeAm { .. }) {
            self.metrics
                .bump_id(self.ids.am_probe_choices, self.now, group.len() as u64);
        }
        self.metrics.bump_id(self.ids.route_batches, self.now, 1);
        if !self.touched.contains(&mid) {
            self.touched.push(mid);
        }
        self.enqueue(
            mid,
            Envelope {
                wave: group,
                action,
            },
        );
    }

    fn enqueue(&mut self, mid: usize, env: Envelope) {
        // §4.1: prioritized tuples jump the queue so their partial results
        // surface sooner.
        if env.wave.prioritized() {
            self.rt[mid].queue.push_front(env);
        } else {
            self.rt[mid].queue.push_back(env);
        }
        if !self.rt[mid].busy {
            self.agenda.push(self.now, Event::Start(mid));
        }
    }

    fn output(&mut self, tuple: Tuple, state: &TupleState) {
        self.record(crate::report::TraceKind::Output, &tuple);
        if self.config.check_constraints && !self.output_seen.insert(tuple.clone()) {
            self.violations
                .push(format!("duplicate result emitted: {tuple}"));
        }
        self.metrics.bump_id(self.ids.results, self.now, 1);
        if state.prioritized {
            self.metrics.bump_id(self.ids.priority_results, self.now, 1);
        }
        self.results.push(tuple);
    }

    fn park(&mut self, tuple: Tuple, state: TupleState, table: TableIdx) {
        let all_built = tuple
            .components()
            .iter()
            .all(|c| c.ts != stems_types::UNBUILT_TS);
        let kind = if all_built {
            // The coverage bindings this tuple is waiting for, off the
            // plan-time probe table; the list parks with the tuple.
            let links = &self.layout.links[table.as_usize()];
            let mut bindings = Vec::new();
            links.probe_bindings_into(&tuple, &mut bindings);
            // Multi-member IN probes wait on one EOT per member: any
            // member's EOT must wake the tuple so the SteM can re-judge
            // coverage (it requires *all* members before consuming).
            for (col, vals) in links.in_options() {
                bindings.extend(vals.iter().map(|v| (*col, v.clone())));
            }
            ParkKind::Coverage(bindings)
        } else {
            ParkKind::AnyBuild
        };
        self.metrics.bump_id(self.ids.parked, self.now, 1);
        self.parked.push(ParkedTuple {
            tuple,
            state,
            table,
            kind,
        });
    }

    /// Move the parked tuples `sig` wakes into `woken`, in parked order;
    /// the caller routes the wave (batched with any siblings). The
    /// partition happens in place: a signal that wakes nothing writes
    /// nothing, and one that does moves each kept tuple at most once.
    fn unpark(&mut self, sig: &UnparkSignal, woken: &mut Wave) {
        let EddyExecutor {
            parked,
            metrics,
            ids,
            now,
            ..
        } = self;
        parked.retain_mut(|p| {
            if !sig.wakes(p) {
                return true;
            }
            metrics.bump_id(ids.unparked, *now, 1);
            let tuple = std::mem::replace(&mut p.tuple, Tuple::empty());
            woken.push(tuple, p.state.clone(), false);
            false
        });
    }

    /// Rough cost estimate per candidate action — queue backlog plus one
    /// service (for AMs: lookup latency and server backlog).
    fn hint_for(&self, a: &Action) -> Hint {
        let c = &self.config.costs;
        let est = match a {
            Action::Build { mid, .. } => c.stem_build_us * (1 + self.rt[*mid].queue.len() as u64),
            Action::ProbeStem { mid, .. } => {
                c.stem_probe_us * (1 + self.rt[*mid].queue.len() as u64)
            }
            Action::Select { mid, .. } => {
                // Expensive UDF predicates carry a declared per-verdict
                // latency on top of the SM service cost. The hint stays a
                // static worst case (memo/dedup savings are reported back
                // through `Feedback::SelectCost` instead) so routing
                // decisions are identical across memo configurations.
                let per_row = match &self.modules[*mid] {
                    Module::Sm(sm) => c.sm_us + sm.pred.udf_spec().map_or(0, |s| s.cost_us),
                    _ => c.sm_us,
                };
                per_row * (1 + self.rt[*mid].queue.len() as u64)
            }
            Action::ProbeAm { mid, .. } => {
                let backlog = match &self.modules[*mid] {
                    Module::IndexAm(am) => am.queue_delay() + am.spec.latency_us,
                    _ => 0,
                };
                backlog + c.am_accept_us * (1 + self.rt[*mid].queue.len() as u64)
            }
            Action::Drop => 1,
        };
        Hint { est_cost_us: est }
    }

    /// Extra runtime verification of the Table 2 constraints (tests only).
    fn check_choice(&mut self, tuple: &Tuple, state: &TupleState, action: &Action) {
        // BuildFirst: an unbuilt singleton from a build-required table may
        // only build.
        if tuple.is_singleton() {
            let t = tuple.components()[0].table;
            let unbuilt = tuple.components()[0].ts == stems_types::UNBUILT_TS;
            if unbuilt
                && self.layout.build_required[t.as_usize()]
                && !matches!(action, Action::Build { .. })
            {
                self.violations
                    .push(format!("BuildFirst violated for {tuple}"));
            }
        }
        // ProbeCompletion: prior probers only touch their completion table.
        if let Some(pp) = state.prior_prober {
            match action {
                Action::ProbeStem { table, .. } | Action::ProbeAm { table, .. }
                    if *table != pp.table =>
                {
                    self.violations.push(format!(
                        "ProbeCompletion violated: {tuple} bound to {} routed to {table}",
                        pp.table
                    ));
                }
                Action::Drop if state.completion_required() => {
                    self.violations
                        .push(format!("required prior prober {tuple} dropped by policy"));
                }
                _ => {}
            }
        }
    }

    fn observe_am_build(&mut self, state: &TupleState, fresh: bool) {
        if let Some(mid) = state.origin_am {
            let mid = usize::from(mid);
            self.policy.feedback(&Feedback::AmBuild { mid, fresh });
            if fresh {
                self.metrics.bump_id(self.ids.am_fresh_builds, self.now, 1);
            } else {
                self.metrics.bump_id(self.ids.am_dup_builds, self.now, 1);
            }
        }
    }

    /// Sample a SteM's footprint after a build envelope — sparsely, to keep
    /// the series small: one point, and only when the envelope took the
    /// SteM's build count (`built_before` → now) past a multiple of 64.
    fn observe_stem_mem(&mut self, stem: &Stem, built_before: u64) {
        if stem.build_count() / 64 != built_before / 64 {
            self.metrics.observe_id(
                self.ids.stem_bytes[stem.instance.as_usize()],
                self.now,
                stem.approx_bytes() as f64,
            );
        }
    }

    // ------------------------------------------------------------------
    // Query-server hooks (SteM folding, server-driven scans)
    // ------------------------------------------------------------------

    /// Current global-timestamp counter (the server threads one counter
    /// through every folded executor so TimeStamp comparisons agree with
    /// the shared SteMs' stamps).
    pub(crate) fn ts_counter(&self) -> Timestamp {
        self.ts_counter
    }

    pub(crate) fn set_ts_counter(&mut self, ts: Timestamp) {
        self.ts_counter = ts;
    }

    /// Tighten this executor's deadline to `max(now) <= t` — the server
    /// resolves per-query deadlines (submission deadline, server
    /// default) to absolute virtual time at admission and installs the
    /// minimum here, so one mechanism (the `max_time` guard in
    /// [`Self::step`] and the wave-delivery paths) enforces them all.
    pub(crate) fn clamp_max_time(&mut self, t: Time) {
        let max = self.config.max_time.get_or_insert(t);
        *max = (*max).min(t);
    }

    /// The executor halted because its `max_time` deadline passed (not
    /// `max_events`): the server retires it as timed out.
    pub(crate) fn hit_deadline(&self) -> bool {
        self.timed_out
    }

    /// Whether instance `t` has a SteM in this plan (`no_stem`-relaxed
    /// instances do not). The server uses this to decide whether an
    /// executor can ever consume global build timestamps: only
    /// stem-bearing instances *not* folded onto a shared entry route
    /// private Build envelopes, and only those consume the counter — an
    /// executor with none is timestamp-independent and safe to step in
    /// parallel with its peers.
    pub(crate) fn has_stem(&self, t: TableIdx) -> bool {
        self.layout.stem_mid[t.as_usize()].is_some()
    }

    /// Replace instance `t`'s SteM with the server registry's `entry`:
    /// this executor's probes now read the SteM another query built, in
    /// the registry the server lends to every step. The server builds
    /// into it itself, so the router never offers a Build here: a folded
    /// instance receives its singletons stamped.
    pub(crate) fn fold_stem(&mut self, t: TableIdx, entry: usize) {
        let mid = self.layout.stem_mid[t.as_usize()].expect("folding a no-stem instance");
        self.modules[mid] = Module::Folded(entry);
    }

    /// Whether this executor memoizes UDF verdicts ([`ExecConfig::memo`]):
    /// the server only folds memo cells between queries that both opted
    /// in, so a memo-off query keeps paying full price — and keeps its
    /// bit-identical memo-off timeline.
    pub(crate) fn memo_enabled(&self) -> bool {
        self.config.memo
    }

    /// The distinct UDF specs among this query's selection predicates —
    /// the server's memo-folding identities. A verdict is a pure function
    /// of (spec, input value), so any two queries running the same spec
    /// can share one cache regardless of which column or table they
    /// filter.
    pub(crate) fn udf_specs(&self) -> Vec<stems_types::UdfSpec> {
        let mut specs = Vec::new();
        for &(_, mid) in &self.layout.sm_mids {
            if let Module::Sm(sm) = &self.modules[mid] {
                if let Some(&spec) = sm.pred.udf_spec() {
                    if !specs.contains(&spec) {
                        specs.push(spec);
                    }
                }
            }
        }
        specs
    }

    /// Replace every `spec`-matching SM's memo cell with a shared one
    /// from the server's registry — the memo analogue of
    /// [`Self::fold_stem`]: query B never re-pays a verdict query A
    /// bought. Only meaningful when [`ExecConfig::memo`] is on.
    pub(crate) fn fold_memo(&mut self, spec: stems_types::UdfSpec, cell: &crate::memo::MemoCell) {
        for i in 0..self.layout.sm_mids.len() {
            let mid = self.layout.sm_mids[i].1;
            if let Module::Sm(sm) = &mut self.modules[mid] {
                if sm.pred.udf_spec() == Some(&spec) {
                    sm.set_memo(Some(cell.clone()));
                }
            }
        }
    }

    /// The `max_time` guard for server-delivered waves. [`Self::step`]
    /// checks the deadline when it pops agenda events, but the server's
    /// wave deliveries bypass the agenda — without this mirror check a
    /// query past its deadline would keep processing every shared wave
    /// (the "dead knob": `max_time` was never enforced under the
    /// server). A wave past the deadline halts the executor exactly
    /// like a stepped event past it: `now` advances to the reap point
    /// (so `end_time` records when the deadline was detected) and the
    /// wave itself is dropped, matching the solo engine, which never
    /// processes an event after the guard trips. Once halted, every
    /// later wave is ignored.
    fn wave_past_deadline(&mut self, now: Time) -> bool {
        if self.halted {
            return true;
        }
        if self.config.max_time.is_some_and(|max| now > max) {
            self.now = now;
            self.halted = true;
            self.timed_out = true;
            return true;
        }
        false
    }

    /// Deliver one shared-scan wave for a *folded* instance: the server
    /// already built `stamped` into the shared SteM (dedup happened
    /// there), so the tuples enter this query's dataflow exactly where a
    /// private build would have dropped them — stamped, routed as one
    /// wave, with the AnyBuild/Eot wake-ups a private build would have
    /// raised. `eot` marks the final wave (scan complete).
    pub(crate) fn deliver_folded_wave(
        &mut self,
        now: Time,
        table: TableIdx,
        stamped: &[Tuple],
        eot: bool,
        shared: &Registry,
    ) {
        if !self.deliver_raw_wave(now, stamped.iter().cloned(), shared) {
            return;
        }
        // The wake-ups a private build of this wave would have raised.
        let built = !stamped.is_empty();
        let any_build = built.then_some(UnparkSignal::AnyBuild(table));
        let eot = eot.then_some(UnparkSignal::Eot {
            table,
            bindings: None,
        });
        self.wake(built, any_build.iter().chain(&eot), shared);
    }

    /// Deliver one shared-scan wave for an *unfolded* (private-SteM)
    /// instance: exactly what [`Self::on_scan_emit`] would have done had
    /// this executor owned the scan — the rows (EOT markers included)
    /// enter unstamped and route to this query's own SteM for building.
    /// Returns `false`, routing nothing, once the deadline has passed;
    /// [`Self::deliver_folded_wave`] routes through here too.
    pub(crate) fn deliver_raw_wave(
        &mut self,
        now: Time,
        tuples: impl IntoIterator<Item = Tuple>,
        shared: &Registry,
    ) -> bool {
        if self.wave_past_deadline(now) {
            return false;
        }
        self.now = now;
        self.route_singletons(tuples, None, shared);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BenefitCostPolicy;
    use stems_catalog::{ScanSpec, TableDef, TableInstance};
    use stems_types::{CmpOp, ColRef, ColumnType, PredId, Schema};

    /// Star query R ⋈ S, R ⋈ T on column `a` — gives a bounced R tuple two
    /// competing SteM-probe candidates.
    fn star3() -> (Catalog, QuerySpec) {
        let mut c = Catalog::new();
        let schema = Schema::of(&[("k", ColumnType::Int), ("a", ColumnType::Int)]);
        let mut sources = Vec::new();
        for name in ["R", "S", "T"] {
            let rows = (0..8i64).map(|i| vec![i.into(), (i % 3).into()]).collect();
            let id = c
                .add_table(TableDef::new(name, schema.clone()).with_rows(rows))
                .unwrap();
            c.add_scan(id, ScanSpec::default()).unwrap();
            sources.push(id);
        }
        let q = QuerySpec::new(
            &c,
            sources
                .iter()
                .zip(["r", "s", "t"])
                .map(|(src, a)| TableInstance {
                    source: *src,
                    alias: a.into(),
                })
                .collect(),
            vec![
                Predicate::join(
                    PredId(0),
                    ColRef::new(TableIdx(0), 1),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(1), 1),
                ),
                Predicate::join(
                    PredId(1),
                    ColRef::new(TableIdx(0), 1),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(2), 1),
                ),
            ],
            None,
        )
        .unwrap();
        (c, q)
    }

    /// The routing batch sizes a test repeats its runs at: 1 is the
    /// paper's tuple-at-a-time eddy, 64 the batched default.
    const BATCH_SIZES: [usize; 2] = [1, 64];

    /// A queued envelope is its wave and the action it was routed by: the
    /// group signature stays with `route_wave`, not in every envelope.
    #[test]
    fn a_queued_envelope_carries_no_signature() {
        assert!(std::mem::size_of::<Envelope>() <= 88);
    }

    fn dummy_env(action: Action) -> Envelope {
        Envelope {
            wave: Wave::default(),
            action,
        }
    }

    /// The hint-freshness guard: `dispatch_group` computes candidate
    /// costs only at dequeue. The test materializes the snapshot a
    /// flush-time capture *would* have taken, shifts the backlog the way
    /// earlier dispatches of a burst do, and shows the snapshot-fed
    /// decision differs from the dispatch-time one — i.e. re-costing at
    /// dequeue changes the chosen action under a shifted backlog, which
    /// is why no flush-time snapshot may ever reach the policy.
    #[test]
    fn recosting_at_dispatch_changes_choice_under_shifted_backlog() {
        let (catalog, query) = star3();
        for batch_size in BATCH_SIZES {
            let config = ExecConfig {
                policy: RoutingPolicyKind::BenefitCost {
                    epsilon: 0.0,
                    drop_rate: 0.0,
                },
                batch_size,
                ..ExecConfig::default()
            };
            let mut exec = EddyExecutor::build(&catalog, &query, config).unwrap();
            let m1 = exec.layout.stem_mid[1].expect("S SteM");
            let m2 = exec.layout.stem_mid[2].expect("T SteM");
            let actions = vec![
                Action::ProbeStem {
                    mid: m1,
                    table: TableIdx(1),
                },
                Action::ProbeStem {
                    mid: m2,
                    table: TableIdx(2),
                },
            ];
            // Flush-time backlog: m2 busy, m1 free — the snapshot favors m1.
            for _ in 0..6 {
                exec.rt[m2].queue.push_back(dummy_env(actions[1]));
            }
            let flushed: Vec<Hint> = actions.iter().map(|a| exec.hint_for(a)).collect();
            // The backlog shifts before the wave is dequeued: m2 drains, m1
            // fills (earlier waves of the same burst routed into it).
            exec.rt[m2].queue.clear();
            for _ in 0..6 {
                exec.rt[m1].queue.push_back(dummy_env(actions[0]));
            }

            // A decision taken on the stale snapshot would route to m1 …
            let tuple = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Int(1)])
                .with_timestamp(TableIdx(0), 1);
            let stale_pairs: Vec<(Action, Hint)> = actions
                .iter()
                .copied()
                .zip(flushed.iter().copied())
                .collect();
            let mut stale_policy = BenefitCostPolicy::new(0.0, 0.0);
            let stale = stale_policy.choose(
                &tuple,
                &TupleState::new(),
                &stale_pairs,
                &mut SimRng::new(1),
            );
            assert!(
                matches!(stale_pairs[stale].0, Action::ProbeStem { mid, .. } if mid == m1),
                "stale snapshot should favor the then-empty m1"
            );

            // … but the dispatcher costs at dequeue and routes to m2. The
            // backlog shift came from earlier dispatches of the same burst
            // (`touched`), which also drives the staleness counter.
            let before = exec.rt[m1].queue.len();
            exec.touched.push(m1);
            let mut group = exec.waves.take();
            group.push(tuple, TupleState::new(), false);
            exec.dispatch_group(group, &actions);
            assert_eq!(
                exec.rt[m2].queue.len(),
                1,
                "re-costed decision must route to the now-cheaper module"
            );
            assert_eq!(
                exec.rt[m1].queue.len(),
                before,
                "m1 must not receive the wave"
            );
            assert_eq!(exec.metrics.counter("hints_recosted"), 1);
            // The dispatched wave's destination joins the touched set, so a
            // following wave offering m2 would count as re-costed too.
            assert!(exec.touched.contains(&m2));
        }
    }

    /// `R(key, a) ⋈ S(x, y)` on `R.a = S.x` with `R.key > 0`; R scans, S
    /// is reachable through an index on `x` only.
    fn indexed2() -> (Catalog, QuerySpec) {
        use stems_catalog::IndexSpec;
        let mut c = Catalog::new();
        let cols = |a, b| Schema::of(&[(a, ColumnType::Int), (b, ColumnType::Int)]);
        let r = c.add_table(TableDef::new("R", cols("key", "a"))).unwrap();
        let s = c.add_table(TableDef::new("S", cols("x", "y"))).unwrap();
        c.add_scan(r, ScanSpec::default()).unwrap();
        c.add_index(s, IndexSpec::new(vec![0], 1000)).unwrap();
        let tables = [(r, "r"), (s, "s")].map(|(source, alias)| TableInstance {
            source,
            alias: alias.into(),
        });
        let preds = vec![
            Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 0),
            ),
            Predicate::selection(
                PredId(1),
                ColRef::new(TableIdx(0), 0),
                CmpOp::Gt,
                Value::Int(0),
            ),
        ];
        let q = QuerySpec::new(&c, tables.to_vec(), preds, None).unwrap();
        (c, q)
    }

    /// A built R singleton that has passed its selection and probed S.
    fn probed_r(key: i64) -> (Tuple, TupleState) {
        let tuple = Tuple::singleton_of(TableIdx(0), vec![Value::Int(key), Value::Int(key)])
            .with_timestamp(TableIdx(0), 1);
        let mut state = TupleState::new();
        state.done.insert(PredId(1));
        state.mark_probed(TableIdx(1));
        (tuple, state)
    }

    /// The same as a prior prober of S that has already been to S's index:
    /// `Required` parks, `Optional` may only drop.
    fn prior_prober(key: i64, need: CompletionNeed) -> (Tuple, TupleState) {
        let (tuple, mut state) = probed_r(key);
        state.mark_am_probed(TableIdx(1));
        state.prior_prober = Some(PriorProber {
            table: TableIdx(1),
            need,
        });
        (tuple, state)
    }

    fn parked_keys(exec: &EddyExecutor) -> Vec<Value> {
        let key = |p: &ParkedTuple| p.tuple.components()[0].row.values()[0].clone();
        exec.parked.iter().map(key).collect()
    }

    /// A wake-up that wakes nothing is read-only and free; one that wakes
    /// something takes exactly the matching tuples, in parked order.
    #[test]
    fn unpark_partitions_in_place_and_only_when_it_wakes() {
        let (catalog, query) = indexed2();
        for batch_size in BATCH_SIZES {
            let mut exec = EddyExecutor::build(
                &catalog,
                &query,
                ExecConfig {
                    batch_size,
                    ..ExecConfig::default()
                },
            )
            .unwrap();
            const N: i64 = 100;
            for k in 1..=N {
                let (tuple, state) = prior_prober(k, CompletionNeed::Required);
                exec.park(tuple, state, TableIdx(1));
            }
            assert!(exec
                .parked
                .iter()
                .all(|p| matches!(&p.kind, ParkKind::Coverage(b) if b.len() == 1)));
            let before = parked_keys(&exec);

            // Builds into S release only unbuilt re-probers; every parked tuple
            // here waits for coverage. Not one allocation, not one move.
            let sig = [UnparkSignal::AnyBuild(TableIdx(1))];
            exec.wake(false, &sig, &[]);
            let (allocs, ()) = crate::test_alloc::allocs_during(|| {
                for _ in 0..1_000 {
                    exec.wake(false, &sig, &[]);
                }
            });
            assert_eq!(allocs, 0, "1000 wake-ups that wake nothing");
            assert_eq!(parked_keys(&exec), before);

            // A keyed EOT wakes the tuples bound to its key and nothing else;
            // kept and woken both stay in parked order.
            let eot = |k: i64| UnparkSignal::Eot {
                table: TableIdx(1),
                bindings: Some(vec![(0, Value::Int(k))]),
            };
            let mut woken = exec.waves.take();
            for k in [7, 3, 7] {
                exec.unpark(&eot(k), &mut woken);
            }
            let woken_keys: Vec<Value> = woken
                .drain()
                .map(|(t, _, clustered)| {
                    assert!(!clustered);
                    t.components()[0].row.values()[0].clone()
                })
                .collect();
            assert_eq!(woken_keys, vec![Value::Int(7), Value::Int(3)]);
            let kept: Vec<Value> = (1..=N)
                .filter(|k| *k != 3 && *k != 7)
                .map(Value::Int)
                .collect();
            assert_eq!(parked_keys(&exec), kept);
            assert_eq!(exec.metrics.counter("unparked"), 2);
            // A scan EOT wakes everything that is left.
            let all = UnparkSignal::Eot {
                table: TableIdx(1),
                bindings: None,
            };
            exec.unpark(&all, &mut woken);
            assert_eq!(woken.len(), N as usize - 2);
            assert!(exec.parked.is_empty());
        }
    }

    /// The free list stays within its constant bound whatever has been
    /// routed: one 1 024-member wave, then 10 000 single-member waves.
    #[test]
    fn wave_pool_stays_bounded_under_any_wave_sizes() {
        let (catalog, query) = star3();
        let config = ExecConfig {
            batch_size: 1,
            ..ExecConfig::default()
        };
        let mut exec = EddyExecutor::build(&catalog, &query, config).unwrap();
        let row = |k: i64| Tuple::singleton_of(TableIdx(0), vec![Value::Int(k), Value::Int(k % 3)]);
        exec.route_singletons((0..1024).map(row), None, &[]);
        while exec.step(&[]) {}
        for k in 0..10_000 {
            exec.route_singletons([row(1024 + k)], None, &[]);
            while exec.step(&[]) {}
        }
        let (buffers, rows) = exec.waves.retained();
        assert!(buffers <= crate::wave::MAX_FREE_WAVES, "{buffers} buffers");
        assert!(rows <= exec.waves.bound_rows(), "{rows} member slots");
        assert!(exec.groups.is_empty() && exec.flushed.is_empty());
        assert!(exec
            .rt
            .iter()
            .all(|m| m.queue.is_empty() && m.out.is_none()));
        assert_eq!(exec.metrics.counter("scanned"), 1024 + 10_000);
        // A single-member delivery is key-uniform: it is queued as its own
        // envelope and takes no group buffer from the pool — which, emptied
        // here, would have had to allocate one.
        let mut wave = exec.waves.take();
        while exec.waves.retained().0 > 0 {
            exec.waves.take();
        }
        wave.push(row(0), TupleState::new(), false);
        let buffer = wave.tuples().as_ptr();
        let (allocs, ()) = crate::test_alloc::allocs_during(|| exec.route_wave(wave, &[]));
        assert_eq!(allocs, 0, "no group buffer was taken");
        let queued = exec.rt.iter().flat_map(|rt| &rt.queue);
        let envelopes: Vec<_> = queued.map(|env| env.wave.tuples().as_ptr()).collect();
        assert_eq!(envelopes, vec![buffer]);
    }

    /// One source `R(k, a)` under `k > 2`, `a < 5` (fusable) and a
    /// memoized `SIEVE(k)` UDF.
    fn selects1() -> (Catalog, QuerySpec) {
        let mut c = Catalog::new();
        let schema = Schema::of(&[("k", ColumnType::Int), ("a", ColumnType::Int)]);
        let r = c.add_table(TableDef::new("R", schema)).unwrap();
        c.add_scan(r, ScanSpec::default()).unwrap();
        let col = |c| ColRef::new(TableIdx(0), c);
        let preds = vec![
            Predicate::selection(PredId(0), col(0), CmpOp::Gt, Value::Int(2)),
            Predicate::selection(PredId(1), col(1), CmpOp::Lt, Value::Int(5)),
            Predicate::udf(
                PredId(2),
                col(0),
                stems_types::UdfSpec::hash_sieve(500, 1000),
            ),
        ];
        let table = TableInstance {
            source: r,
            alias: "r".into(),
        };
        let q = QuerySpec::new(&c, vec![table], preds, None).unwrap();
        (c, q)
    }

    /// Once warm, a Select envelope allocates nothing — fused, unfused,
    /// or through a UDF with dedup on and a warm memo: its verdicts,
    /// fused verdicts, keyed rows and dedup chains live in the
    /// executor's scratch, and the memo is locked once, not per key.
    #[test]
    fn a_warm_select_envelope_allocates_nothing() {
        let (catalog, query) = selects1();
        // Duplicate keys (dedup has work) and a NULL (an exception row).
        let rows: Vec<Tuple> = (0..64)
            .map(|i: i64| {
                let k = if i == 9 {
                    Value::Null
                } else {
                    Value::Int(i % 24)
                };
                Tuple::singleton_of(TableIdx(0), vec![k, Value::Int(i % 7)])
                    .with_timestamp(TableIdx(0), i as Timestamp + 1)
            })
            .collect();
        let policies = [
            RoutingPolicyKind::default(),
            RoutingPolicyKind::Lottery,
            RoutingPolicyKind::BenefitCost {
                epsilon: 0.1,
                drop_rate: 0.0,
            },
        ];
        for (policy, fuse) in policies
            .into_iter()
            .flat_map(|p| [(p.clone(), true), (p, false)])
        {
            let config = ExecConfig {
                policy,
                batch_size: 64,
                fuse_selections: fuse,
                udf_dedup: true,
                memo: true,
                ..ExecConfig::default()
            };
            let mut exec = EddyExecutor::build(&catalog, &query, config).unwrap();
            let select = |exec: &mut EddyExecutor, mid: usize, pred: PredId| {
                let mut wave = exec.waves.take();
                for t in &rows {
                    wave.push(t.clone(), TupleState::new(), false);
                }
                let action = Action::Select { mid, pred };
                let (_, out) = exec.process(mid, Envelope { wave, action }, &[]);
                let survivors = out.len();
                exec.waves.put(out);
                survivors
            };
            for (pred, mid) in exec.layout.sm_mids.clone() {
                let warm = select(&mut exec, mid, pred);
                let (allocs, survivors) =
                    crate::test_alloc::allocs_during(|| select(&mut exec, mid, pred));
                assert_eq!(survivors, warm);
                assert!(0 < survivors && survivors < rows.len());
                assert_eq!(allocs, 0, "{pred:?}, fuse {fuse}");
            }
            let fused = exec.metrics.counter("fused_selects");
            assert_eq!(fused > 0, fuse, "the fused chain ran");
            assert!(exec.metrics.counter("memo_hits") > 0, "the memo was warm");
            assert!(exec.violations.is_empty(), "{:?}", exec.violations);
        }
    }

    /// A SteM's footprint is sampled once per build envelope, and only
    /// when the envelope took the build count past a multiple of 64 — not
    /// once per fresh row of it.
    #[test]
    fn a_build_envelope_samples_stem_memory_once() {
        let (catalog, query) = star3();
        let config = ExecConfig {
            batch_size: 64,
            ..ExecConfig::default()
        };
        let mut exec = EddyExecutor::build(&catalog, &query, config).unwrap();
        let row = |k: i64| Tuple::singleton_of(TableIdx(0), vec![Value::Int(k), Value::Int(k)]);
        let points = |exec: &EddyExecutor| exec.metrics.series("stem_bytes_t0").map(|s| s.len());
        // 40 builds: no multiple of 64 passed, nothing sampled.
        exec.route_singletons((0..40).map(row), None, &[]);
        while exec.step(&[]) {}
        assert_eq!(points(&exec), None);
        // A 64-row envelope (40 → 104): one point, after its last build.
        exec.route_singletons((40..104).map(row), None, &[]);
        while exec.step(&[]) {}
        assert_eq!(exec.metrics.counter("scanned"), 104);
        assert_eq!(points(&exec), Some(1));
        let sampled = exec.metrics.series("stem_bytes_t0").unwrap().last_value();
        let Module::Stem(stem) = &exec.modules[exec.layout.stem_mid[0].unwrap()] else {
            panic!("t0 has a SteM");
        };
        assert_eq!(stem.build_count(), 104);
        assert_eq!(sampled, stem.approx_bytes() as f64);
    }

    /// A queued envelope as a test compares it: its module, the action it
    /// was routed by, its members in order, and its clustered and priority
    /// flags.
    type Queued = (usize, Action, Vec<Tuple>, bool, bool);

    /// Take every queued envelope out, module by module in queue order.
    fn take_queued(exec: &mut EddyExecutor) -> Vec<Queued> {
        let mut queued = Vec::new();
        for (mid, rt) in exec.rt.iter_mut().enumerate() {
            for Envelope { wave, action } in rt.queue.drain(..) {
                let members = wave.tuples().to_vec();
                queued.push((mid, action, members, wave.clustered(), wave.prioritized()));
            }
        }
        queued
    }

    /// The envelopes member-by-member grouping makes of a delivery whose
    /// groups each have one candidate: a member joins the open group of its
    /// signature and flags or opens one, a full group flushes, the open
    /// ones follow, and each queues at its candidate's module, carrying
    /// that candidate as its action — at the front if prioritized.
    fn grouped_member_by_member(
        exec: &EddyExecutor,
        members: &[(Tuple, TupleState, bool)],
    ) -> Vec<Queued> {
        let cap = exec.config.batch_size;
        let mut open: Vec<(Vec<Action>, Queued)> = Vec::new();
        let mut groups = Vec::new();
        for (tuple, state, clustered) in members {
            let mut acts = Vec::new();
            if tuple.is_eot() {
                let table = tuple.components()[0].table;
                let mid = exec.layout.stem_mid[table.as_usize()].unwrap();
                acts.push(Action::Build { mid, table });
            } else {
                let key = RouteKey::of(&exec.modules, &exec.layout, tuple, state);
                assert_eq!(exec.decide(&key, &[], &mut acts), Decision::Route);
            }
            assert_eq!(acts.len(), 1, "one candidate: no policy choice");
            let flags = (*clustered, state.prioritized);
            let i = match open
                .iter()
                .position(|(a, g)| *a == acts && (g.3, g.4) == flags)
            {
                Some(i) => i,
                None => {
                    let (mid, action) = (acts[0].mid().unwrap(), acts[0]);
                    open.push((acts, (mid, action, Vec::new(), flags.0, flags.1)));
                    open.len() - 1
                }
            };
            open[i].1 .2.push(tuple.clone());
            if open[i].1 .2.len() >= cap {
                groups.push(open.remove(i).1);
            }
        }
        groups.extend(open.into_iter().map(|(_, g)| g));
        let mut queues = vec![VecDeque::new(); exec.rt.len()];
        for group in groups {
            if group.4 {
                queues[group.0].push_front(group);
            } else {
                queues[group.0].push_back(group);
            }
        }
        queues.into_iter().flatten().collect()
    }

    /// Whatever a delivery looks like, routing it queues exactly the
    /// envelopes member-by-member grouping makes — whether the delivery
    /// hosts its first group in place or every member moves out — and a
    /// key-uniform delivery is queued as itself: the same buffer, each
    /// member one hop on.
    #[test]
    fn a_delivery_queues_the_envelopes_member_by_member_grouping_makes() {
        let (catalog, query) = star3();
        let config = ExecConfig {
            batch_size: 64,
            ..ExecConfig::default()
        };
        let mut exec = EddyExecutor::build(&catalog, &query, config).unwrap();
        let row =
            |t: u8, k: i64| Tuple::singleton_of(TableIdx(t), vec![Value::Int(k), Value::Int(k)]);
        let plain = |tuples: Vec<Tuple>| {
            let member = |t| (t, TupleState::new(), false);
            tuples.into_iter().map(member).collect::<Vec<_>>()
        };
        let uniform = plain((0..40).map(|k| row(0, k)).collect());
        let last_differs = plain((0..39).map(|k| row(0, k)).chain([row(1, 0)]).collect());
        let longer = plain((0..150).map(|k| row(0, k)).collect());
        let mut flagged = plain((0..10).map(|k| row(0, k)).collect());
        flagged[3].1.prioritized = true;
        flagged[5].2 = true;
        flagged[6].2 = true;
        let eot = Tuple::singleton(TableIdx(0), crate::stem::make_scan_eot_row(2));
        let with_eot = plain((0..20).map(|k| row(0, k)).chain([eot]).collect());
        let deliveries = [uniform, last_differs, longer, flagged, with_eot];
        let envelopes = [1, 2, 3, 3, 1];
        for (members, n) in deliveries.iter().zip(envelopes) {
            let expected = grouped_member_by_member(&exec, members);
            assert_eq!(expected.len(), n);
            let mut wave = exec.waves.take();
            for (tuple, state, clustered) in members {
                wave.push(tuple.clone(), state.clone(), *clustered);
            }
            let buffer = wave.tuples().as_ptr();
            exec.route_wave(wave, &[]);
            let rt = exec.rt.iter().find(|rt| !rt.queue.is_empty()).unwrap();
            let first = &rt
                .queue
                .iter()
                .find(|env| !env.wave.prioritized())
                .unwrap()
                .wave;
            assert!(first.states().iter().all(|s| s.hops == 1));
            let hosted = first.tuples().as_ptr() == buffer;
            assert_eq!(
                hosted,
                members.len() <= 64,
                "a delivery hosts its first group"
            );
            assert_eq!(take_queued(&mut exec), expected);
        }
    }

    /// A build's envelope comes back as its own bounce-back wave: the same
    /// buffer, each fresh member stamped where it sat, duplicates, EOTs
    /// and Grace-deferred members gone. A Grace release goes in clustered
    /// where the releasing EOT stood among the survivors — after them when
    /// it is last — which is the order a drain of the envelope emits.
    #[test]
    fn a_build_envelope_bounces_back_in_place() {
        // R holds a row twice, so its SteM keeps a duplicate filter.
        let mut catalog = Catalog::new();
        let schema = Schema::of(&[("k", ColumnType::Int), ("a", ColumnType::Int)]);
        let mut sources = Vec::new();
        for (name, rows) in [("R", vec![1, 1]), ("S", vec![1, 2])] {
            let rows = rows
                .into_iter()
                .map(|k: i64| vec![k.into(), k.into()])
                .collect();
            let id = catalog
                .add_table(TableDef::new(name, schema.clone()).with_rows(rows))
                .unwrap();
            catalog.add_scan(id, ScanSpec::default()).unwrap();
            sources.push(id);
        }
        let instances = sources
            .iter()
            .zip(["r", "s"])
            .map(|(src, a)| TableInstance {
                source: *src,
                alias: a.into(),
            });
        let join = Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 1),
        );
        let query = QuerySpec::new(&catalog, instances.collect(), vec![join], None).unwrap();
        let config = ExecConfig {
            batch_size: 64,
            plan: PlanOptions {
                default_stem: crate::stem::StemOptions {
                    deferred_bounce: true,
                    partitions: 2,
                    mem_partitions: 1,
                    ..Default::default()
                },
                ..PlanOptions::default()
            },
            ..ExecConfig::default()
        };
        let mut exec = EddyExecutor::build(&catalog, &query, config).unwrap();
        let mid = exec.layout.stem_mid[0].unwrap();
        let row = |k: i64| Tuple::singleton_of(TableIdx(0), vec![Value::Int(k), Value::Int(k)]);
        let held_back = |exec: &EddyExecutor, k: i64| {
            stem_of(exec, 0).partition_of(&row(k).components()[0].row) > 0
        };
        let kept: Vec<i64> = (0..).filter(|k| !held_back(&exec, *k)).take(6).collect();
        let deferred: Vec<i64> = (0..).filter(|k| held_back(&exec, *k)).take(4).collect();
        let scan_eot = Tuple::singleton(TableIdx(0), crate::stem::make_scan_eot_row(2));
        let key_eot = Tuple::singleton_of(TableIdx(0), vec![Value::Eot, Value::Int(kept[0])]);
        // Build one envelope; the bounce-back wave's members, each with its
        // key and clustered mark, and whether it is the envelope's buffer.
        let build = |exec: &mut EddyExecutor, members: Vec<Tuple>| {
            let mut wave = exec.waves.take();
            for tuple in members {
                wave.push(tuple, TupleState::new(), false);
            }
            let buffer = wave.tuples().as_ptr();
            let action = Action::Build {
                mid,
                table: TableIdx(0),
            };
            let (_, mut out) = exec.process(mid, Envelope { wave, action }, &[]);
            let same = out.tuples().as_ptr() == buffer;
            let members: Vec<(i64, bool)> = out
                .drain()
                .map(|(tuple, _, clustered)| {
                    assert_ne!(tuple.timestamp(), stems_types::UNBUILT_TS, "stamped");
                    let Value::Int(k) = tuple.components()[0].row.values()[0] else {
                        panic!("a data row")
                    };
                    (k, clustered)
                })
                .collect();
            (members, same)
        };
        // Before the scan ends: fresh members stay, in order; a duplicate,
        // a deferred member and a keyed EOT leave.
        let (a, b, c) = (kept[0], kept[1], kept[2]);
        let first = [
            row(a),
            row(deferred[0]),
            row(a),
            key_eot,
            row(b),
            row(deferred[1]),
        ];
        assert_eq!(
            build(&mut exec, first.to_vec()),
            (vec![(a, false), (b, false)], true)
        );
        // The scan's EOT releases the withheld members, in partition order
        // (one partition here, so build order), clustered, where the EOT
        // stood: after the survivors ahead of it, before those behind it.
        let members = vec![
            row(c),
            row(deferred[2]),
            row(b),
            scan_eot.clone(),
            row(kept[3]),
        ];
        let released = [deferred[0], deferred[1], deferred[2]].map(|k| (k, true));
        let mut expected = vec![(c, false)];
        expected.extend(released);
        expected.push((kept[3], false));
        assert_eq!(build(&mut exec, members).0, expected);
        // A later release with the EOT last: survivors first, then the
        // released member.
        let members = vec![row(kept[4]), row(deferred[3]), row(kept[5]), scan_eot];
        let expected = vec![(kept[4], false), (kept[5], false), (deferred[3], true)];
        assert_eq!(build(&mut exec, members).0, expected);
        assert_eq!(stem_of(&exec, 0).deferred_len(), 0);
        assert_eq!(exec.metrics.counter("duplicates_absorbed"), 2);
    }

    /// The routed singleton owns no allocation of its own: making one,
    /// stamping it at its build, copying and dropping it are all free. A
    /// concatenation pays for exactly its component vector.
    #[test]
    fn a_singleton_tuple_never_allocates() {
        let row = stems_types::Row::shared(vec![Value::Int(1), Value::Int(2)]);
        let (allocs, stamped) = crate::test_alloc::allocs_during(|| {
            let single = Tuple::singleton(TableIdx(0), row.clone());
            let stamped = single.with_timestamp(TableIdx(0), 9);
            drop(single.clone());
            drop(single);
            stamped
        });
        assert_eq!(allocs, 0, "singleton, with_timestamp, clone and drop");
        assert!(stamped.is_singleton() && stamped.timestamp() == 9);
        let (allocs, joined) =
            crate::test_alloc::allocs_during(|| stamped.concat_row(TableIdx(1), row.clone(), 10));
        assert_eq!(allocs, 1, "one component vector per concatenation");
        assert_eq!(joined.components().len(), 2);
    }

    /// Every way a tuple leaves routing without an envelope — output,
    /// retirement, parking, the policy's Drop arm, the `max_hops` backstop
    /// — hands its wave buffers back: the pool holds after a round what it
    /// held before it, and a warm round allocates only what the fates
    /// themselves keep (the parked tuple's binding list, the backstop's
    /// violation message).
    #[test]
    fn every_fate_returns_its_wave_buffers() {
        let (catalog, query) = indexed2();
        let config = ExecConfig {
            batch_size: 1,
            max_hops: 50,
            ..ExecConfig::default()
        };
        let mut exec = EddyExecutor::build(&catalog, &query, config).unwrap();
        let result = {
            let s = Tuple::singleton_of(TableIdx(1), vec![Value::Int(1), Value::Int(1)])
                .with_timestamp(TableIdx(1), 2);
            let mut state = TupleState::new();
            state.done = query.all_preds();
            (probed_r(1).0.concat(&s), state)
        };
        let exhausted = {
            let (tuple, mut state) = probed_r(2);
            state.hops = 50;
            (tuple, state)
        };
        let fates = [
            result,
            probed_r(3),
            prior_prober(4, CompletionNeed::Required),
            prior_prober(5, CompletionNeed::Optional),
            exhausted,
        ];
        let everything = UnparkSignal::Eot {
            table: TableIdx(1),
            bindings: None,
        };
        let round = |exec: &mut EddyExecutor| {
            let mut wave = exec.waves.take();
            for (tuple, state) in &fates {
                wave.push(tuple.clone(), state.clone(), false);
            }
            exec.route_wave(wave, &[]);
            assert_eq!(exec.parked.len(), 1);
            // Clear the park so rounds are identical (the woken prober is
            // dropped with the buffer, not routed again).
            let mut woken = exec.waves.take();
            exec.unpark(&everything, &mut woken);
            exec.waves.put(woken);
        };
        for _ in 0..8 {
            round(&mut exec);
        }
        let held = exec.waves.retained();
        assert!(held.0 >= 2, "a warm pool holds the buffers a round uses");
        const ROUNDS: usize = 64;
        let (allocs, ()) = crate::test_alloc::allocs_during(|| {
            for _ in 0..ROUNDS {
                round(&mut exec);
            }
        });
        assert_eq!(exec.waves.retained(), held, "a round leaked a buffer");
        assert!(
            exec.rt.iter().all(|m| m.queue.is_empty()),
            "no fate enqueues"
        );
        for (name, n) in [
            ("results", 1),
            ("retired", 1),
            ("parked", 1),
            ("policy_drops", 1),
            ("hops_exceeded", 1),
        ] {
            assert_eq!(
                exec.metrics.counter(name),
                n * (8 + ROUNDS as u64),
                "{name}"
            );
        }
        // The composite's clone (the four singletons' are free), the
        // park's binding list and the backstop's message per round, plus
        // amortised series/result growth.
        assert!(
            allocs <= ROUNDS * 4,
            "{allocs} allocations in {ROUNDS} warm rounds"
        );
    }

    /// An envelope whose action names another kind of module than the one
    /// it is queued at — a Select at a SteM, a SteM probe at an SM — is a
    /// routing bug: serving it records a violation and emits nothing, and
    /// the module stays in place.
    #[test]
    fn an_envelope_at_the_wrong_kind_of_module_is_a_violation() {
        let (catalog, query) = sel2();
        let mut exec = EddyExecutor::build(&catalog, &query, ExecConfig::default()).unwrap();
        let (stem_r, stem_s) = (
            exec.layout.stem_mid[0].unwrap(),
            exec.layout.stem_mid[1].unwrap(),
        );
        let (pred, sm) = exec.layout.sm_mids[0];
        let select = Action::Select { mid: sm, pred };
        let probe = Action::ProbeStem {
            mid: stem_s,
            table: TableIdx(1),
        };
        for (mid, action) in [(stem_r, select), (sm, probe)] {
            let mut wave = exec.waves.take();
            let values = vec![Value::Int(1), Value::Int(1), Value::Int(1)];
            wave.push(
                Tuple::singleton_of(TableIdx(0), values),
                TupleState::new(),
                false,
            );
            let before = exec.violations.len();
            let (_, out) = exec.process(mid, Envelope { wave, action }, &[]);
            assert!(out.is_empty());
            assert_eq!(
                exec.violations[before..],
                [format!("envelope {action:?} routed to wrong module")]
            );
            assert!(!matches!(exec.modules[mid], Module::Hole));
        }
    }

    /// Selection-heavy workload for the fusion tests: two selections over
    /// R plus a join, so a fused Select hop can retire both predicates.
    fn sel2() -> (Catalog, QuerySpec) {
        let mut c = Catalog::new();
        let r = c
            .add_table(
                TableDef::new(
                    "R",
                    Schema::of(&[
                        ("k", ColumnType::Int),
                        ("u", ColumnType::Int),
                        ("v", ColumnType::Int),
                    ]),
                )
                .with_rows(
                    (0..40i64)
                        .map(|i| vec![i.into(), (i % 4).into(), (i % 3).into()])
                        .collect(),
                ),
            )
            .unwrap();
        let s = c
            .add_table(
                TableDef::new("S", Schema::of(&[("k", ColumnType::Int)]))
                    .with_rows((0..40i64).map(|i| vec![i.into()]).collect()),
            )
            .unwrap();
        c.add_scan(r, ScanSpec::default()).unwrap();
        c.add_scan(s, ScanSpec::default()).unwrap();
        let q = QuerySpec::new(
            &c,
            vec![
                TableInstance {
                    source: r,
                    alias: "r".into(),
                },
                TableInstance {
                    source: s,
                    alias: "s".into(),
                },
            ],
            vec![
                Predicate::join(
                    PredId(0),
                    ColRef::new(TableIdx(0), 0),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(1), 0),
                ),
                Predicate::selection(
                    PredId(1),
                    ColRef::new(TableIdx(0), 1),
                    CmpOp::Lt,
                    Value::Int(2),
                ),
                Predicate::selection(
                    PredId(2),
                    ColRef::new(TableIdx(0), 2),
                    CmpOp::Lt,
                    Value::Int(2),
                ),
            ],
            None,
        )
        .unwrap();
        (c, q)
    }

    /// Fused and unfused runs must emit the same result multiset, and —
    /// under the deterministic fixed policy, whose cascade order equals
    /// the fused chain order — the same per-predicate evaluation count
    /// (`Feedback::Selected` parity with the scalar cascade), while the
    /// fused run schedules no more events.
    #[test]
    fn fused_selections_match_unfused_cascade() {
        let (catalog, query) = sel2();
        for batch_size in BATCH_SIZES {
            let run = |fuse: bool| {
                let config = ExecConfig {
                    fuse_selections: fuse,
                    check_constraints: true,
                    batch_size,
                    ..ExecConfig::default()
                };
                EddyExecutor::build(&catalog, &query, config)
                    .expect("plan")
                    .run()
            };
            let fused = run(true);
            let unfused = run(false);
            assert!(fused.violations.is_empty(), "{:?}", fused.violations);
            assert!(unfused.violations.is_empty(), "{:?}", unfused.violations);
            assert_eq!(
                fused.canonical(&catalog, &query),
                unfused.canonical(&catalog, &query)
            );
            // And both must match the reference nested-loop executor.
            let expected = stems_catalog::reference::canonical(
                &catalog,
                &query,
                &stems_catalog::reference::execute(&catalog, &query),
            );
            assert_eq!(fused.canonical(&catalog, &query), expected);
            assert_eq!(
                fused.counter("sm_applied"),
                unfused.counter("sm_applied"),
                "fusion must evaluate exactly what the cascade evaluates"
            );
            assert_eq!(fused.counter("filtered"), unfused.counter("filtered"));
            assert!(fused.counter("fused_selects") > 0, "fusion never engaged");
            assert_eq!(unfused.counter("fused_selects"), 0);
            assert!(
                fused.events <= unfused.events,
                "fusion must not schedule more events ({} vs {})",
                fused.events,
                unfused.events
            );
        }
    }

    /// The SteM on `t`.
    fn stem_of(exec: &EddyExecutor, t: usize) -> &Stem {
        match &exec.modules[exec.layout.stem_mid[t].expect("t has a SteM")] {
            Module::Stem(stem) => stem,
            _ => panic!("t{t}'s SteM slot holds another module"),
        }
    }

    /// A SteM that skips the duplicate filter, because one scan over
    /// distinct rows feeds it, accounts exactly as the filter would: a run
    /// with filtering SteMs swapped in reports the same
    /// `stem_bytes_total` series, the same counters and the same results.
    #[test]
    fn a_filterless_stem_accounts_like_the_filter() {
        let (catalog, query) = sel2();
        for batch_size in BATCH_SIZES {
            let config = ExecConfig {
                check_constraints: true,
                batch_size,
                ..ExecConfig::default()
            };
            let trusting = EddyExecutor::build(&catalog, &query, config.clone()).unwrap();
            let mut filtering = EddyExecutor::build(&catalog, &query, config).unwrap();
            for t in 0..query.n_tables() {
                assert!(!stem_of(&trusting, t).filters_duplicates(), "t{t}");
                let ti = TableIdx(t as u8);
                let stem = Stem::new(
                    ti,
                    query.instance(ti).source,
                    &query.join_cols_of(ti),
                    true,
                    false,
                    filtering.config.plan.default_stem.clone(),
                );
                assert!(stem.filters_duplicates());
                let mid = filtering.layout.stem_mid[t].unwrap();
                filtering.modules[mid] = Module::Stem(Box::new(stem));
            }
            let (trusting, filtering) = (trusting.run(), filtering.run());
            assert!(trusting.violations.is_empty(), "{:?}", trusting.violations);
            let bytes = |r: &Report| {
                r.metrics
                    .series("stem_bytes_total")
                    .unwrap()
                    .points()
                    .to_vec()
            };
            assert!(!bytes(&trusting).is_empty());
            assert_eq!(bytes(&trusting), bytes(&filtering));
            assert_eq!(trusting.end_time, filtering.end_time);
            assert_eq!(trusting.events, filtering.events);
            for name in ["scanned", "duplicates_absorbed", "sm_applied"] {
                assert_eq!(trusting.counter(name), filtering.counter(name), "{name}");
            }
            assert_eq!(
                trusting.canonical(&catalog, &query),
                filtering.canonical(&catalog, &query)
            );
        }
    }

    /// A single-scan table that holds a row twice keeps its SteM's
    /// duplicate filter: the second copy is absorbed (§3.2 set
    /// semantics), so the join answers once per distinct row.
    #[test]
    fn a_repeated_row_under_one_scan_is_still_absorbed() {
        let mut c = Catalog::new();
        let schema = Schema::of(&[("k", ColumnType::Int)]);
        let r = c
            .add_table(TableDef::new("R", schema.clone()).with_rows(vec![
                vec![1.into()],
                vec![2.into()],
                vec![1.into()],
            ]))
            .unwrap();
        let s = c
            .add_table(
                TableDef::new("S", schema).with_rows((0..4i64).map(|i| vec![i.into()]).collect()),
            )
            .unwrap();
        c.add_scan(r, ScanSpec::default()).unwrap();
        c.add_scan(s, ScanSpec::default()).unwrap();
        assert!(!c.rows_distinct(r) && c.rows_distinct(s));
        let q = QuerySpec::new(
            &c,
            vec![
                TableInstance {
                    source: r,
                    alias: "r".into(),
                },
                TableInstance {
                    source: s,
                    alias: "s".into(),
                },
            ],
            vec![Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 0),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 0),
            )],
            None,
        )
        .unwrap();
        for batch_size in BATCH_SIZES {
            let config = ExecConfig {
                check_constraints: true,
                batch_size,
                ..ExecConfig::default()
            };
            let exec = EddyExecutor::build(&c, &q, config).unwrap();
            assert!(stem_of(&exec, 0).filters_duplicates());
            assert!(!stem_of(&exec, 1).filters_duplicates());
            let report = exec.run();
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            assert_eq!(report.counter("duplicates_absorbed"), 1);
            let keys: Vec<Vec<Value>> = report.canonical(&c, &q);
            assert_eq!(
                keys,
                [[1, 1], [2, 2]]
                    .map(|r| r.map(Value::Int).to_vec())
                    .to_vec()
            );
        }
    }

    /// `R(k, a) ⋈ S(k, a)` on `a`, both scanned at one row a virtual
    /// microsecond in chunks of 8 (cut to the batch size) — far faster
    /// than a SteM serves them, so every module the rows reach keeps a
    /// queue.
    fn burst2() -> (Catalog, QuerySpec) {
        let mut c = Catalog::new();
        let schema = Schema::of(&[("k", ColumnType::Int), ("a", ColumnType::Int)]);
        let mut tables = Vec::new();
        for (name, rows) in [("R", 120i64), ("S", 40)] {
            let rows = (0..rows).map(|i| vec![i.into(), (i % 20).into()]).collect();
            let def = TableDef::new(name, schema.clone()).with_rows(rows);
            let source = c.add_table(def).unwrap();
            let scan = ScanSpec::with_rate(1_000_000.0).with_chunk(8);
            c.add_scan(source, scan).unwrap();
            tables.push(TableInstance {
                source,
                alias: name.to_lowercase(),
            });
        }
        let join = Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 1),
        );
        let q = QuerySpec::new(&c, tables, vec![join], None).unwrap();
        (c, q)
    }

    /// §4.1's queue jump, at every batch size — the tuple-at-a-time
    /// engine's one-member envelopes included: with a user-interest
    /// predicate the interesting results come out earlier in the result
    /// stream than without one, and the result multiset is the same.
    #[test]
    fn prioritized_envelopes_jump_module_queues_at_every_batch_size() {
        let (catalog, query) = burst2();
        let interest = Predicate::selection(
            PredId(9),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Lt,
            Value::Int(4),
        );
        // Mean position of the interesting results in emission order.
        let mean_rank = |report: &Report| {
            let ranks = report.results.iter().enumerate();
            let ranks: Vec<usize> = ranks
                .filter(|(_, t)| interest.eval(*t) == Some(true))
                .map(|(i, _)| i)
                .collect();
            assert!(!ranks.is_empty());
            ranks.iter().sum::<usize>() as f64 / ranks.len() as f64
        };
        for batch_size in BATCH_SIZES {
            let run = |priority_pred| {
                let config = ExecConfig {
                    batch_size,
                    priority_pred,
                    check_constraints: true,
                    ..ExecConfig::default()
                };
                let report = EddyExecutor::build(&catalog, &query, config).unwrap().run();
                assert!(report.violations.is_empty(), "{:?}", report.violations);
                report
            };
            let (plain, boosted) = (run(None), run(Some(interest.clone())));
            assert_eq!(
                boosted.canonical(&catalog, &query),
                plain.canonical(&catalog, &query)
            );
            let (plain_rank, boosted_rank) = (mean_rank(&plain), mean_rank(&boosted));
            assert!(
                boosted_rank < 0.8 * plain_rank,
                "batch {batch_size}: mean rank {boosted_rank} prioritized, {plain_rank} plain"
            );
        }
    }

    /// Routes as `inner` does, and records every feedback it is given.
    struct Recording {
        inner: Box<dyn RoutingPolicy>,
        seen: std::sync::Arc<crate::sync::Lock<Vec<Feedback>>>,
    }

    impl RoutingPolicy for Recording {
        fn choose(
            &mut self,
            tuple: &Tuple,
            state: &TupleState,
            actions: &[(Action, Hint)],
            rng: &mut SimRng,
        ) -> usize {
            self.inner.choose(tuple, state, actions, rng)
        }

        fn choose_batch(
            &mut self,
            batch: &[Tuple],
            state: &TupleState,
            actions: &[(Action, Hint)],
            rng: &mut SimRng,
        ) -> usize {
            self.inner.choose_batch(batch, state, actions, rng)
        }

        fn feedback(&mut self, fb: &Feedback) {
            self.inner.feedback(fb);
            self.seen.lock_ok().push(fb.clone());
        }

        fn name(&self) -> &'static str {
            self.inner.name()
        }
    }

    /// The adaptive policies learn from every member of every envelope,
    /// one-member envelopes — the whole batch-1 engine — included: each
    /// SteM probe reports once per probing tuple (`stem_probes`) and each
    /// selection once per verdict (`sm_applied`), fused and unfused, at
    /// batch 1 and 64, under every policy.
    #[test]
    fn policies_hear_every_probe_and_selection_at_every_batch_size() {
        let (catalog, query) = sel2();
        let kinds = [
            RoutingPolicyKind::default(),
            RoutingPolicyKind::Lottery,
            RoutingPolicyKind::BenefitCost {
                epsilon: 0.1,
                drop_rate: 0.0,
            },
        ];
        for (batch_size, fuse_selections) in BATCH_SIZES
            .into_iter()
            .flat_map(|b| [(b, true), (b, false)])
        {
            for policy in &kinds {
                let cell = format!("batch {batch_size} fuse {fuse_selections} {policy:?}");
                let config = ExecConfig {
                    policy: policy.clone(),
                    batch_size,
                    fuse_selections,
                    check_constraints: true,
                    ..ExecConfig::default()
                };
                let mut exec = EddyExecutor::build(&catalog, &query, config).unwrap();
                let seen = std::sync::Arc::default();
                exec.policy = Box::new(Recording {
                    inner: policy.build(),
                    seen: std::sync::Arc::clone(&seen),
                });
                let report = exec.run();
                assert!(
                    report.violations.is_empty(),
                    "{cell}: {:?}",
                    report.violations
                );
                let seen = seen.lock_ok();
                let probes = seen
                    .iter()
                    .filter(|f| matches!(f, Feedback::StemProbe { .. }))
                    .count();
                let selected = |pred| {
                    let of = |f: &&Feedback| matches!(f, Feedback::Selected { pred: p, .. } if *p == pred);
                    seen.iter().filter(of).count()
                };
                let (first, second) = (selected(PredId(1)), selected(PredId(2)));
                assert!(probes > 0 && first > 0 && second > 0, "{cell}");
                assert_eq!(probes as u64, report.counter("stem_probes"), "{cell}");
                assert_eq!(
                    (first + second) as u64,
                    report.counter("sm_applied"),
                    "{cell}"
                );
            }
        }
    }
}
