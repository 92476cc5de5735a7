//! The multi-query server: submit a stream of parsed [`QuerySpec`]s,
//! execute them *concurrently* on one deterministic virtual timeline, and
//! **fold** compatible SteMs so each scanned row is built once and probed
//! by every interested query — the paper's multiquery motivation for
//! making state a first-class module ("the state managed by SteMs can be
//! shared across queries", §1 / §5).
//!
//! # The submission surface
//!
//! A server is configured through [`ServerBuilder`] (folding, per-query
//! defaults, admission budgets, deadlines), queries enter through
//! [`QueryServer::submit`] as [`Submission`]s (admission time, per-query
//! config, deadline, scheduled cancellation), and [`QueryServer::serve`]
//! returns one [`QueryHandle`] per query in submission order: its
//! [`QueryId`], a terminal [`QueryStatus`], and — for every query that
//! actually ran — its [`ServerReport`]. Errors are typed
//! ([`ServerError`]) rather than stringly.
//!
//! # What is shared, what stays per-query
//!
//! * **Scan streams** collapse per *source*: one [`ScanAm`] per table fans
//!   each chunk wave out to every subscribed query, however many queries
//!   read the table.
//! * **SteMs** are shared through a registry keyed by
//!   [`StemKey`] — `(source, join columns, resolved SteM options)`. When
//!   query B's key matches query A's, B's plan is rewired
//!   ([`EddyExecutor::fold_stem`]) to probe the *same* [`StemCell`] A
//!   uses: one build, N probers. The server performs the builds itself
//!   (one build service per scan wave per entry, not per query) and hands
//!   every subscriber the same timestamped singletons.
//! * **Routers, routing policies, SMs, index AMs and result sets stay
//!   per-query** — each query adapts its routing independently; only
//!   state and scan work are shared.
//!
//! An instance does *not* fold when its source has an index AM (the
//! bounce protocol then depends on per-query probe traffic), when it uses
//! Grace-style `deferred_bounce`, when it is `no_stem`-relaxed (§3.5), or
//! when an earlier instance of the *same query* already claimed the entry
//! (a self-join needs two dictionaries). Unfolded instances get a **raw**
//! subscription: the shared scan stream delivered as plain unstamped
//! singletons, built into the query's private SteM exactly as if its own
//! scan had emitted them.
//!
//! # Admission control
//!
//! The registry is the server's memory: every shared entry holds a built
//! dictionary. [`ServerBuilder::stem_bytes_budget`] and
//! [`ServerBuilder::shared_builds_budget`] bound it — both are fed by the
//! per-wave observations the build service already makes (entry bytes are
//! re-sampled after every absorbed wave). A query whose admission instant
//! finds the budget exceeded is either **queued** (FIFO, re-tried at
//! every completion sweep, after evicting subscriber-less entries while
//! the budget stays exceeded) or **shed** (a terminal
//! [`QueryStatus::Shed`], no execution) per
//! [`ServerBuilder::admission`]. The boundary is inclusive: usage exactly
//! *at* the budget still admits. A queued head is force-admitted when the
//! server is otherwise idle, so an unsatisfiable budget (e.g. an
//! exhausted cumulative build budget) degrades to serial execution
//! instead of stranding the queue. [`ServerBuilder::max_queries`] caps
//! total submissions with a typed [`ServerError::BudgetExhausted`].
//!
//! # Deadlines and cancellation
//!
//! Each query may carry a deadline — [`Submission::deadline`] or the
//! server-wide [`ServerBuilder::default_deadline`], both *relative* to
//! the admission instant — which the server installs as the executor's
//! `max_time` guard (an `ExecConfig::max_time` set directly still means
//! absolute virtual time, matching its solo semantics). The guard now
//! bites on *every* path: stepped agenda events and server-delivered
//! waves alike, so deadlines are checked at wave boundaries and a query
//! past its deadline is retired as [`QueryStatus::TimedOut`] with the
//! partial report it produced. [`Submission::cancel_at`] /
//! [`QueryServer::cancel`] schedule an explicit cancellation:
//! a cancelled query releases its registry claims immediately (its
//! entries become evictable, its queue slot is dropped) and reports
//! [`QueryStatus::Cancelled`].
//!
//! # Determinism contract
//!
//! One global virtual clock merges all executors. At every instant the
//! server first applies its own events (admissions, cancellations, scan
//! waves, build completions), then steps each query's executor up to the
//! instant. A single server-global build-timestamp counter threads
//! through the executors that can consume it, so a query's *observable*
//! behaviour — ordered results, events, metrics, end time — is
//! bit-identical whether it runs alone (`N = 1`) or alongside any number
//! of concurrent queries: interleaving other queries only relabels the
//! *gaps* in the timestamp sequence, never the relative order of any two
//! stamps one query can compare (`tests/server_folding.rs` sweeps this
//! invariant).
//!
//! # Parallel stepping
//!
//! Between two server waves the executors are *independent*: they share
//! no mutable state except the shared SteM cells (probe-only between
//! build waves, each probe serialized under the cell mutex and
//! schedule-invariant) and the global timestamp counter. Only executors
//! that still own a private stem-bearing instance can consume the
//! counter ([`EddyExecutor::has_stem`]); the server partitions each
//! wave's runnable executors accordingly. Counter-threading executors
//! step serially in admission order (the counter is a chain); the rest
//! are claimed off a [`WaveBarrier`] by `ExecConfig::workers` runner
//! jobs on the process [`WorkerPool`] — each executor stepped by exactly
//! one thread, the wave merged back into the serial timeline only when
//! the barrier observes every claim finished. Per-executor behaviour is
//! a pure function of its own deliveries, so reports are bit-identical
//! at every worker budget (the invariance suite sweeps workers {1, 4}).
//! The barrier protocol itself is model-checked in `tests/model.rs`.
//!
//! With folding disabled the server degenerates to a pure merge of
//! independent classic executors — each query behaves exactly like a solo
//! [`EddyExecutor::run`]; `stems-bench server` uses that mode as the baseline
//! the folding throughput gain is measured against.

use crate::am::ScanAm;
use crate::engine::{ConfigError, EddyExecutor, ExecConfig};
use crate::memo::{MemoCache, MemoCell, DEFAULT_MEMO_SHARDS};
use crate::plan::StemCell;
use crate::report::ServerReport;
use crate::runtime::WorkerPool;
use crate::sharded::ShardedStem;
use crate::stem::{make_scan_eot_row, BuildResult, StemOptions};
use crate::sync::{lock_ok, Arc, Mutex, WaveBarrier};
use crate::tuple_state::TupleState;
use std::collections::VecDeque;
use stems_catalog::{AccessMethodDef, Catalog, QuerySpec, SourceId};
use stems_sim::{EventQueue, Time};
use stems_types::{Row, StemsError, TableIdx, Timestamp, Tuple, TupleBatch};

/// SteM-sharing compatibility key. Two instances may share one SteM only
/// if they scan the same source, index it by the same (canonicalized)
/// join columns, and plan identical SteM options — options affect storage
/// semantics (backend, eviction window), so any mismatch would leak one
/// query's configuration into another's timeline.
#[derive(Debug, Clone, PartialEq)]
struct StemKey {
    source: SourceId,
    join_cols: Vec<usize>,
    opts: StemOptions,
}

/// One shared SteM plus the build log its subscribers replay.
struct SharedEntry {
    key: StemKey,
    cell: StemCell,
    /// Fresh builds in arrival order with their global timestamps.
    /// Server-absorbed duplicates are omitted — every subscriber would
    /// have absorbed them identically.
    log: Vec<(Arc<Row>, Timestamp)>,
    /// Log prefix whose `DeliverBuilt` has fired (safe to hand to
    /// late-admitted subscribers immediately).
    released: usize,
    /// Scan EOT built into the SteM.
    eot_applied: bool,
    /// Scan EOT announced to subscribers.
    eot_released: bool,
    /// The SteM build server is busy until this time; waves queue FIFO.
    busy_until: Time,
    /// Live folded subscriptions. Only subscriber-less entries may be
    /// evicted, and only under budget pressure — an idle entry is a warm
    /// cache for the next compatible query.
    subs: usize,
    /// Last observed dictionary footprint (re-sampled per build wave);
    /// the admission budget sums these.
    bytes: usize,
}

/// One scan stream, shared by every query reading the source.
struct ServerScan {
    source: SourceId,
    am: ScanAm,
    arity: usize,
    /// How many rows have been emitted. The scan emits its table in
    /// order, so the catch-up prefix for late admissions is the first
    /// `emitted` rows of the catalog table.
    emitted: usize,
    eot: bool,
    /// Live raw subscriptions; when zero (everything folded), an emit
    /// skips the per-slot delivery sweep.
    raw_subs: usize,
}

/// A query instance rewired onto a shared SteM.
struct FoldedSub {
    entry: usize,
    table: TableIdx,
    /// Position in the entry's build log delivered so far.
    cursor: usize,
    eot_seen: bool,
}

/// A query's instances fed raw rows from a shared scan stream.
struct RawSub {
    scan: usize,
    tables: Vec<TableIdx>,
    eot_seen: bool,
}

struct QuerySlot {
    query: QuerySpec,
    config: ExecConfig,
    exec: Option<EddyExecutor>,
    admitted_at: Time,
    active: bool,
    /// Relative deadline (virtual µs from admission), resolved against
    /// the admission instant into the executor's `max_time` guard.
    deadline: Option<Time>,
    /// This executor can consume the server-global timestamp counter
    /// (it owns a private stem-bearing instance), so it must step
    /// serially on the counter chain rather than in the parallel phase.
    threads_ts: bool,
    folded: Vec<FoldedSub>,
    raw: Vec<RawSub>,
    status: Option<QueryStatus>,
    report: Option<ServerReport>,
}

impl QuerySlot {
    fn streams_open(&self) -> bool {
        self.folded.iter().any(|s| !s.eot_seen) || self.raw.iter().any(|s| !s.eot_seen)
    }
}

enum ServerEvent {
    /// Activate an admitted query (or queue/shed it, per budget).
    Admit(usize),
    /// Cancel a query wherever it is: queued, pending admission, or
    /// running.
    Cancel(usize),
    /// A shared scan emits its next chunk (or EOT).
    ScanEmit(usize),
    /// A shared SteM finished servicing a build wave: release the log
    /// prefix `..upto` to every subscriber.
    DeliverBuilt {
        entry: usize,
        upto: usize,
        eot: bool,
    },
}

/// How a server run went: how much state it shared (one entry/stream
/// serving N queries is the whole point) and what admission control did
/// (`tests/server_folding.rs` and `tests/server_admission.rs` assert on
/// these; `stems-bench server` reports them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Shared SteM registry entries created (cumulative — evicted
    /// entries recreated for a later query count again).
    pub shared_stems: usize,
    /// Shared scan streams created (folding mode only).
    pub scan_streams: usize,
    /// Rows built into shared SteMs — once per entry, not per query
    /// (cumulative across evictions).
    pub shared_builds: u64,
    /// High-water mark of the registry's summed dictionary bytes.
    pub stem_bytes_peak: usize,
    /// Subscriber-less entries evicted under budget pressure.
    pub evicted_stems: usize,
    /// UDF memo-cell folds onto an already-registered cell: each count is
    /// one query subscribed to a verdict cache another query created —
    /// that query never re-pays a verdict the earlier one bought.
    pub shared_memos: usize,
    /// Admissions deferred to the queue at least once.
    pub queued: usize,
    /// Queries shed at admission (budget exceeded, shed policy).
    pub shed: usize,
    /// Queries retired at their deadline.
    pub timed_out: usize,
    /// Queries cancelled.
    pub cancelled: usize,
}

/// Terminal state of a submitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Ran to completion; the handle carries its full report.
    Completed,
    /// Rejected at admission under [`AdmissionPolicy::Shed`]; never ran,
    /// no report.
    Shed,
    /// Retired at its deadline; the handle carries the partial report.
    TimedOut,
    /// Cancelled. If it was already running the handle carries the
    /// partial report; a query cancelled before admission has none.
    Cancelled,
}

/// Identifier for a submitted query: its index in submission order (the
/// order of [`QueryServer::serve`]'s returned handles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(pub usize);

/// One query's outcome: terminal status plus — for every query that
/// actually ran — its [`ServerReport`].
#[derive(Debug)]
pub struct QueryHandle {
    pub id: QueryId,
    pub status: QueryStatus,
    /// `None` iff the query never ran ([`QueryStatus::Shed`], or
    /// cancelled before admission).
    pub report: Option<ServerReport>,
}

/// What to do with an admission that finds the budget exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Defer it: FIFO queue, re-tried at every completion sweep (after
    /// evicting idle entries while the budget stays exceeded).
    #[default]
    Queue,
    /// Reject it terminally ([`QueryStatus::Shed`]).
    Shed,
}

/// A rejected server interaction — configuration, submission, or
/// cancellation. The server-wide promotion of [`ConfigError`]: every
/// failure is typed, not stringly.
#[derive(Debug)]
pub enum ServerError {
    /// Invalid engine configuration (server default or per-submission).
    Config(ConfigError),
    /// The query itself failed admission (plan instantiation).
    Admission { query: usize, source: StemsError },
    /// [`ServerBuilder::max_queries`] reached: the server accepts no
    /// further submissions.
    BudgetExhausted { admitted: usize, max_queries: usize },
    /// A deadline of zero virtual µs — the query could never run.
    InvalidDeadline { deadline: Time },
    /// A [`QueryId`] this server never issued.
    UnknownQuery { id: usize },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Config(e) => write!(f, "invalid server configuration: {e}"),
            ServerError::Admission { query, source } => {
                write!(f, "query {query} rejected at admission: {source}")
            }
            ServerError::BudgetExhausted {
                admitted,
                max_queries,
            } => write!(
                f,
                "admission budget exhausted: {admitted} queries submitted, max_queries = \
                 {max_queries}"
            ),
            ServerError::InvalidDeadline { deadline } => {
                write!(f, "invalid deadline {deadline}: must be >= 1 virtual µs")
            }
            ServerError::UnknownQuery { id } => write!(f, "unknown query id {id}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Config(e) => Some(e),
            ServerError::Admission { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ConfigError> for ServerError {
    fn from(e: ConfigError) -> ServerError {
        ServerError::Config(e)
    }
}

/// Configures a [`QueryServer`]: named setters for folding and the
/// per-query default config, plus the admission-control and deadline
/// knobs.
pub struct ServerBuilder<'a> {
    catalog: &'a Catalog,
    config: Option<ExecConfig>,
    fold: bool,
    max_stem_bytes: Option<usize>,
    max_shared_builds: Option<u64>,
    max_queries: Option<usize>,
    policy: AdmissionPolicy,
    default_deadline: Option<Time>,
}

impl<'a> ServerBuilder<'a> {
    /// A builder over `catalog`, with folding on, environment-derived
    /// default config, no budgets and no deadlines.
    pub fn new(catalog: &'a Catalog) -> ServerBuilder<'a> {
        ServerBuilder {
            catalog,
            config: None,
            fold: true,
            max_stem_bytes: None,
            max_shared_builds: None,
            max_queries: None,
            policy: AdmissionPolicy::Queue,
            default_deadline: None,
        }
    }

    /// Default per-query configuration (also sizes the shared scan
    /// chunks). Defaults to [`ExecConfig::from_env`].
    pub fn config(mut self, config: ExecConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Enable/disable SteM sharing. Off, every query runs a fully
    /// private classic executor (the bench baseline). Default: on.
    pub fn fold(mut self, fold: bool) -> Self {
        self.fold = fold;
        self
    }

    /// Bound the registry's summed dictionary bytes (observed per build
    /// wave). Inclusive: usage exactly at the budget still admits.
    pub fn stem_bytes_budget(mut self, bytes: usize) -> Self {
        self.max_stem_bytes = Some(bytes);
        self
    }

    /// Bound the cumulative rows built into shared SteMs. Inclusive.
    pub fn shared_builds_budget(mut self, builds: u64) -> Self {
        self.max_shared_builds = Some(builds);
        self
    }

    /// Cap total submissions; past it [`QueryServer::submit`] fails with
    /// [`ServerError::BudgetExhausted`].
    pub fn max_queries(mut self, n: usize) -> Self {
        self.max_queries = Some(n);
        self
    }

    /// Queue or shed admissions that exceed the budget. Default: queue.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Default per-query deadline, in virtual µs *from admission*;
    /// overridable per submission ([`Submission::deadline`]).
    pub fn default_deadline(mut self, deadline: Time) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    pub fn build(self) -> std::result::Result<QueryServer<'a>, ServerError> {
        let config = match self.config {
            Some(c) => c,
            None => ExecConfig::from_env()?,
        };
        config.validate()?;
        if self.default_deadline == Some(0) {
            return Err(ServerError::InvalidDeadline { deadline: 0 });
        }
        Ok(QueryServer {
            catalog: self.catalog,
            config,
            fold: self.fold,
            max_stem_bytes: self.max_stem_bytes,
            max_shared_builds: self.max_shared_builds,
            max_queries: self.max_queries,
            policy: self.policy,
            default_deadline: self.default_deadline,
            now: 0,
            ts_counter: 0,
            agenda: EventQueue::new(),
            scans: Vec::new(),
            entries: Vec::new(),
            memo_cells: Vec::new(),
            shared_memos: 0,
            slots: Vec::new(),
            active_set: Vec::new(),
            pending: VecDeque::new(),
            exec_next: None,
            entries_created: 0,
            builds_total: 0,
            bytes_total: 0,
            bytes_peak: 0,
            evicted: 0,
            queued: 0,
            shed: 0,
            timed_out: 0,
            cancelled: 0,
        })
    }
}

/// One query's submission: the spec plus everything that can vary per
/// query — admission time, configuration, deadline, and a scheduled
/// cancellation.
#[derive(Debug, Clone)]
pub struct Submission {
    query: QuerySpec,
    at: Time,
    config: Option<ExecConfig>,
    deadline: Option<Time>,
    cancel_at: Option<Time>,
}

impl Submission {
    /// Submit `query` at virtual time 0 with the server defaults.
    pub fn new(query: QuerySpec) -> Submission {
        Submission {
            query,
            at: 0,
            config: None,
            deadline: None,
            cancel_at: None,
        }
    }

    /// Admission time (clamped to the server's present).
    pub fn at(mut self, at: Time) -> Self {
        self.at = at;
        self
    }

    /// Per-query configuration (policy, seed, plan options...). The
    /// query folds onto a shared SteM only where its *resolved* options
    /// match the entry's — config divergence simply degrades to private
    /// state, never to wrong answers.
    pub fn config(mut self, config: ExecConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Deadline in virtual µs *from admission*; past it the query is
    /// retired as [`QueryStatus::TimedOut`] with its partial report.
    /// Overrides [`ServerBuilder::default_deadline`].
    pub fn deadline(mut self, deadline: Time) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Schedule a cancellation at absolute virtual time `at` — as if
    /// [`QueryServer::cancel`] were called then.
    pub fn cancel_at(mut self, at: Time) -> Self {
        self.cancel_at = Some(at);
        self
    }
}

/// Concurrent multi-query executor over shared SteMs — see the module
/// docs for the sharing, admission and determinism contracts.
pub struct QueryServer<'a> {
    catalog: &'a Catalog,
    config: ExecConfig,
    fold: bool,
    max_stem_bytes: Option<usize>,
    max_shared_builds: Option<u64>,
    max_queries: Option<usize>,
    policy: AdmissionPolicy,
    default_deadline: Option<Time>,
    now: Time,
    /// Server-global build-timestamp counter, threaded through every
    /// counter-consuming executor so all stamps live on one total order.
    ts_counter: Timestamp,
    agenda: EventQueue<ServerEvent>,
    scans: Vec<ServerScan>,
    /// The shared-SteM registry. `None` slots are evicted entries;
    /// indices stay stable because subscriptions hold them.
    entries: Vec<Option<SharedEntry>>,
    /// The shared UDF memo registry: one verdict cache per
    /// `(spec, budget)` identity, handed to every memo-enabled query
    /// running that spec ([`EddyExecutor::fold_memo`]). Verdicts are pure
    /// functions of (spec, input value), so sharing is column- and
    /// query-agnostic.
    memo_cells: Vec<(stems_types::UdfSpec, usize, MemoCell)>,
    shared_memos: usize,
    slots: Vec<QuerySlot>,
    /// Indices of active slots, ascending — the drain loop scans this
    /// instead of all slots, so a 1000-query run's per-wave cost tracks
    /// the *running* population, not the submitted one.
    active_set: Vec<usize>,
    /// Admissions deferred by the budget, FIFO.
    pending: VecDeque<usize>,
    /// Cached min of the active executors' next event times, recomputed
    /// by every [`step_wave`](QueryServer::step_wave) pass and merged on
    /// activation — the drain loop reads each executor's agenda head
    /// once per wave instead of once per wave *per scan*. Retirements
    /// may leave it stale-low, which costs at most one empty wave (the
    /// next pass corrects it), never a skipped event.
    exec_next: Option<Time>,
    entries_created: usize,
    builds_total: u64,
    bytes_total: usize,
    bytes_peak: usize,
    evicted: usize,
    queued: usize,
    shed: usize,
    timed_out: usize,
    cancelled: usize,
}

impl<'a> QueryServer<'a> {
    /// Start configuring a server — see [`ServerBuilder`].
    pub fn builder(catalog: &'a Catalog) -> ServerBuilder<'a> {
        ServerBuilder::new(catalog)
    }

    /// Submit a query. Returns its [`QueryId`] — the index of its handle
    /// in [`QueryServer::serve`]'s result (submission order).
    pub fn submit(&mut self, submission: Submission) -> std::result::Result<QueryId, ServerError> {
        let Submission {
            query,
            at,
            config,
            deadline,
            cancel_at,
        } = submission;
        if let Some(max) = self.max_queries {
            if self.slots.len() >= max {
                return Err(ServerError::BudgetExhausted {
                    admitted: self.slots.len(),
                    max_queries: max,
                });
            }
        }
        if deadline == Some(0) {
            return Err(ServerError::InvalidDeadline { deadline: 0 });
        }
        let config = config.unwrap_or_else(|| self.config.clone());
        config.validate()?;
        let idx = self.slots.len();
        let exec = if self.fold {
            EddyExecutor::build_unseeded(self.catalog, &query, config.clone())
        } else {
            EddyExecutor::build(self.catalog, &query, config.clone())
        }
        .map_err(|source| ServerError::Admission { query: idx, source })?;
        self.slots.push(QuerySlot {
            query,
            config,
            exec: Some(exec),
            admitted_at: 0,
            active: false,
            deadline: deadline.or(self.default_deadline),
            threads_ts: false,
            folded: Vec::new(),
            raw: Vec::new(),
            status: None,
            report: None,
        });
        self.agenda.push(at.max(self.now), ServerEvent::Admit(idx));
        if let Some(c) = cancel_at {
            self.agenda.push(c.max(self.now), ServerEvent::Cancel(idx));
        }
        Ok(QueryId(idx))
    }

    /// Schedule `id`'s cancellation at virtual time `at` (clamped to the
    /// present). Wherever the query is then — queued, pending admission,
    /// or running — it reaches [`QueryStatus::Cancelled`] and releases
    /// its registry claims; a no-op if already terminal.
    pub fn cancel(&mut self, id: QueryId, at: Time) -> std::result::Result<(), ServerError> {
        if id.0 >= self.slots.len() {
            return Err(ServerError::UnknownQuery { id: id.0 });
        }
        self.agenda
            .push(at.max(self.now), ServerEvent::Cancel(id.0));
        Ok(())
    }

    /// Run every submitted query to a terminal status; handles come back
    /// in submission order.
    pub fn serve(mut self) -> (Vec<QueryHandle>, ServerStats) {
        // Reused across waves so the steady-state drain allocates
        // nothing.
        let mut drained: Vec<usize> = Vec::new();
        let mut indep: Vec<usize> = Vec::new();
        loop {
            let server_next = self.agenda.peek_time();
            if server_next.is_none() && self.exec_next.is_none() {
                // Quiescent: retire the finished (freeing budget), then
                // let the sweep's queue drain — force-admitting if
                // nothing running could ever free more — and go around
                // again until nothing is left anywhere.
                self.sweep_all();
                let live = !self.agenda.is_empty()
                    || !self.pending.is_empty()
                    || !self.active_set.is_empty();
                if live {
                    continue;
                }
                break;
            }
            // Phase 1 — the inter-wave window. Executors only interact
            // at *server* instants (waves delivered, timestamps
            // consumed by shared builds), so between two server events
            // every executor legally runs its whole window in one go:
            // its own event order is untouched, and cross-executor gaps
            // in the timestamp sequence are unobservable. One touch per
            // executor per window, not per merged event time.
            let horizon = server_next.map_or(Time::MAX, |s| s.saturating_sub(1));
            if self.exec_next.is_some_and(|e| e <= horizon) {
                self.step_wave(horizon, &mut indep, &mut drained);
                // Only an executor stepped this window can have newly
                // drained (or tripped its deadline); the full
                // active-set sweep is reserved for quiescence, where it
                // also catches deadlines tripped by wave delivery
                // rather than stepping.
                if !drained.is_empty() {
                    self.sweep_candidates(&drained);
                }
                // Re-derive the horizon: a retirement may have admitted
                // a queued query whose scan events land inside it.
                continue;
            }
            // Phase 2 — the server instant: every wave a query can
            // observe at `t` is delivered before any executor steps
            // past it, so the interleaving is a pure function of the
            // timeline — not of N.
            let Some(t) = server_next else {
                continue;
            };
            self.now = t;
            while self.agenda.peek_time() == Some(t) {
                let (_, ev) = self.agenda.pop().expect("peeked event");
                match ev {
                    ServerEvent::Admit(i) => self.on_admit(i),
                    ServerEvent::Cancel(i) => self.on_cancel(i),
                    ServerEvent::ScanEmit(si) => self.on_scan_emit(si),
                    ServerEvent::DeliverBuilt { entry, upto, eot } => {
                        self.on_deliver_built(entry, upto, eot)
                    }
                }
            }
        }
        let stats = ServerStats {
            shared_stems: self.entries_created,
            scan_streams: self.scans.len(),
            shared_builds: self.builds_total,
            stem_bytes_peak: self.bytes_peak,
            evicted_stems: self.evicted,
            shared_memos: self.shared_memos,
            queued: self.queued,
            shed: self.shed,
            timed_out: self.timed_out,
            cancelled: self.cancelled,
        };
        let handles = self
            .slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| QueryHandle {
                id: QueryId(i),
                status: s.status.expect("every query reaches a terminal status"),
                report: s.report,
            })
            .collect();
        (handles, stats)
    }

    /// Step every runnable executor up to `t` — the wave's execution
    /// phase. Counter-threading executors go serially in admission
    /// order; independent ones are claimed off a [`WaveBarrier`] by up
    /// to `workers` runner jobs on the process pool (and by this
    /// thread), each executor stepped by exactly one thread. The wave
    /// merges back into the serial timeline only when the barrier
    /// observes every claim finished, so reports are bit-identical at
    /// every worker budget.
    ///
    /// The one pass doubles as the drain loop's bookkeeping: it
    /// recomputes [`exec_next`](QueryServer::exec_next) and collects
    /// into `drained` the executors whose agendas emptied (or whose
    /// deadline tripped) this wave — the only completion candidates.
    fn step_wave(&mut self, t: Time, indep: &mut Vec<usize>, drained: &mut Vec<usize>) {
        indep.clear();
        drained.clear();
        let mut next_min: Option<Time> = None;
        let mut merge = |nt: Option<Time>, idx: usize, drained: &mut Vec<usize>| match nt {
            Some(nt) => {
                if next_min.is_none_or(|m| nt < m) {
                    next_min = Some(nt);
                }
            }
            None => drained.push(idx),
        };
        for pos in 0..self.active_set.len() {
            let idx = self.active_set[pos];
            let slot = &mut self.slots[idx];
            let exec = slot.exec.as_mut().expect("active slot");
            let nt = exec.next_time();
            if nt.is_none_or(|nt| nt > t) {
                merge(nt, idx, drained);
                continue;
            }
            if slot.threads_ts {
                // Serial phase, inline: the global timestamp counter is
                // a chain through these executors in admission order
                // (`active_set` ascends, and slot index is admission
                // order).
                exec.set_ts_counter(self.ts_counter);
                let nt = exec.step_until(t);
                self.ts_counter = exec.ts_counter();
                merge(nt, idx, drained);
            } else {
                indep.push(idx);
            }
        }
        let workers = self.config.workers;
        if indep.len() < 2 || workers < 2 {
            for &idx in indep.iter() {
                let exec = self.slots[idx].exec.as_mut().expect("active slot");
                merge(exec.step_until(t), idx, drained);
            }
            self.exec_next = next_min;
            return;
        }
        // Collect disjoint `&mut` executor lanes (indices ascend, so one
        // pass over the active span suffices). The per-lane mutex is
        // uncontended — the claim cursor hands each lane to exactly one
        // runner — it only exists to move `&mut` access across threads
        // without new `unsafe`.
        let first = *indep.first().expect("nonempty");
        let last = *indep.last().expect("nonempty");
        let mut lanes: Vec<Mutex<&mut EddyExecutor>> = Vec::with_capacity(indep.len());
        {
            let mut targets = indep.iter().copied().peekable();
            for (i, slot) in self.slots[first..=last].iter_mut().enumerate() {
                if targets.peek() == Some(&(first + i)) {
                    targets.next();
                    lanes.push(Mutex::new(slot.exec.as_mut().expect("active slot")));
                }
            }
        }
        debug_assert_eq!(lanes.len(), indep.len());
        let barrier = WaveBarrier::new(lanes.len());
        let runners = workers.min(lanes.len());
        {
            let lanes_ref = &lanes;
            let barrier_ref = &barrier;
            let drain = move || {
                while let Some(i) = barrier_ref.claim() {
                    // The finish must fire even if a step panics: the
                    // panicking runner unwinds into the pool's panic
                    // capture, and without its finish_one the
                    // coordinator's barrier wait below would hang
                    // instead of reaching the scope's panic replay.
                    struct FinishOne<'b>(&'b WaveBarrier);
                    impl Drop for FinishOne<'_> {
                        fn drop(&mut self) {
                            self.0.finish_one();
                        }
                    }
                    let _finish = FinishOne(barrier_ref);
                    lock_ok(&lanes_ref[i]).step_until(t);
                }
            };
            WorkerPool::global().scope(runners, |scope| {
                for k in 1..runners {
                    scope.spawn(k, drain);
                }
                drain();
                // Merge barrier: every claimed executor finished
                // stepping before the wave rejoins the serial timeline.
                // No help — this thread already drained the claim
                // cursor, so the only outstanding work is in flight on
                // pool workers.
                barrier.wait(|| false);
            });
        }
        for (k, lane) in lanes.iter().enumerate() {
            merge(lock_ok(lane).next_time(), indep[k], drained);
        }
        self.exec_next = next_min;
    }

    /// The admission budget is exceeded (strictly — usage exactly at the
    /// budget still admits).
    fn over_budget(&self) -> bool {
        self.max_stem_bytes
            .is_some_and(|max| self.bytes_total > max)
            || self
                .max_shared_builds
                .is_some_and(|max| self.builds_total > max)
    }

    /// An `Admit` event fired: activate the query, or queue/shed it if
    /// the budget is exceeded.
    fn on_admit(&mut self, idx: usize) {
        if self.slots[idx].status.is_some() {
            // Cancelled before admission.
            return;
        }
        if self.over_budget() {
            match self.policy {
                AdmissionPolicy::Queue => {
                    self.queued += 1;
                    self.pending.push_back(idx);
                }
                AdmissionPolicy::Shed => {
                    self.shed += 1;
                    self.slots[idx].status = Some(QueryStatus::Shed);
                    self.slots[idx].exec = None;
                }
            }
            return;
        }
        self.activate(idx);
    }

    /// A `Cancel` event fired. Running queries retire with their partial
    /// report; queued / not-yet-admitted ones go terminal with none.
    fn on_cancel(&mut self, idx: usize) {
        if self.slots[idx].status.is_some() {
            return;
        }
        if self.slots[idx].active {
            self.retire(idx, QueryStatus::Cancelled);
            if !self.pending.is_empty() {
                self.drain_pending();
            }
            return;
        }
        self.cancelled += 1;
        self.slots[idx].status = Some(QueryStatus::Cancelled);
        self.slots[idx].exec = None;
        self.pending.retain(|&i| i != idx);
    }

    /// Activate slot `idx`: decide folding per instance, rewire the plan,
    /// subscribe to scan streams, catch up on anything the streams
    /// already produced, and install the deadline.
    fn activate(&mut self, idx: usize) {
        let now = self.now;
        self.slots[idx].admitted_at = now;
        self.slots[idx].active = true;
        let pos = self.active_set.binary_search(&idx).unwrap_or_else(|p| p);
        self.active_set.insert(pos, idx);
        if let Some(rel) = self.slots[idx].deadline {
            let exec = self.slots[idx].exec.as_mut().expect("admitting slot");
            exec.clamp_max_time(now.saturating_add(rel));
        }
        if !self.fold {
            // Classic executor: self-contained, scans seeded privately,
            // private timestamp space — never threads the counter.
            self.note_exec_next(idx);
            return;
        }
        let query = self.slots[idx].query.clone();
        let plan_opts = self.slots[idx].config.plan.clone();
        let mut claimed: Vec<usize> = Vec::new();
        let mut folded_tables: Vec<TableIdx> = Vec::new();
        let mut raw_tables: Vec<(SourceId, Vec<TableIdx>)> = Vec::new();
        for t in 0..query.n_tables() {
            let ti = TableIdx(t as u8);
            let source = query.instance(ti).source;
            if !self.catalog.has_scan(source) {
                // Index-only source: driven by probes, nothing to stream.
                continue;
            }
            let foldable = !self.catalog.has_index(source)
                && !plan_opts.default_stem.deferred_bounce
                && !plan_opts.no_stem.contains(ti);
            if foldable {
                let key = StemKey {
                    source,
                    join_cols: query.join_cols_of(ti),
                    opts: plan_opts.default_stem.clone(),
                };
                let ei = match self
                    .entries
                    .iter()
                    .position(|e| e.as_ref().is_some_and(|e| e.key == key))
                {
                    // A self-join over the same key needs two
                    // dictionaries; the second instance stays private.
                    Some(ei) if claimed.contains(&ei) => None,
                    Some(ei) => Some(ei),
                    None => Some(self.new_entry(key, ti)),
                };
                if let Some(ei) = ei {
                    claimed.push(ei);
                    folded_tables.push(ti);
                    self.ensure_scan(source);
                    self.subscribe_folded(idx, ei, ti);
                    continue;
                }
            }
            match raw_tables.iter_mut().find(|(s, _)| *s == source) {
                Some((_, tables)) => tables.push(ti),
                None => raw_tables.push((source, vec![ti])),
            }
        }
        for (source, tables) in raw_tables {
            let si = self.ensure_scan(source);
            self.subscribe_raw(idx, si, tables);
        }
        // Memo folding: every memo-enabled query running a UDF spec gets
        // the registry's shared verdict cache for that (spec, budget)
        // identity — created by the first such query, subscribed to by
        // the rest.
        let mut memo_folded = false;
        let exec = self.slots[idx].exec.as_ref().expect("admitting slot");
        if exec.memo_enabled() {
            let budget = self.slots[idx].config.memo_bytes;
            for spec in exec.udf_specs() {
                let cell = match self
                    .memo_cells
                    .iter()
                    .find(|(s, b, _)| *s == spec && *b == budget)
                {
                    Some((_, _, c)) => {
                        self.shared_memos += 1;
                        c.clone()
                    }
                    None => {
                        let c = MemoCache::cell(DEFAULT_MEMO_SHARDS, budget);
                        self.memo_cells.push((spec, budget, c.clone()));
                        c
                    }
                };
                let exec = self.slots[idx].exec.as_mut().expect("admitting slot");
                exec.fold_memo(spec, &cell);
                memo_folded = true;
            }
        }
        // An executor consumes the global timestamp counter iff it can
        // route private Build envelopes — a stem-bearing instance the
        // server did not fold. Everything else steps in the parallel
        // phase — except memo-folded executors: their hit/miss/eviction
        // observations depend on who reached the shared cache first, so
        // they step serially (admission order) to stay deterministic at
        // every worker budget.
        let exec = self.slots[idx].exec.as_ref().expect("admitting slot");
        let threads = (0..query.n_tables()).any(|t| {
            let ti = TableIdx(t as u8);
            exec.has_stem(ti) && !folded_tables.contains(&ti)
        });
        self.slots[idx].threads_ts = threads || memo_folded;
        self.note_exec_next(idx);
    }

    /// Merge a just-activated executor's agenda head into the cached
    /// next-event minimum (catch-up deliveries may have queued work
    /// earlier than anything the last wave pass saw).
    fn note_exec_next(&mut self, idx: usize) {
        if let Some(nt) = self.slots[idx]
            .exec
            .as_ref()
            .and_then(EddyExecutor::next_time)
        {
            if self.exec_next.is_none_or(|m| nt < m) {
                self.exec_next = Some(nt);
            }
        }
    }

    /// Create a shared entry for `key`, replaying any prefix its source's
    /// scan already emitted so the newcomer's SteM matches what a
    /// from-the-start subscriber would hold.
    fn new_entry(&mut self, key: StemKey, instance: TableIdx) -> usize {
        let mut stem = ShardedStem::new(
            instance,
            key.source,
            &key.join_cols,
            true,  // foldable requires a scan AM
            false, // ... and no index AM
            key.opts.clone(),
        );
        // One shared scan stream feeds the entry, however many scan AMs
        // the source declares: it receives each row of the table once, so
        // over distinct rows it needs no duplicate filter.
        stem.expect_scan_rows(self.catalog.table_expect(key.source).num_rows());
        if self.catalog.rows_distinct(key.source) {
            stem.trust_distinct();
        }
        let ei = self.entries.len();
        let source = key.source;
        self.entries.push(Some(SharedEntry {
            key,
            cell: StemCell::new(stem),
            log: Vec::new(),
            released: 0,
            eot_applied: false,
            eot_released: false,
            busy_until: self.now,
            subs: 0,
            bytes: 0,
        }));
        self.entries_created += 1;
        if let Some(si) = self.scans.iter().position(|s| s.source == source) {
            let rows = &self.catalog.table_expect(source).rows()[..self.scans[si].emitted];
            let eot = self.scans[si].eot;
            let arity = self.scans[si].arity;
            if !rows.is_empty() || eot {
                self.build_into_entry(ei, rows, eot, arity);
            }
        }
        ei
    }

    /// Rewire slot `idx`'s instance `ti` onto entry `ei` and deliver the
    /// released log prefix (late admission catch-up).
    fn subscribe_folded(&mut self, idx: usize, ei: usize, ti: TableIdx) {
        let exec = self.slots[idx].exec.as_mut().expect("admitting slot");
        let entry = self.entries[ei].as_mut().expect("live entry");
        entry.subs += 1;
        exec.fold_stem(ti, &entry.cell);
        let stamped: Vec<Tuple> = entry.log[..entry.released]
            .iter()
            .map(|(row, ts)| Tuple::singleton(ti, Arc::clone(row)).with_timestamp(ti, *ts))
            .collect();
        if !stamped.is_empty() || entry.eot_released {
            let eot = entry.eot_released;
            exec.deliver_folded_wave(self.now, ti, &stamped, eot);
        }
        let entry = self.entries[ei].as_ref().expect("live entry");
        self.slots[idx].folded.push(FoldedSub {
            entry: ei,
            table: ti,
            cursor: entry.released,
            eot_seen: entry.eot_released,
        });
    }

    /// Subscribe slot `idx`'s instances to scan `si` raw, catching up on
    /// the emitted prefix (and EOT, if the scan already finished).
    fn subscribe_raw(&mut self, idx: usize, si: usize, tables: Vec<TableIdx>) {
        let scan = &self.scans[si];
        let eot = scan.eot;
        let mut tuples = Vec::new();
        for row in &self.catalog.table_expect(scan.source).rows()[..scan.emitted] {
            for &t in &tables {
                tuples.push(Tuple::singleton(t, Arc::clone(row)));
            }
        }
        if eot {
            for &t in &tables {
                tuples.push(Tuple::singleton(t, make_scan_eot_row(scan.arity)));
            }
        }
        if !tuples.is_empty() {
            let exec = self.slots[idx].exec.as_mut().expect("admitting slot");
            exec.deliver_raw_wave(self.now, tuples);
        }
        self.scans[si].raw_subs += 1;
        self.slots[idx].raw.push(RawSub {
            scan: si,
            tables,
            eot_seen: eot,
        });
    }

    /// The shared scan stream for `source`, creating (and scheduling) it
    /// on first subscription. Multiple competitive scan AMs collapse to
    /// one stream built from the first spec.
    fn ensure_scan(&mut self, source: SourceId) -> usize {
        if let Some(si) = self.scans.iter().position(|s| s.source == source) {
            return si;
        }
        let catalog = self.catalog;
        let table = catalog.table_expect(source);
        let arity = table.schema.arity();
        let spec = catalog
            .ams_of(source)
            .into_iter()
            .find_map(|(_, d)| match d {
                AccessMethodDef::Scan(s) => Some(s),
                _ => None,
            })
            .expect("scan subscription on a scan-less source");
        // The dummy instance makes each emitted batch map 1:1 to rows;
        // the server re-tags rows per subscriber.
        let mut am = ScanAm::over(source, vec![TableIdx(0)], table.row_list(), arity, spec);
        am.clamp_chunk(self.config.batch_size);
        let si = self.scans.len();
        self.agenda
            .push(self.now + am.first_emit_time(), ServerEvent::ScanEmit(si));
        self.scans.push(ServerScan {
            source,
            am,
            arity,
            emitted: 0,
            eot: false,
            raw_subs: 0,
        });
        si
    }

    /// A scan wave: build it into every live shared entry on the source
    /// (once per entry — the folding win) and fan it raw to every raw
    /// sub.
    fn on_scan_emit(&mut self, si: usize) {
        let (batch, next) = self.scans[si].am.emit_next(self.now);
        if let Some(nt) = next {
            self.agenda.push(nt, ServerEvent::ScanEmit(si));
        }
        let mut rows: Vec<Arc<Row>> = Vec::new();
        let mut eot = false;
        for t in batch {
            let row = Arc::clone(&t.components()[0].row);
            if row.is_eot() {
                eot = true;
            } else {
                rows.push(row);
            }
        }
        let source = self.scans[si].source;
        let arity = self.scans[si].arity;
        self.scans[si].emitted += rows.len();
        if eot {
            self.scans[si].eot = true;
        }
        for ei in 0..self.entries.len() {
            if self.entries[ei]
                .as_ref()
                .is_some_and(|e| e.key.source == source)
            {
                self.build_into_entry(ei, &rows, eot, arity);
            }
        }
        if self.scans[si].raw_subs == 0 {
            return;
        }
        for pos in 0..self.active_set.len() {
            let idx = self.active_set[pos];
            let mut tuples = Vec::new();
            for sub in self.slots[idx].raw.iter_mut() {
                if sub.scan != si {
                    continue;
                }
                // Classic emission order: rows outer, instances inner.
                for row in &rows {
                    for &t in &sub.tables {
                        tuples.push(Tuple::singleton(t, Arc::clone(row)));
                    }
                }
                if eot {
                    for &t in &sub.tables {
                        tuples.push(Tuple::singleton(t, make_scan_eot_row(arity)));
                    }
                    sub.eot_seen = true;
                }
            }
            if !tuples.is_empty() {
                let exec = self.slots[idx].exec.as_mut().expect("active slot");
                exec.deliver_raw_wave(self.now, tuples);
                self.note_exec_next(idx);
            }
        }
    }

    /// Build `rows` (and EOT) into entry `ei` now, consuming global
    /// timestamps, and schedule the subscriber release for when the
    /// SteM's build server has absorbed the wave. Re-samples the entry's
    /// dictionary footprint for the admission budget.
    fn build_into_entry(&mut self, ei: usize, rows: &[Arc<Row>], eot: bool, arity: usize) {
        let apply_eot = eot && !self.entries[ei].as_ref().expect("live entry").eot_applied;
        if rows.is_empty() && !apply_eot {
            return;
        }
        let cell = self.entries[ei].as_ref().expect("live entry").cell.share();
        let mut stem = cell.lock();
        let instance = stem.instance;
        let mut batch: TupleBatch = rows
            .iter()
            .map(|r| Tuple::singleton(instance, Arc::clone(r)))
            .collect();
        if apply_eot {
            batch.push(Tuple::singleton(instance, make_scan_eot_row(arity)));
        }
        let states = vec![TupleState::new(); batch.len()];
        let mut ts = self.ts_counter;
        let mut results = Vec::with_capacity(batch.len());
        stem.build_batch_into(&mut batch, &states, &mut ts, &mut results);
        self.ts_counter = ts;
        let new_bytes = stem.approx_bytes();
        drop(stem);
        let entry = self.entries[ei].as_mut().expect("live entry");
        let mut results = results.into_iter();
        let before = entry.log.len();
        for row in rows {
            if let Some(BuildResult::Fresh(stamped)) = results.next() {
                entry.log.push((Arc::clone(row), stamped.timestamp()));
            }
            // Duplicates are absorbed server-side: every subscriber
            // would have absorbed them identically, so nothing ships.
        }
        self.builds_total += (entry.log.len() - before) as u64;
        self.bytes_total = self.bytes_total - entry.bytes + new_bytes;
        entry.bytes = new_bytes;
        self.bytes_peak = self.bytes_peak.max(self.bytes_total);
        if apply_eot {
            entry.eot_applied = true;
        }
        let wave = batch.len() as u64;
        let t_done = self.now.max(entry.busy_until) + self.config.costs.stem_build_us * wave.max(1);
        entry.busy_until = t_done;
        self.agenda.push(
            t_done,
            ServerEvent::DeliverBuilt {
                entry: ei,
                upto: entry.log.len(),
                eot: apply_eot,
            },
        );
    }

    /// A build wave finished service: hand every subscriber its stamped
    /// singletons (plus the EOT signal on the final wave). The stamped
    /// wave is identical for every subscriber with the same instance
    /// index and cursor — the steady-state 1000-subscriber case — so it
    /// is materialized once and the slice shared (the executor clones
    /// what it keeps).
    fn on_deliver_built(&mut self, ei: usize, upto: usize, eot: bool) {
        {
            // The entry may have been evicted with this release in
            // flight (it had no subscribers, so nobody misses the wave).
            let Some(entry) = self.entries[ei].as_mut() else {
                return;
            };
            entry.released = entry.released.max(upto);
            if eot {
                entry.eot_released = true;
            }
        }
        let mut scratch: Vec<Tuple> = Vec::new();
        let mut scratch_key: Option<(TableIdx, usize)> = None;
        for pos in 0..self.active_set.len() {
            let idx = self.active_set[pos];
            let mut wave: Option<(TableIdx, bool, bool)> = None;
            for sub in self.slots[idx].folded.iter_mut() {
                if sub.entry != ei {
                    continue;
                }
                let from = sub.cursor.min(upto);
                if from < upto && scratch_key != Some((sub.table, from)) {
                    let entry = self.entries[ei].as_ref().expect("subscribed entry");
                    scratch.clear();
                    scratch.extend(entry.log[from..upto].iter().map(|(row, ts)| {
                        Tuple::singleton(sub.table, Arc::clone(row)).with_timestamp(sub.table, *ts)
                    }));
                    scratch_key = Some((sub.table, from));
                }
                sub.cursor = sub.cursor.max(upto);
                let deliver_eot = eot && !sub.eot_seen;
                if deliver_eot {
                    sub.eot_seen = true;
                }
                if from < upto || deliver_eot {
                    wave = Some((sub.table, from < upto, deliver_eot));
                }
            }
            if let Some((table, has_rows, deliver_eot)) = wave {
                let exec = self.slots[idx].exec.as_mut().expect("active slot");
                let stamped: &[Tuple] = if has_rows { &scratch } else { &[] };
                exec.deliver_folded_wave(self.now, table, stamped, deliver_eot);
                self.note_exec_next(idx);
            }
        }
    }

    /// Retire slot `idx` with `status`: take its report, release its
    /// registry claims, and drop it from the active set.
    fn retire(&mut self, idx: usize, status: QueryStatus) {
        let exec = self.slots[idx].exec.take().expect("active slot");
        let completed_at = exec.now();
        let report = exec.finish();
        let slot = &mut self.slots[idx];
        slot.report = Some(ServerReport {
            query: idx,
            admitted_at: slot.admitted_at,
            completed_at,
            report,
        });
        slot.status = Some(status);
        slot.active = false;
        if let Ok(pos) = self.active_set.binary_search(&idx) {
            self.active_set.remove(pos);
        }
        for f in 0..self.slots[idx].folded.len() {
            let ei = self.slots[idx].folded[f].entry;
            if let Some(entry) = self.entries[ei].as_mut() {
                entry.subs = entry.subs.saturating_sub(1);
            }
        }
        for r in 0..self.slots[idx].raw.len() {
            let si = self.slots[idx].raw[r].scan;
            self.scans[si].raw_subs = self.scans[si].raw_subs.saturating_sub(1);
        }
        match status {
            QueryStatus::TimedOut => self.timed_out += 1,
            QueryStatus::Cancelled => self.cancelled += 1,
            QueryStatus::Completed | QueryStatus::Shed => {}
        }
    }

    /// Retire `idx` if it is finished: deadline guard tripped (the
    /// reaper — deadlines are observed at wave boundaries), or agenda
    /// drained with every scan stream closed. Returns whether it
    /// retired.
    fn try_retire(&mut self, idx: usize) -> bool {
        let slot = &self.slots[idx];
        let exec = slot.exec.as_ref().expect("active slot");
        if exec.hit_deadline() {
            self.retire(idx, QueryStatus::TimedOut);
            true
        } else if !slot.streams_open() && exec.next_time().is_none() {
            self.retire(idx, QueryStatus::Completed);
            true
        } else {
            false
        }
    }

    /// Retire the finished among this wave's drained executors, then let
    /// the freed budget drain the admission queue.
    fn sweep_candidates(&mut self, drained: &[usize]) {
        let mut any = false;
        for &idx in drained {
            any |= self.try_retire(idx);
        }
        if any && !self.pending.is_empty() {
            self.drain_pending();
        }
    }

    /// The quiescent-state sweep: every active slot is a candidate (this
    /// also catches a deadline tripped by wave *delivery* rather than
    /// stepping, which never surfaces as a drained executor mid-run),
    /// and the admission queue is always retried — quiescence is where
    /// the forced-progress rule fires.
    fn sweep_all(&mut self) {
        let candidates: Vec<usize> = self.active_set.clone();
        for idx in candidates {
            self.try_retire(idx);
        }
        self.drain_pending();
    }

    /// Admit queued queries while the budget allows, evicting
    /// subscriber-less entries while it does not. If the budget can
    /// never free — nothing running, nothing evictable — the head is
    /// force-admitted: an unsatisfiable budget degrades to serial
    /// execution, never to a stranded queue.
    fn drain_pending(&mut self) {
        loop {
            let Some(&head) = self.pending.front() else {
                return;
            };
            if self.slots[head].status.is_some() {
                // Cancelled while queued.
                self.pending.pop_front();
                continue;
            }
            if !self.over_budget() {
                self.pending.pop_front();
                self.activate(head);
                continue;
            }
            if self.evict_idle_entry() {
                continue;
            }
            if self.active_set.is_empty() {
                self.pending.pop_front();
                self.activate(head);
                continue;
            }
            return;
        }
    }

    /// Evict one subscriber-less registry entry (creation order). Only
    /// called under budget pressure: idle entries are otherwise kept as
    /// warm caches for the next compatible query.
    fn evict_idle_entry(&mut self) -> bool {
        for slot in self.entries.iter_mut() {
            if slot.as_ref().is_some_and(|e| e.subs == 0) {
                let entry = slot.take().expect("just checked");
                self.bytes_total -= entry.bytes;
                self.evicted += 1;
                return true;
            }
        }
        false
    }
}
