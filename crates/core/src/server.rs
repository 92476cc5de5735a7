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
//! # A query's life
//!
//! A submitted query is **waiting** — its spec, config, deadline and
//! built executor — until its admission instant, or in the admission
//! queue after it. Admitted, it is **running**: one entry (executor,
//! admission instant, subscriptions) in the server's list of running
//! queries, kept in id order, which the drain loop, every delivery and
//! retirement borrow executors from. Retired or shed, it is **done**:
//! its [`QueryHandle`].
//!
//! # What is shared, what stays per-query
//!
//! * **Scan streams** collapse per *source*: one [`ScanAm`] per table fans
//!   each chunk wave out to every subscribed query, however many queries
//!   read the table.
//! * **SteMs** are shared through a registry keyed by
//!   [`StemKey`] — `(source, join columns, resolved SteM options)`. When
//!   query B's key matches query A's, B's plan is rewired
//!   ([`EddyExecutor::fold_stem`]) to probe the *same* [`Stem`] A uses:
//!   one build, N probers. The registry owns each shared SteM. The server
//!   performs the builds itself, at server instants (one build service
//!   per scan wave per entry, not per query), and hands every subscriber
//!   the same timestamped singletons. It lends the registry read-only
//!   (`&`) to every executor it steps or delivers to, so the borrow
//!   checker proves that no probe overlaps a build.
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
//! Either subscription is a cursor into a log: a folded one into its
//! entry's build log, up to the prefix whose build has been released; a
//! raw one into the table's rows, up to the prefix the scan emitted. A
//! delivery hands the query everything past its cursor and moves the
//! cursor to the end. A late admission opens its cursors at 0, so its
//! catch-up on what the streams already produced is that same delivery.
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
//! the registry's SteMs, read-only (a probe takes `&Stem` and works in its
//! executor's own reply set, so concurrent probes need no lock and are
//! schedule-invariant), and the global timestamp counter. Only executors
//! that still own a private stem-bearing instance can consume the
//! counter ([`EddyExecutor::has_stem`]); the server partitions each
//! wave's runnable executors accordingly. Counter-threading executors
//! step serially in query-id order (the counter is a chain); the rest
//! are stepped by `runtime::for_each_parallel`: the server's thread and
//! up to `ExecConfig::workers − 1` scoped threads claim executors off
//! one cursor, each executor stepped by exactly one thread, and the wave
//! merges back into the serial timeline once the scope has joined them
//! all. Per-executor behaviour is a pure function of its own
//! deliveries, so reports are bit-identical at every worker budget (the
//! invariance suite sweeps workers {1, 2, 4} at batch sizes 1 and 64).
//!
//! With folding disabled the server degenerates to a pure merge of
//! independent classic executors — each query behaves exactly like a solo
//! [`EddyExecutor::run`] whose clock starts at its admission: its private
//! scans are seeded then, so its latency is the solo end time. Stall
//! windows stay at their absolute instants, on the shared scans too.
//! `stems-bench server` uses that mode as the baseline the folding
//! throughput gain is measured against.
//!
//! Non-test code here holds no `unwrap` or `expect`: a query's state is
//! carried by types that cannot be in the wrong state, and Clippy denies
//! both.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::am::ScanAm;
use crate::engine::{ConfigError, EddyExecutor, ExecConfig};
use crate::memo::{MemoCache, MemoCell, DEFAULT_MEMO_SHARDS};
use crate::report::ServerReport;
use crate::runtime::for_each_parallel;
use crate::stem::{make_scan_eot_row, BuildResult, Stem, StemOptions};
use crate::tuple_state::TupleState;
use std::collections::VecDeque;
use std::sync::Arc;
use stems_catalog::{AccessMethodDef, Catalog, QuerySpec, ScanSpec, SourceId};
use stems_sim::{EventQueue, Time};
use stems_types::{Row, StemsError, TableIdx, Timestamp, Tuple};

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

/// One shared SteM plus the build log its subscribers read.
pub(crate) struct SharedEntry {
    key: StemKey,
    /// Written only at server instants ([`QueryServer::build_entries`]);
    /// between them the registry is lent read-only to every executor.
    pub(crate) stem: Stem,
    /// Rows of the scan's emitted log built into the SteM: the entry's
    /// own cursor into that log.
    built: usize,
    /// Fresh builds in arrival order with their global timestamps.
    /// Server-absorbed duplicates are omitted — every subscriber would
    /// have absorbed them identically.
    log: Vec<(Arc<Row>, Timestamp)>,
    /// Log prefix whose `DeliverBuilt` has fired: what a subscription may
    /// read.
    released: usize,
    /// Scan EOT built into the SteM.
    eot_applied: bool,
    /// Scan EOT announced to subscribers.
    eot_released: bool,
    /// The SteM build server is busy until this time; waves queue FIFO.
    busy_until: Time,
    /// Last observed dictionary footprint (re-sampled per build wave);
    /// the admission budget sums these.
    bytes: usize,
}

/// The shared-SteM registry, which [`crate::plan::Module::Folded`] indexes;
/// `None` is an evicted entry, which no running query names.
pub(crate) type Registry = [Option<SharedEntry>];

/// One scan stream, shared by every query reading the source. Its
/// [`ScanAm`] serves no instance: emitting only advances it, and every
/// reader reads the rows off its emitted log.
struct ServerScan {
    am: ScanAm,
    arity: usize,
    /// Live raw subscriptions; when zero (everything folded), an emit
    /// skips the per-query delivery sweep.
    raw_subs: usize,
}

/// A query instance rewired onto a shared SteM: a cursor into the
/// entry's released build log.
struct FoldedSub {
    entry: usize,
    table: TableIdx,
    cursor: usize,
    eot_seen: bool,
}

/// A query's instances fed raw rows from a shared scan stream: a cursor
/// into the scan's emitted rows.
struct RawSub {
    scan: usize,
    tables: Vec<TableIdx>,
    cursor: usize,
    eot_seen: bool,
}

/// An entry's log slice, stamped for one instance: the tuples every
/// subscriber with that instance and cursor receives. The steady state
/// has many such subscribers per wave, so the slice is built once and
/// shared (the executor clones what it keeps).
#[derive(Default)]
struct StampedWave {
    /// `(instance, from)` the tuples were built for.
    key: Option<(TableIdx, usize)>,
    tuples: Vec<Tuple>,
}

impl FoldedSub {
    /// Hand `exec` the released log past this cursor, stamped, and the
    /// EOT once it is released. A new subscription (cursor 0) receives
    /// the whole released prefix: late admission is this same delivery.
    /// Returns whether anything was delivered.
    fn deliver(
        &mut self,
        entries: &Registry,
        exec: &mut EddyExecutor,
        now: Time,
        wave: &mut StampedWave,
    ) -> bool {
        let Some(entry) = &entries[self.entry] else {
            unreachable!("entry {} evicted under a subscriber", self.entry)
        };
        let (from, upto) = (self.cursor, entry.released);
        let eot = entry.eot_released && !self.eot_seen;
        if from >= upto && !eot {
            return false;
        }
        let table = self.table;
        if from < upto && wave.key != Some((table, from)) {
            wave.tuples.clear();
            wave.tuples
                .extend(entry.log[from..upto].iter().map(|(row, ts)| {
                    Tuple::singleton(table, Arc::clone(row)).with_timestamp(table, *ts)
                }));
            wave.key = Some((table, from));
        }
        self.cursor = upto;
        self.eot_seen = entry.eot_released;
        let stamped: &[Tuple] = if from < upto { &wave.tuples } else { &[] };
        exec.deliver_folded_wave(now, table, stamped, eot, entries);
        true
    }
}

impl RawSub {
    /// Hand `exec` the scan's emitted rows past this cursor, one
    /// singleton per instance in the classic emission order (rows outer,
    /// instances inner), and the EOT markers once the scan closed. A new
    /// subscription (cursor 0) receives the whole emitted prefix: late
    /// admission is this same delivery. Returns whether anything was
    /// delivered.
    fn deliver(
        &mut self,
        scan: &ServerScan,
        exec: &mut EddyExecutor,
        now: Time,
        entries: &Registry,
    ) -> bool {
        let log = scan.am.emitted();
        let rows = &log[self.cursor..];
        let eot = scan.am.finished && !self.eot_seen;
        if rows.is_empty() && !eot {
            return false;
        }
        self.cursor = log.len();
        self.eot_seen = scan.am.finished;
        let tables = &self.tables;
        let eot_tables = if eot { &tables[..] } else { &[] };
        let tuples = rows
            .iter()
            .flat_map(|row| tables.iter().map(|&t| Tuple::singleton(t, Arc::clone(row))))
            .chain(
                eot_tables
                    .iter()
                    .map(|&t| Tuple::singleton(t, make_scan_eot_row(scan.arity))),
            );
        exec.deliver_raw_wave(now, tuples, entries);
        true
    }
}

/// A submitted query before admission — pending its admission instant or
/// in the admission queue.
struct Waiting {
    query: QuerySpec,
    config: ExecConfig,
    /// Relative deadline (virtual µs from admission), resolved against
    /// the admission instant into the executor's `max_time` guard.
    deadline: Option<Time>,
    exec: EddyExecutor,
}

/// An admitted query: its executor and the subscriptions that feed it.
struct Running {
    id: usize,
    exec: EddyExecutor,
    admitted_at: Time,
    /// This executor can consume the server-global timestamp counter
    /// (it owns a private stem-bearing instance), so it must step
    /// serially on the counter chain rather than in the parallel phase.
    threads_ts: bool,
    folded: Vec<FoldedSub>,
    raw: Vec<RawSub>,
}

impl Running {
    fn streams_open(&self) -> bool {
        self.folded.iter().any(|s| !s.eot_seen) || self.raw.iter().any(|s| !s.eot_seen)
    }
}

/// Where a submitted query is in its life.
enum Slot {
    /// Before its admission instant.
    Waiting(Box<Waiting>),
    /// In [`QueryServer::pending`], which holds its [`Waiting`].
    Queued,
    /// In [`QueryServer::running`].
    Running,
    /// Retired, shed, or cancelled before it ran.
    Done(QueryHandle),
}

/// Fold an executor's next event time into a running minimum.
fn merge_next(min: &mut Option<Time>, next: Option<Time>) {
    if let Some(nt) = next {
        if min.is_none_or(|m| nt < m) {
            *min = Some(nt);
        }
    }
}

/// The first scan spec `source` declares, if any: multiple competitive
/// scan AMs collapse to one shared stream built from it.
fn scan_spec(catalog: &Catalog, source: SourceId) -> Option<&ScanSpec> {
    catalog
        .ams_of(source)
        .into_iter()
        .find_map(|(_, d)| match d {
            AccessMethodDef::Scan(s) => Some(s),
            _ => None,
        })
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
    /// A builder over `catalog`, with folding on, the default config, no
    /// budgets and no deadlines.
    pub(crate) fn new(catalog: &'a Catalog) -> ServerBuilder<'a> {
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
    /// chunks). Defaults to `ExecConfig::default()`.
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
        let config = self.config.unwrap_or_default();
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
            slots: Vec::new(),
            running: Vec::new(),
            pending: VecDeque::new(),
            exec_next: None,
            bytes_total: 0,
            stats: ServerStats::default(),
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
    /// Every submitted query, indexed by [`QueryId`].
    slots: Vec<Slot>,
    /// The running queries, ordered by id — the drain loop walks this,
    /// so a 1000-query run's per-wave cost tracks the *running*
    /// population, not the submitted one.
    running: Vec<Running>,
    /// Admissions deferred by the budget, FIFO.
    pending: VecDeque<(usize, Box<Waiting>)>,
    /// Cached min of the running executors' next event times, recomputed
    /// by every [`step_wave`](QueryServer::step_wave) pass and merged on
    /// every delivery — the drain loop reads each executor's agenda head
    /// once per wave instead of once per wave *per scan*. Retirements
    /// may leave it stale-low, which costs at most one empty wave (the
    /// next pass corrects it), never a skipped event.
    exec_next: Option<Time>,
    /// The registry's summed dictionary bytes now; the stats keep its
    /// peak.
    bytes_total: usize,
    stats: ServerStats,
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
        let id = self.slots.len();
        let exec = EddyExecutor::build(self.catalog, &query, config.clone())
            .map_err(|source| ServerError::Admission { query: id, source })?;
        self.slots.push(Slot::Waiting(Box::new(Waiting {
            query,
            config,
            deadline: deadline.or(self.default_deadline),
            exec,
        })));
        self.agenda.push(at.max(self.now), ServerEvent::Admit(id));
        if let Some(c) = cancel_at {
            self.agenda.push(c.max(self.now), ServerEvent::Cancel(id));
        }
        Ok(QueryId(id))
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
        let (mut parallel, mut drained) = (Vec::new(), Vec::new());
        loop {
            let server_next = self.agenda.peek_time();
            if server_next.is_none() && self.exec_next.is_none() {
                // Quiescent: retire the finished (freeing budget), then
                // let the sweep's queue drain — force-admitting if
                // nothing running could ever free more — and go around
                // again until nothing is left anywhere.
                self.sweep_all();
                let live =
                    !self.agenda.is_empty() || !self.pending.is_empty() || !self.running.is_empty();
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
                self.step_wave(horizon, &mut parallel, &mut drained);
                // Only an executor stepped this window can have newly
                // drained (or tripped its deadline); the full sweep of
                // the running list is reserved for quiescence, where it
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
                let Some((_, ev)) = self.agenda.pop() else {
                    break;
                };
                match ev {
                    ServerEvent::Admit(id) => self.on_admit(id),
                    ServerEvent::Cancel(id) => self.on_cancel(id),
                    ServerEvent::ScanEmit(si) => self.on_scan_emit(si),
                    ServerEvent::DeliverBuilt { entry, upto, eot } => {
                        self.on_deliver_built(entry, upto, eot)
                    }
                }
            }
        }
        let handles = self
            .slots
            .into_iter()
            .enumerate()
            .map(|(id, slot)| match slot {
                Slot::Done(handle) => handle,
                // The loop above ends with the agenda, the admission
                // queue and the running list all empty. Every query's
                // `Admit` event has fired, and it shed the query, queued
                // it, started it or found it cancelled; so every slot is
                // done.
                Slot::Waiting(_) | Slot::Queued | Slot::Running => {
                    unreachable!("query {id} is not terminal when the server is quiescent")
                }
            })
            .collect();
        (handles, self.stats)
    }

    /// Step every runnable executor up to `t` — the wave's execution
    /// phase. Counter-threading executors go serially in id order;
    /// independent ones go through [`for_each_parallel`] on up to
    /// `workers` threads (this one included), each executor stepped by
    /// exactly one thread. The wave merges back into the serial timeline
    /// only after every executor finished, so reports are bit-identical
    /// at every worker budget.
    ///
    /// The first pass reads each agenda head once: it marks in
    /// `parallel` the running queries the parallel phase steps, and it
    /// doubles as the drain loop's bookkeeping — it recomputes
    /// [`exec_next`](QueryServer::exec_next) and collects into `drained`
    /// the ids of the executors whose agendas emptied (or whose deadline
    /// tripped) this wave, the only completion candidates.
    fn step_wave(&mut self, t: Time, parallel: &mut Vec<bool>, drained: &mut Vec<usize>) {
        parallel.clear();
        drained.clear();
        let mut next_min: Option<Time> = None;
        let mut merge = |run: &Running, next: Option<Time>| {
            merge_next(&mut next_min, next);
            if next.is_none() {
                drained.push(run.id);
            }
        };
        let mut independent = 0;
        for run in self.running.iter_mut() {
            let next = run.exec.next_time();
            let due = next.is_some_and(|nt| nt <= t);
            parallel.push(due && !run.threads_ts);
            if !due {
                merge(run, next);
            } else if run.threads_ts {
                // Serial phase, inline: the global timestamp counter is
                // a chain through these executors in id order.
                run.exec.set_ts_counter(self.ts_counter);
                let next = run.exec.step_until(t, &self.entries);
                self.ts_counter = run.exec.ts_counter();
                merge(run, next);
            } else {
                independent += 1;
            }
        }
        let workers = self.config.workers;
        let wave = self
            .running
            .iter_mut()
            .zip(parallel.iter())
            .filter_map(|(run, &p)| p.then_some(run));
        if independent < 2 || workers < 2 {
            for run in wave {
                let next = run.exec.step_until(t, &self.entries);
                merge(run, next);
            }
        } else {
            let mut wave: Vec<&mut Running> = wave.collect();
            for_each_parallel(&mut wave, workers, |run| {
                run.exec.step_until(t, &self.entries);
            });
            for run in wave {
                merge(run, run.exec.next_time());
            }
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
                .is_some_and(|max| self.stats.shared_builds > max)
    }

    /// Position of running query `id` in [`QueryServer::running`].
    fn running_pos(&self, id: usize) -> usize {
        match self.running.binary_search_by_key(&id, |r| r.id) {
            Ok(pos) => pos,
            // `activate` is the one place a slot becomes `Running`, and
            // it inserts the query into the list; `retire` is the one
            // place it leaves, and it marks the slot `Done`.
            Err(_) => unreachable!("query {id} is running but not in the running list"),
        }
    }

    /// An `Admit` event fired: activate the query, or queue/shed it if
    /// the budget is exceeded.
    fn on_admit(&mut self, id: usize) {
        let waiting = match std::mem::replace(&mut self.slots[id], Slot::Queued) {
            Slot::Waiting(waiting) => waiting,
            // Cancelled before admission.
            done => {
                self.slots[id] = done;
                return;
            }
        };
        if !self.over_budget() {
            self.activate(id, *waiting);
            return;
        }
        match self.policy {
            AdmissionPolicy::Queue => {
                self.stats.queued += 1;
                self.pending.push_back((id, waiting));
            }
            AdmissionPolicy::Shed => {
                self.stats.shed += 1;
                self.slots[id] = Slot::Done(QueryHandle {
                    id: QueryId(id),
                    status: QueryStatus::Shed,
                    report: None,
                });
            }
        }
    }

    /// A `Cancel` event fired. Running queries retire with their partial
    /// report; queued / not-yet-admitted ones go terminal with none.
    fn on_cancel(&mut self, id: usize) {
        match self.slots[id] {
            Slot::Done(_) => {}
            Slot::Running => {
                let pos = self.running_pos(id);
                self.retire(pos, QueryStatus::Cancelled);
                if !self.pending.is_empty() {
                    self.drain_pending();
                }
            }
            Slot::Waiting(_) | Slot::Queued => {
                self.stats.cancelled += 1;
                self.slots[id] = Slot::Done(QueryHandle {
                    id: QueryId(id),
                    status: QueryStatus::Cancelled,
                    report: None,
                });
                self.pending.retain(|(i, _)| *i != id);
            }
        }
    }

    /// Start query `id`: install its deadline, then either seed its
    /// private scans (folding off) or subscribe it to the shared streams,
    /// and add it to the running list.
    fn activate(&mut self, id: usize, waiting: Waiting) {
        self.slots[id] = Slot::Running;
        let Waiting {
            query,
            config,
            deadline,
            mut exec,
        } = waiting;
        let now = self.now;
        if let Some(rel) = deadline {
            exec.clamp_max_time(now.saturating_add(rel));
        }
        let mut run = Running {
            id,
            exec,
            admitted_at: now,
            threads_ts: false,
            folded: Vec::new(),
            raw: Vec::new(),
        };
        if self.fold {
            self.subscribe(&mut run, &query, &config);
        } else {
            // Classic executor: self-contained, its scans seeded at its
            // admission, private timestamp space — never threads the
            // counter.
            run.exec.seed_scans(now);
        }
        merge_next(&mut self.exec_next, run.exec.next_time());
        let pos = self.running.partition_point(|r| r.id < id);
        self.running.insert(pos, run);
    }

    /// Decide folding per instance, rewire the plan, and subscribe `run`
    /// to the shared streams — each subscription's first delivery is the
    /// catch-up on whatever its stream already produced. Folded instances
    /// subscribe in table order, then raw ones per source in first-seen
    /// order. Then fold the memo cells and decide whether the executor
    /// threads the timestamp counter.
    fn subscribe(&mut self, run: &mut Running, query: &QuerySpec, config: &ExecConfig) {
        let plan_opts = &config.plan;
        let mut claimed: Vec<usize> = Vec::new();
        let mut raw_tables: Vec<(SourceId, &ScanSpec, Vec<TableIdx>)> = Vec::new();
        for t in 0..query.n_tables() {
            let ti = TableIdx(t as u8);
            let source = query.instance(ti).source;
            let Some(spec) = scan_spec(self.catalog, source) else {
                // Index-only source: driven by probes, nothing to stream.
                continue;
            };
            let foldable = !self.catalog.has_index(source)
                && !plan_opts.default_stem.deferred_bounce
                && !plan_opts.no_stem.contains(ti);
            if foldable {
                let si = self.ensure_scan(source, spec);
                let key = StemKey {
                    source,
                    join_cols: query.join_cols_of(ti),
                    opts: plan_opts.default_stem.clone(),
                };
                let found = self
                    .entries
                    .iter()
                    .position(|e| e.as_ref().is_some_and(|e| e.key == key));
                let entry = match found {
                    // A self-join over the same key needs two
                    // dictionaries; the second instance stays private.
                    Some(ei) if claimed.contains(&ei) => None,
                    Some(ei) => Some(ei),
                    None => Some(self.new_entry(key, ti)),
                };
                if let Some(ei) = entry {
                    claimed.push(ei);
                    run.exec.fold_stem(ti, ei);
                    let mut sub = FoldedSub {
                        entry: ei,
                        table: ti,
                        cursor: 0,
                        eot_seen: false,
                    };
                    let wave = &mut StampedWave::default();
                    sub.deliver(&self.entries, &mut run.exec, self.now, wave);
                    run.folded.push(sub);
                    // A new entry catches up on what the scan already
                    // emitted; every older entry on the source has.
                    self.build_entries(si);
                    continue;
                }
            }
            match raw_tables.iter_mut().find(|(s, _, _)| *s == source) {
                Some((_, _, tables)) => tables.push(ti),
                None => raw_tables.push((source, spec, vec![ti])),
            }
        }
        for (source, spec, tables) in raw_tables {
            let si = self.ensure_scan(source, spec);
            let scan = &mut self.scans[si];
            scan.raw_subs += 1;
            let mut sub = RawSub {
                scan: si,
                tables,
                cursor: 0,
                eot_seen: false,
            };
            sub.deliver(scan, &mut run.exec, self.now, &self.entries);
            run.raw.push(sub);
        }
        // Memo folding: every memo-enabled query running a UDF spec gets
        // the registry's shared verdict cache for that (spec, budget)
        // identity — created by the first such query, subscribed to by
        // the rest.
        let mut memo_folded = false;
        if run.exec.memo_enabled() {
            let budget = config.memo_bytes;
            for spec in run.exec.udf_specs() {
                let cell = match self
                    .memo_cells
                    .iter()
                    .find(|(s, b, _)| *s == spec && *b == budget)
                {
                    Some((_, _, c)) => {
                        self.stats.shared_memos += 1;
                        c.clone()
                    }
                    None => {
                        let c = MemoCache::cell(DEFAULT_MEMO_SHARDS, budget);
                        self.memo_cells.push((spec, budget, c.clone()));
                        c
                    }
                };
                run.exec.fold_memo(spec, &cell);
                memo_folded = true;
            }
        }
        // An executor consumes the global timestamp counter iff it can
        // route private Build envelopes — a stem-bearing instance the
        // server did not fold. Everything else steps in the parallel
        // phase — except memo-folded executors: their hit/miss/eviction
        // observations depend on who reached the shared cache first, so
        // they step serially (id order) to stay deterministic at every
        // worker budget.
        let threads = (0..query.n_tables()).any(|t| {
            let ti = TableIdx(t as u8);
            run.exec.has_stem(ti) && !run.folded.iter().any(|f| f.table == ti)
        });
        run.threads_ts = threads || memo_folded;
    }

    /// Create a shared entry for `key`. The caller catches it up on
    /// what its source's scan already emitted ([`Self::build_entries`]),
    /// so the newcomer's SteM matches what a from-the-start subscriber
    /// would hold.
    fn new_entry(&mut self, key: StemKey, instance: TableIdx) -> usize {
        let mut stem = Stem::new(
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
        let rows = self.catalog.table_expect(key.source).num_rows();
        stem.expect_scan_rows(rows, |col| self.catalog.distinct_keys(key.source, col));
        if self.catalog.rows_distinct(key.source) {
            stem.trust_distinct();
        }
        self.stats.shared_stems += 1;
        self.entries.push(Some(SharedEntry {
            key,
            stem,
            built: 0,
            log: Vec::new(),
            released: 0,
            eot_applied: false,
            eot_released: false,
            busy_until: self.now,
            bytes: 0,
        }));
        self.entries.len() - 1
    }

    /// The shared scan stream for `source`, creating (and scheduling) it
    /// from `spec` on first subscription.
    fn ensure_scan(&mut self, source: SourceId, spec: &ScanSpec) -> usize {
        if let Some(si) = self.scans.iter().position(|s| s.am.source == source) {
            return si;
        }
        let table = self.catalog.table_expect(source);
        let arity = table.schema.arity();
        let mut am = ScanAm::over(source, Vec::new(), table.row_list(), arity, spec);
        am.clamp_chunk(self.config.batch_size);
        let si = self.scans.len();
        self.stats.scan_streams += 1;
        self.agenda
            .push(am.first_emit_at(self.now), ServerEvent::ScanEmit(si));
        self.scans.push(ServerScan {
            am,
            arity,
            raw_subs: 0,
        });
        si
    }

    /// A scan wave: build it into every live shared entry on the source
    /// (once per entry — the folding win) and deliver it to every raw
    /// subscription.
    fn on_scan_emit(&mut self, si: usize) {
        let now = self.now;
        if let (_, Some(nt)) = self.scans[si].am.emit_next(now) {
            self.agenda.push(nt, ServerEvent::ScanEmit(si));
        }
        self.build_entries(si);
        let scan = &self.scans[si];
        if scan.raw_subs == 0 {
            return;
        }
        for run in self.running.iter_mut() {
            for sub in run.raw.iter_mut().filter(|s| s.scan == si) {
                if sub.deliver(scan, &mut run.exec, now, &self.entries) {
                    merge_next(&mut self.exec_next, run.exec.next_time());
                }
            }
        }
    }

    /// Build what scan `si` emitted past each live entry's cursor on its
    /// source (and the EOT, once) into that entry now, consuming global
    /// timestamps, and schedule the subscriber release for when the
    /// SteM's build server has absorbed the wave. Re-samples the entry's
    /// dictionary footprint for the admission budget.
    fn build_entries(&mut self, si: usize) {
        let scan = &self.scans[si];
        let (emitted, eot) = (scan.am.emitted(), scan.am.finished);
        for (ei, slot) in self.entries.iter_mut().enumerate() {
            let Some(entry) = slot.as_mut().filter(|e| e.key.source == scan.am.source) else {
                continue;
            };
            let rows = &emitted[entry.built..];
            let apply_eot = eot && !entry.eot_applied;
            if rows.is_empty() && !apply_eot {
                continue;
            }
            entry.built = emitted.len();
            let stem = &mut entry.stem;
            let instance = stem.instance;
            let mut batch: Vec<Tuple> = rows
                .iter()
                .map(|r| Tuple::singleton(instance, Arc::clone(r)))
                .collect();
            if apply_eot {
                batch.push(Tuple::singleton(instance, make_scan_eot_row(scan.arity)));
            }
            let states = vec![TupleState::new(); batch.len()];
            let mut results = Vec::with_capacity(batch.len());
            stem.build_batch_into(&mut batch, &states, &mut self.ts_counter, &mut results);
            let new_bytes = stem.approx_bytes();
            let before = entry.log.len();
            for (row, result) in rows.iter().zip(results) {
                // Duplicates are absorbed server-side: every subscriber
                // would have absorbed them identically, so nothing ships.
                if let BuildResult::Fresh(stamped) = result {
                    entry.log.push((Arc::clone(row), stamped.timestamp()));
                }
            }
            self.stats.shared_builds += (entry.log.len() - before) as u64;
            self.bytes_total = self.bytes_total - entry.bytes + new_bytes;
            entry.bytes = new_bytes;
            self.stats.stem_bytes_peak = self.stats.stem_bytes_peak.max(self.bytes_total);
            entry.eot_applied |= apply_eot;
            let wave = batch.len() as u64;
            let t_done =
                self.now.max(entry.busy_until) + self.config.costs.stem_build_us * wave.max(1);
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
    }

    /// A build wave finished service: release the log prefix `..upto`
    /// (and the EOT, on the final wave) and deliver it to every
    /// subscription of the entry.
    fn on_deliver_built(&mut self, ei: usize, upto: usize, eot: bool) {
        // The entry may have been evicted with this release in flight (it
        // had no subscribers, so nobody misses the wave).
        let Some(entry) = self.entries[ei].as_mut() else {
            return;
        };
        entry.released = entry.released.max(upto);
        entry.eot_released |= eot;
        let mut wave = StampedWave::default();
        for run in self.running.iter_mut() {
            for sub in run.folded.iter_mut().filter(|s| s.entry == ei) {
                if sub.deliver(&self.entries, &mut run.exec, self.now, &mut wave) {
                    merge_next(&mut self.exec_next, run.exec.next_time());
                }
            }
        }
    }

    /// Retire the running query at `pos` with `status`: release its
    /// registry claims and keep its report in its handle.
    fn retire(&mut self, pos: usize, status: QueryStatus) {
        let run = self.running.remove(pos);
        for sub in &run.raw {
            self.scans[sub.scan].raw_subs -= 1;
        }
        match status {
            QueryStatus::TimedOut => self.stats.timed_out += 1,
            QueryStatus::Cancelled => self.stats.cancelled += 1,
            QueryStatus::Completed | QueryStatus::Shed => {}
        }
        let completed_at = run.exec.now();
        self.slots[run.id] = Slot::Done(QueryHandle {
            id: QueryId(run.id),
            status,
            report: Some(ServerReport {
                query: run.id,
                admitted_at: run.admitted_at,
                completed_at,
                report: run.exec.finish(),
            }),
        });
    }

    /// Retire the running query at `pos` if it is finished: deadline
    /// guard tripped (the reaper — deadlines are observed at wave
    /// boundaries), or agenda drained with every scan stream closed.
    /// Returns whether it retired.
    fn try_retire(&mut self, pos: usize) -> bool {
        let run = &self.running[pos];
        let status = if run.exec.hit_deadline() {
            QueryStatus::TimedOut
        } else if !run.streams_open() && run.exec.next_time().is_none() {
            QueryStatus::Completed
        } else {
            return false;
        };
        self.retire(pos, status);
        true
    }

    /// Retire the finished among this wave's drained executors, then let
    /// the freed budget drain the admission queue.
    fn sweep_candidates(&mut self, drained: &[usize]) {
        let mut any = false;
        for &id in drained {
            let pos = self.running_pos(id);
            any |= self.try_retire(pos);
        }
        if any && !self.pending.is_empty() {
            self.drain_pending();
        }
    }

    /// The quiescent-state sweep: every running query is a candidate
    /// (this also catches a deadline tripped by wave *delivery* rather
    /// than stepping, which never surfaces as a drained executor
    /// mid-run), and the admission queue is always retried — quiescence
    /// is where the forced-progress rule fires.
    fn sweep_all(&mut self) {
        // From the back: a retirement shifts only the entries after it.
        for pos in (0..self.running.len()).rev() {
            self.try_retire(pos);
        }
        self.drain_pending();
    }

    /// Admit queued queries while the budget allows, evicting
    /// subscriber-less entries while it does not. If the budget can
    /// never free — nothing running, nothing evictable — the head is
    /// force-admitted: an unsatisfiable budget degrades to serial
    /// execution, never to a stranded queue. A query cancelled while
    /// queued has already left the queue.
    fn drain_pending(&mut self) {
        while !self.pending.is_empty() {
            if self.over_budget() {
                if self.evict_idle_entry() {
                    continue;
                }
                if !self.running.is_empty() {
                    return;
                }
            }
            if let Some((id, waiting)) = self.pending.pop_front() {
                self.activate(id, *waiting);
            }
        }
    }

    /// Evict one registry entry no running query subscribes to (creation
    /// order). Only called under budget pressure: idle entries are
    /// otherwise kept as warm caches for the next compatible query.
    fn evict_idle_entry(&mut self) -> bool {
        let running = &self.running;
        let idle = self
            .entries
            .iter_mut()
            .enumerate()
            .find(|(ei, e)| {
                e.is_some()
                    && !running
                        .iter()
                        .any(|r| r.folded.iter().any(|f| f.entry == *ei))
            })
            .and_then(|(_, e)| e.take());
        let Some(entry) = idle else {
            return false;
        };
        self.bytes_total -= entry.bytes;
        self.stats.evicted_stems += 1;
        true
    }
}
