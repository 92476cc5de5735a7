//! State Modules (SteMs), eddy routing, and the routing-constraint layer —
//! the contribution of *"Using State Modules for Adaptive Query Processing"*
//! (Raman, Deshpande & Hellerstein, ICDE 2003).
//!
//! # Architecture (paper §2)
//!
//! Four module kinds run "concurrently" (here: interleaved on a
//! deterministic discrete-event simulation, which the paper notes is an
//! equivalent single-threaded realization):
//!
//! * **Selection Modules** ([`sm::Sm`]) — one per selection predicate.
//! * **Access Modules** ([`am::ScanAm`], [`am::IndexAm`]) — one per access
//!   method; scans push rows at a rate, indexes answer bound probes
//!   asynchronously and emit End-Of-Transmission tuples.
//! * **State Modules** ([`stem::Stem`]) — "half joins": a dictionary
//!   per table instance handling build/probe, duplicate elimination, EOT
//!   bookkeeping, timestamp filtering and bounce-back decisions. One type
//!   in one module, with one build algorithm (ingest: EOT index, dedup,
//!   insert → timestamping) and one probe algorithm (resolve + hash each
//!   binding once → one flat lookup per column → result formation). A
//!   build takes `&mut self`, a probe `&self` (its envelope buffers are
//!   the caller's [`stem::ProbeReplySet`]'s), and nothing locks a SteM:
//!   one shared across queries lives in the query server's registry,
//!   which builds into it at server instants and lends it by borrow.
//!   The only threads are the query server's: its wave drain steps
//!   independent executors on scoped threads
//!   (`runtime::for_each_parallel`, sized by [`ExecConfig::workers`]).
//! * the **eddy** ([`EddyExecutor`]) — routes every tuple between the other
//!   modules according to a [`policy::RoutingPolicy`], under the
//!   correctness constraints of paper Table 2 enforced by [`router`].
//! * the **query server** ([`QueryServer`]) — many executors on one
//!   virtual timeline, sharing SteMs and scan streams across queries
//!   (§1, §5). A query is waiting, running (an entry in one id-ordered
//!   list) or done (its [`QueryHandle`]). Each shared stream reaches a
//!   running query through a cursor into a log, so a late admission
//!   catches up through the same delivery as the steady state.
//!
//! Join algorithms are not programmed anywhere: they *emerge* from routing.
//! Hash-backed SteMs + build-then-probe routing is an n-ary symmetric hash
//! join (§2.3); probing an index AM after a SteM miss is an index join with
//! a shared lookup cache (§3.3); and a benefit/cost policy that splits
//! bounced probes between "probe the index" and "wait for the scan"
//! hybridizes index and hash joins mid-flight (§4.3).
//!
//! # Correctness
//!
//! The router enforces, per paper Table 2:
//! * **BuildFirst** — singletons build into their SteM before probing
//!   (always, like the paper's implementation §4.1, unless a table is
//!   explicitly exempted per the §3.5 relaxation);
//! * **BoundedRepetition** — no unbounded re-routing; re-probes happen only
//!   under the §3.5 LastMatchTimeStamp discipline and only when the target
//!   SteM has changed;
//! * **ProbeCompletion** — a tuple bounced back from a SteM probe becomes a
//!   *prior prober* (Definition 3): it may not probe other SteMs and stays
//!   routable only to its probe-completion table's SteM/AMs;
//!
//! while the SteMs enforce **SteM BounceBack** (including §3.2 duplicate
//! absorption and the §3.3/§4.1 index-AM rules) and **TimeStamp** (§3.1)
//! internally — invisible to the routing policy, exactly as the paper
//! prescribes.
//!
//! # Workspace layout
//!
//! This crate sits at the top of the `stems` cargo workspace:
//!
//! ```text
//! stems-types    values, rows, tuples, predicates
//!    ↑
//! stems-storage  the SteM dictionary (batch insert/probe)
//! stems-sim      discrete-event kernel, seeded RNG, metrics
//! stems-catalog  tables, access methods, queries, reference executor
//!    ↑
//! stems-core     ← this crate: SteMs, AMs, SMs, eddy, router, policies
//!    ↑
//! stems-sql      SQL front end      stems-baseline  classical operators
//! stems-datagen  synthetic sources  stems-bench     figures & benches
//! ```
//!
//! The root `stems` package re-exports everything (`stems::prelude`).
//!
//! # Batched routing (the default engine path)
//!
//! The paper routes tuples one at a time; every hop pays a routing-policy
//! decision, a constraint check and a scheduler event — the per-tuple
//! adaptivity overhead that makes tuple-at-a-time eddies expensive at
//! high rates. The engine here amortizes that cost over batches of
//! tuples (a `Vec<Tuple>`, handed to every batch API as `&[Tuple]`):
//!
//! 1. Tuples re-entering the eddy together (a probe's concatenations, an
//!    index AM's response wave, a Grace clustered release, an unpark
//!    wave) have their legal candidate sets decided **per tuple**, from
//!    the tuple's routing key (everything the router reads of it): the
//!    router runs once per run of members with equal keys, and the Table 2
//!    constraints are never relaxed.
//! 2. Tuples whose candidate sets are *identical* are grouped, up to
//!    [`ExecConfig::batch_size`] per group.
//! 3. Each group is routed by **one**
//!    [`policy::RoutingPolicy::choose_batch`] call (default: delegate to
//!    the scalar `choose` on a representative member) into **one**
//!    envelope, serviced by the destination module in bulk:
//!    `Stem::build_batch_into` / `Stem::probe_linked_into`
//!    amortize dictionary maintenance through the storage layer's
//!    `insert_batch` / `lookup_eq_flat`, and [`sm::Sm::apply_batch`]
//!    filters whole batches.
//!
//! `batch_size: 1` degenerates to exactly the scalar engine (same
//! decisions, same event counts); `tests/prop_batch_equivalence.rs`
//! asserts result-multiset equality between the two paths on randomized
//! SPJ workloads, and `benchmark/`'s `join_chain` workload measures the
//! batched path (batch 64) in wall clock.
//!
//! # Surface
//!
//! An item is `pub` only when a caller outside this crate names it;
//! everything else is `pub(crate)` or private, so rustc's dead-code lint
//! sees it, and CI's `cargo clippy --all-targets -- -D warnings` fails on
//! crate-private code that nothing calls. Three groups are public:
//!
//! * **SQL text in, rows out.** [`EddyExecutor`] runs one query (a
//!   `QuerySpec`, from `stems_sql::parse_query`) under an [`ExecConfig`]
//!   into a [`Report`]; [`QueryServer`], built by a [`ServerBuilder`], runs
//!   a stream of [`Submission`]s into [`QueryHandle`]s. [`StemOptions`],
//!   [`RoutingPolicyKind`] and [`engine::CostModel`] tune a run.
//! * **Modules driven one at a time** by the root tests (`tests/`),
//!   `stems-bench` and `benchmark/`: [`Stem`] with [`stem::ProbeReplySet`],
//!   [`Sm`] with its [`UdfScratch`], [`MemoCache`], [`TupleState`], the
//!   access modules in [`am`],
//!   and [`plan::instantiate`].
//! * **Pinned by `benchmark/`:** items the engine no longer calls but
//!   `benchmark/src/layers.rs` still names; each goes when it is free:
//!   - [`router::candidates`] (the engine routes on a member's route key),
//!     until `benchmark/` stops naming it (ROADMAP item 3);
//!   - [`am::ScanAm::new`] and [`am::ScanAm::first_emit_time`], until
//!     `benchmark/` stops naming them (ROADMAP item 3);
//!   - [`am::IndexAm::new`] and [`am::IndexAm::probe`], until `benchmark/`
//!     stops naming them (ROADMAP item 3);
//!   - [`WorkerPool`] and [`PoolScope`], a shim over `std::thread::scope`,
//!     until `benchmark/` stops naming them (ROADMAP item 3);
//!   - [`Stem::build_batch`], [`Stem::probe_batch_into`] (the root tests
//!     name both too) and [`Stem::shard_lens`], until `benchmark/` stops
//!     naming them (ROADMAP item 3);
//!   - the unused `source` parameter of [`Stem::new`] and
//!     [`am::IndexAm::new`], until `benchmark/` stops passing it (ROADMAP
//!     item 3);
//!   - the [`ShardedStem`] alias, until `benchmark/` stops naming it
//!     (ROADMAP item 3);
//!   - [`memo::DEFAULT_MEMO_SHARDS`] and the ignored `num_shards`
//!     parameter of [`MemoCache::new`] and [`MemoCache::cell`] (the cache
//!     has one lock), until `benchmark/` stops naming them (ROADMAP item
//!     3);
//!   - the owned-return [`Sm::apply_batch`], [`Sm::apply_batch_fused`]
//!     and [`Sm::apply_batch_udf`] (with its `UdfOutcome`), wrappers over
//!     the scratch forms the engine calls (`Sm::apply_batch_into`,
//!     `apply_chain_into`, `apply_batch_udf_into`), until `benchmark/`
//!     stops naming them (ROADMAP item 3);
//!   - [`stems_types::TupleBatch`], an alias of `Vec<Tuple>` that no crate
//!     of the workspace names, until `benchmark/` stops naming it (ROADMAP
//!     item 3);
//!   - six inert config fields — [`ExecConfig::num_shards`],
//!     [`ExecConfig::parallel_min_rows`], [`StemOptions::num_shards`],
//!     [`StemOptions::workers`], [`StemOptions::parallel_min_rows`] and
//!     [`engine::CostModel::shard_parallel_service`] — until `benchmark/`
//!     stops setting them (ROADMAP item 3).
//!
//! # Correctness tooling
//!
//! The crate locks only through `sync::Lock`, whose accessors carry the
//! poison policy, and the workspace denies `unsafe_code` everywhere but
//! the test-only counting allocator. Clippy (`crates/core/clippy.toml`)
//! bans the `std::sync` locks and atomics outside `sync`, thread spawning
//! outside `runtime`, wall-clock reads, by-name metric updates and the
//! SipHash maps, and denies `unwrap` and `expect` in the query server's
//! non-test code. `source_guard`, a test module, checks what no lint
//! states: rows addressed by slot, no lock in or around a SteM, and no
//! count read as a series.

pub mod am;
pub mod engine;
mod links;
pub mod memo;
pub mod plan;
pub mod policy;
mod report;
pub mod router;
#[cfg(test)]
mod routing_search;
mod runtime;
mod server;
mod sm;
#[cfg(test)]
mod source_guard;
pub mod stem;
mod sync;
#[cfg(test)]
#[allow(unsafe_code)]
mod test_alloc;
pub mod tuple_state;
mod wave;

// The surface: SQL text in (`stems_sql::parse_query` builds the spec),
// rows out, solo or through the query server.
pub use engine::{ConfigError, EddyExecutor, ExecConfig};
pub use plan::StemOptions;
pub use policy::RoutingPolicyKind;
pub use report::{Report, ServerReport, TraceEvent, TraceKind};
pub use server::{
    AdmissionPolicy, QueryHandle, QueryId, QueryServer, QueryStatus, ServerBuilder, ServerError,
    ServerStats, Submission,
};

// Engine modules the root tests and `benchmark/` drive one at a time.
pub use memo::MemoCache;
pub use sm::{Sm, UdfScratch};
pub use stem::Stem;
pub use tuple_state::TupleState;

// Pinned by `benchmark/` (see "Surface" above).
pub use runtime::{PoolScope, WorkerPool};
pub use stem::Stem as ShardedStem;
