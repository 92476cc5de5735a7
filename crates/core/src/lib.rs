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
//! * **State Modules** ([`sharded::ShardedStem`]) — "half joins": a
//!   dictionary per table instance handling build/probe, duplicate
//!   elimination, EOT bookkeeping, timestamp filtering and bounce-back
//!   decisions. One type with one storage lane, one build algorithm
//!   (route → dedup + insert → timestamping) and one probe algorithm
//!   (resolve + hash each binding once → result formation). Both take
//!   `&mut self` and nothing inside a SteM locks; a SteM shared across
//!   queries sits behind the one mutex of its [`plan::StemCell`]. [`stem`]
//!   holds the SteM's option/result/reply types, the EOT coverage index
//!   and the storage lane. The only threads are the query server's: its
//!   wave drain steps independent executors on the persistent worker pool
//!   ([`runtime::WorkerPool`], sized by [`ExecConfig::workers`] /
//!   `STEMS_WORKERS`).
//! * the **eddy** ([`EddyExecutor`]) — routes every tuple between the other
//!   modules according to a [`policy::RoutingPolicy`], under the
//!   correctness constraints of paper Table 2 enforced by [`router`].
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
//! stems-types    values, rows, tuples, TupleBatch, predicates
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
//! high rates. The engine here amortizes that cost over
//! [`stems_types::TupleBatch`]es:
//!
//! 1. Tuples re-entering the eddy together (a probe's concatenations, an
//!    index AM's response wave, a Grace clustered release, an unpark
//!    wave) have their legal candidate sets computed **per tuple** by
//!    [`router::candidates`] — the Table 2 constraints are never relaxed.
//! 2. Tuples whose candidate sets are *identical* are grouped, up to
//!    [`ExecConfig::batch_size`] per group.
//! 3. Each group is routed by **one**
//!    [`policy::RoutingPolicy::choose_batch`] call (default: delegate to
//!    the scalar `choose` on a representative member) into **one**
//!    envelope, serviced by the destination module in bulk:
//!    [`ShardedStem::build_batch_into`] / [`ShardedStem::probe_batch_into`]
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
//! # Correctness tooling
//!
//! All synchronization goes through [`sync`], a shim that re-exports
//! `std::sync` normally but routes through the `stems-check` model
//! checker under the `model` feature — `tests/model.rs` explores every
//! bounded interleaving of the runtime's protocols. `stems-lint`
//! (`cargo run -p stems-lint`) enforces the shim funnel, SAFETY
//! comments on `unsafe`, and the virtual-time discipline.

// Every `unsafe` operation must be visibly scoped and argued even
// inside unsafe fns; the lone transmute in `runtime.rs` carries the
// model-checked soundness argument.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod am;
pub mod engine;
pub mod links;
pub mod memo;
pub mod plan;
pub mod policy;
pub mod report;
pub mod router;
pub mod runtime;
pub mod server;
pub mod sharded;
pub mod sm;
pub mod stem;
pub mod sync;
#[cfg(test)]
mod test_alloc;
pub mod tuple_state;
mod wave;

pub use engine::{ConfigError, EddyExecutor, ExecConfig};
pub use memo::{MemoCache, MemoCell, MemoCounters};
pub use plan::{PlanLayout, StemCell, StemOptions};
pub use policy::{
    BenefitCostPolicy, FixedOrderPolicy, LotteryPolicy, RoutingPolicy, RoutingPolicyKind,
};
pub use report::{Report, ServerReport, TraceEvent, TraceKind};
pub use runtime::WorkerPool;
pub use server::{
    AdmissionPolicy, QueryHandle, QueryId, QueryServer, QueryStatus, ServerBuilder, ServerError,
    ServerStats, Submission,
};
pub use sharded::ShardedStem;
pub use sm::{FusedVerdict, Sm};
pub use tuple_state::TupleState;
