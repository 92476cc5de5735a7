//! Catalog and query model for the stems adaptive query processor.
//!
//! This crate owns everything the engine needs to know *before* execution:
//!
//! * [`TableDef`] / [`Catalog`] — base tables (with their simulated data)
//!   and the access methods each source exports. Following the paper's
//!   federated setting, one table may have **several** access methods
//!   (multiple scans from mirror sources, indexes with different bind
//!   columns) — the eddy races them at run time (§3.2–3.3).
//! * [`ScanSpec`] / [`IndexSpec`] — performance envelopes of an access
//!   method: delivery rate, probe latency, concurrency, stall windows.
//!   These parameterize the simulation the way Table 3 parameterizes the
//!   paper's testbed. An index's rows are served from an [`IndexTable`]
//!   the catalog builds once when the index is registered.
//! * [`QuerySpec`] — a select-project-join query over table *instances*
//!   (self-joins get one instance per FROM occurrence but share a SteM,
//!   paper §2.2).
//! * [`JoinGraph`] — predicate adjacency between instances; cyclicity is
//!   what makes spanning-tree adaptation interesting (§3.4).
//! * [`feasible`] — the bind-field feasibility check of §2.2 step 1 ("we
//!   use the algorithm from Nail!"): can every table be reached given scans
//!   and index binding patterns?
//! * [`mod@reference`] — an oracle executor producing the exact correct
//!   result multiset; every correctness test compares the eddy's output
//!   against it. It shares no key normal form with the engine, and every
//!   predicate is tested on every tuple it returns.

mod access;
mod cat;
pub mod feasible;
mod graph;
mod index_table;
mod query;
pub mod reference;

pub use access::{AccessMethodDef, AmId, IndexSpec, ScanSpec};
pub use cat::{Catalog, SourceId, TableDef};
pub use graph::JoinGraph;
pub use index_table::IndexTable;
pub use query::{QuerySpec, TableInstance};
