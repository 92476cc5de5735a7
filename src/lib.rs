//! # stems — adaptive query processing with State Modules
//!
//! A from-scratch Rust reproduction of *"Using State Modules for Adaptive
//! Query Processing"* (Raman, Deshpande, Hellerstein — ICDE 2003, the
//! Telegraph project).
//!
//! The crate is an umbrella over the workspace:
//!
//! * [`types`] — values, rows, composite tuples, predicates.
//! * [`sim`] — the deterministic discrete-event simulation kernel that
//!   stands in for the paper's threaded runtime and networked sources.
//! * [`storage`] — the dictionary backing SteMs: one row slab, hash-indexed
//!   on its join columns never, always, or past a size threshold.
//! * [`catalog`] — tables, access-method descriptors, SPJ queries, join
//!   graphs, bind-field feasibility.
//! * [`sql`] — a small SQL front end producing query specs.
//! * [`core`] — **the paper's contribution**: SteMs, access & selection
//!   modules, the eddy, routing constraints and routing policies.
//! * [`baseline`] — traditional operators (index join, symmetric hash join,
//!   Grace/hybrid hash, sort-merge) used as comparators.
//! * [`datagen`] — the paper's Table 3 synthetic sources and more.
//!
//! ## Quickstart
//!
//! ```
//! use stems::prelude::*;
//!
//! // Two tiny tables joined through the eddy + SteMs.
//! let mut catalog = Catalog::new();
//! let r = catalog
//!     .add_table(
//!         TableDef::new("r", Schema::of(&[("k", ColumnType::Int), ("a", ColumnType::Int)]))
//!             .with_rows(vec![vec![1.into(), 10.into()], vec![2.into(), 20.into()]]),
//!     )
//!     .unwrap();
//! let s = catalog
//!     .add_table(
//!         TableDef::new("s", Schema::of(&[("x", ColumnType::Int)]))
//!             .with_rows(vec![vec![10.into()], vec![30.into()]]),
//!     )
//!     .unwrap();
//! catalog.add_scan(r, ScanSpec::default()).unwrap();
//! catalog.add_scan(s, ScanSpec::default()).unwrap();
//!
//! let query = parse_query(&catalog, "SELECT * FROM r, s WHERE r.a = s.x").unwrap();
//! let report = EddyExecutor::build(&catalog, &query, ExecConfig::default())
//!     .unwrap()
//!     .run();
//! assert_eq!(report.results.len(), 1); // r.a = 10 matches s.x = 10
//! ```

pub use stems_baseline as baseline;
pub use stems_catalog as catalog;
pub use stems_core as core;
pub use stems_datagen as datagen;
pub use stems_sim as sim;
pub use stems_sql as sql;
pub use stems_storage as storage;
pub use stems_types as types;

/// Commonly used items, for `use stems::prelude::*`.
pub mod prelude {
    pub use stems_catalog::{
        AccessMethodDef, Catalog, IndexSpec, QuerySpec, ScanSpec, SourceId, TableDef,
    };
    pub use stems_core::{EddyExecutor, ExecConfig, Report, RoutingPolicyKind};
    pub use stems_sql::parse_query;
    pub use stems_types::{
        CmpOp, ColRef, Column, ColumnType, Operand, PredId, Predicate, Row, Schema, TableIdx,
        TableSet, Tuple, Value,
    };
}
