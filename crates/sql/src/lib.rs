//! A small SQL front end for select-project-join queries.
//!
//! Covers exactly the query class the paper's architecture executes
//! (§2.2): conjunctive `SELECT ... FROM ... WHERE ...` with comparison
//! predicates — no subqueries, grouping or aggregation (the paper assumes
//! those "are implemented above the eddy").
//!
//! ```
//! use stems_catalog::{Catalog, ScanSpec, TableDef};
//! use stems_sql::parse_query;
//! use stems_types::{ColumnType, Schema};
//!
//! let mut catalog = Catalog::new();
//! let r = catalog
//!     .add_table(TableDef::new(
//!         "r",
//!         Schema::of(&[("k", ColumnType::Int), ("a", ColumnType::Int)]),
//!     ))
//!     .unwrap();
//! let s = catalog
//!     .add_table(TableDef::new("s", Schema::of(&[("x", ColumnType::Int)])))
//!     .unwrap();
//! catalog.add_scan(r, ScanSpec::default()).unwrap();
//! catalog.add_scan(s, ScanSpec::default()).unwrap();
//!
//! let q = parse_query(&catalog, "SELECT r.k FROM r, s WHERE r.a = s.x AND r.k > 5").unwrap();
//! assert_eq!(q.n_tables(), 2);
//! assert_eq!(q.predicates.len(), 2);
//! ```
//!
//! Non-test code neither unwraps nor panics: malformed SQL text is an
//! `Err`, never a crash (Clippy denies `unwrap`, `expect` and `panic!`).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod parser;
mod token;

pub use parser::parse_query;
pub use token::{tokenize, Token};
