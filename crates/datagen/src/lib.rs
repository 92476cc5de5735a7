//! Synthetic data sources and workload generators.
//!
//! The paper controls its experiments with synthetic sources (Table 3):
//!
//! | Source | Schema | Description |
//! |--------|--------|-------------|
//! | R | key:int, a:int | 1000 tuples, scan AM; `key` primary, `a` has 250 distinct values, randomly assigned |
//! | S | x:int, y:int | two keys x and y, asynchronous index AMs on both |
//! | T | key:int | async index AM on `key` + scan AM |
//!
//! [`table3`] reproduces exactly those sources (sized and seeded
//! configurably); [`gen`] provides the general-purpose builders the tests
//! and extra experiments use (uniform/zipf key columns, unique serial
//! keys). Rows within one table are always distinct (the engine's SteMs
//! use set semantics, §3.2, so workloads are duplicate-free by
//! construction; competition experiments create duplicates by *mirroring
//! AMs*, not by duplicating rows). The catalog checks it rather than
//! trusting it: `Catalog::add_table` records whether a table's rows are
//! pairwise distinct, a SteM fed by one scan over such a table skips the
//! duplicate filter, and a table that breaks the rule keeps it.

pub mod gen;
pub mod table3;

pub use gen::{zipf_values, TableBuilder};
pub use table3::{Table3, Table3Config};
