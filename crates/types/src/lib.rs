//! Data model for the `stems` adaptive query processor.
//!
//! This crate defines the fundamental vocabulary shared by every other crate
//! in the workspace:
//!
//! * [`Value`] — a dynamically typed scalar, including the special
//!   [`Value::Eot`] marker used by End-Of-Transmission tuples (paper §2.1.3).
//! * [`Row`] — one base-table row (a boxed slice of values).
//! * [`Tuple`] — a (possibly composite) tuple made of *base-table
//!   components* (paper Definition 1), together with its *span* and the
//!   build [`Timestamp`] of each component.
//! * [`TupleBatch`] — a name for `Vec<Tuple>`, the envelope of tuples the
//!   batched engine path routes as one unit; batch APIs take `&[Tuple]`.
//! * [`Predicate`] / [`Operand`] — the select-project-join predicate
//!   language (comparisons and IN-lists), evaluable over partial tuples,
//!   with column-at-a-time batch kernels that write into caller-owned
//!   slots ([`Predicate::eval_batch`], [`Predicate::eval_slots`],
//!   [`ConstKernel`]).
//! * [`Schema`] — column names and types of a table.
//!
//! The terminology follows the paper: a tuple *spans* the set of base tables
//! whose components it carries; a *singleton* tuple has exactly one
//! component (Definition 2).

mod error;
mod expr;
mod kernel;
mod key;
mod row;
mod schema;
mod span;
mod tuple;
mod value;

pub use error::{Result, StemsError};
pub use expr::{
    CmpOp, ColRef, ColumnSource, ExprKind, Operand, PredId, PredSet, Predicate, UdfKind, UdfSpec,
    MAX_PREDS,
};
pub use kernel::ConstKernel;
pub use key::{HashedKey, KeyHash};
pub use row::Row;
pub use schema::{Column, ColumnType, Schema};
pub use span::{TableIdx, TableSet, MAX_TABLES};
pub use tuple::{Component, Timestamp, Tuple, UNBUILT_TS};
pub use value::Value;

/// An ordered run of tuples moving through the dataflow as one unit.
///
/// Only a name: a batch is a `Vec<Tuple>`, and every batch API takes a
/// slice. Pinned because `benchmark/` names it (the `stems-core` crate's
/// "Surface" lists it); removed when that stops.
pub type TupleBatch = Vec<Tuple>;
