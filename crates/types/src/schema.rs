//! Table schemas: column names and types.

use crate::{Result, StemsError, Value};

/// Logical column type. Used for validation at catalog/parse time; the
/// executor itself is dynamically typed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    Int,
    Float,
    Str,
    Bool,
}

impl ColumnType {
    /// Whether `v` is an acceptable value for this column. `Null` and `Eot`
    /// are acceptable in any column (EOT tuples reuse the table schema,
    /// paper §2.1.3).
    pub(crate) fn admits(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (_, Value::Eot)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Float, Value::Int(_))
                | (ColumnType::Str, Value::Str(_))
                | (ColumnType::Bool, Value::Bool(_))
        )
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub(crate) name: String,
    pub ty: ColumnType,
}

impl Column {
    pub fn new(name: &str, ty: ColumnType) -> Column {
        Column {
            name: name.to_string(),
            ty,
        }
    }
}

/// The schema of one base table: an ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs. Column names must be
    /// unique (case-insensitive, as in SQL).
    pub fn new(cols: Vec<Column>) -> Result<Schema> {
        for (i, a) in cols.iter().enumerate() {
            for b in cols.iter().skip(i + 1) {
                if a.name.eq_ignore_ascii_case(&b.name) {
                    return Err(StemsError::Schema(format!(
                        "duplicate column name `{}`",
                        a.name
                    )));
                }
            }
        }
        Ok(Schema { columns: cols })
    }

    /// Convenience constructor from `(name, type)` tuples; panics on
    /// duplicate names (intended for tests and examples).
    pub fn of(cols: &[(&str, ColumnType)]) -> Schema {
        Schema::new(
            cols.iter()
                .map(|(n, t)| Column::new(n, *t))
                .collect::<Vec<_>>(),
        )
        .expect("valid schema")
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// All columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Resolve a column name (case-insensitive) to its position.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Validate that a slice of values conforms to this schema.
    pub fn check_row(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.arity() {
            return Err(StemsError::Schema(format!(
                "row arity {} does not match schema arity {}",
                values.len(),
                self.arity()
            )));
        }
        for (col, v) in self.columns.iter().zip(values) {
            if !col.ty.admits(v) {
                return Err(StemsError::Schema(format!(
                    "value {v} not admissible for column `{}` of type {:?}",
                    col.name, col.ty
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs_schema() -> Schema {
        Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Int)])
    }

    #[test]
    fn col_index_is_case_insensitive() {
        let s = rs_schema();
        assert_eq!(s.col_index("KEY"), Some(0));
        assert_eq!(s.col_index("a"), Some(1));
        assert_eq!(s.col_index("missing"), None);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new(vec![
            Column::new("x", ColumnType::Int),
            Column::new("X", ColumnType::Str),
        ])
        .unwrap_err();
        assert!(matches!(err, StemsError::Schema(_)));
    }

    #[test]
    fn check_row_validates_arity_and_types() {
        let s = rs_schema();
        assert!(s.check_row(&[Value::Int(1), Value::Int(2)]).is_ok());
        assert!(s.check_row(&[Value::Int(1)]).is_err());
        assert!(s.check_row(&[Value::Int(1), Value::str("oops")]).is_err());
    }

    #[test]
    fn eot_and_null_admitted_everywhere() {
        let s = rs_schema();
        assert!(s.check_row(&[Value::Int(1), Value::Eot]).is_ok());
        assert!(s.check_row(&[Value::Null, Value::Null]).is_ok());
    }

    #[test]
    fn float_column_admits_int() {
        let s = Schema::of(&[("f", ColumnType::Float)]);
        assert!(s.check_row(&[Value::Int(3)]).is_ok());
    }
}
