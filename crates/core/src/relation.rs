//! In-memory relations and the tab-delimited loader.
//!
//! §2.6: "Qurk is implemented as a Scala workflow engine with several
//! types of input including relational databases and tab-delimited text
//! files." We reproduce the tab-delimited path; rows type-check against
//! the declared schema on the way in.
//!
//! A relation is stored column-major: one flat `Vec<Value>` per schema
//! field. Since [`Value`] is a 16-byte `Copy` type (text is interned),
//! a column of n values is a contiguous 16·n-byte slab that streams
//! through the cache. Machine-side operators (predicate evaluation,
//! sort keys, candidate pre-pruning) touch one or two columns of many
//! rows, so they sweep [`Relation::column`] slices in fixed-size
//! windows ([`PROCESSING_WINDOW_SIZE`] rows) that keep a working set
//! of a few columns cache-resident. Row-at-a-time code borrows [`Row`]
//! views, which read the same columns.
// lint:hot-path

use std::fmt;

use crate::error::{QurkError, Result};
use crate::schema::{Schema, ValueType};
use crate::value::Value;

/// Rows per processing window: 1024 rows × 16 B/value keeps a handful
/// of columns comfortably inside L2 while amortizing per-window
/// overhead.
pub const PROCESSING_WINDOW_SIZE: usize = 1024;

/// A schema-checked bag of rows, stored column-major: `cols[c][r]` is
/// row `r`'s value in column `c`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    schema: Schema,
    cols: Vec<Vec<Value>>,
    len: usize,
}

impl Relation {
    pub fn new(schema: Schema) -> Self {
        let cols = vec![Vec::new(); schema.len()];
        Relation {
            schema,
            cols,
            len: 0,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrowed view of row `idx`. Panics if `idx >= len()`.
    pub fn row(&self, idx: usize) -> Row<'_> {
        assert!(idx < self.len, "row {idx} out of range ({} rows)", self.len);
        Row { rel: self, idx }
    }

    /// Every row, in order, as borrowed views.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Row<'_>> + DoubleEndedIterator {
        (0..self.len).map(move |idx| Row { rel: self, idx })
    }

    /// Append a row, type-checking against the schema.
    pub fn push(&mut self, values: Vec<Value>) -> Result<()> {
        if values.len() != self.schema.len() {
            return Err(QurkError::Schema(format!(
                "row has {} values, schema has {} columns",
                values.len(),
                self.schema.len()
            )));
        }
        for (v, f) in values.iter().zip(self.schema.fields()) {
            if !f.ty.admits(v) {
                return Err(QurkError::Schema(format!(
                    "value {v:?} does not fit column {} ({:?})",
                    f.name, f.ty
                )));
            }
        }
        for (col, v) in self.cols.iter_mut().zip(values) {
            col.push(v);
        }
        self.len += 1;
        Ok(())
    }

    /// Build column-wise from pre-assembled columns (one `Vec<Value>`
    /// per schema field, all the same length). Type-checks exactly
    /// like [`Self::push`]; the result is indistinguishable from the
    /// same data pushed row-wise.
    pub fn from_columns(schema: Schema, columns: Vec<Vec<Value>>) -> Result<Relation> {
        if columns.len() != schema.len() {
            return Err(QurkError::Schema(format!(
                "{} columns supplied, schema has {}",
                columns.len(),
                schema.len()
            )));
        }
        let n = columns.first().map(Vec::len).unwrap_or(0);
        for (col, f) in columns.iter().zip(schema.fields()) {
            if col.len() != n {
                return Err(QurkError::Schema(format!(
                    "column {} has {} values, expected {n}",
                    f.name,
                    col.len()
                )));
            }
            for v in col {
                if !f.ty.admits(v) {
                    return Err(QurkError::Schema(format!(
                        "value {v:?} does not fit column {} ({:?})",
                        f.name, f.ty
                    )));
                }
            }
        }
        Ok(Relation {
            schema,
            cols: columns,
            len: n,
        })
    }

    /// Zero-copy column slice: all rows' values for schema field
    /// `idx`, contiguous in memory.
    pub fn column(&self, idx: usize) -> &[Value] {
        &self.cols[idx]
    }

    /// Iterate the relation in fixed-size processing windows
    /// ([`PROCESSING_WINDOW_SIZE`] rows) of zero-copy column slices.
    pub fn windows(&self) -> impl Iterator<Item = RelationWindow<'_>> {
        self.windows_of(PROCESSING_WINDOW_SIZE)
    }

    /// Like [`Self::windows`] with an explicit window size (tests,
    /// benches, and operators with unusual working sets).
    pub fn windows_of(&self, size: usize) -> impl Iterator<Item = RelationWindow<'_>> {
        let size = size.max(1);
        (0..self.len.div_ceil(size)).map(move |w| {
            let start = w * size;
            RelationWindow {
                rel: self,
                start,
                end: (start + size).min(self.len),
            }
        })
    }

    /// Columnar gather: a new relation containing `indices`' rows (in
    /// the given order, duplicates allowed), copied column by column.
    pub fn gather(&self, indices: &[usize]) -> Relation {
        let cols = self
            .cols
            .iter()
            .map(|col| indices.iter().map(|&r| col[r]).collect())
            .collect();
        Relation {
            // lint:allow(hot-clone): one schema per output relation, not per row.
            schema: self.schema.clone(),
            cols,
            len: indices.len(),
        }
    }

    /// Side-by-side concatenation of two equal-length relations (join
    /// output): `self`'s columns, then `other`'s, under
    /// [`Schema::join`].
    pub(crate) fn zip(mut self, other: Relation) -> Relation {
        debug_assert_eq!(self.len, other.len);
        self.schema = self.schema.join(&other.schema);
        self.cols.extend(other.cols);
        self
    }

    /// Rename columns to `alias.<base>` (scan under an alias).
    pub fn qualified(mut self, alias: &str) -> Relation {
        self.schema = self.schema.qualified(alias);
        self
    }

    /// Parse a tab-delimited document: `NULL` is null, `item://N` is an
    /// item reference, otherwise values parse per the schema's column
    /// type.
    pub fn from_tsv(schema: Schema, text: &str) -> Result<Relation> {
        let mut rel = Relation::new(schema);
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split('\t').collect();
            if parts.len() != rel.schema.len() {
                return Err(QurkError::Schema(format!(
                    "line {}: expected {} fields, found {}",
                    lineno + 1,
                    rel.schema.len(),
                    parts.len()
                )));
            }
            let mut values = Vec::with_capacity(parts.len());
            for (raw, field) in parts.iter().zip(rel.schema.fields()) {
                values.push(parse_value(raw, field.ty, lineno + 1)?);
            }
            rel.push(values)?;
        }
        Ok(rel)
    }

    /// Serialize to tab-delimited text (inverse of [`Self::from_tsv`]).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for row in self.rows() {
            let line: Vec<String> = row.values().map(render_tsv).collect();
            out.push_str(&line.join("\t"));
            out.push('\n');
        }
        out
    }
}

/// Borrowed view of one row of a [`Relation`]: indexing and
/// [`Self::field`] read straight from the relation's columns.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    rel: &'a Relation,
    idx: usize,
}

impl<'a> Row<'a> {
    /// Position of this row in its relation.
    pub fn index(&self) -> usize {
        self.idx
    }

    pub fn get(&self, col: usize) -> Option<&'a Value> {
        self.rel.cols.get(col).map(|c| &c[self.idx])
    }

    /// Value by column name, resolved through the relation's schema
    /// (supports qualified names).
    pub fn field(&self, name: &str) -> Option<&'a Value> {
        self.rel.schema.resolve(name).and_then(|c| self.get(c))
    }

    /// The row's values in schema order.
    pub fn values(&self) -> impl Iterator<Item = &'a Value> {
        let idx = self.idx;
        self.rel.cols.iter().map(move |c| &c[idx])
    }
}

impl std::ops::Index<usize> for Row<'_> {
    type Output = Value;

    fn index(&self, col: usize) -> &Value {
        &self.rel.cols[col][self.idx]
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

/// Zero-copy view of one processing window: a contiguous row range
/// with per-column `&[Value]` slices.
#[derive(Clone, Copy)]
pub struct RelationWindow<'a> {
    rel: &'a Relation,
    start: usize,
    end: usize,
}

impl<'a> RelationWindow<'a> {
    /// Index (into the whole relation) of this window's first row.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Rows in this window (≤ the window size it was cut with).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// This window's slice of column `idx` — zero-copy into the
    /// relation's column.
    pub fn column(&self, idx: usize) -> &'a [Value] {
        &self.rel.cols[idx][self.start..self.end]
    }
}

fn render_tsv(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_owned(),
        other => other.render(),
    }
}

fn parse_value(raw: &str, ty: ValueType, line: usize) -> Result<Value> {
    if raw == "NULL" {
        return Ok(Value::Null);
    }
    let err = |m: String| QurkError::Schema(format!("line {line}: {m}"));
    match ty {
        ValueType::Bool => raw
            .parse::<bool>()
            .map(Value::Bool)
            .map_err(|_| err(format!("bad bool {raw:?}"))),
        ValueType::Int => raw
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| err(format!("bad int {raw:?}"))),
        ValueType::Float => raw
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| err(format!("bad float {raw:?}"))),
        ValueType::Text => Ok(Value::text(raw)),
        ValueType::Item => raw
            .strip_prefix("item://")
            .and_then(|n| n.parse::<u64>().ok())
            .map(|n| Value::Item(qurk_crowd::ItemId(n)))
            .ok_or_else(|| err(format!("bad item reference {raw:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(&[
            ("id", ValueType::Int),
            ("name", ValueType::Text),
            ("img", ValueType::Item),
        ])
    }

    /// `n` rows of `(Int i, Text "r{i}")`.
    fn numbered(n: usize) -> Relation {
        let mut r = Relation::new(Schema::new(&[
            ("x", ValueType::Int),
            ("s", ValueType::Text),
        ]));
        for i in 0..n {
            r.push(vec![Value::Int(i as i64), Value::text(format!("r{i}"))])
                .unwrap();
        }
        r
    }

    #[test]
    fn push_type_checks() {
        let mut r = Relation::new(schema());
        r.push(vec![Value::Int(1), Value::text("a"), Value::Null])
            .unwrap();
        let err = r.push(vec![Value::text("x"), Value::text("a"), Value::Null]);
        assert!(matches!(err, Err(QurkError::Schema(_))));
        let err = r.push(vec![Value::Int(1)]);
        assert!(matches!(err, Err(QurkError::Schema(_))));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn push_appends_to_every_column() {
        let r = numbered(3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.schema().len(), 2);
        assert_eq!(r.column(0), &[Value::Int(0), Value::Int(1), Value::Int(2)]);
        assert_eq!(r.column(1)[2], Value::text("r2"));
    }

    #[test]
    fn tsv_roundtrip() {
        let text = "1\talice\titem://4\n2\tNULL\titem://5\n";
        let r = Relation::from_tsv(schema(), text).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(1)[1], Value::Null);
        assert_eq!(r.row(0)[2], Value::Item(qurk_crowd::ItemId(4)));
        assert_eq!(r.to_tsv(), text);
    }

    #[test]
    fn tsv_rejects_bad_rows() {
        assert!(Relation::from_tsv(schema(), "1\tonly-two").is_err());
        assert!(Relation::from_tsv(schema(), "x\ta\titem://1").is_err());
        assert!(Relation::from_tsv(schema(), "1\ta\tnot-item").is_err());
    }

    #[test]
    fn tsv_skips_blank_lines() {
        let r = Relation::from_tsv(schema(), "\n1\ta\titem://1\n\n").unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn from_columns_equals_row_wise() {
        let text = "1\talice\titem://4\n2\tNULL\titem://5\n";
        let row_wise = Relation::from_tsv(schema(), text).unwrap();
        let col_wise = Relation::from_columns(
            schema(),
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::text("alice"), Value::Null],
                vec![
                    Value::Item(qurk_crowd::ItemId(4)),
                    Value::Item(qurk_crowd::ItemId(5)),
                ],
            ],
        )
        .unwrap();
        assert_eq!(row_wise, col_wise);
        assert_eq!(col_wise.to_tsv(), text);
    }

    #[test]
    fn from_columns_matches_push() {
        let a = numbered(5);
        let b = Relation::from_columns(
            a.schema().clone(),
            vec![a.column(0).to_vec(), a.column(1).to_vec()],
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_columns_validates() {
        // Wrong column count.
        assert!(Relation::from_columns(schema(), vec![vec![]]).is_err());
        // Ragged columns.
        assert!(Relation::from_columns(
            schema(),
            vec![vec![Value::Int(1)], vec![Value::text("a")], vec![]],
        )
        .is_err());
        // Type mismatch.
        assert!(Relation::from_columns(
            schema(),
            vec![
                vec![Value::text("x")],
                vec![Value::text("a")],
                vec![Value::Null]
            ],
        )
        .is_err());
    }

    #[test]
    fn column_slices_mirror_rows() {
        let r = Relation::from_tsv(schema(), "1\ta\titem://1\n2\tb\titem://2\n").unwrap();
        assert_eq!(r.column(0), &[Value::Int(1), Value::Int(2)]);
        assert_eq!(r.column(1), &[Value::text("a"), Value::text("b")]);
        for row in r.rows() {
            assert_eq!(row.values().count(), r.schema().len());
            for ci in 0..r.schema().len() {
                assert_eq!(r.column(ci)[row.index()], row[ci]);
            }
        }
    }

    #[test]
    fn row_field_access_via_schema() {
        let r = Relation::from_columns(
            Schema::new(&[("c.name", ValueType::Text), ("c.img", ValueType::Item)]),
            vec![vec![Value::text("alice")], vec![Value::Null]],
        )
        .unwrap();
        let row = r.row(0);
        assert_eq!(row.field("name"), Some(&Value::text("alice")));
        assert_eq!(row.field("c.name"), Some(&Value::text("alice")));
        assert_eq!(row.field("missing"), None);
        assert_eq!(format!("{row:?}"), "[Text(\"alice\"), Null]");
    }

    #[test]
    fn row_indexing() {
        let r = Relation::from_columns(
            Schema::new(&[("b", ValueType::Bool)]),
            vec![vec![Value::Bool(true)]],
        )
        .unwrap();
        assert_eq!(r.row(0)[0], Value::Bool(true));
        assert_eq!(r.row(0).get(1), None);
    }

    #[test]
    fn windows_reassemble() {
        let mut r = Relation::new(Schema::new(&[("x", ValueType::Int)]));
        for i in 0..10 {
            r.push(vec![Value::Int(i)]).unwrap();
        }
        let vals: Vec<Value> = r
            .windows_of(3)
            .flat_map(|w| w.column(0).iter().copied())
            .collect();
        assert_eq!(vals, r.column(0));
        assert_eq!(r.windows().count(), 1); // default window > 10 rows
    }

    #[test]
    fn windows_cover_all_rows_without_overlap() {
        let r = numbered(10);
        let w: Vec<_> = r.windows_of(4).collect();
        assert_eq!(w.len(), 3);
        assert_eq!((w[0].start(), w[0].len()), (0, 4));
        assert_eq!((w[1].start(), w[1].len()), (4, 4));
        assert_eq!((w[2].start(), w[2].len()), (8, 2));
        assert!(!w[2].is_empty());
        assert_eq!(w[2].column(1), &[Value::text("r8"), Value::text("r9")]);
    }

    #[test]
    fn empty_relation_yields_no_windows() {
        assert_eq!(numbered(0).windows_of(8).count(), 0);
        assert_eq!(numbered(0).windows().count(), 0);
    }

    #[test]
    fn exact_multiple_window() {
        let r = numbered(8);
        let w: Vec<_> = r.windows_of(4).collect();
        assert_eq!(w.len(), 2);
        assert_eq!(w[1].len(), 4);
        let r = numbered(2 * PROCESSING_WINDOW_SIZE);
        let w: Vec<_> = r.windows().collect();
        assert_eq!(w.len(), 2);
        assert_eq!(w[1].start(), PROCESSING_WINDOW_SIZE);
        assert_eq!(w[1].len(), PROCESSING_WINDOW_SIZE);
    }

    #[test]
    fn gather_selects_rows_in_order() {
        let r = Relation::from_tsv(schema(), "1\ta\titem://1\n2\tb\titem://2\n3\tc\titem://3\n")
            .unwrap();
        let g = r.gather(&[2, 0, 2]);
        assert_eq!(g.len(), 3);
        assert!(g.row(0).values().eq(r.row(2).values()));
        assert!(g.row(1).values().eq(r.row(0).values()));
        assert_eq!(g.column(0), &[Value::Int(3), Value::Int(1), Value::Int(3)]);
        assert_eq!(g.schema(), r.schema());
    }

    #[test]
    fn zip_concatenates_columns() {
        let a = numbered(2).qualified("a");
        let b = Relation::from_columns(
            Schema::new(&[("y", ValueType::Int)]),
            vec![vec![Value::Int(7), Value::Int(8)]],
        )
        .unwrap();
        let z = a.zip(b);
        assert_eq!(z.len(), 2);
        assert_eq!(z.schema().len(), 3);
        assert_eq!(z.row(1)[2], Value::Int(8));
        assert_eq!(z.row(1).field("a.s"), Some(&Value::text("r1")));
        assert_eq!(z.row(0).field("y"), Some(&Value::Int(7)));
    }

    #[test]
    fn qualification() {
        let r = Relation::new(schema()).qualified("c");
        assert_eq!(r.schema().fields()[0].name, "c.id");
    }

    #[test]
    fn iteration() {
        let mut r = Relation::new(Schema::new(&[("x", ValueType::Int)]));
        r.push(vec![Value::Int(1)]).unwrap();
        r.push(vec![Value::Int(2)]).unwrap();
        let sum: i64 = r.rows().map(|t| t[0].as_int().unwrap()).sum();
        assert_eq!(sum, 3);
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows().next_back().unwrap()[0], Value::Int(2));
    }
}
