//! Property tests for the column-major `Relation`: a relation built
//! row by row (`push`) and the same data built column-wise
//! (`from_columns`) must be indistinguishable — equal as values, equal
//! in sort behaviour, equal under schema resolution — and its `Row`
//! views, column slices, windows and gathers must agree cell for cell.

use proptest::prelude::*;
use qurk::prelude::*;
use qurk::PROCESSING_WINDOW_SIZE;

const TYPES: [ValueType; 5] = [
    ValueType::Int,
    ValueType::Float,
    ValueType::Text,
    ValueType::Bool,
    ValueType::Item,
];

/// Deterministic seed → value for one cell, with occasional NULLs
/// (items excepted: Item columns reject NULL-free schemas elsewhere in
/// the suite, so keep them total here too — the mirror property does
/// not depend on NULL placement).
fn mk_value(ty: ValueType, seed: u64) -> Value {
    if ty != ValueType::Item && seed.is_multiple_of(9) {
        return Value::Null;
    }
    match ty {
        ValueType::Int => Value::Int((seed % 2001) as i64 - 1000),
        ValueType::Float => Value::Float(((seed % 2001) as f64 - 1000.0) / 8.0),
        ValueType::Text => {
            // Short strings from a small alphabet: heavy interning reuse
            // plus plenty of sort ties.
            let len = (seed / 7) % 6;
            let s: String = (0..len)
                .map(|i| char::from(b'a' + ((seed >> (i * 3)) % 5) as u8))
                .collect();
            Value::text(s)
        }
        ValueType::Bool => Value::Bool(seed.is_multiple_of(2)),
        ValueType::Item => Value::Item(qurk_crowd::ItemId(seed % 50)),
    }
}

/// Strategy: 1–4 column type codes plus seed rows of matching width.
fn schema_and_seeds() -> impl Strategy<Value = (Vec<usize>, Vec<Vec<u64>>)> {
    prop::collection::vec(0usize..TYPES.len(), 1..=4usize).prop_flat_map(|tys| {
        let width = tys.len();
        (
            Just(tys),
            prop::collection::vec(prop::collection::vec(0u64..1_000_000, width), 0..48usize),
        )
    })
}

fn build_schema(tys: &[usize]) -> Schema {
    let named: Vec<(String, ValueType)> = tys
        .iter()
        .enumerate()
        .map(|(i, &t)| (format!("c{i}"), TYPES[t]))
        .collect();
    let refs: Vec<(&str, ValueType)> = named.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    Schema::new(&refs)
}

fn materialize(tys: &[usize], seeds: &[Vec<u64>]) -> Vec<Vec<Value>> {
    seeds
        .iter()
        .map(|row| {
            row.iter()
                .zip(tys)
                .map(|(&s, &t)| mk_value(TYPES[t], s))
                .collect()
        })
        .collect()
}

fn row_wise(tys: &[usize], rows: &[Vec<Value>]) -> Relation {
    let mut rel = Relation::new(build_schema(tys));
    for r in rows {
        rel.push(r.clone()).unwrap();
    }
    rel
}

fn column_wise(tys: &[usize], rows: &[Vec<Value>]) -> Relation {
    let columns: Vec<Vec<Value>> = (0..tys.len())
        .map(|c| rows.iter().map(|r| r[c]).collect())
        .collect();
    Relation::from_columns(build_schema(tys), columns).unwrap()
}

proptest! {
    /// Equality: the two build orders produce the same relation, row
    /// view and column view both.
    #[test]
    fn build_orders_agree((tys, seeds) in schema_and_seeds()) {
        let rows = materialize(&tys, &seeds);
        let by_row = row_wise(&tys, &rows);
        let by_col = column_wise(&tys, &rows);
        prop_assert_eq!(&by_row, &by_col);
        prop_assert_eq!(by_row.to_tsv(), by_col.to_tsv());
        for c in 0..tys.len() {
            prop_assert_eq!(by_row.column(c), by_col.column(c));
        }
    }

    /// Column slices mirror the row view cell for cell, and windows
    /// tile the relation completely, in order, without overlap.
    #[test]
    fn columns_and_windows_mirror_rows((tys, seeds) in schema_and_seeds()) {
        let rows = materialize(&tys, &seeds);
        let rel = row_wise(&tys, &rows);
        for c in 0..tys.len() {
            let col = rel.column(c);
            prop_assert_eq!(col.len(), rel.len());
            for (r, row) in rel.rows().enumerate() {
                prop_assert_eq!(col[r], row[c]);
            }
        }
        let mut seen = 0usize;
        for w in rel.windows() {
            prop_assert!(w.len() <= PROCESSING_WINDOW_SIZE);
            prop_assert_eq!(w.start(), seen);
            for c in 0..tys.len() {
                prop_assert_eq!(w.column(c), &rel.column(c)[w.start()..w.start() + w.len()]);
            }
            seen += w.len();
        }
        prop_assert_eq!(seen, rel.len());
    }

    /// Ordering: sorting the row view by any column gives the same
    /// permutation as sorting the column slice — SQL comparison
    /// semantics are layout-independent (interned text included).
    #[test]
    fn sort_is_layout_independent((tys, seeds) in schema_and_seeds(), key in 0usize..4) {
        let key = key % tys.len();
        let rows = materialize(&tys, &seeds);
        let by_row = row_wise(&tys, &rows);
        let by_col = column_wise(&tys, &rows);

        // NULLs sort first so the comparator is a real total order
        // (sql_cmp is None for NULL operands).
        fn total(a: &Value, b: &Value) -> std::cmp::Ordering {
            match (a == &Value::Null, b == &Value::Null) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Less,
                (false, true) => std::cmp::Ordering::Greater,
                (false, false) => a.sql_cmp(b).expect("same-type non-null cells"),
            }
        }

        let mut row_order: Vec<usize> = (0..by_row.len()).collect();
        row_order.sort_by(|&a, &b| total(&by_row.row(a)[key], &by_row.row(b)[key]));
        let col = by_col.column(key);
        let mut col_order: Vec<usize> = (0..by_col.len()).collect();
        col_order.sort_by(|&a, &b| total(&col[a], &col[b]));
        prop_assert_eq!(&row_order, &col_order);

        // And gathering by that permutation keeps both layouts aligned.
        let g_row = by_row.gather(&row_order);
        let g_col = by_col.gather(&col_order);
        prop_assert_eq!(g_row.to_tsv(), g_col.to_tsv());
    }

    /// Schema resolution is independent of how the relation was built.
    #[test]
    fn schema_resolution_agrees((tys, seeds) in schema_and_seeds()) {
        let rows = materialize(&tys, &seeds);
        let by_row = row_wise(&tys, &rows);
        let by_col = column_wise(&tys, &rows);
        for i in 0..tys.len() {
            let name = format!("c{i}");
            prop_assert_eq!(by_row.schema().resolve(&name), Some(i));
            prop_assert_eq!(
                by_row.schema().resolve(&name),
                by_col.schema().resolve(&name)
            );
        }
        prop_assert_eq!(by_row.schema().resolve("nope"), None);
        prop_assert_eq!(by_col.schema().resolve("nope"), None);
    }
}
