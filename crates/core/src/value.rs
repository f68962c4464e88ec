//! Scalar values.
//!
//! Qurk's data model is relational with one extension: an
//! [`Item`](Value::Item) value referencing a crowd-visible object (an
//! image in the paper's datasets). Items are what HIT questions are
//! asked about; everything else is ordinary scalar data.

use crate::intern::IStr;
use qurk_crowd::ItemId;

/// A single attribute value.
///
/// `Copy` (16 bytes): text is an interned [`IStr`] handle, so copying
/// a value — and therefore a whole tuple — is a flat memcpy with no
/// heap traffic, and text equality is an integer compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(IStr),
    /// Reference to a crowd-visible item (e.g. an image URL in the
    /// original system; here a handle into the ground-truth oracle).
    Item(ItemId),
}

impl Value {
    /// Convenience constructor for text values (interns the string).
    pub fn text(s: impl AsRef<str>) -> Value {
        Value::Text(IStr::new(s.as_ref()))
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(t) => Some(t.as_str()),
            _ => None,
        }
    }

    pub fn as_item(&self) -> Option<ItemId> {
        match self {
            Value::Item(i) => Some(*i),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Render for display / HIT HTML substitution.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_owned(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format!("{f}"),
            Value::Text(t) => t.as_str().to_owned(),
            Value::Item(i) => format!("item://{}", i.0),
        }
    }

    /// SQL-style comparison: `Null` compares as unknown (`None`);
    /// numeric types compare cross-type.
    pub fn sql_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Item(a), Item(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total order for sort keys. Agrees with [`Self::sql_cmp`] where
    /// that is defined; NULL sorts after every non-NULL value (so NULLs
    /// come last under ASC and first under DESC, as in PostgreSQL),
    /// floats compare by [`f64::total_cmp`], and values of
    /// incomparable types order by type.
    pub fn sort_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Greater,
            (_, Null) => Ordering::Less,
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            _ => self
                .sql_cmp(other)
                .unwrap_or_else(|| self.type_rank().cmp(&other.type_rank())),
        }
    }

    /// Rank of each type class in [`Self::sort_cmp`]'s cross-type order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Bool(_) => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Text(_) => 2,
            Value::Item(_) => 3,
            Value::Null => 4,
        }
    }

    /// SQL equality (`None` when either side is NULL or incomparable).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == std::cmp::Ordering::Equal)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(IStr::new(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(IStr::new(&v))
    }
}

impl From<IStr> for Value {
    fn from(v: IStr) -> Self {
        Value::Text(v)
    }
}

impl From<ItemId> for Value {
    fn from(v: ItemId) -> Self {
        Value::Item(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn accessors() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::text("x").as_text(), Some("x"));
        assert_eq!(Value::Item(ItemId(7)).as_item(), Some(ItemId(7)));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.as_bool(), None);
    }

    #[test]
    fn sql_comparison_with_nulls() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::text("a").sql_cmp(&Value::text("b")),
            Some(Ordering::Less)
        );
        // Mixed incompatible types are incomparable.
        assert_eq!(Value::text("a").sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn sort_order_is_total_with_nulls_last() {
        assert_eq!(Value::Null.sort_cmp(&Value::Null), Ordering::Equal);
        assert_eq!(Value::Null.sort_cmp(&Value::Int(1)), Ordering::Greater);
        assert_eq!(Value::Int(1).sort_cmp(&Value::Null), Ordering::Less);
        assert_eq!(Value::Int(2).sort_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(
            Value::Float(f64::NAN).sort_cmp(&Value::Float(1.0)),
            Ordering::Greater
        );
        assert_eq!(Value::text("a").sort_cmp(&Value::Int(1)), Ordering::Greater);
    }

    #[test]
    fn rendering() {
        assert_eq!(Value::Null.render(), "NULL");
        assert_eq!(Value::Int(-4).render(), "-4");
        assert_eq!(Value::Item(ItemId(3)).render(), "item://3");
        assert_eq!(format!("{}", Value::text("hi")), "hi");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::text("s"));
        assert_eq!(Value::from(ItemId(1)), Value::Item(ItemId(1)));
    }
}
