//! Relation schemas. A scan qualifies its table's schema
//! ([`Schema::qualified`]) and a join concatenates its inputs'
//! ([`Schema::join`]); both fail with [`QurkError::Schema`] on a name
//! they would repeat. The plan runner builds every schema this way,
//! and binding a plan is the same runner over zero-row tables, so a
//! repeated name fails a query before it posts any crowd work.

use crate::error::{QurkError, Result};
use crate::value::Value;

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueType {
    Bool,
    Int,
    Float,
    Text,
    /// Crowd-visible item reference.
    Item,
}

impl ValueType {
    /// Does `v` inhabit this type? `Null` inhabits every type.
    pub fn admits(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ValueType::Bool, Value::Bool(_))
                | (ValueType::Int, Value::Int(_))
                | (ValueType::Float, Value::Float(_))
                | (ValueType::Float, Value::Int(_))
                | (ValueType::Text, Value::Text(_))
                | (ValueType::Item, Value::Item(_))
        )
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub ty: ValueType,
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate column names.
    pub fn new(fields: &[(&str, ValueType)]) -> Self {
        let mut s = Schema::default();
        for &(name, ty) in fields {
            s.push_field(name, ty);
        }
        s
    }

    /// Append a field.
    ///
    /// # Panics
    /// Panics on duplicate column names.
    pub fn push_field(&mut self, name: &str, ty: ValueType) {
        self.try_push(name.to_owned(), ty)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Append a field, or fail if the schema has its name.
    fn try_push(&mut self, name: String, ty: ValueType) -> Result<()> {
        if self.index_of(&name).is_some() {
            return Err(QurkError::Schema(format!("duplicate column name: {name}")));
        }
        self.fields.push(Field { name, ty });
        Ok(())
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Column index by exact name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Column index by name, also accepting `alias.name` qualified form
    /// when the schema stores qualified names (after joins) or plain
    /// names (single-table).
    pub fn resolve(&self, name: &str) -> Option<usize> {
        if let Some(i) = self.index_of(name) {
            return Some(i);
        }
        // A qualified reference can match an unqualified column or vice
        // versa, as long as it is unambiguous.
        let suffix_matches: Vec<usize> = self
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.name.rsplit('.').next() == name.rsplit('.').next()
                    && (f.name.ends_with(&format!(".{name}"))
                        || name.ends_with(&format!(".{}", f.name))
                        || f.name == name
                        || f.name.rsplit('.').next() == Some(name))
            })
            .map(|(i, _)| i)
            .collect();
        if suffix_matches.len() == 1 {
            Some(suffix_matches[0])
        } else {
            None
        }
    }

    /// Concatenate two schemas (a join's output), renaming a right
    /// column whose name the left already has to `right.<name>`. Fails
    /// with [`QurkError::Schema`] on a name that collides even so (one
    /// binding joined in three times).
    pub fn join(&self, other: &Schema) -> Result<Schema> {
        let mut out = self.clone();
        for f in &other.fields {
            let name = if out.index_of(&f.name).is_some() {
                format!("right.{}", f.name)
            } else {
                f.name.clone()
            };
            out.try_push(name, f.ty)?;
        }
        Ok(out)
    }

    /// Prefix every column's base name with `alias.` (a scan under an
    /// alias). Fails with [`QurkError::Schema`] on two columns with one
    /// base name.
    pub fn qualified(&self, alias: &str) -> Result<Schema> {
        let mut out = Schema::default();
        for f in &self.fields {
            let base = f.name.rsplit('.').next().unwrap_or(&f.name);
            out.try_push(format!("{alias}.{base}"), f.ty)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let s = Schema::new(&[("name", ValueType::Text), ("img", ValueType::Item)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.index_of("img"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_names_rejected() {
        Schema::new(&[("a", ValueType::Int), ("a", ValueType::Int)]);
    }

    #[test]
    fn admits_types() {
        assert!(ValueType::Int.admits(&Value::Int(1)));
        assert!(ValueType::Float.admits(&Value::Int(1))); // widening
        assert!(!ValueType::Int.admits(&Value::Float(1.0)));
        assert!(ValueType::Text.admits(&Value::Null));
    }

    #[test]
    fn qualified_resolution() {
        let s = Schema::new(&[("c.name", ValueType::Text), ("c.img", ValueType::Item)]);
        assert_eq!(s.resolve("c.img"), Some(1));
        assert_eq!(s.resolve("img"), Some(1));
        assert_eq!(s.resolve("name"), Some(0));
    }

    #[test]
    fn ambiguous_unqualified_is_none() {
        let s = Schema::new(&[("a.img", ValueType::Item), ("b.img", ValueType::Item)]);
        assert_eq!(s.resolve("img"), None);
        assert_eq!(s.resolve("a.img"), Some(0));
    }

    #[test]
    fn join_renames_collisions() {
        let a = Schema::new(&[("img", ValueType::Item)]);
        let b = Schema::new(&[("img", ValueType::Item), ("id", ValueType::Int)]);
        let j = a.join(&b).unwrap();
        assert_eq!(j.len(), 3);
        assert_eq!(j.fields()[1].name, "right.img");
        assert_eq!(j.index_of("id"), Some(2));
    }

    #[test]
    fn qualify_replaces_prefix() {
        let s = Schema::new(&[("name", ValueType::Text)])
            .qualified("c")
            .unwrap();
        assert_eq!(s.fields()[0].name, "c.name");
        let re = s.qualified("d").unwrap();
        assert_eq!(re.fields()[0].name, "d.name");
    }
}
