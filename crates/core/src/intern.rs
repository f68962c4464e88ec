//! String interning: `Text` values as u32 handles.
//!
//! Every distinct text value in the system is stored exactly once in a
//! process-wide append-only [`SymbolTable`]; relations, filters, join
//! keys, and Task Cache spec keys carry a 4-byte [`ValueId`] handle
//! instead of a heap `String`. Because the table deduplicates on
//! insert, two handles are equal **iff** their strings are equal, so
//! equality and hashing become integer ops on the hot paths, and
//! [`Value`](crate::Value) becomes a 16-byte `Copy` type — a row copy
//! is a flat `memcpy`, with no per-cell allocation.
//!
//! Interned strings are leaked (the table is append-only and lives for
//! the process), which is what lets [`IStr::as_str`] hand out
//! `&'static str` without holding a lock across the call. The
//! workloads here intern a bounded vocabulary (celebrity names, movie
//! titles, predicate strings), so the leak is the point: it is the
//! arena.
// lint:hot-path

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// Index of an interned string in the process-wide [`SymbolTable`].
///
/// Ids are assigned densely in first-intern order, so they are
/// deterministic for a deterministic execution — important because
/// replayed traces must be byte-identical to recorded ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Append-only deduplicating string table.
///
/// Usually used through the process-wide instance via [`IStr`], but
/// constructible standalone for tests and tooling.
#[derive(Default)]
pub struct SymbolTable {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

impl SymbolTable {
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Intern `s`, returning the id of its canonical copy.
    pub fn intern(&mut self, s: &str) -> ValueId {
        if let Some(&id) = self.map.get(s) {
            return ValueId(id);
        }
        let canonical: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(self.strings.len()).expect("symbol table overflow");
        self.strings.push(canonical);
        self.map.insert(canonical, id);
        ValueId(id)
    }

    /// Look up an id without interning. `None` if `s` was never seen.
    pub fn lookup(&self, s: &str) -> Option<ValueId> {
        self.map.get(s).map(|&id| ValueId(id))
    }

    /// The canonical string for `id`. Panics on a foreign id.
    pub fn resolve(&self, id: ValueId) -> &'static str {
        self.strings[id.0 as usize]
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

fn global() -> &'static RwLock<SymbolTable> {
    // lint:allow(global-state): unbounded; see ROADMAP bounded-memory item
    static TABLE: OnceLock<RwLock<SymbolTable>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(SymbolTable::new()))
}

/// An interned string: a `Copy` handle into the process-wide table.
///
/// Equality and hashing are integer ops on the id (dedup makes id
/// equality equivalent to string equality). Ordering compares string
/// *content* so SQL `ORDER BY` semantics are unchanged by interning.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct IStr(ValueId);

impl IStr {
    /// Intern `s` in the process-wide table.
    pub fn new(s: &str) -> IStr {
        // Fast path: already interned — a shared read lock suffices.
        {
            let table = global().read().unwrap_or_else(|e| e.into_inner());
            if let Some(id) = table.lookup(s) {
                return IStr(id);
            }
        }
        let mut table = global().write().unwrap_or_else(|e| e.into_inner());
        IStr(table.intern(s))
    }

    pub fn id(self) -> ValueId {
        self.0
    }

    /// The canonical string. `'static` because interned strings live
    /// for the process — no lock is held after this returns.
    pub fn as_str(self) -> &'static str {
        global()
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .resolve(self.0)
    }
}

impl PartialOrd for IStr {
    fn partial_cmp(&self, other: &IStr) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IStr {
    fn cmp(&self, other: &IStr) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl std::ops::Deref for IStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

// Debug renders like `&str` (`"alice"`, not `IStr(ValueId(3))`) so
// `Value::Text(..)` debug output — which feeds golden transcripts and
// spec-key derivation — is byte-identical to the pre-interning layout.
impl std::fmt::Debug for IStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl std::fmt::Display for IStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> IStr {
        IStr::new(s)
    }
}

impl From<&String> for IStr {
    fn from(s: &String) -> IStr {
        IStr::new(s)
    }
}

impl From<String> for IStr {
    fn from(s: String) -> IStr {
        IStr::new(&s)
    }
}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for IStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<IStr> for str {
    fn eq(&self, other: &IStr) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<IStr> for String {
    fn eq(&self, other: &IStr) -> bool {
        self.as_str() == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_makes_id_equality_string_equality() {
        let a = IStr::new("alice");
        let b = IStr::new(&format!("ali{}", "ce"));
        let c = IStr::new("bob");
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "alice");
    }

    #[test]
    fn ordering_is_by_content_not_id() {
        // Intern in reverse lexicographic order: ids go z < a but
        // content ordering must still say "a" < "z".
        let z = IStr::new("zzz-intern-order");
        let a = IStr::new("aaa-intern-order");
        assert!(a < z);
        assert!(z > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn debug_matches_str_debug() {
        let s = IStr::new("with \"quotes\"");
        assert_eq!(format!("{s:?}"), format!("{:?}", "with \"quotes\""));
        assert_eq!(format!("{s}"), "with \"quotes\"");
    }

    #[test]
    fn mixed_type_equality() {
        let s = IStr::new("mixed");
        let owned = String::from("mixed");
        assert!(s == "mixed");
        assert!(s == owned);
        assert!(*"mixed" == s);
        assert!(owned == s);
        assert_eq!(&*s, "mixed");
        assert_eq!(s.as_ref(), "mixed");
    }

    #[test]
    fn standalone_table() {
        let mut t = SymbolTable::new();
        assert!(t.is_empty());
        let a = t.intern("x");
        let b = t.intern("y");
        assert_eq!(t.intern("x"), a);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "x");
        assert_eq!(t.lookup("y"), Some(b));
        assert_eq!(t.lookup("z"), None);
    }
}
