//! String interning for element and attribute names.

use std::collections::HashMap;
use std::fmt;

/// Handle to an interned name. Cheap to copy, compare and hash; resolve the
/// text with [`Interner::resolve`] (or [`crate::Document::name_text`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub(crate) u32);

impl NameId {
    /// Raw index, usable as a dense array key.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "name#{}", self.0)
    }
}

/// A deduplicating store of name strings.
///
/// XML documents repeat a small vocabulary of tag names across millions of
/// nodes; storing a `NameId` per node instead of a `String` keeps nodes small
/// (see the type-size guidance this workspace follows) and makes the
/// name-index lookups used by the XPath evaluators integer operations.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    lookup: HashMap<Box<str>, NameId>,
    names: Vec<Box<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing id if already present.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.lookup.get(name) {
            return id;
        }
        let id = NameId(u32::try_from(self.names.len()).expect("more than u32::MAX names"));
        let boxed: Box<str> = name.into();
        self.names.push(boxed.clone());
        self.lookup.insert(boxed, id);
        id
    }

    /// Returns the id of `name` if it has been interned.
    pub fn get(&self, name: &str) -> Option<NameId> {
        self.lookup.get(name).copied()
    }

    /// Resolves an id to its text.
    ///
    /// # Panics
    /// Panics if `id` was produced by a different interner.
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, text)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (NameId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (NameId(i as u32), s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups() {
        let mut i = Interner::new();
        let a = i.intern("book");
        let b = i.intern("title");
        let a2 = i.intern("book");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a), "book");
        assert_eq!(i.resolve(b), "title");
    }

    #[test]
    fn get_without_interning() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let id = i.intern("x");
        assert_eq!(i.get("x"), Some(id));
    }

    #[test]
    fn iter_in_order() {
        let mut i = Interner::new();
        let ids: Vec<_> = ["a", "b", "c"].iter().map(|s| i.intern(s)).collect();
        let seen: Vec<_> = i.iter().collect();
        assert_eq!(seen.len(), 3);
        for (k, (id, text)) in seen.iter().enumerate() {
            assert_eq!(*id, ids[k]);
            assert_eq!(*text, ["a", "b", "c"][k]);
        }
    }
}
