//! Names and fresh-name supplies.
//!
//! System F_J is an explicitly scoped calculus; every binder introduces a
//! [`Name`]. Following GHC, a name is a human-readable base string paired
//! with a machine *unique*. Two names are equal exactly when their uniques
//! are equal — the text exists only for printing. Transformations that need
//! fresh binders draw them from a [`NameSupply`].

use std::fmt;
use std::sync::Arc;

/// A term variable, type variable, or join-point label.
///
/// Equality, ordering and hashing are by unique id only; the textual base is
/// carried along for display. Cloning is cheap (`Arc<str>` + `u64`).
///
/// ```
/// use fj_ast::{Name, NameSupply};
/// let mut supply = NameSupply::new();
/// let x = supply.fresh("x");
/// let y = supply.fresh("x");
/// assert_ne!(x, y); // same text, different uniques
/// ```
#[derive(Clone)]
pub struct Name {
    text: Arc<str>,
    id: u64,
}

impl Name {
    /// Create a name with an explicit unique. Prefer [`NameSupply::fresh`];
    /// this constructor exists for deterministic prelude/builtin names.
    pub fn with_id(text: &str, id: u64) -> Self {
        Name {
            text: Arc::from(text),
            id,
        }
    }

    /// The human-readable base string.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The unique id that defines this name's identity.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{}", self.text, self.id)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A monotonically increasing source of fresh [`Name`]s.
///
/// Program-level supplies start at a large offset so they never collide with
/// the reserved ids used by the prelude datatype environment.
#[derive(Debug, Clone)]
pub struct NameSupply {
    next: u64,
}

/// First unique handed out by [`NameSupply::new`]. Ids below this value are
/// reserved for builtins (prelude type variables and wired-in names).
pub const FIRST_PROGRAM_ID: u64 = 10_000;

impl NameSupply {
    /// A supply whose names never collide with prelude/builtin names.
    pub fn new() -> Self {
        NameSupply {
            next: FIRST_PROGRAM_ID,
        }
    }

    /// A supply starting at an explicit id (used internally by the prelude).
    pub fn starting_at(next: u64) -> Self {
        NameSupply { next }
    }

    /// Produce a fresh name with the given base text.
    pub fn fresh(&mut self, text: &str) -> Name {
        let id = self.next;
        self.next += 1;
        Name {
            text: Arc::from(text),
            id,
        }
    }

    /// Produce a fresh name reusing another name's base text.
    ///
    /// The base text is aliased, not copied — this runs on the machine's
    /// hot path (every heap binding renames its binder), so it must not
    /// allocate for the string.
    pub fn fresh_like(&mut self, like: &Name) -> Name {
        let id = self.next;
        self.next += 1;
        Name {
            text: Arc::clone(&like.text),
            id,
        }
    }

    /// The next id this supply would hand out (for diagnostics).
    pub fn peek(&self) -> u64 {
        self.next
    }

    /// Advance the supply so it will never hand out an id below `id`.
    ///
    /// Used when a term produced under *another* supply is adopted (e.g. a
    /// hit in the optimization cache returns a term optimized for an
    /// earlier request): advancing past that supply's high-water mark
    /// guarantees the adopter's future fresh names cannot collide with any
    /// name inside the adopted term.
    pub fn advance_past(&mut self, id: u64) {
        self.next = self.next.max(id);
    }
}

impl Default for NameSupply {
    fn default() -> Self {
        Self::new()
    }
}

/// A global identifier that is matched *by spelling*: data constructor and
/// type constructor names (`Just`, `Maybe`, …).
///
/// Unlike [`Name`]s these are never α-renamed; they are keys into the
/// [`DataEnv`](crate::DataEnv).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ident(Arc<str>);

impl Ident {
    /// Create an identifier from its spelling.
    pub fn new(text: &str) -> Self {
        Ident(Arc::from(text))
    }

    /// The spelling.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        Ident::new(s)
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fresh_names_are_distinct() {
        let mut s = NameSupply::new();
        let names: Vec<Name> = (0..100).map(|_| s.fresh("v")).collect();
        let set: HashSet<&Name> = names.iter().collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn name_equality_ignores_text() {
        let a = Name::with_id("foo", 7);
        let b = Name::with_id("bar", 7);
        assert_eq!(a, b);
    }

    #[test]
    fn program_supply_avoids_reserved_range() {
        let mut s = NameSupply::new();
        assert!(s.fresh("x").id() >= FIRST_PROGRAM_ID);
    }

    #[test]
    fn fresh_like_keeps_text() {
        let mut s = NameSupply::new();
        let x = s.fresh("loop");
        let y = s.fresh_like(&x);
        assert_eq!(y.text(), "loop");
        assert_ne!(x, y);
    }

    /// `fresh_like` aliases its source's text instead of copying it.
    #[test]
    fn interning_shares_storage() {
        let mut s = NameSupply::new();
        let x = s.fresh("loop");
        let y = s.fresh_like(&x);
        assert!(Arc::ptr_eq(&x.text, &y.text));
    }

    #[test]
    fn ident_round_trip() {
        let i = Ident::new("Just");
        assert_eq!(i.as_str(), "Just");
        assert_eq!(i, Ident::from("Just"));
        assert_eq!(i.to_string(), "Just");
    }

    #[test]
    fn names_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Name>();
        assert_send_sync::<Ident>();
    }

    /// An `Ident` minted on another thread has its own allocation, so
    /// equality and hashing must go by spelling.
    #[test]
    fn ident_equality_and_hashing_cross_thread() {
        let remote: Vec<Ident> =
            std::thread::spawn(|| vec![Ident::new("Just"), Ident::new("Cons"), Ident::new("Just")])
                .join()
                .unwrap();
        let local = Ident::new("Just");
        // No shared allocation…
        assert!(!Arc::ptr_eq(&remote[0].0, &local.0));
        // …but equality, ordering, and hash-based lookup are unaffected.
        assert_eq!(remote[0], local);
        assert_eq!(remote[0].cmp(&local), std::cmp::Ordering::Equal);
        assert_ne!(remote[1], local);
        let mut table: std::collections::HashMap<Ident, u32> = std::collections::HashMap::new();
        table.insert(local, 7);
        assert_eq!(table.get(&remote[0]), Some(&7));
        assert_eq!(table.get(&remote[2]), Some(&7));
        assert_eq!(table.get(&remote[1]), None);
    }

    /// `Name` equality is by unique id; the text is display-only. A name
    /// that crosses a thread boundary, or is rebuilt there from its id,
    /// must keep behaving as the same binder.
    #[test]
    fn name_identity_survives_thread_crossing() {
        let mut s = NameSupply::new();
        let x = s.fresh("x");
        let sent = x.clone();
        let back = std::thread::spawn(move || {
            // Rebuild a same-id name on the remote thread and hand both
            // home.
            (sent.clone(), Name::with_id("x", sent.id()))
        })
        .join()
        .unwrap();
        assert_eq!(back.0, x);
        assert_eq!(back.1, x);
        assert_eq!(back.1.text(), x.text());
        let mut set = HashSet::new();
        set.insert(x);
        assert!(set.contains(&back.0));
        assert!(set.contains(&back.1));
    }

    #[test]
    fn advance_past_never_rewinds() {
        let mut s = NameSupply::new();
        let before = s.peek();
        s.advance_past(before - 1);
        assert_eq!(s.peek(), before, "advance_past must not rewind");
        s.advance_past(before + 500);
        assert_eq!(s.peek(), before + 500);
        assert_eq!(s.fresh("z").id(), before + 500);
    }
}
