//! Register values.

use std::fmt;
use std::sync::Arc;

/// Cheaply clonable byte storage backing a [`Value`].
///
/// Either a borrowed static slice (zero-copy literals) or reference-counted
/// owned bytes; cloning never copies the payload.
#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
}

impl Repr {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Repr::Static(b) => b,
            Repr::Shared(b) => b,
        }
    }
}

/// An opaque register value from the paper's domain `X`.
///
/// Values are byte strings; cloning is cheap (the storage is static or
/// reference counted), which matters because the server and simulator pass
/// values around freely. The paper's initial register content `⊥ ∉ X` is
/// represented as `Option<Value>::None` wherever it can occur.
///
/// # Example
///
/// ```
/// use faust_types::Value;
/// let v = Value::from_static(b"document rev 1");
/// assert_eq!(v.as_bytes(), b"document rev 1");
/// ```
#[derive(Clone)]
pub struct Value(Repr);

impl Value {
    /// Creates a value from owned bytes.
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        Value(Repr::Shared(bytes.into().into()))
    }

    /// Creates a value from a static byte string without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Value(Repr::Static(bytes))
    }

    /// A small helper for tests and workloads: encodes `(client, seq)` so
    /// that every generated value is unique, as the paper assumes.
    pub fn unique(client: u32, seq: u64) -> Self {
        let mut v = Vec::with_capacity(12);
        v.extend_from_slice(&client.to_be_bytes());
        v.extend_from_slice(&seq.to_be_bytes());
        Value::new(v)
    }

    /// The value's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the value is empty (zero-length — still a real value,
    /// distinct from the register's initial `⊥`).
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }

    /// Whether `self` and `other` are clones of one value: the same
    /// shared allocation, or the same static bytes. It implies equal
    /// bytes — the storage is immutable, and a live clone keeps it from
    /// being reused — without reading them; equal bytes do not imply it.
    pub fn same_allocation(&self, other: &Value) -> bool {
        match (&self.0, &other.0) {
            (Repr::Shared(a), Repr::Shared(b)) => Arc::ptr_eq(a, b),
            (Repr::Static(a), Repr::Static(b)) => std::ptr::eq(*a, *b),
            _ => false,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::from_static(b"")
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Ok(s) = std::str::from_utf8(self.as_bytes()) {
            write!(f, "Value({s:?})")
        } else {
            write!(f, "Value(0x{})", hex_prefix(self.as_bytes()))
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Ok(s) = std::str::from_utf8(self.as_bytes()) {
            f.write_str(s)
        } else {
            write!(f, "0x{}", hex_prefix(self.as_bytes()))
        }
    }
}

fn hex_prefix(bytes: &[u8]) -> String {
    bytes.iter().take(8).map(|b| format!("{b:02x}")).collect()
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::new(s.as_bytes().to_vec())
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::new(v)
    }
}

impl AsRef<[u8]> for Value {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_values_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in 0..10 {
            for s in 0..10 {
                assert!(seen.insert(Value::unique(c, s)));
            }
        }
    }

    #[test]
    fn debug_shows_utf8_when_possible() {
        assert_eq!(format!("{:?}", Value::from("hi")), "Value(\"hi\")");
    }

    #[test]
    fn display_falls_back_to_hex() {
        let v = Value::new(vec![0xff, 0x00]);
        assert_eq!(v.to_string(), "0xff00");
    }

    #[test]
    fn empty_value_is_not_bottom() {
        let v = Value::new(Vec::new());
        assert!(v.is_empty());
        assert_eq!(Some(v.clone()), Some(v)); // Some(empty) ≠ None (⊥)
    }

    #[test]
    fn same_allocation_is_identity_not_equality() {
        let a = Value::from("same");
        assert!(a.same_allocation(&a.clone()));
        assert!(!a.same_allocation(&Value::from("same")));
        let s = Value::from_static(b"same");
        assert!(s.same_allocation(&s.clone()));
        assert!(!s.same_allocation(&a) && !a.same_allocation(&s));
        assert_eq!(a, s);
    }

    #[test]
    fn static_and_shared_storage_compare_equal() {
        let a = Value::from_static(b"same");
        let b = Value::new(b"same".to_vec());
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }
}
