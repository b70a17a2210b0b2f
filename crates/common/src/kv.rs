//! Keys, values and the hierarchical key space.
//!
//! Sedna stores flat key-value pairs but "the key was extended implicitly by
//! Sedna to provide hierarchical data space" (Sec. II-B): applications can
//! address a single *key*, a *table* (a collection of keys) or a *dataset*
//! (a collection of tables). [`KeyPath`] captures that three-level addressing
//! and encodes/decodes it into the flat [`Key`] representation the storage
//! layer uses, so monitors can be registered at any of the three levels.

use std::borrow::Borrow;
use std::fmt;

use crate::buf::Buf;
use crate::hashing::xxhash64;

/// Separator between the dataset / table / key components of a flat key.
///
/// `0x1f` (ASCII unit separator) never occurs in the paper's workloads
/// (printable ASCII keys such as `test-00000000000000`) and is rejected in
/// user-supplied components by [`KeyPath::new`].
pub const KEY_SEPARATOR: u8 = 0x1f;

/// An opaque storage key. Cheap to clone: one pointer to refcounted bytes
/// ([`Buf`]), compared, ordered and hashed as its byte slice.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(Buf);

impl Key {
    /// Builds a key from raw bytes.
    pub fn from_bytes(bytes: impl Into<Buf>) -> Self {
        Key(bytes.into())
    }

    /// The raw bytes of this key.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the key is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The 64-bit hash the partitioning layer uses to place this key on the
    /// ring. Stable across processes and platforms (xxHash64, seed 0).
    #[inline]
    pub fn ring_hash(&self) -> u64 {
        xxhash64(&self.0, 0)
    }
}

const _: () = assert!(std::mem::size_of::<Key>() == 8);
const _: () = assert!(std::mem::size_of::<Option<Key>>() == 8);
const _: () = assert!(std::mem::size_of::<Value>() == 8);

impl Borrow<[u8]> for Key {
    #[inline]
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(s) => write!(f, "Key({s:?})"),
            Err(_) => write!(f, "Key(0x{})", hex(&self.0)),
        }
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key(Buf::from(s))
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key(Buf::from(s))
    }
}

impl From<Vec<u8>> for Key {
    fn from(v: Vec<u8>) -> Self {
        Key(Buf::from(v))
    }
}

/// An opaque stored value. Cheap to clone: one pointer to refcounted bytes
/// ([`Buf`]).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Value(Buf);

impl Value {
    /// Builds a value from raw bytes.
    pub fn from_bytes(bytes: impl Into<Buf>) -> Self {
        Value(bytes.into())
    }

    /// The raw bytes of this value.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the value is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(s) if s.len() <= 64 => write!(f, "Value({s:?})"),
            Ok(s) => write!(f, "Value({:?}… {} bytes)", &s[..64], self.0.len()),
            Err(_) => write!(
                f,
                "Value(0x{}… {} bytes)",
                hex(&self.0[..self.0.len().min(16)]),
                self.0.len()
            ),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value(Buf::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value(Buf::from(s))
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value(Buf::from(v))
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A hierarchical address: `dataset / table / key`.
///
/// The storage engine only sees the flat encoding; the hierarchy exists so
/// triggers can monitor whole tables or datasets (Sec. IV-C: "the least unit
/// programs can monitor would be a key-value pair, and they also can monitor
/// Tables … or … a Dataset").
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct KeyPath {
    dataset: String,
    table: String,
    key: String,
}

impl KeyPath {
    /// Creates a path. Returns `None` when any component is empty or
    /// contains the reserved separator byte.
    pub fn new(
        dataset: impl Into<String>,
        table: impl Into<String>,
        key: impl Into<String>,
    ) -> Option<Self> {
        let (dataset, table, key) = (dataset.into(), table.into(), key.into());
        for part in [&dataset, &table, &key] {
            if part.is_empty() || part.bytes().any(|b| b == KEY_SEPARATOR) {
                return None;
            }
        }
        Some(KeyPath {
            dataset,
            table,
            key,
        })
    }

    /// The dataset component.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The table component.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The key component.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Encodes into the flat key representation used by the storage layer.
    pub fn encode(&self) -> Key {
        let mut buf =
            Vec::with_capacity(self.dataset.len() + self.table.len() + self.key.len() + 2);
        buf.extend_from_slice(self.dataset.as_bytes());
        buf.push(KEY_SEPARATOR);
        buf.extend_from_slice(self.table.as_bytes());
        buf.push(KEY_SEPARATOR);
        buf.extend_from_slice(self.key.as_bytes());
        Key::from_bytes(buf)
    }

    /// Decodes a flat key back into its components. Returns `None` when the
    /// key was not produced by [`KeyPath::encode`].
    pub fn decode(key: &Key) -> Option<KeyPath> {
        let raw = key.as_bytes();
        let mut parts = raw.split(|&b| b == KEY_SEPARATOR);
        let dataset = std::str::from_utf8(parts.next()?).ok()?;
        let table = std::str::from_utf8(parts.next()?).ok()?;
        let key = std::str::from_utf8(parts.next()?).ok()?;
        if parts.next().is_some() {
            return None;
        }
        KeyPath::new(dataset, table, key)
    }

    /// The flat-key prefix shared by every key in this path's table.
    ///
    /// Table-level monitors match on this prefix.
    pub fn table_prefix(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.dataset.len() + self.table.len() + 2);
        buf.extend_from_slice(self.dataset.as_bytes());
        buf.push(KEY_SEPARATOR);
        buf.extend_from_slice(self.table.as_bytes());
        buf.push(KEY_SEPARATOR);
        buf
    }

    /// The flat-key prefix shared by every key in this path's dataset.
    ///
    /// Dataset-level monitors match on this prefix.
    pub fn dataset_prefix(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.dataset.len() + 1);
        buf.extend_from_slice(self.dataset.as_bytes());
        buf.push(KEY_SEPARATOR);
        buf
    }

    /// Builds the table-level prefix for a `(dataset, table)` pair without
    /// constructing a full path.
    pub fn prefix_for_table(dataset: &str, table: &str) -> Vec<u8> {
        let mut buf = Vec::with_capacity(dataset.len() + table.len() + 2);
        buf.extend_from_slice(dataset.as_bytes());
        buf.push(KEY_SEPARATOR);
        buf.extend_from_slice(table.as_bytes());
        buf.push(KEY_SEPARATOR);
        buf
    }

    /// Builds the dataset-level prefix for a dataset name.
    pub fn prefix_for_dataset(dataset: &str) -> Vec<u8> {
        let mut buf = Vec::with_capacity(dataset.len() + 1);
        buf.extend_from_slice(dataset.as_bytes());
        buf.push(KEY_SEPARATOR);
        buf
    }
}

impl fmt::Display for KeyPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.dataset, self.table, self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_from_str_and_bytes_agree() {
        let a = Key::from("hello");
        let b = Key::from_bytes(b"hello".to_vec());
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
    }

    #[test]
    fn map_lookups_by_key_and_by_bytes_agree() {
        use std::collections::{BTreeMap, HashMap};
        let keys: Vec<Key> = (0..100).map(|i| Key::from(format!("k-{i}"))).collect();
        let hashed: HashMap<Key, usize> = keys.iter().cloned().zip(0..).collect();
        let ordered: BTreeMap<Key, usize> = keys.iter().cloned().zip(0..).collect();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(hashed.get(key), Some(&i));
            assert_eq!(hashed.get(key.as_bytes()), Some(&i));
            assert_eq!(ordered.get(key.as_bytes()), Some(&i));
        }
        assert_eq!(hashed.get(&b"k-100"[..]), None);
        // Keys order as their bytes do.
        let mut by_bytes: Vec<&[u8]> = keys.iter().map(Key::as_bytes).collect();
        by_bytes.sort();
        let by_key: Vec<&[u8]> = ordered.keys().map(Key::as_bytes).collect();
        assert_eq!(by_key, by_bytes);
    }

    #[test]
    fn ring_hash_is_stable() {
        let k = Key::from("test-00000000000000");
        // Pin the value: partition placement must not drift across builds.
        assert_eq!(k.ring_hash(), xxhash64(b"test-00000000000000", 0));
        assert_eq!(k.ring_hash(), k.clone().ring_hash());
    }

    #[test]
    fn value_debug_truncates_long_text() {
        let v = Value::from("x".repeat(200));
        let dbg = format!("{v:?}");
        assert!(dbg.contains("200 bytes"));
    }

    #[test]
    fn keypath_roundtrip() {
        let p = KeyPath::new("tweets", "messages", "msg-42").unwrap();
        let flat = p.encode();
        let back = KeyPath::decode(&flat).unwrap();
        assert_eq!(p, back);
        assert_eq!(p.to_string(), "tweets/messages/msg-42");
    }

    #[test]
    fn keypath_rejects_bad_components() {
        assert!(KeyPath::new("", "t", "k").is_none());
        assert!(KeyPath::new("d", "", "k").is_none());
        assert!(KeyPath::new("d", "t", "").is_none());
        let bad = format!("a{}b", KEY_SEPARATOR as char);
        assert!(KeyPath::new(bad, "t", "k").is_none());
    }

    #[test]
    fn keypath_decode_rejects_flat_keys() {
        assert!(KeyPath::decode(&Key::from("plain-key")).is_none());
        // Four components is also invalid.
        let raw = [
            b"a".as_slice(),
            &[KEY_SEPARATOR],
            b"b",
            &[KEY_SEPARATOR],
            b"c",
            &[KEY_SEPARATOR],
            b"d",
        ]
        .concat();
        assert!(KeyPath::decode(&Key::from_bytes(raw)).is_none());
    }

    #[test]
    fn prefixes_nest_correctly() {
        let p = KeyPath::new("ds", "tab", "k1").unwrap();
        let flat = p.encode();
        assert!(flat.as_bytes().starts_with(&p.table_prefix()));
        assert!(flat.as_bytes().starts_with(&p.dataset_prefix()));
        assert!(p.table_prefix().starts_with(&p.dataset_prefix()));
        assert_eq!(p.table_prefix(), KeyPath::prefix_for_table("ds", "tab"));
        assert_eq!(p.dataset_prefix(), KeyPath::prefix_for_dataset("ds"));
    }

    #[test]
    fn sibling_tables_do_not_share_table_prefix() {
        let a = KeyPath::new("ds", "tab", "k").unwrap();
        let b = KeyPath::new("ds", "table2", "k").unwrap();
        assert!(!b.encode().as_bytes().starts_with(&a.table_prefix()));
    }
}
