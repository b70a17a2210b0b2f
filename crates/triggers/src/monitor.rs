//! Monitor scopes: what a trigger watches.

use sedna_common::{Key, KeyPath};

/// What a monitor covers (Sec. IV-C: a key-value pair, a Table, or a
/// Dataset).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MonitorScope {
    /// One exact key (flat encoding; may be a [`KeyPath`] encoding or any
    /// raw key).
    Key(Key),
    /// Every key of one table.
    Table {
        /// Dataset name.
        dataset: String,
        /// Table name.
        table: String,
    },
    /// Every key of every table of one dataset.
    Dataset {
        /// Dataset name.
        dataset: String,
    },
}

impl MonitorScope {
    /// Convenience: scope over a [`KeyPath`]'s exact key.
    pub fn key_path(path: &KeyPath) -> Self {
        MonitorScope::Key(path.encode())
    }

    /// True when a change to `key` falls inside this scope.
    pub fn matches(&self, key: &Key) -> bool {
        match self.prefix() {
            Some(prefix) => key.as_bytes().starts_with(&prefix),
            None => self.exact_key() == Some(key),
        }
    }

    /// The key prefix a table or dataset scope watches; `None` for an
    /// exact key.
    pub fn prefix(&self) -> Option<Vec<u8>> {
        match self {
            MonitorScope::Key(_) => None,
            MonitorScope::Table { dataset, table } => {
                Some(KeyPath::prefix_for_table(dataset, table))
            }
            MonitorScope::Dataset { dataset } => Some(KeyPath::prefix_for_dataset(dataset)),
        }
    }

    /// True for exact-key scopes (which are additionally registered into
    /// the row's `Monitors` column, per Fig. 5).
    pub fn exact_key(&self) -> Option<&Key> {
        match self {
            MonitorScope::Key(k) => Some(k),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(d: &str, t: &str, k: &str) -> Key {
        KeyPath::new(d, t, k).unwrap().encode()
    }

    #[test]
    fn key_scope_matches_only_itself() {
        let s = MonitorScope::Key(Key::from("exact"));
        assert!(s.matches(&Key::from("exact")));
        assert!(!s.matches(&Key::from("exact2")));
        assert_eq!(s.exact_key(), Some(&Key::from("exact")));
    }

    #[test]
    fn table_scope_matches_keys_in_table() {
        let s = MonitorScope::Table {
            dataset: "ds".into(),
            table: "t1".into(),
        };
        assert!(s.matches(&kp("ds", "t1", "a")));
        assert!(s.matches(&kp("ds", "t1", "b")));
        assert!(!s.matches(&kp("ds", "t2", "a")));
        assert!(!s.matches(&kp("ds2", "t1", "a")));
        assert!(!s.matches(&Key::from("flat-key")));
        assert!(s.exact_key().is_none());
    }

    #[test]
    fn dataset_scope_matches_all_its_tables() {
        let s = MonitorScope::Dataset {
            dataset: "ds".into(),
        };
        assert!(s.matches(&kp("ds", "t1", "a")));
        assert!(s.matches(&kp("ds", "t2", "z")));
        assert!(!s.matches(&kp("other", "t1", "a")));
    }

    #[test]
    fn table_name_prefix_confusion_is_avoided() {
        // Table "t1" must not match table "t10" keys and vice versa.
        let s = MonitorScope::Table {
            dataset: "ds".into(),
            table: "t1".into(),
        };
        assert!(!s.matches(&kp("ds", "t10", "a")));
        let d = MonitorScope::Dataset {
            dataset: "ds".into(),
        };
        assert!(!d.matches(&kp("dsx", "t", "a")));
    }

    #[test]
    fn key_path_constructor() {
        let p = KeyPath::new("d", "t", "k").unwrap();
        let s = MonitorScope::key_path(&p);
        assert!(s.matches(&p.encode()));
    }
}
