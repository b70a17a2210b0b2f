//! Store-wide counters (memcached-style `STATS`).

/// Monotonic operation counters. The store bumps one copy in place;
/// [`MemStore::stats`](crate::MemStore::stats) returns it by value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Reads that found the key.
    pub hits: u64,
    /// Reads that missed.
    pub misses: u64,
    /// `write_latest` calls applied.
    pub writes_latest: u64,
    /// `write_all` calls applied.
    pub writes_all: u64,
    /// Writes rejected as outdated.
    pub outdated: u64,
    /// Rows evicted under memory pressure.
    pub evictions: u64,
    /// Rows explicitly removed.
    pub removals: u64,
}
