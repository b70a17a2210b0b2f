//! Engine internals telemetry: the store's own flight instruments.
//!
//! [`StatsSnapshot`](crate::stats::StatsSnapshot) counts *logical*
//! operations (hits, writes, evictions). This module watches the
//! *machinery* those operations run on — the quantities that explain a
//! latency spike after the fact:
//!
//! * **probe lengths** — how far probes walk the open-addressing table
//!   (sampled 1-in-[`PROBE_SAMPLE`]);
//! * **rehash events** and rows moved;
//! * **eviction sampling quality** — rounds, rows examined, and how often
//!   the sampler degenerated to exact LRU (small stores);
//! * **batch apply shapes** — calls and ops per call;
//! * **slab occupancy** — pages, cells, free cells.
//!
//! The store keeps one [`EngineSnapshot`] inside its cell and bumps it in
//! place; [`MemStore::engine_stats`](crate::MemStore::engine_stats) hands
//! out a copy with the physical sizes filled in. Rehashes, evictions and
//! batch applies additionally stream into the process-wide flight recorder
//! ([`sedna_obs::flight`]).

use sedna_obs::HistSnapshot;

/// Probe lengths are recorded once per this many probes per store.
pub const PROBE_SAMPLE: u64 = 64;

/// Point-in-time view of the engine's internals: its counters and the
/// size of its physical structures.
#[derive(Clone, Debug, Default)]
pub struct EngineSnapshot {
    /// Sampled probe lengths (each sample = slots inspected).
    pub probe_len: HistSnapshot,
    /// Table rehashes (grow or tombstone cleanup).
    pub rehashes: u64,
    /// Rows reinserted across all rehashes.
    pub rehash_rows_moved: u64,
    /// Eviction rounds run.
    pub evict_rounds: u64,
    /// Live rows examined across all eviction rounds.
    pub evict_sampled: u64,
    /// Rounds that saw every candidate (exact LRU, not an approximation).
    pub evict_exact_rounds: u64,
    /// `apply_batch` calls.
    pub batch_applies: u64,
    /// Writes submitted through `apply_batch`.
    pub batch_ops: u64,
    /// Sibling-set sizes after each row mutation (write or merge): the
    /// number of live concurrent versions the row holds. Under LWW this
    /// pegs at 1; under DVV sibling tables it measures how much causal
    /// concurrency the workload actually produces — the signal the
    /// divergence observatory reads.
    pub sibling_set: HistSnapshot,
    /// Live index entries (including data-less monitor rows).
    pub live_rows: u64,
    /// Tombstoned slots.
    pub tombstones: u64,
    /// Total index slots.
    pub table_slots: u64,
    /// Slab pages allocated.
    pub slab_pages: u64,
    /// Row cells those pages hold.
    pub slab_cells: u64,
    /// Cells on the free list (allocatable without growing).
    pub slab_free_cells: u64,
}

impl EngineSnapshot {
    /// Fraction of slab cells holding live rows (0.0 when no pages).
    pub fn slab_occupancy(&self) -> f64 {
        if self.slab_cells == 0 {
            return 0.0;
        }
        (self.slab_cells - self.slab_free_cells) as f64 / self.slab_cells as f64
    }

    /// Mean rows examined per eviction round (sample quality; the closer
    /// to the configured sample size, the more approximate the LRU).
    pub fn evict_sample_mean(&self) -> f64 {
        if self.evict_rounds == 0 {
            return 0.0;
        }
        self.evict_sampled as f64 / self.evict_rounds as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_derived_ratios() {
        let snap = EngineSnapshot {
            evict_rounds: 4,
            evict_sampled: 40,
            slab_cells: 128,
            slab_free_cells: 32,
            ..EngineSnapshot::default()
        };
        assert!((snap.evict_sample_mean() - 10.0).abs() < 1e-9);
        assert!((snap.slab_occupancy() - 0.75).abs() < 1e-9);
        let empty = EngineSnapshot::default();
        assert_eq!(empty.evict_sample_mean(), 0.0);
        assert_eq!(empty.slab_occupancy(), 0.0);
    }
}
