//! The trigger engine: dirty-record dispatch, flow control, job lifecycle,
//! and static trigger-circle analysis.
//!
//! The engine belongs to the node that owns the swept store and runs on
//! that node's thread, so it is plain data: mutating methods take
//! `&mut self`, and no lock or atomic stands between a sweep and its jobs.

use std::collections::HashMap;

use sedna_common::time::Micros;
use sedna_common::Key;
use sedna_memstore::{DirtyRecord, MemStore};

use crate::job::{JobId, JobSpec};
use crate::monitor::MonitorScope;
use crate::sink::Emits;

/// Counters for one scan pass (and cumulatively via [`TriggerEngine`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Dirty records swept.
    pub scanned: u64,
    /// Actions executed.
    pub fired: u64,
    /// Changes rejected by a filter's `assert`.
    pub filtered_out: u64,
    /// Changes discarded by flow control (inside the trigger interval).
    pub discarded: u64,
    /// Result writes emitted by actions.
    pub emitted: u64,
}

impl ScanStats {
    fn add(&mut self, other: &ScanStats) {
        self.scanned += other.scanned;
        self.fired += other.fired;
        self.filtered_out += other.filtered_out;
        self.discarded += other.discarded;
        self.emitted += other.emitted;
    }
}

struct JobRuntime {
    spec: JobSpec,
    registered_at: Micros,
    /// Last firing per key, holding only firings inside the trigger
    /// interval (older ones cannot suppress anything and are pruned).
    last_fired: HashMap<Key, Micros>,
}

impl JobRuntime {
    fn is_expired(&self, now: Micros) -> bool {
        self.spec
            .timeout_micros
            .is_some_and(|timeout| now.saturating_sub(self.registered_at) > timeout)
    }
}

/// The dispatcher. Owns registered jobs; driven by the store's owner
/// through [`TriggerEngine::scan_once`].
pub struct TriggerEngine {
    jobs: HashMap<JobId, JobRuntime>,
    next_job: u32,
    next_monitor: u32,
    /// monitor id → owning job (for row-column bookkeeping).
    monitor_owners: HashMap<u32, JobId>,
    totals: ScanStats,
}

impl Default for TriggerEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl TriggerEngine {
    /// An empty engine.
    pub fn new() -> Self {
        TriggerEngine {
            jobs: HashMap::new(),
            next_job: 1,
            next_monitor: 1,
            monitor_owners: HashMap::new(),
            totals: ScanStats::default(),
        }
    }

    /// Registers a job: exact-key hooks are written into the rows'
    /// `Monitors` columns (Fig. 5); table and dataset hooks join the
    /// store's watch set. Only writes from now on fire it. `now` is the
    /// registration instant (starts the timeout clock).
    pub fn register_job(&mut self, store: &MemStore, spec: JobSpec, now: Micros) -> JobId {
        let id = JobId(self.next_job);
        self.next_job += 1;
        for scope in &spec.inputs {
            if let Some(key) = scope.exact_key() {
                let mid = self.next_monitor;
                self.next_monitor += 1;
                self.monitor_owners.insert(mid, id);
                store.add_monitor(key, mid);
            }
        }
        let runtime = JobRuntime {
            spec,
            registered_at: now,
            last_fired: HashMap::new(),
        };
        self.jobs.insert(id, runtime);
        self.install_watch_set(store);
        id
    }

    /// Unregisters a job, removes its row-column monitors and drops its
    /// prefixes from the store's watch set.
    pub fn unregister_job(&mut self, store: &MemStore, id: JobId) {
        let Some(runtime) = self.jobs.remove(&id) else {
            return;
        };
        let mine: Vec<u32> = self
            .monitor_owners
            .iter()
            .filter(|(_, owner)| **owner == id)
            .map(|(m, _)| *m)
            .collect();
        for mid in mine {
            self.monitor_owners.remove(&mid);
            for scope in &runtime.spec.inputs {
                if let Some(key) = scope.exact_key() {
                    store.remove_monitor(key, mid);
                }
            }
        }
        self.install_watch_set(store);
    }

    /// Makes the store's watch set the union of the registered jobs' table
    /// and dataset prefixes: the rows a write must dirty beyond the
    /// monitored ones. With no job, no write dirties a row.
    pub fn install_watch_set(&self, store: &MemStore) {
        let mut prefixes: Vec<Vec<u8>> = self
            .jobs
            .values()
            .flat_map(|job| job.spec.inputs.iter().filter_map(MonitorScope::prefix))
            .collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        store.set_watched(prefixes);
    }

    /// Number of live (non-expired) jobs.
    pub fn live_jobs(&self, now: Micros) -> usize {
        self.jobs.values().filter(|j| !j.is_expired(now)).count()
    }

    /// Cumulative stats over all scans.
    pub fn totals(&self) -> ScanStats {
        self.totals
    }

    /// One full sweep: scan the store's dirty rows and dispatch them,
    /// appending the actions' writes to `out`.
    pub fn scan_once(&mut self, store: &MemStore, out: &mut Emits, now: Micros) -> ScanStats {
        let records = store.scan_dirty();
        self.dispatch(store, &records, out, now)
    }

    /// Dispatches already-collected dirty records of `store` to matching
    /// jobs; every accepted action writes into `out`, in dispatch order.
    /// Jobs past their timeout are unregistered first, so they fire
    /// nothing and stop watching rows.
    pub fn dispatch(
        &mut self,
        store: &MemStore,
        records: &[DirtyRecord],
        out: &mut Emits,
        now: Micros,
    ) -> ScanStats {
        let expired: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, job)| job.is_expired(now))
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            self.unregister_job(store, id);
        }
        let mut stats = ScanStats {
            scanned: records.len() as u64,
            ..Default::default()
        };
        // Forget firings older than the interval: they can no longer
        // suppress a change, so what is left is exactly the flow-control
        // window and the map stays bounded by it.
        for job in self.jobs.values_mut() {
            let interval = job.spec.trigger_interval_micros;
            job.last_fired
                .retain(|_, t| now.saturating_sub(*t) < interval);
        }
        for record in records {
            for job in self.jobs.values_mut() {
                if !job.spec.inputs.iter().any(|s| s.matches(&record.key)) {
                    continue;
                }
                // Flow control: discard changes inside the interval
                // (Sec. IV-B — "the most fresh data matters most"). Every
                // remembered firing is inside it, see the pruning above.
                if job.spec.trigger_interval_micros > 0 {
                    if job.last_fired.contains_key(&record.key) {
                        stats.discarded += 1;
                        continue;
                    }
                    job.last_fired.insert(record.key.clone(), now);
                }
                if !job
                    .spec
                    .filter
                    .assert(&record.key, &record.old, &record.new)
                {
                    stats.filtered_out += 1;
                    continue;
                }
                let before = out.writes.len();
                job.spec.action.action(&record.key, &record.new, out);
                stats.fired += 1;
                stats.emitted += (out.writes.len() - before) as u64;
            }
        }
        self.totals.add(&stats);
        stats
    }

    /// Static trigger-circle detection over registered jobs' declared
    /// outputs (see [`detect_cycles`]).
    pub fn check_cycles(&self) -> Vec<Vec<JobId>> {
        let specs: Vec<(JobId, Vec<MonitorScope>, Vec<MonitorScope>)> = self
            .jobs
            .iter()
            .map(|(id, j)| (*id, j.spec.inputs.clone(), j.spec.declared_outputs.clone()))
            .collect();
        detect_cycles_impl(&specs)
    }
}

/// True when writes inside `out` can land inside `input`.
fn scopes_overlap(out: &MonitorScope, input: &MonitorScope) -> bool {
    match (out, input) {
        (MonitorScope::Key(a), _) => input.matches(a),
        (_, MonitorScope::Key(b)) => out.matches(b),
        (
            MonitorScope::Table {
                dataset: d1,
                table: t1,
            },
            MonitorScope::Table {
                dataset: d2,
                table: t2,
            },
        ) => d1 == d2 && t1 == t2,
        (MonitorScope::Table { dataset: d1, .. }, MonitorScope::Dataset { dataset: d2 })
        | (MonitorScope::Dataset { dataset: d1 }, MonitorScope::Table { dataset: d2, .. })
        | (MonitorScope::Dataset { dataset: d1 }, MonitorScope::Dataset { dataset: d2 }) => {
            d1 == d2
        }
    }
}

/// Finds trigger circles among job specs: an edge A→B exists when one of
/// A's declared outputs overlaps one of B's inputs; every cycle in that
/// graph (including self-loops) is reported once.
///
/// This is the static counterpart of Fig. 4's runtime flow-control
/// discussion: deployments can refuse or specially configure looping jobs.
pub fn detect_cycles(specs: &[(JobId, &JobSpec)]) -> Vec<Vec<JobId>> {
    let flat: Vec<(JobId, Vec<MonitorScope>, Vec<MonitorScope>)> = specs
        .iter()
        .map(|(id, s)| (*id, s.inputs.clone(), s.declared_outputs.clone()))
        .collect();
    detect_cycles_impl(&flat)
}

fn detect_cycles_impl(specs: &[(JobId, Vec<MonitorScope>, Vec<MonitorScope>)]) -> Vec<Vec<JobId>> {
    let n = specs.len();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, (_, _, outs)) in specs.iter().enumerate() {
        for (j, (_, ins, _)) in specs.iter().enumerate() {
            if outs
                .iter()
                .any(|o| ins.iter().any(|inp| scopes_overlap(o, inp)))
            {
                edges[i].push(j);
            }
        }
    }
    // Tarjan SCC.
    struct State {
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        counter: usize,
        sccs: Vec<Vec<usize>>,
    }
    fn strongconnect(v: usize, edges: &[Vec<usize>], st: &mut State) {
        st.index[v] = Some(st.counter);
        st.low[v] = st.counter;
        st.counter += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        for &w in &edges[v] {
            if st.index[w].is_none() {
                strongconnect(w, edges, st);
                st.low[v] = st.low[v].min(st.low[w]);
            } else if st.on_stack[w] {
                st.low[v] = st.low[v].min(st.index[w].unwrap());
            }
        }
        if st.low[v] == st.index[v].unwrap() {
            let mut comp = Vec::new();
            while let Some(w) = st.stack.pop() {
                st.on_stack[w] = false;
                comp.push(w);
                if w == v {
                    break;
                }
            }
            st.sccs.push(comp);
        }
    }
    let mut st = State {
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        counter: 0,
        sccs: Vec::new(),
    };
    for v in 0..n {
        if st.index[v].is_none() {
            strongconnect(v, &edges, &mut st);
        }
    }
    st.sccs
        .into_iter()
        .filter(|c| c.len() > 1 || (c.len() == 1 && edges[c[0]].contains(&c[0])))
        .map(|c| {
            let mut ids: Vec<JobId> = c.into_iter().map(|i| specs[i].0).collect();
            ids.sort();
            ids
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{FnAction, FnFilter, JobSpec, WriteMode};
    use crate::sink::LocalSink;
    use sedna_common::time::ManualClock;
    use sedna_common::{NodeId, Timestamp, Value};
    use sedna_memstore::{StoreConfig, VersionedValue};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn setup() -> (MemStore, TriggerEngine, LocalSink<ManualClock>) {
        let store = MemStore::new(StoreConfig::default());
        let engine = TriggerEngine::new();
        let sink = LocalSink::new(NodeId(9), ManualClock::new());
        (store, engine, sink)
    }

    /// One sweep whose emits land back in the same store.
    fn sweep(
        engine: &mut TriggerEngine,
        store: &MemStore,
        sink: &LocalSink<ManualClock>,
        now: Micros,
    ) -> ScanStats {
        let mut emits = Emits::default();
        let stats = engine.scan_once(store, &mut emits, now);
        sink.apply(store, &mut emits);
        stats
    }

    fn ts(micros: u64) -> Timestamp {
        Timestamp::new(micros, 0, NodeId(0))
    }

    fn count_action(
        counter: Arc<AtomicU64>,
    ) -> FnAction<impl Fn(&Key, &[VersionedValue], &mut Emits) + Send + Sync> {
        FnAction(move |_: &Key, _: &[VersionedValue], _: &mut Emits| {
            counter.fetch_add(1, Ordering::Relaxed);
        })
    }

    #[test]
    fn exact_key_monitor_fires_action() {
        let (store, mut engine, sink) = setup();
        let fired = Arc::new(AtomicU64::new(0));
        engine.register_job(
            &store,
            JobSpec::builder("watch-k")
                .input(MonitorScope::Key(Key::from("k")))
                .action(count_action(Arc::clone(&fired)))
                .trigger_interval(0)
                .build(),
            0,
        );
        store.write_latest(&Key::from("k"), ts(1), Value::from("v"));
        store.write_latest(&Key::from("other"), ts(1), Value::from("v"));
        let stats = sweep(&mut engine, &store, &sink, 10);
        // No job watches "other": the write kept no old data and the
        // sweep never sees it.
        assert_eq!(stats.scanned, 1);
        assert_eq!(stats.fired, 1);
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn table_monitor_matches_whole_table() {
        let (store, mut engine, sink) = setup();
        let fired = Arc::new(AtomicU64::new(0));
        engine.register_job(
            &store,
            JobSpec::builder("watch-table")
                .input(MonitorScope::Table {
                    dataset: "ds".into(),
                    table: "t".into(),
                })
                .action(count_action(Arc::clone(&fired)))
                .trigger_interval(0)
                .build(),
            0,
        );
        for k in ["a", "b", "c"] {
            let key = sedna_common::KeyPath::new("ds", "t", k).unwrap().encode();
            store.write_latest(&key, ts(1), Value::from("v"));
        }
        let other = sedna_common::KeyPath::new("ds", "t2", "x")
            .unwrap()
            .encode();
        store.write_latest(&other, ts(1), Value::from("v"));
        let stats = sweep(&mut engine, &store, &sink, 10);
        assert_eq!(stats.fired, 3);
    }

    #[test]
    fn filter_gates_action_and_counts() {
        let (store, mut engine, sink) = setup();
        let fired = Arc::new(AtomicU64::new(0));
        engine.register_job(
            &store,
            JobSpec::builder("only-growth")
                .input(MonitorScope::Key(Key::from("n")))
                // Fire only when the value strictly grew in length.
                .filter(FnFilter(
                    |_: &Key, old: &[VersionedValue], new: &[VersionedValue]| {
                        let old_len = old.first().map_or(0, |v| v.value.len());
                        let new_len = new.first().map_or(0, |v| v.value.len());
                        new_len > old_len
                    },
                ))
                .action(count_action(Arc::clone(&fired)))
                .trigger_interval(0)
                .build(),
            0,
        );
        store.write_latest(&Key::from("n"), ts(1), Value::from("abc"));
        sweep(&mut engine, &store, &sink, 1);
        store.write_latest(&Key::from("n"), ts(2), Value::from("ab")); // shrank
        let stats = sweep(&mut engine, &store, &sink, 2);
        assert_eq!(stats.filtered_out, 1);
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn flow_control_discards_changes_inside_interval() {
        let (store, mut engine, sink) = setup();
        let fired = Arc::new(AtomicU64::new(0));
        engine.register_job(
            &store,
            JobSpec::builder("throttled")
                .input(MonitorScope::Key(Key::from("hot")))
                .action(count_action(Arc::clone(&fired)))
                .trigger_interval(1_000)
                .build(),
            0,
        );
        // Three rapid changes inside one interval: first fires, rest drop.
        for i in 0..3 {
            store.write_latest(&Key::from("hot"), ts(i + 1), Value::from("v"));
            sweep(&mut engine, &store, &sink, 100 * (i + 1));
        }
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        assert_eq!(engine.totals().discarded, 2);
        // After the interval, changes fire again.
        store.write_latest(&Key::from("hot"), ts(10), Value::from("v"));
        sweep(&mut engine, &store, &sink, 2_000);
        assert_eq!(fired.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn flow_control_forgets_firings_older_than_the_interval() {
        let (store, mut engine, sink) = setup();
        let id = engine.register_job(
            &store,
            JobSpec::builder("many-keys")
                .input(MonitorScope::Table {
                    dataset: "ds".into(),
                    table: "t".into(),
                })
                .action(count_action(Arc::new(AtomicU64::new(0))))
                .trigger_interval(1_000)
                .build(),
            0,
        );
        let key = |i: u64| {
            sedna_common::KeyPath::new("ds", "t", format!("k{i}"))
                .unwrap()
                .encode()
        };
        // K distinct keys fire at t0.
        for i in 0..64 {
            store.write_latest(&key(i), ts(1), Value::from("v"));
        }
        assert_eq!(sweep(&mut engine, &store, &sink, 100).fired, 64);
        assert_eq!(engine.jobs[&id].last_fired.len(), 64);
        // One interval later only the key that fired again is remembered.
        store.write_latest(&key(0), ts(2), Value::from("v"));
        assert_eq!(sweep(&mut engine, &store, &sink, 1_100).fired, 1);
        let last = &engine.jobs[&id].last_fired;
        assert_eq!(last.len(), 1);
        assert_eq!(last.get(&key(0)), Some(&1_100));
    }

    #[test]
    fn action_emits_chain_into_next_scan() {
        let (store, mut engine, sink) = setup();
        // Job A: watches "in", writes "mid". Job B: watches "mid", writes "out".
        engine.register_job(
            &store,
            JobSpec::builder("a")
                .input(MonitorScope::Key(Key::from("in")))
                .action(FnAction(
                    |_: &Key, vs: &[VersionedValue], out: &mut Emits| {
                        out.push(Key::from("mid"), vs[0].value.clone(), WriteMode::Latest);
                    },
                ))
                .trigger_interval(0)
                .build(),
            0,
        );
        engine.register_job(
            &store,
            JobSpec::builder("b")
                .input(MonitorScope::Key(Key::from("mid")))
                .action(FnAction(
                    |_: &Key, vs: &[VersionedValue], out: &mut Emits| {
                        out.push(Key::from("out"), vs[0].value.clone(), WriteMode::Latest);
                    },
                ))
                .trigger_interval(0)
                .build(),
            0,
        );
        store.write_latest(&Key::from("in"), ts(1), Value::from("payload"));
        sweep(&mut engine, &store, &sink, 1); // fires A, writes mid
        sweep(&mut engine, &store, &sink, 2); // fires B, writes out
        assert_eq!(
            store.read_latest(&Key::from("out")).unwrap().value,
            Value::from("payload")
        );
    }

    #[test]
    fn looping_job_is_tamed_by_interval() {
        let (store, mut engine, sink) = setup();
        // Self-loop: watches "loop", writes "loop" — the Fig. 4 hazard.
        let fired = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&fired);
        engine.register_job(
            &store,
            JobSpec::builder("loop")
                .input(MonitorScope::Key(Key::from("loop")))
                .action(FnAction(
                    move |_: &Key, _: &[VersionedValue], out: &mut Emits| {
                        f2.fetch_add(1, Ordering::Relaxed);
                        out.push(Key::from("loop"), Value::from("again"), WriteMode::Latest);
                    },
                ))
                .trigger_interval(10_000)
                .declares_output(MonitorScope::Key(Key::from("loop")))
                .build(),
            0,
        );
        // Seed at micros 0 so the sink's (stalled manual clock) re-writes
        // still supersede it via the oracle counter.
        store.write_latest(&Key::from("loop"), ts(0), Value::from("go"));
        // Scan rapidly within one interval: only the first change fires.
        for i in 0..50u64 {
            sweep(&mut engine, &store, &sink, 10 + i);
        }
        assert_eq!(fired.load(Ordering::Relaxed), 1, "flood suppressed");
        assert!(engine.totals().discarded >= 1);
        // And the static analysis flags the circle.
        let cycles = engine.check_cycles();
        assert_eq!(cycles.len(), 1);
    }

    #[test]
    fn job_timeout_expires_job() {
        let (store, mut engine, sink) = setup();
        let fired = Arc::new(AtomicU64::new(0));
        engine.register_job(
            &store,
            JobSpec::builder("short-lived")
                .input(MonitorScope::Key(Key::from("k")))
                .action(count_action(Arc::clone(&fired)))
                .trigger_interval(0)
                .timeout(1_000)
                .build(),
            0,
        );
        assert_eq!(engine.live_jobs(500), 1);
        store.write_latest(&Key::from("k"), ts(1), Value::from("v"));
        sweep(&mut engine, &store, &sink, 2_000); // past the timeout
        assert_eq!(
            fired.load(Ordering::Relaxed),
            0,
            "expired job must not fire"
        );
        assert_eq!(engine.live_jobs(2_000), 0);
    }

    #[test]
    fn unregister_removes_row_monitors() {
        let (store, mut engine, sink) = setup();
        let fired = Arc::new(AtomicU64::new(0));
        let id = engine.register_job(
            &store,
            JobSpec::builder("gone")
                .input(MonitorScope::Key(Key::from("k")))
                .action(count_action(Arc::clone(&fired)))
                .trigger_interval(0)
                .build(),
            0,
        );
        engine.unregister_job(&store, id);
        store.write_latest(&Key::from("k"), ts(1), Value::from("v"));
        let stats = sweep(&mut engine, &store, &sink, 1);
        assert_eq!(stats.fired, 0);
        // Row-level monitor column is clean again.
        let recs = store.scan_dirty();
        assert!(recs.is_empty(), "already swept");
    }

    #[test]
    fn cycle_detection_finds_fig4_circle() {
        // A → C → A through tables, D → C one-way.
        let t = |name: &str| MonitorScope::Table {
            dataset: "ds".into(),
            table: name.into(),
        };
        let mk = |name: &str, input: MonitorScope, output: MonitorScope| {
            JobSpec::builder(name)
                .input(input)
                .action(FnAction(|_: &Key, _: &[VersionedValue], _: &mut Emits| {}))
                .declares_output(output)
                .build()
        };
        let a = mk("A", t("ta"), t("tc"));
        let c = mk("C", t("tc"), t("ta"));
        let d = mk("D", t("td"), t("tc"));
        let specs = vec![(JobId(1), &a), (JobId(2), &c), (JobId(3), &d)];
        let cycles = detect_cycles(&specs);
        assert_eq!(cycles, vec![vec![JobId(1), JobId(2)]]);
    }

    #[test]
    fn no_false_cycles_for_linear_pipelines() {
        let t = |name: &str| MonitorScope::Table {
            dataset: "ds".into(),
            table: name.into(),
        };
        let mk = |input: MonitorScope, output: MonitorScope| {
            JobSpec::builder("j")
                .input(input)
                .action(FnAction(|_: &Key, _: &[VersionedValue], _: &mut Emits| {}))
                .declares_output(output)
                .build()
        };
        let a = mk(t("1"), t("2"));
        let b = mk(t("2"), t("3"));
        let c = mk(t("3"), t("4"));
        let specs = vec![(JobId(1), &a), (JobId(2), &b), (JobId(3), &c)];
        assert!(detect_cycles(&specs).is_empty());
    }
}
