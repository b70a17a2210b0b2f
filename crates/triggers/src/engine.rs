//! The trigger engine: dirty-record dispatch, flow control, job lifecycle,
//! and static trigger-circle analysis.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sedna_common::time::Micros;
use sedna_common::Key;
use sedna_memstore::{DirtyRecord, MemStore};

use crate::job::{JobId, JobSpec};
use crate::monitor::MonitorScope;
use crate::sink::{Emits, TriggerSink};

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
    last_fired: Mutex<HashMap<Key, Micros>>,
    expired: AtomicBool,
}

impl JobRuntime {
    fn is_expired(&self, now: Micros) -> bool {
        if self.expired.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(timeout) = self.spec.timeout_micros {
            if now.saturating_sub(self.registered_at) > timeout {
                self.expired.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }
}

/// The dispatcher. Owns registered jobs; driven by the store's owner
/// through [`TriggerEngine::scan_once`].
pub struct TriggerEngine {
    jobs: RwLock<HashMap<JobId, Arc<JobRuntime>>>,
    next_job: AtomicU64,
    next_monitor: AtomicU64,
    /// monitor id → owning job (for row-column bookkeeping).
    monitor_owners: RwLock<HashMap<u32, JobId>>,
    totals: Mutex<ScanStats>,
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
            jobs: RwLock::new(HashMap::new()),
            next_job: AtomicU64::new(1),
            next_monitor: AtomicU64::new(1),
            monitor_owners: RwLock::new(HashMap::new()),
            totals: Mutex::new(ScanStats::default()),
        }
    }

    /// Registers a job: exact-key hooks are written into the rows'
    /// `Monitors` columns (Fig. 5); prefix hooks live in the engine.
    /// `now` is the registration instant (starts the timeout clock).
    pub fn register_job(&self, store: &MemStore, spec: JobSpec, now: Micros) -> JobId {
        let id = JobId(self.next_job.fetch_add(1, Ordering::Relaxed) as u32);
        for scope in &spec.inputs {
            if let Some(key) = scope.exact_key() {
                let mid = self.next_monitor.fetch_add(1, Ordering::Relaxed) as u32;
                self.monitor_owners.write().insert(mid, id);
                store.add_monitor(key, mid);
            }
        }
        let runtime = Arc::new(JobRuntime {
            spec,
            registered_at: now,
            last_fired: Mutex::new(HashMap::new()),
            expired: AtomicBool::new(false),
        });
        self.jobs.write().insert(id, runtime);
        id
    }

    /// Unregisters a job and removes its row-column monitors.
    pub fn unregister_job(&self, store: &MemStore, id: JobId) {
        let Some(runtime) = self.jobs.write().remove(&id) else {
            return;
        };
        let mut owners = self.monitor_owners.write();
        let mine: Vec<u32> = owners
            .iter()
            .filter(|(_, owner)| **owner == id)
            .map(|(m, _)| *m)
            .collect();
        for mid in mine {
            owners.remove(&mid);
            for scope in &runtime.spec.inputs {
                if let Some(key) = scope.exact_key() {
                    store.remove_monitor(key, mid);
                }
            }
        }
    }

    /// Number of live (non-expired) jobs.
    pub fn live_jobs(&self, now: Micros) -> usize {
        self.jobs
            .read()
            .values()
            .filter(|j| !j.is_expired(now))
            .count()
    }

    /// Cumulative stats over all scans.
    pub fn totals(&self) -> ScanStats {
        *self.totals.lock()
    }

    /// One full sweep: scan the store's dirty rows and dispatch them.
    pub fn scan_once(&self, store: &MemStore, sink: &dyn TriggerSink, now: Micros) -> ScanStats {
        let records = store.scan_dirty();
        self.dispatch(&records, sink, now)
    }

    /// Dispatches already-collected dirty records to matching jobs.
    pub fn dispatch(
        &self,
        records: &[DirtyRecord],
        sink: &dyn TriggerSink,
        now: Micros,
    ) -> ScanStats {
        let mut stats = ScanStats {
            scanned: records.len() as u64,
            ..Default::default()
        };
        // Snapshot the job list so user code runs without engine locks.
        let jobs: Vec<Arc<JobRuntime>> = self.jobs.read().values().cloned().collect();
        for record in records {
            for job in &jobs {
                if job.is_expired(now) {
                    continue;
                }
                if !job.spec.inputs.iter().any(|s| s.matches(&record.key)) {
                    continue;
                }
                // Flow control: discard changes inside the interval
                // (Sec. IV-B — "the most fresh data matters most").
                if job.spec.trigger_interval_micros > 0 {
                    let mut last = job.last_fired.lock();
                    if let Some(&t) = last.get(&record.key) {
                        if now.saturating_sub(t) < job.spec.trigger_interval_micros {
                            stats.discarded += 1;
                            continue;
                        }
                    }
                    last.insert(record.key.clone(), now);
                }
                if !job
                    .spec
                    .filter
                    .assert(&record.key, &record.old, &record.new)
                {
                    stats.filtered_out += 1;
                    continue;
                }
                let mut emits = Emits::default();
                job.spec.action.action(&record.key, &record.new, &mut emits);
                stats.fired += 1;
                stats.emitted += emits.writes.len() as u64;
                for (key, value, mode) in emits.writes {
                    sink.apply(&key, value, mode);
                }
            }
        }
        self.totals.lock().add(&stats);
        stats
    }

    /// Static trigger-circle detection over registered jobs' declared
    /// outputs (see [`detect_cycles`]).
    pub fn check_cycles(&self) -> Vec<Vec<JobId>> {
        let jobs = self.jobs.read();
        let specs: Vec<(JobId, Vec<MonitorScope>, Vec<MonitorScope>)> = jobs
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
    use std::rc::Rc;

    fn setup() -> (Rc<MemStore>, TriggerEngine, LocalSink<ManualClock>) {
        let store = Rc::new(MemStore::new(StoreConfig::default()));
        let engine = TriggerEngine::new();
        let sink = LocalSink::new(Rc::clone(&store), NodeId(9), ManualClock::new());
        (store, engine, sink)
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
        let (store, engine, sink) = setup();
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
        let stats = engine.scan_once(&store, &sink, 10);
        assert_eq!(stats.scanned, 2);
        assert_eq!(stats.fired, 1);
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn table_monitor_matches_whole_table() {
        let (store, engine, sink) = setup();
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
        let stats = engine.scan_once(&store, &sink, 10);
        assert_eq!(stats.fired, 3);
    }

    #[test]
    fn filter_gates_action_and_counts() {
        let (store, engine, sink) = setup();
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
        engine.scan_once(&store, &sink, 1);
        store.write_latest(&Key::from("n"), ts(2), Value::from("ab")); // shrank
        let stats = engine.scan_once(&store, &sink, 2);
        assert_eq!(stats.filtered_out, 1);
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn flow_control_discards_changes_inside_interval() {
        let (store, engine, sink) = setup();
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
            engine.scan_once(&store, &sink, 100 * (i + 1));
        }
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        assert_eq!(engine.totals().discarded, 2);
        // After the interval, changes fire again.
        store.write_latest(&Key::from("hot"), ts(10), Value::from("v"));
        engine.scan_once(&store, &sink, 2_000);
        assert_eq!(fired.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn action_emits_chain_into_next_scan() {
        let (store, engine, sink) = setup();
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
        engine.scan_once(&store, &sink, 1); // fires A, writes mid
        engine.scan_once(&store, &sink, 2); // fires B, writes out
        assert_eq!(
            store.read_latest(&Key::from("out")).unwrap().value,
            Value::from("payload")
        );
    }

    #[test]
    fn looping_job_is_tamed_by_interval() {
        let (store, engine, sink) = setup();
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
            engine.scan_once(&store, &sink, 10 + i);
        }
        assert_eq!(fired.load(Ordering::Relaxed), 1, "flood suppressed");
        assert!(engine.totals().discarded >= 1);
        // And the static analysis flags the circle.
        let cycles = engine.check_cycles();
        assert_eq!(cycles.len(), 1);
    }

    #[test]
    fn job_timeout_expires_job() {
        let (store, engine, sink) = setup();
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
        engine.scan_once(&store, &sink, 2_000); // past the timeout
        assert_eq!(
            fired.load(Ordering::Relaxed),
            0,
            "expired job must not fire"
        );
        assert_eq!(engine.live_jobs(2_000), 0);
    }

    #[test]
    fn unregister_removes_row_monitors() {
        let (store, engine, sink) = setup();
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
        let stats = engine.scan_once(&store, &sink, 1);
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
