//! Jobs, filters and actions — the programmer-facing trigger API
//! (Listing 1 of the paper, in idiomatic Rust).

use sedna_common::time::Micros;
use sedna_common::Key;
use sedna_memstore::VersionedValue;

use crate::monitor::MonitorScope;
use crate::sink::Emits;

/// Identifier of a registered job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u32);

/// How an emitted result is written back (the two write APIs of
/// Sec. III-F).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteMode {
    /// `write_latest` semantics.
    Latest,
    /// `write_all` semantics (one element per source).
    All,
}

/// The paper's `Filter.assert(OldKey, OldValue, NewKey, NewValue)`.
///
/// "the assert function should be as simple as possible" — it runs once
/// per changed pair on the scanner's thread. `old` is the row's value list
/// before the change window (empty = the row was new), `new` the list now.
pub trait Filter: Send + Sync {
    /// Returns true when the change should reach the action.
    fn assert(&self, key: &Key, old: &[VersionedValue], new: &[VersionedValue]) -> bool;
}

/// A filter that passes everything (the default).
#[derive(Clone, Copy, Debug, Default)]
pub struct PassAllFilter;

impl Filter for PassAllFilter {
    fn assert(&self, _key: &Key, _old: &[VersionedValue], _new: &[VersionedValue]) -> bool {
        true
    }
}

/// Adapter: any closure as a [`Filter`].
pub struct FnFilter<F>(pub F);

impl<F> Filter for FnFilter<F>
where
    F: Fn(&Key, &[VersionedValue], &[VersionedValue]) -> bool + Send + Sync,
{
    fn assert(&self, key: &Key, old: &[VersionedValue], new: &[VersionedValue]) -> bool {
        (self.0)(key, old, new)
    }
}

/// The paper's `Action.action(Key, Iterator<Value>, Result)`.
///
/// `values` is the changed row's current value list; results are written
/// through `out`, the "safe way for programmers to write processing
/// results into distributed storage system paralleled".
pub trait Action: Send + Sync {
    /// Processes one accepted change.
    fn action(&self, key: &Key, values: &[VersionedValue], out: &mut Emits);
}

/// Adapter: any closure as an [`Action`].
pub struct FnAction<F>(pub F);

impl<F> Action for FnAction<F>
where
    F: Fn(&Key, &[VersionedValue], &mut Emits) + Send + Sync,
{
    fn action(&self, key: &Key, values: &[VersionedValue], out: &mut Emits) {
        (self.0)(key, values, out)
    }
}

/// A complete trigger job: input hooks + filter + action + flow control.
///
/// Mirrors Listing 1: `TriggerInput(hooks, filter)`, `TriggerOutput`,
/// `setActionClass`, `job.schedule(Timeout)`.
pub struct JobSpec {
    /// Human-readable name (diagnostics).
    pub name: String,
    /// The data hooks this job monitors.
    pub inputs: Vec<MonitorScope>,
    /// Gate run per changed pair.
    pub filter: Box<dyn Filter>,
    /// User code run per accepted change.
    pub action: Box<dyn Action>,
    /// Flow-control interval: changes to a key within this window after a
    /// firing are discarded (Sec. IV-B). Zero disables suppression.
    pub trigger_interval_micros: Micros,
    /// Lifetime bound from `schedule(Timeout)`; `None` = run forever.
    pub timeout_micros: Option<Micros>,
    /// Optionally declared output scopes, enabling static trigger-circle
    /// detection across jobs (Fig. 4's A→C→A case).
    pub declared_outputs: Vec<MonitorScope>,
}

impl JobSpec {
    /// Starts a builder with a pass-all filter, no-op-friendly defaults and
    /// the paper's default trigger interval (100 ms).
    pub fn builder(name: impl Into<String>) -> JobSpecBuilder {
        JobSpecBuilder {
            name: name.into(),
            inputs: Vec::new(),
            filter: Box::new(PassAllFilter),
            action: None,
            trigger_interval_micros: 100_000,
            timeout_micros: None,
            declared_outputs: Vec::new(),
        }
    }
}

/// Builder for [`JobSpec`].
pub struct JobSpecBuilder {
    name: String,
    inputs: Vec<MonitorScope>,
    filter: Box<dyn Filter>,
    action: Option<Box<dyn Action>>,
    trigger_interval_micros: Micros,
    timeout_micros: Option<Micros>,
    declared_outputs: Vec<MonitorScope>,
}

impl JobSpecBuilder {
    /// Adds a data hook (monitor scope).
    pub fn input(mut self, scope: MonitorScope) -> Self {
        self.inputs.push(scope);
        self
    }

    /// Sets the filter.
    pub fn filter(mut self, filter: impl Filter + 'static) -> Self {
        self.filter = Box::new(filter);
        self
    }

    /// Sets the action (required).
    pub fn action(mut self, action: impl Action + 'static) -> Self {
        self.action = Some(Box::new(action));
        self
    }

    /// Sets the flow-control interval (0 disables).
    pub fn trigger_interval(mut self, micros: Micros) -> Self {
        self.trigger_interval_micros = micros;
        self
    }

    /// Bounds the job's lifetime (Listing 1's `schedule(Timeout)`).
    pub fn timeout(mut self, micros: Micros) -> Self {
        self.timeout_micros = Some(micros);
        self
    }

    /// Declares an output scope for cycle analysis.
    pub fn declares_output(mut self, scope: MonitorScope) -> Self {
        self.declared_outputs.push(scope);
        self
    }

    /// Finishes the spec.
    ///
    /// # Panics
    /// Panics when no action was set or no input was added.
    pub fn build(self) -> JobSpec {
        assert!(
            !self.inputs.is_empty(),
            "job {:?} needs at least one input",
            self.name
        );
        JobSpec {
            name: self.name,
            inputs: self.inputs,
            filter: self.filter,
            action: self.action.expect("job needs an action"),
            trigger_interval_micros: self.trigger_interval_micros,
            timeout_micros: self.timeout_micros,
            declared_outputs: self.declared_outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::{NodeId, Timestamp, Value};

    fn vv(micros: u64, data: &str) -> VersionedValue {
        VersionedValue {
            ts: Timestamp::new(micros, 0, NodeId(0)),
            value: Value::from(data),
        }
    }

    #[test]
    fn pass_all_filter_passes() {
        assert!(PassAllFilter.assert(&Key::from("k"), &[], &[vv(1, "x")]));
    }

    #[test]
    fn fn_filter_and_action_adapt_closures() {
        let f = FnFilter(|_k: &Key, old: &[VersionedValue], new: &[VersionedValue]| {
            old.len() != new.len()
        });
        assert!(f.assert(&Key::from("k"), &[], &[vv(1, "x")]));
        assert!(!f.assert(&Key::from("k"), &[vv(1, "a")], &[vv(2, "b")]));

        let a = FnAction(|key: &Key, values: &[VersionedValue], out: &mut Emits| {
            assert_eq!(values.len(), 1);
            out.push(
                Key::from(format!("out-{:?}", key)),
                Value::from("result"),
                WriteMode::Latest,
            );
        });
        let mut emits = Emits::default();
        a.action(&Key::from("k"), &[vv(1, "x")], &mut emits);
        assert_eq!(emits.writes.len(), 1);
    }

    #[test]
    fn builder_assembles_spec() {
        let spec = JobSpec::builder("indexer")
            .input(MonitorScope::Table {
                dataset: "ds".into(),
                table: "msgs".into(),
            })
            .filter(PassAllFilter)
            .action(FnAction(|_: &Key, _: &[VersionedValue], _: &mut Emits| {}))
            .trigger_interval(50_000)
            .timeout(10_000_000)
            .declares_output(MonitorScope::Table {
                dataset: "ds".into(),
                table: "index".into(),
            })
            .build();
        assert_eq!(spec.name, "indexer");
        assert_eq!(spec.inputs.len(), 1);
        assert_eq!(spec.trigger_interval_micros, 50_000);
        assert_eq!(spec.timeout_micros, Some(10_000_000));
        assert_eq!(spec.declared_outputs.len(), 1);
    }

    #[test]
    #[should_panic(expected = "needs at least one input")]
    fn builder_requires_input() {
        JobSpec::builder("empty")
            .action(FnAction(|_: &Key, _: &[VersionedValue], _: &mut Emits| {}))
            .build();
    }

    #[test]
    #[should_panic(expected = "needs an action")]
    fn builder_requires_action() {
        JobSpec::builder("no-action")
            .input(MonitorScope::Key(Key::from("k")))
            .build();
    }
}
