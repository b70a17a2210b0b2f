//! The metric tables: one place for every name, unit, direction and
//! bound. `BENCHMARK.json` is printed from these (`--manifest`) and a test
//! holds the committed file to them.

use crate::workload::SPECS;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the store sees. `failed_frac` is not here because the
/// contract admits only metrics that are never 0: failures travel in the
/// result line's `attempted`/`failed` and are held to [`FAILED_FRAC_BOUND`].
///
/// The timing bounds are the widest the contract allows: ten runs of the
/// seed commit on the 2-core sandbox spread (interquartile ÷ median) by
/// about 4% while the box is calm and by up to 19% while it is not, phases
/// that last minutes and that no single run can average out (README,
/// "Seed baseline"). A bound has to clear that or it rejects unchanged code.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "heap_bytes_per_key",
        unit: "B",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// Failed ÷ attempted above this makes a run incorrect (0 at seed).
pub const FAILED_FRAC_BOUND: f64 = 0.0005;

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer numbers of the traced run, in the order they are printed.
/// "op" is a key-op throughout (a 16-key group is 16), except in the seven
/// critical-path segments and `trace.latency_mean_us`, which are per
/// client op because that is what a caller waits for.
pub const PER_LAYER: [PerLayer; 45] = [
    // The seven critical-path segments; they sum to trace.latency_mean_us.
    layer("net.client_in_us", "us", "lower"),
    layer("client.issue_us", "us", "lower"),
    layer("net.req_hop_us", "us", "lower"),
    layer("node.handle_us", "us", "lower"),
    layer("net.ack_hop_us", "us", "lower"),
    layer("client.assemble_us", "us", "lower"),
    layer("net.client_out_us", "us", "lower"),
    layer("trace.latency_mean_us", "us", "lower"),
    layer("trace.sampled_ops", "count", "higher"),
    // net
    layer("net.req_hop_p99_us", "us", "lower"),
    layer("net.msgs_per_op", "count", "lower"),
    layer("net.bytes_per_op", "B", "lower"),
    layer("proc.ctx_switches_per_op", "count", "lower"),
    // client (Gateway + ClientCore)
    layer("client.ack_ns", "ns", "lower"),
    layer("client.acks_per_op", "count", "lower"),
    layer("client.late_ack_frac", "frac", "lower"),
    layer("client.busy_frac", "frac", "lower"),
    layer("client.read_p50_us", "us", "lower"),
    layer("client.write_p50_us", "us", "lower"),
    // node
    layer("node.write_ns", "ns", "lower"),
    layer("node.read_ns", "ns", "lower"),
    layer("node.batch_ns_per_key", "ns", "lower"),
    layer("node.busy_frac", "frac", "lower"),
    layer("node.timer_busy_frac", "frac", "lower"),
    layer("node.timer_max_ms", "ms", "lower"),
    // memstore
    layer("memstore.apply_ns", "ns", "lower"),
    layer("memstore.lock_wait_ns", "ns", "lower"),
    layer("memstore.probe_write_ns", "ns", "lower"),
    layer("memstore.probe_read_ns", "ns", "lower"),
    layer("memstore.probe_apply_batch16_ns_per_key", "ns", "lower"),
    layer("memstore.probe_scan_dirty_ms_per_100k_rows", "ms", "lower"),
    // ring
    layer("ring.probe_locate_ns", "ns", "lower"),
    // coord
    layer("coord.busy_frac", "frac", "lower"),
    layer("manager.busy_frac", "frac", "lower"),
    layer("coord.msgs_per_s", "1/s", "lower"),
    // obs / process
    layer("proc.allocs_per_op", "count", "lower"),
    layer("proc.alloc_bytes_per_op", "B", "lower"),
    layer("proc.heap_growth_bytes_per_op", "B", "lower"),
    layer("obs.plane_overhead_frac", "frac", "lower"),
    layer("obs.profiler_overhead_frac", "frac", "lower"),
    layer("trace.overhead_frac", "frac", "lower"),
    layer("trace.traced_throughput_ops_s", "1/s", "higher"),
    layer("trace.untraced_throughput_ops_s", "1/s", "higher"),
    layer("trace.unmatched_frac", "frac", "lower"),
    layer("trace.spans_dropped", "count", "lower"),
];

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 20;
pub const BENCH_DIR: &str = "crates/bench/src/bin/sedna_bench";

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        &format!("{BENCH_DIR}/Cargo.toml"),
        "--",
    ]
    .map(json_str)
    .join(", ");
    fn rows<T>(items: &[T], row: impl Fn(&T) -> String) -> String {
        let rows: Vec<String> = items
            .iter()
            .map(|i| format!("    {{{}}}", row(i)))
            .collect();
        rows.join(",\n")
    }
    let workloads = rows(&SPECS, |s| {
        format!(
            "\"name\": {}, \"why\": {}",
            json_str(s.name),
            json_str(s.why)
        )
    });
    let end_to_end = rows(&END_TO_END, |m| {
        format!(
            "\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound
        )
    });
    let per_layer = rows(&PER_LAYER, |m| {
        format!(
            "\"name\": {}, \"unit\": {}, \"better\": {}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better)
        )
    });
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n",
        json_str(BENCH_DIR)
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let correct = attempted > 0 && failed as f64 <= FAILED_FRAC_BOUND * attempted as f64;
    let body = metrics
        .iter()
        .map(|(name, unit, value)| {
            assert!(value.is_finite(), "{name} is not a number");
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let committed = include_str!("../../../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `sedna_bench --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for m in &END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            names.push(m.name);
        }
        for s in &SPECS {
            assert!(ok_name(s.name));
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
            names.push(s.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(1_000, 0, &[("latency_p50_us", "us", 140.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 140.25, \"unit\": \"us\"}}}"
        );
        assert!(result_line(1_000, 1, &[]).contains("\"correct\": false"));
        assert!(result_line(10_000, 5, &[]).contains("\"correct\": true"));
    }
}
