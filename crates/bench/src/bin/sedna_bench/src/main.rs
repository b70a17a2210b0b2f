//! `sedna_bench`: closed-loop end-to-end benchmark of a Sedna cluster on
//! real threads, with a separate traced pass for per-layer numbers.
//! See README.md next to this package for metrics, workloads and method.

mod alloc;
mod cluster;
mod driver;
mod hist;
mod layers;
mod metrics;
mod probes;
mod procstat;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cluster::Cluster;
use driver::{drive, median_over, Window};
use hist::{median, ratio, Hist};
use layers::ModeComparison;
use metrics::{result_line, END_TO_END, FAILED_FRAC_BOUND, PER_LAYER, RUN_SECONDS};
use sedna_core::config::ClusterConfig;
use trace::{GenTimes, SpanIndex};
use workload::{OpStream, Spec, SPECS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Clusters assembled and preloaded per gated run; the last one is
/// measured. `heap_bytes_per_key` is the median over them. `setup_s` is
/// their mean: set-up time is bimodal (elections and the gateways' 250 ms
/// tick quantise it at ~0.31 s or ~0.46 s), and the median of a bimodal
/// sample flips between the modes from run to run where the mean does not.
const SETUPS: usize = 5;
/// Discarded before the gated windows; absorbs the ~1 s fast start-up
/// transient (README, "Sizing").
const WARM_UP: Duration = Duration::from_secs(3);
const WINDOWS: usize = 6;
const TRACE_WARM_UP: Duration = Duration::from_millis(1_500);
/// Rounds of traced / base / metrics-off sub-windows in a traced run.
const TRACE_ROUNDS: usize = 4;
/// Op stamps the generator keeps in a traced pass (lazily mapped).
const GEN_TIMES_CAPACITY: usize = 1 << 22;
/// Sampled ops written to the span file.
const SPAN_FILE_OPS: usize = 4_096;
const PROBE_BUDGET: Duration = Duration::from_millis(200);

/// One run's result: values in table order plus the failure ledger.
struct Outcome {
    values: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Assembles a fresh cluster and loads every key; returns it with the
/// set-up time (s) and the live-heap growth per key (B) across the preload.
fn set_up(cfg: &ClusterConfig, stream: &OpStream, traced: bool) -> (Cluster, f64, f64) {
    let start = Instant::now();
    let mut cluster = Cluster::assemble(cfg, traced);
    cluster.wait_ready(stream);
    let at_ready = alloc::totals().live_bytes();
    let retried = cluster.preload(stream);
    let secs = start.elapsed().as_secs_f64();
    let grown = alloc::totals().live_bytes() - at_ready;
    if retried > 0 {
        eprintln!("# preload: {retried} groups written again");
    }
    (
        cluster,
        secs,
        ratio(grown as f64, stream.key_count() as f64),
    )
}

/// The gated run: every end-to-end metric, tracing and profiler off.
fn run_gated(spec: &Spec, seed: u64, seconds: u64) -> Outcome {
    alloc::set_counting(true);
    let cfg = spec.cluster_config();
    let mut stream = OpStream::new(spec, seed);
    let (mut setup_secs, mut heap_per_key) = (Vec::new(), Vec::new());
    let mut cluster: Option<Cluster> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = cluster.take() {
            previous.shutdown();
        }
        let (c, secs, heap) = set_up(&cfg, &stream, false);
        setup_secs.push(secs);
        heap_per_key.push(heap);
        cluster = Some(c);
    }
    let mut cluster = cluster.expect("SETUPS > 0");
    // From here on an allocation costs one relaxed load.
    alloc::set_counting(false);
    let schedule = [Duration::from_secs(seconds) / WINDOWS as u32; WINDOWS];
    let stats = drive(
        &mut cluster,
        &mut stream,
        spec.clients,
        WARM_UP,
        &schedule,
        &mut |_| {},
        None,
    );
    cluster.shutdown();

    let mut all = Hist::default();
    for w in &stats.windows {
        all.merge(&w.latency_ns);
    }
    let windows = &stats.windows;
    eprintln!(
        "# {}: {} key-ops in {} windows, p999 {:.0} us, max {:.0} us (not gated), set-ups {:.3?} s, \
         heap/key {:.0?} B, {} generator timeouts",
        spec.name,
        windows.iter().map(|w| w.key_ops).sum::<u64>(),
        windows.len(),
        all.quantile(0.999) / 1e3,
        all.max() as f64 / 1e3,
        setup_secs,
        heap_per_key,
        stats.timeouts,
    );
    let values = END_TO_END
        .iter()
        .map(|m| match m.name {
            "throughput_ops_s" => median_over(windows, Window::throughput_ops_s),
            "latency_p50_us" => median_over(windows, |w| w.latency_us(0.5)),
            "latency_p99_us" => median_over(windows, |w| w.latency_us(0.99)),
            "cpu_us_per_op" => median_over(windows, Window::cpu_us_per_op),
            "heap_bytes_per_key" => median(&heap_per_key),
            "setup_s" => setup_secs.iter().sum::<f64>() / SETUPS as f64,
            other => unreachable!("{other} is in the table but not measured"),
        })
        .collect();
    Outcome {
        values,
        attempted: stats.attempted,
        failed: stats.failed,
    }
}

fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("sedna_bench")
}

/// What a sub-window of the traced run is running with.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Mode {
    /// Wrappers on; the per-layer numbers come from these sub-windows.
    Traced,
    /// Wrappers off, default configuration: what a gated run measures.
    Base,
    /// Wrappers off, every metrics registry and the alert engine off.
    MetricsOff,
    /// Wrappers off, default configuration plus `install_profiling()`.
    /// That is process-global and cannot be undone, so these come last.
    Profiler,
}

/// The traced run's schedule over `seconds`: four rounds of traced (10%),
/// base (5%) and metrics-off (5%) sub-windows, every other round in
/// reverse so that base always neighbours both, then base (5%) and three
/// profiler sub-windows (5% each). Traced time is 40% of the total.
fn trace_schedule(seconds: u64) -> Vec<(Mode, Duration)> {
    let unit = Duration::from_secs(seconds) / 20;
    let round = [
        (Mode::Traced, unit * 2),
        (Mode::Base, unit),
        (Mode::MetricsOff, unit),
    ];
    let mut schedule = Vec::new();
    for r in 0..TRACE_ROUNDS {
        if r % 2 == 0 {
            schedule.extend(round);
        } else {
            schedule.extend(round.iter().rev());
        }
    }
    schedule.push((Mode::Base, unit));
    schedule.extend([(Mode::Profiler, unit); 3]);
    schedule
}

/// The traced run: every per-layer metric, from one cluster whose modes
/// alternate, so that each overhead compares neighbours in time.
fn run_traced(spec: &Spec, seed: u64, seconds: u64) -> Outcome {
    alloc::set_counting(true);
    let cfg = spec.cluster_config();
    let mut stream = OpStream::new(spec, seed);
    let (mut cluster, _, _) = set_up(&cfg, &stream, true);
    let mut gen_times = GenTimes::new(cluster.next_op_id(), GEN_TIMES_CAPACITY);

    let schedule = trace_schedule(seconds);
    let (clock, metrics) = (cluster.clock.clone(), cluster.metrics_switch());
    let mut enter = |k: usize| {
        let mode = schedule.get(k).map(|(mode, _)| *mode);
        clock.set_tracing(mode == Some(Mode::Traced));
        metrics.set(mode != Some(Mode::MetricsOff));
        if mode == Some(Mode::Profiler) {
            sedna_core::cluster::install_profiling(); // idempotent
        }
    };
    let durations: Vec<Duration> = schedule.iter().map(|(_, d)| *d).collect();
    let stats = drive(
        &mut cluster,
        &mut stream,
        spec.clients,
        TRACE_WARM_UP,
        &durations,
        &mut enter,
        Some(&mut gen_times),
    );
    let stopped = cluster.shutdown();
    let records = stopped.records();
    let index = SpanIndex::build(&records);
    let paths = trace::join_paths(&records, &index, &gen_times);
    drop(gen_times);

    let dir = trace_dir();
    let file = dir.join(format!("trace-{}.json", spec.name));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, trace::spans_json(&paths, &index, SPAN_FILE_OPS)));
    match written {
        Ok(()) => eprintln!(
            "# spans of {} ops in {}",
            paths.len().min(SPAN_FILE_OPS),
            file.display()
        ),
        Err(e) => eprintln!("# could not write {}: {e}", file.display()),
    }

    let of = |mode: Mode| -> Vec<&Window> {
        let modes = schedule.iter().map(|(m, _)| *m);
        modes
            .zip(&stats.windows)
            .filter(|(m, _)| *m == mode)
            .map(|(_, w)| w)
            .collect()
    };
    let (traced, base, off, profiled) = (
        of(Mode::Traced),
        of(Mode::Base),
        of(Mode::MetricsOff),
        of(Mode::Profiler),
    );
    // Round r's sub-windows sit next to each other, so a ratio within a
    // round cancels the machine's slow drift.
    let per_round = |a: &[&Window], b: &[&Window]| -> f64 {
        let ratios: Vec<f64> = (0..TRACE_ROUNDS)
            .map(|r| ratio(a[r].throughput_ops_s(), b[r].throughput_ops_s()))
            .collect();
        median(&ratios)
    };
    let thr = |ws: &[&Window]| median_over(ws.iter().copied(), Window::throughput_ops_s);
    let modes = ModeComparison {
        traced_ops_s: thr(&traced),
        base_ops_s: thr(&base),
        traced_vs_base: per_round(&traced, &base),
        base_vs_metrics_off: per_round(&base, &off),
        // The last two base sub-windows are the profiler's neighbours.
        profiler_vs_base: ratio(thr(&profiled), thr(&base[TRACE_ROUNDS - 1..])),
    };
    let probes = probes::run(PROBE_BUDGET);
    Outcome {
        values: layers::compute(&records, &paths, &traced, &modes, &probes),
        attempted: stats.attempted,
        failed: stats.failed,
    }
}

fn names_and_units(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

fn run_one(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let start = Instant::now();
    let outcome = if traced {
        run_traced(spec, seed, seconds)
    } else {
        run_gated(spec, seed, seconds)
    };
    let metrics: Vec<(&str, &str, f64)> = names_and_units(traced)
        .into_iter()
        .zip(&outcome.values)
        .map(|((name, unit), v)| (name, unit, *v))
        .collect();
    eprintln!(
        "# {} seed {seed} trace {}: {:.1} s, failed_frac {}",
        spec.name,
        u8::from(traced),
        start.elapsed().as_secs_f64(),
        outcome.failed_frac(),
    );
    println!(
        "{}",
        result_line(outcome.attempted, outcome.failed, &metrics)
    );
    outcome
}

/// min / median / max and relative range of each metric over the repeats
/// of one workload; a range above the metric's bound is flagged.
fn print_summary(spec: &Spec, traced: bool, runs: &[Outcome]) {
    println!(
        "\n## {} ({} run{})",
        spec.name,
        runs.len(),
        if runs.len() == 1 { "" } else { "s" }
    );
    println!(
        "{:<44} {:>6} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "min", "median", "max", "range"
    );
    for (i, (name, unit)) in names_and_units(traced).into_iter().enumerate() {
        let vals: Vec<f64> = runs.iter().map(|r| r.values[i]).collect();
        let (min, max) = vals
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        let mid = median(&vals);
        let range = ratio(max - min, mid.abs());
        let over = !traced && range > END_TO_END[i].bound;
        println!(
            "{name:<44} {unit:>6} {min:>14.3} {mid:>14.3} {max:>14.3} {:>7.1}%{}",
            range * 100.0,
            if over { "  > bound" } else { "" }
        );
    }
    let fracs: Vec<f64> = runs.iter().map(Outcome::failed_frac).collect();
    println!(
        "{:<44} {:>6} {:>14.6} {:>14.6} {:>14.6}",
        "failed_frac",
        "frac",
        fracs.iter().copied().fold(f64::MAX, f64::min),
        median(&fracs),
        fracs.iter().copied().fold(f64::MIN, f64::max),
    );
}

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: u64,
    traced: bool,
    repeat: usize,
}

const USAGE: &str = "usage: sedna_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--repeat K] | --manifest";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        repeat: 1,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--manifest" {
            return Ok(None);
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                args.workload = Some(
                    Spec::by_name(&value)
                        .ok_or(format!("unknown workload {value}; one of {names:?}"))?,
                );
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.traced = number()? != 0,
            "--repeat" => args.repeat = number()?.max(1) as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", metrics::manifest());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "# sedna_bench: {} cores, {} s per run",
        std::thread::available_parallelism().map_or(0, usize::from),
        args.seconds
    );
    let specs: Vec<&Spec> = match args.workload {
        Some(spec) => vec![spec],
        None => SPECS.iter().collect(),
    };
    let mut correct = true;
    let mut runs: Vec<Vec<Outcome>> = specs.iter().map(|_| Vec::new()).collect();
    // Repeats interleave the workloads, so drift hits them alike.
    for k in 0..args.repeat {
        for (spec, runs) in specs.iter().zip(&mut runs) {
            let outcome = run_one(spec, args.seed + k as u64, args.seconds, args.traced);
            correct &= outcome.attempted > 0 && outcome.failed_frac() <= FAILED_FRAC_BOUND;
            runs.push(outcome);
        }
    }
    // The driver's form (one workload, one run) ends on the result line.
    if args.workload.is_none() || args.repeat > 1 {
        for (spec, runs) in specs.iter().zip(&runs) {
            print_summary(spec, args.traced, runs);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed_frac above {FAILED_FRAC_BOUND}");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_schedule_fills_the_run_and_keeps_base_next_to_both() {
        let schedule = trace_schedule(20);
        let total: Duration = schedule.iter().map(|(_, d)| *d).sum();
        assert_eq!(total, Duration::from_secs(20));
        let time_in = |mode: Mode| -> Duration {
            let of_mode = schedule.iter().filter(|(m, _)| *m == mode);
            of_mode.map(|(_, d)| *d).sum()
        };
        assert_eq!(time_in(Mode::Traced), Duration::from_secs(8));
        assert_eq!(time_in(Mode::MetricsOff), Duration::from_secs(4));
        assert_eq!(time_in(Mode::Profiler), Duration::from_secs(3));
        let modes: Vec<Mode> = schedule.iter().map(|(m, _)| *m).collect();
        let count = |mode: Mode| modes.iter().filter(|m| **m == mode).count();
        assert_eq!(count(Mode::Traced), TRACE_ROUNDS);
        assert_eq!(count(Mode::MetricsOff), TRACE_ROUNDS);
        assert_eq!(count(Mode::Base), TRACE_ROUNDS + 1);
        // Every traced and metrics-off sub-window touches a base one, and
        // once the profiler is in nothing else runs.
        for (i, mode) in modes.iter().enumerate() {
            if matches!(mode, Mode::Traced | Mode::MetricsOff) {
                let next_to_base =
                    modes.get(i + 1) == Some(&Mode::Base) || (i > 0 && modes[i - 1] == Mode::Base);
                assert!(next_to_base, "sub-window {i}");
            }
        }
        let first_profiled = modes.iter().position(|m| *m == Mode::Profiler).unwrap();
        assert!(modes[first_profiled..].iter().all(|m| *m == Mode::Profiler));
        assert_eq!(modes[first_profiled - 1], Mode::Base);
    }
}
