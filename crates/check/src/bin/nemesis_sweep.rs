//! Seed-sweep driver for CI and local soak runs.
//!
//! ```text
//! nemesis_sweep [--seeds N] [--start S]
//!               [--profile stock|churn|broken|skewed|skewed-lww]
//!               [--out DIR] [--expect-violations] [--shrink]
//!               [--min-alert-detection PCT]
//! ```
//!
//! Runs `N` consecutive seeds through the nemesis harness. For every
//! failing seed it writes an artifact file to `--out` (default
//! `nemesis-artifacts/`) containing the violations, the (optionally
//! shrunk) schedule rendered as a copy-pasteable test, the alert log,
//! the per-node divergence timeline, and the tail of the recorded
//! history. Exit status: `0` when the outcome matches expectation — no
//! violations normally, at least one violation under
//! `--expect-violations` (the mutation-sanity sweep on the broken
//! configuration) — `1` otherwise.
//!
//! `--min-alert-detection PCT` additionally requires the divergence or
//! lost-write alert to have *fired* on at least `PCT`% of seeds — the
//! observability acceptance gate for the skewed-lww sweep, where
//! every seed's ground truth loses acked writes and the observatory
//! must notice.

use std::io::Write;
use std::path::PathBuf;

use sedna_check::harness::{run_with_schedule, HarnessConfig};
use sedna_check::shrink::{render_repro, shrink};
use sedna_check::{run_nemesis, RunReport};
use sedna_obs::AlertPhase;

struct Args {
    seeds: u64,
    start: u64,
    profile: String,
    out: PathBuf,
    expect_violations: bool,
    do_shrink: bool,
    min_alert_detection: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 200,
        start: 1,
        profile: "stock".to_string(),
        out: PathBuf::from("nemesis-artifacts"),
        expect_violations: false,
        do_shrink: true,
        min_alert_detection: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds").parse().expect("--seeds"),
            "--start" => args.start = value("--start").parse().expect("--start"),
            "--profile" => args.profile = value("--profile"),
            "--out" => args.out = PathBuf::from(value("--out")),
            "--expect-violations" => args.expect_violations = true,
            "--no-shrink" => args.do_shrink = false,
            "--min-alert-detection" => {
                args.min_alert_detection = value("--min-alert-detection")
                    .parse()
                    .expect("--min-alert-detection");
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// True when the run's alert log shows the divergence observatory
/// noticing the incident class the skewed-lww profile manufactures.
fn alert_detected(report: &RunReport) -> bool {
    report.alert_log.iter().any(|t| {
        t.to == AlertPhase::Firing && (t.slo == "lost_writes" || t.slo == "divergence_age")
    })
}

fn config_for(profile: &str) -> (HarnessConfig, &'static str) {
    match profile {
        "stock" => (HarnessConfig::stock(), "stock"),
        "churn" => (HarnessConfig::churn(), "churn"),
        "broken" => (HarnessConfig::broken(), "broken"),
        // Heavy clock skew with sibling retention: must stay clean.
        "skewed" => (HarnessConfig::skewed(), "skewed"),
        // Same skew on the `LastWriterWins` policy: run with
        // `--expect-violations` — LWW must demonstrably lose a
        // concurrent acked write on some seed.
        "skewed-lww" => (HarnessConfig::skewed_lww(), "skewed_lww"),
        other => panic!("unknown profile {other} (stock|churn|broken|skewed|skewed-lww)"),
    }
}

fn write_artifact(
    dir: &PathBuf,
    cfg: &HarnessConfig,
    ctor: &str,
    report: &RunReport,
    do_shrink: bool,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("seed-{}.txt", report.seed));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "seed: {}", report.seed)?;
    writeln!(f, "profile: {ctor}")?;
    writeln!(f, "ops completed: {}", report.ops_done)?;
    writeln!(f, "violations ({}):", report.violations.len())?;
    for v in &report.violations {
        writeln!(f, "  {v:?}")?;
    }
    writeln!(f, "\nalert log ({} transitions):", report.alert_log.len())?;
    for t in &report.alert_log {
        writeln!(
            f,
            "  [{:>10}µs] {} {}->{} short={:.3} long={:.3} value={:.1} trace={:#x}",
            t.at, t.slo, t.from, t.to, t.short_burn, t.long_burn, t.last_value, t.trace
        )?;
    }
    if !report.alerts_firing.is_empty() {
        writeln!(f, "still firing at end: {:?}", report.alerts_firing)?;
    }
    writeln!(f, "\ndivergence timeline (per node):")?;
    for (node, snap) in &report.divergence {
        writeln!(
            f,
            "  node {}: {} episodes total, {} open (max age {}µs)",
            node.0, snap.episodes_total, snap.open, snap.max_age_micros
        )?;
        for ep in &snap.episodes {
            writeln!(
                f,
                "    vnode {} peer {}: {}µs -> {}µs ({}µs to converge)",
                ep.vnode.0,
                ep.peer.0,
                ep.started,
                ep.resolved,
                ep.duration()
            )?;
        }
    }
    // Where this seed's latency went: per-segment critical-path sums for
    // all ops vs. the slow tail, merged across the workload clients.
    writeln!(f, "\ntail critical-path attribution:")?;
    writeln!(f, "  {}", report.tail_attribution.to_json())?;
    let (q, a, n, o) = report.tail_attribution.tail.shares();
    writeln!(
        f,
        "  tail shares: queue={q:.2} apply={a:.2} net={n:.2} other={o:.2}"
    )?;
    let schedule = if do_shrink {
        eprintln!(
            "  shrinking seed {} ({} events)...",
            report.seed,
            report.schedule.len()
        );
        let shrunk = shrink(&report.schedule, |cand| {
            !run_with_schedule(report.seed, cfg, cand).passed()
        });
        writeln!(
            f,
            "\nschedule shrunk {} -> {} events",
            report.schedule.len(),
            shrunk.len()
        )?;
        shrunk
    } else {
        report.schedule.clone()
    };
    writeln!(f, "\n--- minimal reproducer ---\n")?;
    writeln!(f, "{}", render_repro(report.seed, ctor, &schedule))?;
    writeln!(f, "--- history tail (last 60 events) ---")?;
    let tail_from = report.history.len().saturating_sub(60);
    for ev in &report.history[tail_from..] {
        writeln!(f, "  {ev:?}")?;
    }
    // The violating run's own observability snapshot (staleness lags,
    // repair counters, journal gauges) as a sidecar for debugging.
    let metrics_path = dir.join(format!("seed-{}-metrics.json", report.seed));
    std::fs::write(&metrics_path, &report.metrics_json)?;
    writeln!(f, "\nmetrics snapshot: {}", metrics_path.display())?;
    // Black-box flight recording frozen at the moment the violation was
    // detected: the last ~256 engine events per thread.
    if let Some(flight) = &report.flight_json {
        let flight_path = dir.join(format!("seed-{}-flight.json", report.seed));
        std::fs::write(&flight_path, flight)?;
        writeln!(f, "flight recording: {}", flight_path.display())?;
    }
    Ok(path)
}

fn main() {
    let args = parse_args();
    let (cfg, ctor) = config_for(&args.profile);
    let mut failing: Vec<u64> = Vec::new();
    let mut total_ops: u64 = 0;
    let mut detected: u64 = 0;
    let mut tail_merged = sedna_obs::TailSnapshot::default();
    for seed in args.start..args.start + args.seeds {
        let report = run_nemesis(seed, &cfg);
        total_ops += report.ops_done;
        tail_merged.merge(&report.tail_attribution);
        if alert_detected(&report) {
            detected += 1;
        }
        if report.passed() {
            eprintln!("seed {seed}: ok ({} ops)", report.ops_done);
            continue;
        }
        eprintln!(
            "seed {seed}: {} violation(s), first: {:?}",
            report.violations.len(),
            report.violations.first()
        );
        failing.push(seed);
        // Shrinking re-runs the harness many times; only pay for it when
        // a violation is unexpected (CI wants the minimal reproducer).
        let shrink_this = args.do_shrink && !args.expect_violations;
        match write_artifact(&args.out, &cfg, ctor, &report, shrink_this) {
            Ok(path) => eprintln!("  artifact: {}", path.display()),
            Err(e) => eprintln!("  artifact write failed: {e}"),
        }
    }
    // Sweep-wide critical-path attribution — written on passing sweeps
    // too, so every CI run carries "where the tail latency went" for its
    // whole fault population, not just violating seeds.
    if std::fs::create_dir_all(&args.out).is_ok() {
        let tail_path = args.out.join("tail-attribution.json");
        let body = format!(
            "{{\"profile\":\"{ctor}\",\"seeds\":{},\"attribution\":{}}}",
            args.seeds,
            tail_merged.to_json()
        );
        if std::fs::write(&tail_path, body).is_ok() {
            eprintln!("tail attribution: {}", tail_path.display());
        }
    }
    println!(
        "nemesis-sweep profile={} seeds={}..{} failing={} total_ops={} alert_detected={}/{}",
        ctor,
        args.start,
        args.start + args.seeds - 1,
        failing.len(),
        total_ops,
        detected,
        args.seeds
    );
    if !failing.is_empty() {
        println!("failing seeds: {failing:?}");
    }
    let mut ok = if args.expect_violations {
        !failing.is_empty()
    } else {
        failing.is_empty()
    };
    if args.min_alert_detection > 0 && detected * 100 < args.min_alert_detection * args.seeds {
        eprintln!(
            "alert detection below the {}% gate: divergence/lost-write alerts fired on \
             {detected}/{} seeds",
            args.min_alert_detection, args.seeds
        );
        ok = false;
    }
    if !ok {
        if args.expect_violations && failing.is_empty() {
            eprintln!(
                "expected the weakened configuration to trip the checker, but every seed passed"
            );
        }
        std::process::exit(1);
    }
}
