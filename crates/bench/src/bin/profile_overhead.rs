//! Continuous-profiler overhead ablation on a live threaded cluster.
//!
//! Boots a real [`ThreadCluster`] (which starts the ~997 Hz sampler
//! thread) and runs the identical key-value
//! workload with the profiler enabled and disabled, back to back. Each
//! trial contributes one *paired* on/off wall-clock ratio; the reported
//! overhead is the median ratio across trials, the same methodology the
//! observability-plane ablation in `mixed_workload` uses (pairing cancels
//! slow background-load drift on a shared host).
//!
//! "Enabled" here is the whole profiler: `prof_scope!` guards push/pop,
//! the sampler snapshots every registered thread's scope stack, and —
//! because this binary installs [`ProfAlloc`] as its global allocator —
//! every allocation is charged to the allocating thread's current scope.
//! "Disabled" leaves the sampler thread running (it is never torn down in
//! production either) but makes guards inert and accumulation a no-op.
//!
//! Acceptance (gated in CI from `BENCH_profile.json`): overhead ≤ 5%.
//!
//! ```sh
//! cargo run --release -p sedna-bench --bin profile_overhead [-- --quick]
//! ```

use std::time::Instant;

use sedna_common::{Key, Value};
use sedna_core::cluster::ThreadCluster;
use sedna_core::config::ClusterConfig;
use sedna_obs::prof;

/// The profiler's allocation attribution rides the global allocator; this
/// binary measures with it installed so the "on" arm pays the real price.
#[global_allocator]
static ALLOC: prof::ProfAlloc = prof::ProfAlloc;

/// One measured pass: a 50/50 read/write mix over a modest key space so
/// writes rotate versions and reads hit live rows.
fn run_ops(cluster: &ThreadCluster, ops: u64) -> f64 {
    let t0 = Instant::now();
    for i in 0..ops {
        let key = Key::from(format!("bench:{}", i % 512));
        if i % 2 == 0 {
            cluster.write_latest(&key, Value::from(format!("v{i}")));
        } else {
            cluster.read_latest(&key);
        }
    }
    t0.elapsed().as_secs_f64()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    (v[v.len() / 2] + v[(v.len() - 1) / 2]) / 2.0
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (trials, ops) = if quick {
        (8usize, 2_000u64)
    } else {
        (16, 6_000)
    };

    println!("# profile_overhead — continuous profiler on vs off, paired trials (wall-clock)");
    // `start` installs the shim hooks and the sampler thread.
    let cluster = ThreadCluster::start(ClusterConfig::small());

    // Warmup: assemble the cluster, fault in pages, settle the allocator.
    prof::set_enabled(true);
    run_ops(&cluster, ops);

    let mut ratios = Vec::with_capacity(trials);
    let mut wall_on_best = f64::INFINITY;
    let mut wall_off_best = f64::INFINITY;
    for t in 0..trials {
        prof::set_enabled(true);
        let on = run_ops(&cluster, ops);
        prof::set_enabled(false);
        let off = run_ops(&cluster, ops);
        prof::set_enabled(true);
        ratios.push(on / off);
        wall_on_best = wall_on_best.min(on);
        wall_off_best = wall_off_best.min(off);
        println!(
            "# trial {:>2}: on {:>7.1}ms off {:>7.1}ms ratio {:.3}",
            t + 1,
            on * 1_000.0,
            off * 1_000.0,
            on / off
        );
    }
    let overhead_pct = (median(ratios) - 1.0) * 100.0;

    // Evidence the "on" arm actually profiled: the sampler accumulated
    // stacks and the allocator charged scopes.
    let samples = prof::samples_total();
    let allocs = prof::allocs_total();
    let hottest = prof::allocs_by_scope()
        .first()
        .map(|(name, n)| format!("{name} ({n} allocs)"))
        .unwrap_or_else(|| "none".to_string());
    println!("# samples captured: {samples} · allocs attributed: {allocs} · hottest alloc scope: {hottest}");
    println!("# profiler overhead: {overhead_pct:+.2}% wall-clock (target ≤ 5%)");
    assert!(
        samples > 0,
        "sampler captured no stacks — nothing was measured"
    );
    assert!(allocs > 0, "ProfAlloc attributed no allocations");

    let json = format!(
        "{{\n  \"bench\": \"profile_overhead\",\n  \"config\": {{\n    \
         \"trials\": {trials},\n    \"ops_per_arm\": {ops},\n    \
         \"sampler_hz\": {},\n    \"alloc_attribution\": true\n  }},\n  \
         \"wall_ms_on\": {:.2},\n  \"wall_ms_off\": {:.2},\n  \
         \"overhead_pct\": {overhead_pct:.2},\n  \
         \"samples_total\": {samples},\n  \"allocs_total\": {allocs}\n}}\n",
        prof::SAMPLER_HZ,
        wall_on_best * 1_000.0,
        wall_off_best * 1_000.0,
    );
    std::fs::write("BENCH_profile.json", json).expect("write BENCH_profile.json");
    println!("# wrote BENCH_profile.json");
    cluster.shutdown();
}
