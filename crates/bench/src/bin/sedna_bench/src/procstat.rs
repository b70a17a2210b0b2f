//! Process-level counters read from `/proc`.

use std::fs;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel supports; `sysconf` would need libc.
const TICK_MICROS: u64 = 10_000;

/// CPU time (user + system, µs) this process — all threads, living and
/// joined — has consumed, from `/proc/self/stat`. 0 if `/proc` is absent.
pub fn cpu_micros() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // the last ')'. `utime` and `stime` are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick() + tick()) * TICK_MICROS
}

/// Voluntary context switches summed over the live threads of this
/// process (each one is a thread that went to sleep waiting for a message
/// or a timer).
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse::<u64>().ok())
        })
        .sum()
}
