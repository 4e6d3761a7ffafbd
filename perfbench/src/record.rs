//! The run record: what was run, on which host, and how noisy the host was.

use crate::{Args, Outcome};
use genbase_util::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Cumulative CPU steal seconds across all CPUs (`/proc/stat`, read-only);
/// `None` where the file or field is absent.
pub fn steal_seconds() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI this runs on.
    Some(steal / 100.0)
}

/// How often [`with_peak_rss`] samples the resident set.
const RSS_POLL: Duration = Duration::from_millis(10);

/// The process's current resident set (`VmRSS`) in KiB; 0 where unknown.
fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Hand the allocator's free memory back to the kernel (glibc
/// `malloc_trim`), so a round's resident set starts from what is live, not
/// from what earlier rounds freed: the served workload's per-connection
/// threads otherwise leave freed pages in their allocator arenas, and the
/// resident set ratchets from round to round. A no-op off glibc.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointers; it only releases free
        // heap pages and is safe to call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Cap glibc malloc at one arena (`mallopt(M_ARENA_MAX, 1)`) for the rest
/// of the process. With the default cap (8 per core), each short-lived
/// connection thread of the served workload lands in whichever arena is
/// free, and the resident set of the same script read 29–54 MiB from
/// round to round; with one arena it read 24–31 MiB, and request
/// latencies did not change. Call before the threads start. A no-op off
/// glibc.
pub fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: mallopt takes no pointers; M_ARENA_MAX only bounds the
        // arenas malloc creates from now on.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Run `f` while a sampler thread polls the resident set every
/// `RSS_POLL`; returns `f`'s result and the highest resident set seen, in
/// MiB. Unlike the process-wide `VmHWM`, this is a per-round figure, so a
/// run can report the median over its rounds.
pub fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(rss_kib());
    let out = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                peak.fetch_max(rss_kib(), Ordering::Relaxed);
                std::thread::sleep(RSS_POLL);
            }
        });
        let out = f();
        peak.fetch_max(rss_kib(), Ordering::Relaxed);
        stop.store(true, Ordering::SeqCst);
        out
    });
    (out, peak.load(Ordering::Relaxed) as f64 / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Vector features the benchmark binary was compiled for (the effect of
/// the build's `target-cpu`).
fn target_features() -> String {
    let features = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    let on: Vec<&str> = features
        .iter()
        .filter(|(_, enabled)| *enabled)
        .map(|(name, _)| *name)
        .collect();
    if on.is_empty() {
        "baseline".to_string()
    } else {
        on.join("+")
    }
}

/// Assemble the run record.
pub fn run_record(
    args: &Args,
    outcome: &Outcome,
    wall_s: f64,
    steal_s: Option<f64>,
    metrics: &Json,
) -> Json {
    let mut host = Json::obj();
    host.set(
        "nproc",
        Json::from(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        ),
    );
    host.set("cpu_model", Json::from(cpu_model()));
    host.set("target_features", Json::from(target_features()));
    let mut rec = Json::obj();
    rec.set("workload", Json::from(args.workload.as_str()));
    rec.set("seed", Json::from(args.seed));
    rec.set("seconds", Json::Num(args.seconds));
    rec.set("trace", Json::Bool(args.trace));
    rec.set("attempted", Json::from(outcome.attempted));
    rec.set("failed", Json::from(outcome.failed));
    rec.set("rounds", Json::from(outcome.rounds_s.len()));
    rec.set("wall_s", Json::Num(wall_s));
    rec.set("steal_s", steal_s.map(Json::Num).unwrap_or(Json::Null));
    rec.set("host", host);
    for (key, value) in &outcome.notes {
        rec.set(key, value.clone());
    }
    rec.set(
        "problems",
        Json::Arr(
            outcome
                .problems
                .iter()
                .map(|p| Json::from(p.as_str()))
                .collect(),
        ),
    );
    let mut cells = Json::obj();
    for (cell, ms) in &outcome.cell_ms {
        cells.set(cell, Json::Num(crate::stats::median(ms)));
    }
    rec.set("cell_ms_median", cells);
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    rec.set("rounds_s", nums(&outcome.rounds_s));
    rec.set("rounds_rss_mib", nums(&outcome.rounds_rss_mib));
    rec.set("setup_samples_s", nums(&outcome.setup_s));
    rec.set("metrics", metrics.clone());
    rec
}
