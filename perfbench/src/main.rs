//! GenBase benchmark runner: one named workload per invocation.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see README.md for their make-up and the metric map):
//! `fig1_medium`, `fused_spill_medium`, `serve_hits_small`. The run sets
//! up (several times, reporting the median), then repeats whole rounds of
//! the workload's fixed operations for about `--seconds`, checks every
//! output against references computed apart from the program, and prints
//! one JSON object as its last stdout line: `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). A run record (seeds, host fingerprint, CPU steal
//! during the run) and, for traced runs, the span file go under
//! `perfbench/out/`.

mod probes;
mod record;
mod reference;
mod serve;
mod stats;
mod sweep;
mod trace;

use genbase_util::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: per-round cell orders and request scripts derive from it.
    pub seed: u64,
    /// Target length of the timed phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// Where run records, span files and spill files go (inside the checkout).
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// What one workload run produced, before it is turned into metrics.
#[derive(Default)]
pub struct Outcome {
    /// Wall seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each timed round.
    pub rounds_s: Vec<f64>,
    /// Peak resident set of each timed round, MiB.
    pub rounds_rss_mib: Vec<f64>,
    /// Latency of every timed operation, milliseconds.
    pub op_ms: Vec<f64>,
    /// Latencies per distinct (engine, query, size) cell, milliseconds.
    pub cell_ms: BTreeMap<String, Vec<f64>>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced runs only): name → (value, unit).
    pub layer: BTreeMap<String, (f64, &'static str)>,
    /// Workload-specific facts for the run record.
    pub notes: Vec<(String, Json)>,
}

impl Outcome {
    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.insert(name.to_string(), (value, unit));
    }

    /// Record a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: check failed: {what}");
        self.problems.push(what);
    }
}

/// Repeat `round` until the next round would end past `seconds` (measured
/// from the first round's start), but at least `min_rounds` times.
/// `round` returns its own timed wall seconds. Before each round the
/// allocator returns what earlier rounds freed, and the round's peak
/// resident set is sampled alongside it. With tracing on, rounds alternate
/// traced (even index) and untraced (odd index) and stop only after an even
/// count, so [`overhead_pct`] compares equal numbers of each. Returns
/// (seconds, peak MiB) per round.
pub fn timed_rounds(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> genbase_util::Result<f64>,
) -> genbase_util::Result<(Vec<f64>, Vec<f64>)> {
    let traced = trace::enabled();
    let start = Instant::now();
    let (mut secs, mut rss) = (Vec::new(), Vec::new());
    loop {
        trace::set_enabled(traced && secs.len() % 2 == 0);
        record::release_free_memory();
        let (s, peak) = record::with_peak_rss(|| round(secs.len()));
        trace::set_enabled(traced);
        secs.push(s?);
        rss.push(peak);
        let longest = secs.iter().copied().fold(0.0, f64::max);
        let whole = !traced || secs.len() % 2 == 0;
        if whole && secs.len() >= min_rounds && start.elapsed().as_secs_f64() + longest > seconds {
            return Ok((secs, rss));
        }
    }
}

/// Tracing overhead of a traced run's [`timed_rounds`], in percent: the
/// median traced (even-index) round against the median untraced one.
pub fn overhead_pct(rounds_s: &[f64]) -> f64 {
    let half = |parity: usize| -> Vec<f64> {
        rounds_s
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, s)| *s)
            .collect()
    };
    (stats::median(&half(0)) / stats::median(&half(1)) - 1.0) * 100.0
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0;
    let mut trace = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (want 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> genbase_util::Result<Json> {
    std::fs::create_dir_all(out_dir())
        .map_err(|e| genbase_util::Error::invalid(format!("create {:?}: {e}", out_dir())))?;
    let steal_before = record::steal_seconds();
    let wall = Instant::now();
    trace::set_enabled(args.trace);
    let mut outcome = match args.workload.as_str() {
        "fig1_medium" => sweep::run(args, sweep::Kind::Fig1)?,
        "fused_spill_medium" => sweep::run(args, sweep::Kind::FusedSpill)?,
        "serve_hits_small" => serve::run(args)?,
        other => {
            return Err(genbase_util::Error::invalid(format!(
                "unknown workload {other:?} (fig1_medium, fused_spill_medium, serve_hits_small)"
            )))
        }
    };
    if args.trace {
        probes::run(args, &mut outcome)?;
    }
    trace::set_enabled(false);
    let spans = trace::take();

    let mut metrics = Json::obj();
    let mut put = |name: &str, value: f64, unit: &str| {
        let mut m = Json::obj();
        m.set("value", Json::Num(value));
        m.set("unit", Json::from(unit));
        metrics.set(name, m);
    };
    if args.trace {
        for (name, (value, unit)) in &outcome.layer {
            put(name, *value, unit);
        }
    } else {
        let cell_medians: Vec<f64> = outcome.cell_ms.values().map(|v| stats::median(v)).collect();
        put("setup_s", stats::median(&outcome.setup_s), "s");
        put("run_s", stats::median(&outcome.rounds_s), "s");
        put("op_ms_p50", stats::median(&outcome.op_ms), "ms");
        put("cell_ms_geomean", stats::geomean(&cell_medians), "ms");
        put(
            "peak_rss_mib",
            stats::median(&outcome.rounds_rss_mib),
            "MiB",
        );
    }

    let correct = outcome.problems.is_empty();
    let steal = record::steal_seconds()
        .zip(steal_before)
        .map(|(b, a)| b - a);
    let rec = record::run_record(
        args,
        &outcome,
        wall.elapsed().as_secs_f64(),
        steal,
        &metrics,
    );
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let write = |name: String, json: &Json| {
        let path = out_dir().join(name);
        if let Err(e) = std::fs::write(&path, json.render()) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    };
    write(format!("{tag}.record.json"), &rec);
    if args.trace {
        write(format!("{tag}.spans.json"), &trace::to_json(&spans));
    }
    eprintln!("perfbench: run record {}", rec.render());

    let mut result = Json::obj();
    result.set("correct", Json::Bool(correct));
    result.set("attempted", Json::from(outcome.attempted));
    result.set("failed", Json::from(outcome.failed));
    result.set("metrics", metrics);
    Ok(result)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(result) => println!("{}", result.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
