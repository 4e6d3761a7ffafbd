//! The two Fig. 1 sweeps at the medium class: `fig1_medium` (all seven
//! single-node engines, materializing) and `fused_spill_medium` (the four
//! SQL-family engines, fused streaming under a memory budget that forces
//! every reel to spill).

use crate::reference::References;
use crate::stats::SplitMix64;
use crate::{overhead_pct, stats, timed_rounds, trace, Args, Outcome};
use genbase::engine::{Engine, StreamConfig};
use genbase::harness::{Harness, HarnessConfig};
use genbase::plan::Phase;
use genbase::{engines, PlanTrace, Query, QueryOutput, RunOutcome};
use genbase_datagen::SizeClass;
use genbase_util::{Json, Result};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which sweep.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Seven engines × five queries, materializing.
    Fig1,
    /// Four SQL-family engines × five queries, fused streaming with spill.
    FusedSpill,
}

/// Per-side scale of the paper's sizes: medium is 720 genes × 960 patients.
pub const SCALE: f64 = 0.048;

/// Storage budget of `fused_spill_medium`: below every SQL-family cell's
/// materializing peak (16–23 MiB at medium), above every fused peak.
pub const SPILL_BUDGET: u64 = 8 << 20;

/// Kernel threads per cell (the host's core count on the reference host).
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Relative tolerance of the cross-engine agreement check.
const AGREE_TOL: f64 = 1e-5;

/// The SQL-family engines, which have streaming lowerings, with the slug
/// their per-layer metric is named by.
pub const SQL_FAMILY: [(&str, &str); 4] = [
    ("Column store + R", "column_r"),
    ("Column store + UDFs", "column_udf"),
    ("Postgres + Madlib", "madlib"),
    ("Postgres + R", "postgres_r"),
];

/// The dataset generator seed of every workload: the harness default, the
/// one every exhibit of the repository is generated from. Across generator
/// seeds the filters' selectivities move cell costs by 10–40 % and reorder
/// the cells around the median; `--seed` varies the execution order and
/// the request script instead.
pub fn dataset_seed() -> u64 {
    HarnessConfig::default().seed
}

fn config(kind: Kind) -> HarnessConfig {
    let mut cfg = HarnessConfig {
        scale: SCALE,
        sizes: vec![SizeClass::Medium],
        threads: THREADS,
        seed: dataset_seed(),
        ..HarnessConfig::default()
    };
    if kind == Kind::FusedSpill {
        cfg.mem_budget = Some(SPILL_BUDGET);
        cfg.stream = Some(StreamConfig {
            spill_dir: Some(crate::out_dir().join("spill")),
            fused: true,
            ..StreamConfig::default()
        });
    }
    cfg
}

/// Per-OpKind wall time and storage counters summed over one round.
#[derive(Default)]
pub struct PlanTotals {
    /// Wall seconds per op kind name.
    pub wall_by_kind: BTreeMap<&'static str, f64>,
    /// Reported (wall + simulated) seconds on each side of the Fig. 2 split.
    pub dm_secs: f64,
    /// Analytics side of the split.
    pub an_secs: f64,
    /// Storage bytes read plus materialized.
    pub bytes_moved: u64,
    /// Bytes spilled.
    pub spill_bytes: u64,
    /// Morsel batches streamed.
    pub batches: u64,
    /// Largest per-cell peak allocation.
    pub peak_alloc: u64,
}

impl PlanTotals {
    /// Fold one cell's trace in.
    pub fn add(&mut self, trace: &PlanTrace) {
        for op in &trace.ops {
            *self.wall_by_kind.entry(op.kind.name()).or_default() += op.cost.wall_secs;
            match op.phase {
                Phase::DataManagement => self.dm_secs += op.cost.total_secs(),
                Phase::Analytics => self.an_secs += op.cost.total_secs(),
            }
        }
        let mem = trace.memory();
        self.bytes_moved += mem.bytes_in + mem.bytes_out;
        self.spill_bytes += mem.spill_bytes;
        self.batches += mem.batches;
        self.peak_alloc = self.peak_alloc.max(mem.peak_alloc_bytes);
    }
}

/// Report the plan-layer and storage-counter metrics: the median over
/// rounds of each per-round total.
pub fn plan_metrics(out: &mut Outcome, rounds: &[PlanTotals]) {
    let med =
        |f: &dyn Fn(&PlanTotals) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<f64>>());
    for (kind, metric) in [
        ("filter", "plan.filter_ms"),
        ("join", "plan.join_ms"),
        ("export", "plan.export_ms"),
        ("restructure", "plan.restructure_ms"),
        ("group-agg", "plan.group_agg_ms"),
        ("analytics", "plan.analytics_ms"),
    ] {
        let ms = med(&|r| r.wall_by_kind.get(kind).copied().unwrap_or(0.0) * 1e3);
        out.layer(metric, ms, "ms");
    }
    out.layer(
        "plan.dm_fraction",
        med(&|r| r.dm_secs / (r.dm_secs + r.an_secs).max(f64::MIN_POSITIVE)),
        "ratio",
    );
    const MIB: f64 = (1u64 << 20) as f64;
    out.layer(
        "storage.bytes_moved_mib",
        med(&|r| r.bytes_moved as f64 / MIB),
        "MiB",
    );
    out.layer(
        "storage.spill_mib",
        med(&|r| r.spill_bytes as f64 / MIB),
        "MiB",
    );
    out.layer("storage.batches", med(&|r| r.batches as f64), "count");
    out.layer(
        "storage.peak_alloc_mib",
        med(&|r| r.peak_alloc as f64 / MIB),
        "MiB",
    );
}

/// A sweep over `cells` on one harness, keeping each cell's first output.
pub struct Sweep {
    /// The harness (dataset pool + configuration).
    pub harness: Harness,
    /// Engines, in legend order.
    pub engines: Vec<Box<dyn Engine>>,
    /// (engine index, query) per supported cell, in plan order.
    pub cells: Vec<(usize, Query)>,
    /// Size class the cells run at.
    pub size: SizeClass,
    /// First completed output per cell.
    pub first: Vec<Option<QueryOutput>>,
    /// Every completed cell must have streamed batches and spilled
    /// (`fused_spill_medium`'s defining property).
    pub must_spill: bool,
}

impl Sweep {
    /// Sweep every supported (engine, query) cell of `engines` at `size`.
    pub fn new(harness: Harness, engines: Vec<Box<dyn Engine>>, size: SizeClass) -> Sweep {
        let cells: Vec<(usize, Query)> = Query::ALL
            .iter()
            .flat_map(|&q| {
                engines
                    .iter()
                    .enumerate()
                    .filter(move |(_, e)| e.supports(q))
                    .map(move |(i, _)| (i, q))
            })
            .collect();
        let first = vec![None; cells.len()];
        Sweep {
            harness,
            engines,
            cells,
            size,
            first,
            must_spill: false,
        }
    }

    fn cell_id(&self, ci: usize) -> String {
        let (ei, q) = self.cells[ci];
        format!(
            "{}/{}/{}",
            self.engines[ei].name(),
            q.name(),
            self.size.slug()
        )
    }

    /// Cell indices in a seeded random order.
    pub fn shuffled(&self, rng: &mut SplitMix64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        rng.shuffle(&mut order);
        order
    }

    /// Run every cell once, in `order`; returns the round's wall seconds.
    /// Output comparisons run after the round's clock stops.
    pub fn round(&mut self, order: &[usize], out: &mut Outcome, totals: &mut PlanTotals) -> f64 {
        let mut outputs = Vec::with_capacity(self.cells.len());
        let start = Instant::now();
        for &ci in order {
            let (ei, q) = self.cells[ci];
            let engine = self.engines[ei].as_ref();
            let span = trace::span(|| format!("cell/{}/{}", engine.name(), q.name()));
            let t0 = Instant::now();
            let rec = self.harness.run_cell(engine, q, self.size, 1);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(span);
            out.attempted += 1;
            match rec.map(|r| r.outcome) {
                Ok(RunOutcome::Completed(report)) => {
                    let mem = report.trace.memory();
                    if self.must_spill && (mem.batches == 0 || mem.spill_bytes == 0) {
                        out.problem(format!(
                            "{} did not stream and spill ({} batches, {} bytes spilled)",
                            self.cell_id(ci),
                            mem.batches,
                            mem.spill_bytes
                        ));
                    }
                    out.op_ms.push(ms);
                    out.cell_ms.entry(self.cell_id(ci)).or_default().push(ms);
                    totals.add(&report.trace);
                    outputs.push((ci, report.output));
                }
                Ok(RunOutcome::Infinite { reason }) => {
                    out.failed += 1;
                    eprintln!("perfbench: {} went infinite: {reason}", self.cell_id(ci));
                }
                Ok(RunOutcome::Unsupported) => {
                    out.failed += 1;
                    eprintln!("perfbench: {} is unsupported", self.cell_id(ci));
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("perfbench: {} failed: {e}", self.cell_id(ci));
                }
            }
        }
        let secs = start.elapsed().as_secs_f64();
        for (ci, output) in outputs {
            match &self.first[ci] {
                None => self.first[ci] = Some(output),
                Some(first) if *first != output => {
                    let id = self.cell_id(ci);
                    out.problem(format!("{id}: output changed between repeats"));
                }
                Some(_) => {}
            }
        }
        secs
    }

    /// Cross-engine agreement plus the reference check of every cell's
    /// first output.
    pub fn check(&self, out: &mut Outcome) -> Result<()> {
        let data = self.harness.dataset(self.size)?;
        let params = self.harness.params(self.size)?;
        let mut refs = References::new(&data, &params);
        for q in Query::ALL {
            let mut agreed: Option<(String, &QueryOutput)> = None;
            for ci in (0..self.cells.len()).filter(|&ci| self.cells[ci].1 == q) {
                let Some(output) = &self.first[ci] else {
                    continue;
                };
                if let Err(e) = refs.check(output) {
                    out.problem(format!("{}: {e}", self.cell_id(ci)));
                }
                match &agreed {
                    None => agreed = Some((self.cell_id(ci), output)),
                    Some((base, reference)) => {
                        if let Some(e) = output.consistency_error(reference, AGREE_TOL) {
                            out.problem(format!("{} disagrees with {base}: {e}", self.cell_id(ci)));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

fn engines_for(kind: Kind) -> Vec<Box<dyn Engine>> {
    engines::single_node_engines()
        .into_iter()
        .filter(|e| kind == Kind::Fig1 || SQL_FAMILY.iter().any(|(name, _)| *name == e.name()))
        .collect()
}

/// Run one sweep workload.
pub fn run(args: &Args, kind: Kind) -> Result<Outcome> {
    let mut out = Outcome::default();
    if kind == Kind::FusedSpill {
        let dir = crate::out_dir().join("spill");
        std::fs::create_dir_all(&dir)
            .map_err(|e| genbase_util::Error::invalid(format!("create {}: {e}", dir.display())))?;
    }
    let mut harness = None;
    for _ in 0..SETUPS {
        let span = trace::span(|| "setup".to_string());
        let t = Instant::now();
        let h = Harness::new(config(kind))?;
        h.dataset(SizeClass::Medium)?;
        // Warm-up: one cheap cell starts the runtime pool and touches the
        // dataset before anything is timed.
        let warm = &engines_for(kind)[0];
        h.run_cell(warm.as_ref(), Query::Statistics, SizeClass::Medium, 1)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        drop(span);
        harness = Some(h);
    }
    let harness = harness.expect("at least one set-up");
    let mut sweep = Sweep::new(harness, engines_for(kind), SizeClass::Medium);
    sweep.must_spill = kind == Kind::FusedSpill;

    let mut totals: Vec<PlanTotals> = Vec::new();
    let mut rng = SplitMix64(args.seed ^ 0x0ce1_1005);
    let (rounds, rss) = timed_rounds(args.seconds, 2, |_| {
        let mut t = PlanTotals::default();
        let order = sweep.shuffled(&mut rng);
        let secs = sweep.round(&order, &mut out, &mut t);
        totals.push(t);
        Ok(secs)
    })?;
    out.rounds_s = rounds;
    out.rounds_rss_mib = rss;
    sweep.check(&mut out)?;

    if args.trace {
        plan_metrics(&mut out, &totals);
        out.layer("trace.overhead_pct", overhead_pct(&out.rounds_s), "%");
    }
    out.notes
        .push(("cells".to_string(), Json::from(sweep.cells.len())));
    out.notes
        .push(("dataset_seed".to_string(), Json::from(dataset_seed())));
    out.notes
        .push(("order_seed".to_string(), Json::from(args.seed)));
    if kind == Kind::FusedSpill {
        let _ = std::fs::remove_dir_all(crate::out_dir().join("spill"));
    }
    Ok(out)
}
