//! Per-layer probes of the traced run: direct, repeated calls into the
//! datagen, kernel and storage layers (on the medium class's filtered
//! matrices and triples reel), a short served session where the workload
//! has none, and the span-derived layer metrics.

use crate::reference::References;
use crate::sweep::{self, PlanTotals, Sweep, SPILL_BUDGET, THREADS};
use crate::{stats, trace, Args, Outcome};
use genbase::analytics;
use genbase::harness::{Harness, HarnessConfig};
use genbase::{engines, QueryOutput, QueryParams};
use genbase_datagen::{generate, Dataset, GeneratorConfig, SizeClass, SizeSpec};
use genbase_linalg::{covariance, ExecOpts, RegressionMethod};
use genbase_relational::{DataType, Schema};
use genbase_storage::{
    csv_selected, fused_scan, BatchReel, Column, MemTracker, Morsel, SelVec, DEFAULT_BATCH_ROWS,
};
use genbase_util::{Error, Result};

/// Repetitions of each direct probe; metrics are span medians.
const REPS: usize = 3;

/// Requests in the short served session of the sweep workloads' traced run.
const PROBE_SCRIPT_LEN: usize = 300;

/// Every per-layer metric a traced run reports, whatever the workload.
pub const PER_LAYER: [&str; 39] = [
    "datagen.generate_ms",
    "linalg.covariance_ms",
    "linalg.covariance_gflops",
    "linalg.pair_select_ms",
    "linalg.regression_ms",
    "linalg.lanczos_ms",
    "stats.enrichment_ms",
    "bicluster.cheng_church_ms",
    "plan.filter_ms",
    "plan.join_ms",
    "plan.export_ms",
    "plan.restructure_ms",
    "plan.group_agg_ms",
    "plan.analytics_ms",
    "plan.dm_fraction",
    "engine.column_r_cell_ms",
    "engine.column_udf_cell_ms",
    "engine.madlib_cell_ms",
    "engine.postgres_r_cell_ms",
    "storage.bytes_moved_mib",
    "storage.spill_mib",
    "storage.batches",
    "storage.peak_alloc_mib",
    "storage.selected_row_ratio",
    "storage.reel_scan_ms",
    "storage.csv_export_ms",
    "cache.artifact_hit_ratio",
    "cache.evictions",
    "cache.resident_mib",
    "cache.result_hit_ratio",
    "serve.connect_ms_p50",
    "serve.reply_ms_p50",
    "serve.framed_ms_p50",
    "serve.http_ms_p50",
    "serve.hit_ms_p50",
    "serve.cold_ms_p50",
    "serve.exec_ms_p50",
    "serve.scrape_ms",
    "trace.overhead_pct",
];

/// Run every probe the workload did not already cover, then derive the
/// span-based metrics and confirm the full per-layer set is present.
pub fn run(args: &Args, out: &mut Outcome) -> Result<()> {
    let size = if args.workload == "serve_hits_small" {
        SizeClass::Small
    } else {
        SizeClass::Medium
    };
    let data = datagen(size)?;
    let medium = if size == SizeClass::Medium {
        data
    } else {
        generate(
            &GeneratorConfig::new(SizeSpec::scaled(SizeClass::Medium, sweep::SCALE))
                .with_seed(sweep::dataset_seed()),
        )?
    };
    let (m, n) = kernels(&medium, out)?;
    storage(&medium, out)?;
    if args.workload != "serve_hits_small" {
        // The sweeps serve nothing: a short session gives the serve and
        // cache layers' figures.
        let mut session = Outcome::default();
        crate::serve::drive(args.seed, 0.0, PROBE_SCRIPT_LEN, 1, &mut session)?;
        out.attempted += session.attempted;
        out.failed += session.failed;
        out.problems.extend(session.problems);
        out.layer.extend(session.layer);
    }
    let spans = trace::snapshot();
    let p50 = |name: &str| stats::median(&trace::self_ms_where(&spans, |n| n == name));
    out.layer("datagen.generate_ms", p50("datagen.generate"), "ms");
    for name in [
        "linalg.covariance",
        "linalg.pair_select",
        "linalg.regression",
        "linalg.lanczos",
        "stats.enrichment",
        "bicluster.cheng_church",
        "storage.reel_scan",
        "storage.csv_export",
    ] {
        out.layer(&format!("{name}_ms"), p50(name), "ms");
    }
    out.layer("serve.connect_ms_p50", p50("serve.connect"), "ms");
    out.layer("serve.reply_ms_p50", p50("serve.reply"), "ms");
    for (engine, slug) in sweep::SQL_FAMILY {
        let prefix = format!("cell/{engine}/");
        let ms = trace::self_ms_where(&spans, |n| n.starts_with(&prefix));
        let mean = ms.iter().sum::<f64>() / ms.len().max(1) as f64;
        out.layer(&format!("engine.{slug}_cell_ms"), mean, "ms");
    }
    // The covariance rate: n(n+1)/2 length-m dot products, 2 flops per term.
    let flops = (m * n * (n + 1)) as f64;
    let ms = p50("linalg.covariance");
    out.layer(
        "linalg.covariance_gflops",
        flops / (ms * 1e-3) / 1e9,
        "GFLOP/s",
    );
    for name in PER_LAYER {
        if !out.layer.contains_key(name) {
            out.problem(format!("per-layer metric {name} was not measured"));
        }
    }
    Ok(())
}

/// `datagen.generate`: generate the workload's dataset `REPS` times.
fn datagen(size: SizeClass) -> Result<Dataset> {
    let config =
        GeneratorConfig::new(SizeSpec::scaled(size, sweep::SCALE)).with_seed(sweep::dataset_seed());
    let mut data = None;
    for _ in 0..REPS {
        let _span = trace::span(|| "datagen.generate".to_string());
        data = Some(generate(&config)?);
    }
    Ok(data.expect("REPS > 0"))
}

/// Time `f` `REPS` times under a span named `name`; returns the last result.
fn repeat<T>(name: &str, mut f: impl FnMut() -> Result<T>) -> Result<T> {
    let mut last = None;
    for _ in 0..REPS {
        let _span = trace::span(|| name.to_string());
        last = Some(f()?);
    }
    Ok(last.expect("REPS > 0"))
}

/// The kernel layer through the `genbase::analytics` entry points on each
/// query's filtered medium matrix; every result passes its reference check.
/// Returns the covariance input's shape.
fn kernels(data: &Dataset, out: &mut Outcome) -> Result<(usize, usize)> {
    let params = QueryParams::for_dataset(data);
    let opts = ExecOpts::with_threads(THREADS);
    let mut refs = References::new(data, &params);
    let mut check = |out: &mut Outcome, what: &str, output: &QueryOutput| {
        if let Err(e) = refs.check(output) {
            out.problem(format!("{what} probe: {e}"));
        }
    };
    let all_genes: Vec<i64> = (0..data.genes.len() as i64).collect();

    let disease: Vec<usize> = data
        .patients
        .iter()
        .filter(|p| p.disease_id == params.disease_id)
        .map(|p| p.id as usize)
        .collect();
    let cov_in = data.expression.select_rows(&disease);
    let cov = repeat("linalg.covariance", || covariance(&cov_in, &opts))?;
    let (threshold, idx) = repeat("linalg.pair_select", || {
        Ok(analytics::pairs_from_cov(&cov, params.top_pair_fraction))
    })?;
    let pairs = idx
        .iter()
        .map(|&(a, b, v)| {
            (
                a as i64,
                b as i64,
                v,
                data.genes[a].function,
                data.genes[b].function,
            )
        })
        .collect();
    check(
        out,
        "covariance",
        &QueryOutput::Covariance { threshold, pairs },
    );

    let genes: Vec<usize> = data
        .genes
        .iter()
        .filter(|g| g.function < params.function_threshold)
        .map(|g| g.id as usize)
        .collect();
    let gene_ids: Vec<i64> = genes.iter().map(|&g| g as i64).collect();
    let x = data.expression.select_cols(&genes);
    let y: Vec<f64> = data.patients.iter().map(|p| p.drug_response).collect();
    let fit = repeat("linalg.regression", || {
        analytics::fit_regression(&x, &y, &gene_ids, RegressionMethod::Qr, &opts)
    })?;
    check(out, "regression", &fit);
    let svd = repeat("linalg.lanczos", || {
        analytics::svd_output(&x, params.svd_k, params.seed, &opts)
    })?;
    check(out, "svd", &svd);

    let young_men: Vec<usize> = data
        .patients
        .iter()
        .filter(|p| p.gender == params.gender && p.age < params.max_age)
        .map(|p| p.id as usize)
        .collect();
    let patient_ids: Vec<i64> = young_men.iter().map(|&p| p as i64).collect();
    let bic_in = data.expression.select_rows(&young_men);
    let bic = repeat("bicluster.cheng_church", || {
        analytics::bicluster_output(&bic_in, &patient_ids, &all_genes, &params.bicluster, &opts)
    })?;
    check(out, "biclustering", &bic);

    let count = params.sample_count(data.patients.len());
    let sampled = analytics::sample_patients(data.patients.len(), count, params.seed);
    let scores: Vec<f64> = (0..data.genes.len())
        .map(|g| {
            sampled
                .iter()
                .map(|&p| data.expression.get(p, g))
                .sum::<f64>()
                / sampled.len().max(1) as f64
        })
        .collect();
    let enrichment = repeat("stats.enrichment", || {
        analytics::enrichment_output(&scores, &data.ontology.members, &opts)
    })?;
    check(out, "statistics", &enrichment);
    Ok(cov_in.shape())
}

/// The storage layer: replay and fused scans of the medium triples reel
/// built under `fused_spill_medium`'s budget (so it spills), checked
/// against the dataset.
fn storage(data: &Dataset, out: &mut Outcome) -> Result<()> {
    let spill_dir = crate::out_dir().join("spill");
    std::fs::create_dir_all(&spill_dir)
        .map_err(|e| Error::invalid(format!("create {}: {e}", spill_dir.display())))?;
    let tracker = MemTracker::new(Some(SPILL_BUDGET));
    let schema = Schema::new(&[
        ("gene_id", DataType::Int),
        ("patient_id", DataType::Int),
        ("value", DataType::Float),
    ])?;
    let mut reel = BatchReel::new(&tracker, schema, SPILL_BUDGET / 4, Some(&spill_dir));
    let (n_p, n_g) = (data.patients.len(), data.genes.len());
    let mut cols = (Vec::new(), Vec::new(), Vec::new());
    let mut expected_sum = 0.0;
    for p in 0..n_p {
        for (g, &v) in data.expression.row(p).iter().enumerate() {
            cols.0.push(g as i64);
            cols.1.push(p as i64);
            cols.2.push(v);
            expected_sum += v;
            if cols.0.len() == DEFAULT_BATCH_ROWS || (p + 1 == n_p && g + 1 == n_g) {
                let taken = std::mem::take(&mut cols);
                reel.push(Morsel::from_columns(
                    &tracker,
                    vec![
                        Column::Ints(taken.0),
                        Column::Ints(taken.1),
                        Column::Floats(taken.2),
                    ],
                )?)?;
            }
        }
    }
    if reel.spill_bytes() == 0 {
        out.problem("storage probe: the medium reel did not spill under the budget");
    }
    let params = QueryParams::for_dataset(data);
    let in_disease: Vec<bool> = data
        .patients
        .iter()
        .map(|p| p.disease_id == params.disease_id)
        .collect();
    let in_function: Vec<bool> = data
        .genes
        .iter()
        .map(|g| g.function < params.function_threshold)
        .collect();
    let total = (n_p * n_g) as u64;
    let (sum, disease_rows) = repeat("storage.reel_scan", || {
        let mut sum = 0.0;
        reel.replay(|m| {
            sum += m.float_col(2)?.iter().sum::<f64>();
            Ok(())
        })?;
        let rows = fused_scan(
            &reel,
            THREADS,
            |m| {
                let p = m.int_col(1).expect("patient column");
                SelVec::from_predicate(m.n_rows(), |i| in_disease[p[i] as usize])
            },
            |_, _| Ok(()),
        )?;
        Ok((sum, rows))
    })?;
    let want_disease = in_disease.iter().filter(|&&b| b).count() * n_g;
    if (sum - expected_sum).abs() > 1e-9 * expected_sum.abs().max(1.0) {
        out.problem(format!("storage probe: replay sum {sum} vs {expected_sum}"));
    }
    if disease_rows != want_disease as u64 {
        out.problem(format!(
            "storage probe: {disease_rows} disease rows selected, want {want_disease}"
        ));
    }
    let (csv_rows, lines) = repeat("storage.csv_export", || {
        let mut text = String::new();
        let rows = fused_scan(
            &reel,
            THREADS,
            |m| {
                let g = m.int_col(0).expect("gene column");
                SelVec::from_predicate(m.n_rows(), |i| in_function[g[i] as usize])
            },
            |m, sel| {
                csv_selected(m, sel, &mut text);
                Ok(())
            },
        )?;
        Ok((rows, text.lines().count()))
    })?;
    let want_csv = in_function.iter().filter(|&&b| b).count() * n_p;
    if csv_rows != want_csv as u64 || lines != want_csv {
        out.problem(format!(
            "storage probe: exported {csv_rows} rows in {lines} lines, want {want_csv}"
        ));
    }
    out.layer(
        "storage.selected_row_ratio",
        (disease_rows + csv_rows) as f64 / (2 * total) as f64,
        "ratio",
    );
    drop(reel);
    let _ = std::fs::remove_dir_all(&spill_dir);
    Ok(())
}

/// Two Measured-mode rounds of the served workload's 32 small cells, in
/// process: every output passes the reference checks, the engines agree and
/// the rounds are identical. In a traced run they also give the plan,
/// engine and storage-counter layers.
pub fn small_sweep(out: &mut Outcome) -> Result<()> {
    let config = HarnessConfig {
        scale: sweep::SCALE,
        sizes: vec![SizeClass::Small],
        threads: THREADS,
        seed: sweep::dataset_seed(),
        ..HarnessConfig::default()
    };
    let mut sweep = Sweep::new(
        Harness::new(config)?,
        engines::single_node_engines(),
        SizeClass::Small,
    );
    let mut scratch = Outcome::default();
    let mut totals = Vec::new();
    let order: Vec<usize> = (0..sweep.cells.len()).collect();
    for _ in 0..2 {
        let mut t = PlanTotals::default();
        sweep.round(&order, &mut scratch, &mut t);
        totals.push(t);
    }
    sweep.check(&mut scratch)?;
    out.attempted += scratch.attempted;
    out.failed += scratch.failed;
    out.problems.extend(scratch.problems);
    if trace::enabled() {
        sweep::plan_metrics(out, &totals);
    }
    Ok(())
}
