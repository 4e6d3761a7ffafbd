//! Reference checks written apart from the program: every query output is
//! recomputed or bounded here from the raw generated dataset, without
//! calling any of the program's kernels. The one program function used is
//! [`genbase::analytics::sample_patients`], which defines Query 5's input
//! sample rather than computing its answer.

use genbase::{QueryOutput, QueryParams};
use genbase_datagen::Dataset;

/// Genes kept by the Query 1/4 filter, ascending ids.
fn function_filtered_genes(data: &Dataset, params: &QueryParams) -> Vec<usize> {
    data.genes
        .iter()
        .filter(|g| g.function < params.function_threshold)
        .map(|g| g.id as usize)
        .collect()
}

fn close(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    (a - b).abs() <= abs + rel * a.abs().max(b.abs())
}

/// Query 2 reference: two-pass sample covariance over the disease-filtered
/// patients, its top-fraction |cov| threshold and qualifying pair count.
pub struct CovReference {
    n: usize,
    cov: Vec<f64>,
    threshold: f64,
    count: usize,
}

impl CovReference {
    /// Compute the reference for `data`.
    pub fn new(data: &Dataset, params: &QueryParams) -> CovReference {
        let rows: Vec<usize> = data
            .patients
            .iter()
            .filter(|p| p.disease_id == params.disease_id)
            .map(|p| p.id as usize)
            .collect();
        let n = data.genes.len();
        let m = rows.len();
        // Pass 1: means. Pass 2: centered column-major copy.
        let mut means = vec![0.0; n];
        for &r in &rows {
            for (j, mean) in means.iter_mut().enumerate() {
                *mean += data.expression.get(r, j);
            }
        }
        for mean in &mut means {
            *mean /= m as f64;
        }
        let centered: Vec<Vec<f64>> = (0..n)
            .map(|j| {
                rows.iter()
                    .map(|&r| data.expression.get(r, j) - means[j])
                    .collect()
            })
            .collect();
        let mut cov = vec![0.0; n * n];
        let denom = (m.max(2) - 1) as f64;
        for i in 0..n {
            for j in i..n {
                let s: f64 = centered[i]
                    .iter()
                    .zip(&centered[j])
                    .map(|(a, b)| a * b)
                    .sum();
                cov[i * n + j] = s / denom;
                cov[j * n + i] = s / denom;
            }
        }
        let mut abs: Vec<f64> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .map(|(i, j)| cov[i * n + j].abs())
            .collect();
        let keep = ((abs.len() as f64 * params.top_pair_fraction).ceil() as usize)
            .clamp(1, abs.len().max(1));
        abs.sort_by(|a, b| b.total_cmp(a));
        let threshold = abs.get(keep - 1).copied().unwrap_or(0.0);
        let count = abs.iter().filter(|&&v| v >= threshold).count();
        CovReference {
            n,
            cov,
            threshold,
            count,
        }
    }
}

/// Lazily-computed references for one dataset.
pub struct References<'a> {
    data: &'a Dataset,
    params: &'a QueryParams,
    cov: Option<CovReference>,
}

impl<'a> References<'a> {
    /// References over `data` answering the questions `params` poses.
    pub fn new(data: &'a Dataset, params: &'a QueryParams) -> References<'a> {
        References {
            data,
            params,
            cov: None,
        }
    }

    /// `Err` with a description when `out` fails its reference check.
    pub fn check(&mut self, out: &QueryOutput) -> Result<(), String> {
        let (data, params) = (self.data, self.params);
        match out {
            QueryOutput::Regression {
                intercept,
                coefficients,
                r_squared,
            } => check_regression(data, params, *intercept, coefficients, *r_squared),
            QueryOutput::Covariance { threshold, pairs } => {
                let reference = self
                    .cov
                    .get_or_insert_with(|| CovReference::new(data, params));
                check_covariance(data, reference, *threshold, pairs)
            }
            QueryOutput::Biclusters(found) => check_biclusters(data, params, found),
            QueryOutput::Svd { eigenvalues } => check_svd(data, params, eigenvalues),
            QueryOutput::Enrichment { per_term } => check_enrichment(data, params, per_term),
        }
    }
}

fn check_covariance(
    data: &Dataset,
    reference: &CovReference,
    threshold: f64,
    pairs: &[(i64, i64, f64, i64, i64)],
) -> Result<(), String> {
    if !close(threshold, reference.threshold, 1e-9, 1e-15) {
        return Err(format!(
            "covariance threshold {threshold} vs reference {}",
            reference.threshold
        ));
    }
    if pairs.len() != reference.count {
        return Err(format!(
            "{} covariance pairs vs {} in the reference",
            pairs.len(),
            reference.count
        ));
    }
    let n = reference.n;
    for (k, &(a, b, v, fa, fb)) in pairs.iter().enumerate() {
        let (ai, bi) = (a as usize, b as usize);
        if a < 0 || b < 0 || ai >= bi || bi >= n {
            return Err(format!("pair ({a},{b}) is not an ordered gene pair"));
        }
        let want = reference.cov[ai * n + bi];
        if !close(v, want, 1e-9, 1e-12 * reference.threshold) {
            return Err(format!("pair ({a},{b}) cov {v} vs reference {want}"));
        }
        if v.abs() < threshold || want.abs() < reference.threshold * (1.0 - 1e-9) {
            return Err(format!("pair ({a},{b}) |cov| {v} is below the threshold"));
        }
        if fa != data.genes[ai].function || fb != data.genes[bi].function {
            return Err(format!("pair ({a},{b}) carries the wrong gene metadata"));
        }
        if k > 0 {
            let prev = pairs[k - 1];
            let ordered =
                prev.2.abs() > v.abs() || (prev.2.abs() == v.abs() && (prev.0, prev.1) < (a, b));
            if !ordered {
                return Err(format!("pairs not in descending |cov| order at ({a},{b})"));
            }
        }
    }
    Ok(())
}

fn check_regression(
    data: &Dataset,
    params: &QueryParams,
    intercept: f64,
    coefficients: &[(i64, f64)],
    r_squared: f64,
) -> Result<(), String> {
    let genes = function_filtered_genes(data, params);
    let ids: Vec<i64> = coefficients.iter().map(|&(g, _)| g).collect();
    if ids != genes.iter().map(|&g| g as i64).collect::<Vec<_>>() {
        return Err("regression coefficients do not cover the filtered genes".into());
    }
    let n = data.patients.len();
    let y: Vec<f64> = data.patients.iter().map(|p| p.drug_response).collect();
    let residual: Vec<f64> = (0..n)
        .map(|r| {
            let fit: f64 = genes
                .iter()
                .zip(coefficients)
                .map(|(&g, &(_, beta))| data.expression.get(r, g) * beta)
                .sum();
            y[r] - intercept - fit
        })
        .collect();
    // Normal equations of the design [1 | X]: Aᵀ(y − Xβ) must vanish.
    let project = |v: &[f64]| -> f64 {
        let mut sq = v.iter().sum::<f64>().powi(2);
        for &g in &genes {
            let dot: f64 = (0..n).map(|r| data.expression.get(r, g) * v[r]).sum();
            sq += dot * dot;
        }
        sq.sqrt()
    };
    let rel = project(&residual) / project(&y).max(f64::MIN_POSITIVE);
    if rel.is_nan() || rel > 1e-6 {
        return Err(format!(
            "normal-equation residual {rel:e} relative to |Aᵀy|"
        ));
    }
    let mean = y.iter().sum::<f64>() / n as f64;
    let sst: f64 = y.iter().map(|v| (v - mean).powi(2)).sum();
    let ssr: f64 = residual.iter().map(|v| v * v).sum();
    let want = 1.0 - ssr / sst;
    if !(0.0..=1.0).contains(&r_squared) || !close(r_squared, want, 1e-8, 1e-10) {
        return Err(format!("R^2 {r_squared} vs reference {want}"));
    }
    Ok(())
}

/// Cheng–Church mean squared residue of the `rows × cols` submatrix.
pub fn mean_squared_residue(data: &Dataset, rows: &[usize], cols: &[usize]) -> f64 {
    let (nr, nc) = (rows.len() as f64, cols.len() as f64);
    let at = |r: usize, c: usize| data.expression.get(r, c);
    let row_means: Vec<f64> = rows
        .iter()
        .map(|&r| cols.iter().map(|&c| at(r, c)).sum::<f64>() / nc)
        .collect();
    let col_means: Vec<f64> = cols
        .iter()
        .map(|&c| rows.iter().map(|&r| at(r, c)).sum::<f64>() / nr)
        .collect();
    let all = row_means.iter().sum::<f64>() / nr;
    let mut h = 0.0;
    for (i, &r) in rows.iter().enumerate() {
        for (j, &c) in cols.iter().enumerate() {
            h += (at(r, c) - row_means[i] - col_means[j] + all).powi(2);
        }
    }
    h / (nr * nc)
}

fn check_biclusters(
    data: &Dataset,
    params: &QueryParams,
    found: &[genbase::query::BiclusterOut],
) -> Result<(), String> {
    let cfg = &params.bicluster;
    if found.is_empty() || found.len() > cfg.max_biclusters {
        return Err(format!("{} biclusters found", found.len()));
    }
    // Only the first bicluster is computed on unmasked data, so only its
    // residue can be recomputed from the raw expression.
    let bc = &found[0];
    let eligible = |p: i64| {
        data.patients
            .get(p as usize)
            .is_some_and(|rec| rec.gender == params.gender && rec.age < params.max_age)
    };
    let strictly_ascending = |v: &[i64]| v.windows(2).all(|w| w[0] < w[1]);
    if bc.patient_ids.len() < cfg.min_rows || bc.gene_ids.len() < cfg.min_cols {
        return Err("bicluster smaller than the configured minimum".into());
    }
    if !strictly_ascending(&bc.patient_ids) || !strictly_ascending(&bc.gene_ids) {
        return Err("bicluster ids are not sorted and distinct".into());
    }
    if !bc.patient_ids.iter().all(|&p| p >= 0 && eligible(p)) {
        return Err("bicluster holds a patient outside the gender/age filter".into());
    }
    if !bc
        .gene_ids
        .iter()
        .all(|&g| g >= 0 && (g as usize) < data.genes.len())
    {
        return Err("bicluster holds an unknown gene".into());
    }
    let rows: Vec<usize> = bc.patient_ids.iter().map(|&p| p as usize).collect();
    let cols: Vec<usize> = bc.gene_ids.iter().map(|&g| g as usize).collect();
    let msr = mean_squared_residue(data, &rows, &cols);
    if !close(bc.msr, msr, 1e-9, 1e-15) {
        return Err(format!("bicluster MSR {} vs recomputed {msr}", bc.msr));
    }
    if bc.msr > cfg.delta {
        return Err(format!(
            "bicluster MSR {} exceeds delta {}",
            bc.msr, cfg.delta
        ));
    }
    Ok(())
}

fn check_svd(data: &Dataset, params: &QueryParams, eigenvalues: &[f64]) -> Result<(), String> {
    let genes = function_filtered_genes(data, params);
    let k = params.svd_k.min(genes.len()).max(1);
    if eigenvalues.len() != k {
        return Err(format!("{} eigenvalues, want {k}", eigenvalues.len()));
    }
    let n = data.patients.len();
    // X is n × |genes|; trace(XᵀX) is the squared Frobenius norm.
    let x: Vec<Vec<f64>> = (0..n)
        .map(|r| genes.iter().map(|&g| data.expression.get(r, g)).collect())
        .collect();
    let trace: f64 = x.iter().flatten().map(|v| v * v).sum();
    let top = eigenvalues[0];
    let slack = 1e-9 * top.abs();
    if eigenvalues.windows(2).any(|w| w[1] > w[0] + slack) {
        return Err("eigenvalues are not descending".into());
    }
    if eigenvalues.iter().any(|&v| v < -slack) {
        return Err("negative eigenvalue".into());
    }
    let sum: f64 = eigenvalues.iter().sum();
    if sum > trace * (1.0 + 1e-9) {
        return Err(format!("eigenvalues sum {sum} exceeds trace(XᵀX) {trace}"));
    }
    let power = power_iteration(&x, genes.len());
    if !close(top, power, 1e-6, 0.0) {
        return Err(format!("top eigenvalue {top} vs power iteration {power}"));
    }
    Ok(())
}

/// Largest eigenvalue of XᵀX by power iteration (Rayleigh quotient).
fn power_iteration(x: &[Vec<f64>], d: usize) -> f64 {
    let mut v: Vec<f64> = (0..d).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    let mut lambda = 0.0;
    for _ in 0..5000 {
        let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
        v.iter_mut().for_each(|a| *a /= norm);
        let xv: Vec<f64> = x
            .iter()
            .map(|row| row.iter().zip(&v).map(|(a, b)| a * b).sum())
            .collect();
        let mut w = vec![0.0; d];
        for (row, s) in x.iter().zip(&xv) {
            for (wi, a) in w.iter_mut().zip(row) {
                *wi += a * s;
            }
        }
        let next: f64 = w.iter().zip(&v).map(|(a, b)| a * b).sum();
        v = w;
        if (next - lambda).abs() <= 1e-14 * next.abs() {
            return next;
        }
        lambda = next;
    }
    lambda
}

fn check_enrichment(
    data: &Dataset,
    params: &QueryParams,
    per_term: &[(usize, f64, f64)],
) -> Result<(), String> {
    let n_genes = data.genes.len();
    let count = params.sample_count(data.patients.len());
    let sampled = genbase::analytics::sample_patients(data.patients.len(), count, params.seed);
    let scores: Vec<f64> = (0..n_genes)
        .map(|g| {
            if sampled.is_empty() {
                0.0
            } else {
                sampled
                    .iter()
                    .map(|&p| data.expression.get(p, g))
                    .sum::<f64>()
                    / sampled.len() as f64
            }
        })
        .collect();
    let mut want = Vec::new();
    for (term, members) in data.ontology.members.iter().enumerate() {
        if members.is_empty() || members.len() >= n_genes {
            continue;
        }
        let mut in_group = vec![false; n_genes];
        for &g in members {
            if (g as usize) < n_genes {
                in_group[g as usize] = true;
            }
        }
        let g1: Vec<f64> = (0..n_genes)
            .filter(|&g| in_group[g])
            .map(|g| scores[g])
            .collect();
        let g2: Vec<f64> = (0..n_genes)
            .filter(|&g| !in_group[g])
            .map(|g| scores[g])
            .collect();
        if g1.is_empty() || g2.is_empty() {
            return Err(format!("GO term {term} leaves an empty group"));
        }
        let (z, p) = naive_rank_sum(&g1, &g2);
        want.push((term, z, p));
    }
    if per_term.len() != want.len() {
        return Err(format!(
            "{} terms tested, want {}",
            per_term.len(),
            want.len()
        ));
    }
    for (&(term, z, p), &(want_term, want_z, want_p)) in per_term.iter().zip(&want) {
        if term != want_term {
            return Err(format!(
                "term {term} reported where {want_term} was expected"
            ));
        }
        if !close(z, want_z, 1e-9, 1e-12) {
            return Err(format!("term {term} z {z} vs naive rank-sum {want_z}"));
        }
        if !(0.0..=1.0).contains(&p) || !close(p, want_p, 1e-6, 1e-12) {
            return Err(format!("term {term} p {p} vs naive rank-sum {want_p}"));
        }
    }
    Ok(())
}

/// Wilcoxon rank-sum z (tie-corrected variance, 0.5 continuity
/// correction) and two-sided normal p, from the pairwise definition of U.
pub fn naive_rank_sum(g1: &[f64], g2: &[f64]) -> (f64, f64) {
    let mut u = 0.0;
    for &a in g1 {
        for &b in g2 {
            if a > b {
                u += 1.0;
            } else if a == b {
                u += 0.5;
            }
        }
    }
    let (n1, n2) = (g1.len() as f64, g2.len() as f64);
    let n = n1 + n2;
    let mut all: Vec<f64> = g1.iter().chain(g2).copied().collect();
    all.sort_by(f64::total_cmp);
    let mut tie_term = 0.0;
    let mut i = 0;
    while i < all.len() {
        let mut j = i;
        while j < all.len() && all[j] == all[i] {
            j += 1;
        }
        let t = (j - i) as f64;
        tie_term += t * t * t - t;
        i = j;
    }
    let var = n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    let diff = u - n1 * n2 / 2.0;
    let z = if var <= 0.0 || diff == 0.0 {
        0.0
    } else {
        (diff.abs() - 0.5).max(0.0) / var.sqrt() * diff.signum()
    };
    (z, erfc(z.abs() / std::f64::consts::SQRT_2).min(1.0))
}

/// Complementary error function to ~1e-14: Maclaurin series below 2.5,
/// Laplace continued fraction above.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 2.5 {
        let mut term = x;
        let mut sum = x;
        for k in 1..200 {
            term *= -x * x / k as f64;
            let add = term / (2 * k + 1) as f64;
            sum += add;
            if add.abs() < 1e-17 {
                break;
            }
        }
        return 1.0 - sum * 2.0 / std::f64::consts::PI.sqrt();
    }
    let mut f = x;
    for k in (1..300).rev() {
        f = x + (k as f64 / 2.0) / f;
    }
    (-x * x).exp() / std::f64::consts::PI.sqrt() / f
}

#[cfg(test)]
mod tests {
    use super::*;
    use genbase::prelude::*;
    use genbase_datagen::{generate, GeneratorConfig, SizeClass, SizeSpec};

    fn dataset() -> Dataset {
        generate(&GeneratorConfig::new(SizeSpec::scaled(SizeClass::Small, 0.012)).with_seed(7))
            .unwrap()
    }

    fn output(data: &Dataset, query: Query) -> QueryOutput {
        let params = QueryParams::for_dataset(data);
        engines::SciDb::new()
            .run(query, data, &params, &ExecContext::default())
            .unwrap()
            .output
    }

    fn verdict(data: &Dataset, out: &QueryOutput) -> Result<(), String> {
        let params = QueryParams::for_dataset(data);
        References::new(data, &params).check(out)
    }

    #[test]
    fn covariance_check_rejects_perturbed_pairs() {
        let data = dataset();
        let good = output(&data, Query::Covariance);
        verdict(&data, &good).unwrap();
        let QueryOutput::Covariance { threshold, pairs } = good else {
            unreachable!()
        };
        let mut bad = pairs.clone();
        bad[0].2 *= 1.001;
        let perturbed = QueryOutput::Covariance {
            threshold,
            pairs: bad,
        };
        assert!(verdict(&data, &perturbed).is_err());
        let dropped = QueryOutput::Covariance {
            threshold,
            pairs: pairs[1..].to_vec(),
        };
        assert!(verdict(&data, &dropped).is_err());
        let mut meta = pairs.clone();
        meta[0].3 += 1;
        let mislabeled = QueryOutput::Covariance {
            threshold,
            pairs: meta,
        };
        assert!(verdict(&data, &mislabeled).is_err());
        let shifted = QueryOutput::Covariance {
            threshold: threshold * 1.01,
            pairs,
        };
        assert!(verdict(&data, &shifted).is_err());
    }

    #[test]
    fn regression_check_rejects_a_perturbed_fit() {
        let data = dataset();
        let good = output(&data, Query::Regression);
        verdict(&data, &good).unwrap();
        let QueryOutput::Regression {
            intercept,
            coefficients,
            r_squared,
        } = good
        else {
            unreachable!()
        };
        let mut bad = coefficients.clone();
        bad[0].1 += 0.01;
        let perturbed = QueryOutput::Regression {
            intercept,
            coefficients: bad,
            r_squared,
        };
        assert!(verdict(&data, &perturbed).is_err());
        let wrong_r2 = QueryOutput::Regression {
            intercept,
            coefficients,
            r_squared: r_squared * 0.99,
        };
        assert!(verdict(&data, &wrong_r2).is_err());
    }

    #[test]
    fn bicluster_check_rejects_a_perturbed_residue_or_membership() {
        let data = dataset();
        let good = output(&data, Query::Biclustering);
        verdict(&data, &good).unwrap();
        let QueryOutput::Biclusters(found) = good else {
            unreachable!()
        };
        let mut bad = found.clone();
        bad[0].msr *= 0.5;
        assert!(verdict(&data, &QueryOutput::Biclusters(bad)).is_err());
        let mut moved = found.clone();
        let outside = (0..data.genes.len() as i64)
            .find(|g| !moved[0].gene_ids.contains(g))
            .unwrap();
        moved[0].gene_ids.push(outside);
        moved[0].gene_ids.sort_unstable();
        assert!(verdict(&data, &QueryOutput::Biclusters(moved)).is_err());
        assert!(verdict(&data, &QueryOutput::Biclusters(Vec::new())).is_err());
    }

    #[test]
    fn svd_check_rejects_perturbed_eigenvalues() {
        let data = dataset();
        let good = output(&data, Query::Svd);
        verdict(&data, &good).unwrap();
        let QueryOutput::Svd { eigenvalues } = good else {
            unreachable!()
        };
        let mut top = eigenvalues.clone();
        top[0] *= 1.0001;
        assert!(verdict(&data, &QueryOutput::Svd { eigenvalues: top }).is_err());
        let mut swapped = eigenvalues.clone();
        swapped.swap(1, 2);
        assert!(verdict(
            &data,
            &QueryOutput::Svd {
                eigenvalues: swapped
            }
        )
        .is_err());
        let mut negative = eigenvalues.clone();
        *negative.last_mut().unwrap() = -1.0;
        assert!(verdict(
            &data,
            &QueryOutput::Svd {
                eigenvalues: negative
            }
        )
        .is_err());
        let mut inflated = eigenvalues;
        let big = inflated[0];
        inflated.iter_mut().skip(1).for_each(|v| *v = big);
        assert!(verdict(
            &data,
            &QueryOutput::Svd {
                eigenvalues: inflated
            }
        )
        .is_err());
    }

    #[test]
    fn enrichment_check_rejects_perturbed_statistics() {
        let data = dataset();
        let good = output(&data, Query::Statistics);
        verdict(&data, &good).unwrap();
        let QueryOutput::Enrichment { per_term } = good else {
            unreachable!()
        };
        let mut z = per_term.clone();
        z[0].1 += 1e-3;
        assert!(verdict(&data, &QueryOutput::Enrichment { per_term: z }).is_err());
        let mut p = per_term.clone();
        p[0].2 = (p[0].2 * 1.01).min(1.0) + 1e-9;
        assert!(verdict(&data, &QueryOutput::Enrichment { per_term: p }).is_err());
        let short = per_term[1..].to_vec();
        assert!(verdict(&data, &QueryOutput::Enrichment { per_term: short }).is_err());
    }

    #[test]
    fn naive_rank_sum_matches_a_hand_count() {
        // g1 = {3, 4}, g2 = {1, 2, 3}: U = 2·2 + (1 + 0.5) = 5.5 with one tie.
        let (z, p) = naive_rank_sum(&[3.0, 4.0], &[1.0, 2.0, 3.0]);
        let var = 2.0 * 3.0 / 12.0 * (6.0 - 6.0 / 20.0);
        let want = (5.5 - 3.0 - 0.5) / f64::sqrt(var);
        assert!((z - want).abs() < 1e-12);
        assert!(p > 0.0 && p < 1.0);
        assert!((erfc(0.0) - 1.0).abs() < 1e-15);
        assert!((erfc(3.0) - 2.209_049_699_858_544e-5).abs() < 1e-18);
    }
}
