//! `serve_hits_small`: an in-process `BenchServer` at the small class
//! drained by closed-loop clients running a fixed, seeded request script.
//!
//! Each round binds a fresh server (SimOnly timing, result cache on, an
//! artifact-cache budget below the small working set, an admission budget
//! that fits one cold request at a time, a queue deep enough that nothing
//! is rejected) and runs the whole script against it, so every round has
//! the same cold prefix followed by result-cache hits. Requests alternate
//! between the framed and HTTP front ends; every `SCRAPE_EVERY`-th
//! request is a `GET /metrics` scrape.

use crate::stats::SplitMix64;
use crate::sweep::{self, THREADS};
use crate::{overhead_pct, stats, timed_rounds, trace, Args, Outcome};
use genbase::harness::{HarnessConfig, TimingMode};
use genbase::serve::working_set_estimate;
use genbase::{engines, BenchServer, CellKey, FigureId, Query, Scheduler, ServeOptions};
use genbase_datagen::{SizeClass, SizeSpec};
use genbase_util::{read_frame_opt, write_frame, Error, Json, Result};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests per round in `serve_hits_small`.
pub const SCRIPT_LEN: usize = 1200;

/// Closed-loop clients (the host's core count on the reference host).
const CLIENTS: usize = 2;

/// Every this-many-th request is a `GET /metrics` scrape.
const SCRAPE_EVERY: usize = 50;

/// Zipf exponent of cell popularity.
const ZIPF_S: f64 = 1.1;

/// Server configuration: small class, SimOnly timing.
pub fn config() -> HarnessConfig {
    HarnessConfig {
        scale: sweep::SCALE,
        sizes: vec![SizeClass::Small],
        threads: THREADS,
        seed: sweep::dataset_seed(),
        timing: TimingMode::SimOnly,
        ..HarnessConfig::default()
    }
}

/// Artifact-cache budget: four times the small microarray's bytes (1.8 MiB
/// at the default scale), below the ~2.9 MiB the 32 cells' conversion
/// artifacts occupy when nothing is evicted, so fills both hit and evict.
pub fn cache_budget(config: &HarnessConfig) -> u64 {
    SizeSpec::scaled(SizeClass::Small, config.scale).bytes() * 4
}

fn options(config: &HarnessConfig, stop: Arc<AtomicBool>) -> ServeOptions {
    let estimate = working_set_estimate(config, SizeClass::Small);
    ServeOptions::default()
        .with_mem_budget(estimate + estimate / 2)
        .with_queue_depth(64)
        .with_cache_budget(cache_budget(config))
        .with_result_cache()
        .with_stop(stop)
}

/// The supported single-node (engine, query) cells at the small class.
pub fn cells() -> Vec<CellKey> {
    let mut cells = Vec::new();
    for query in Query::ALL {
        for engine in engines::single_node_engines() {
            if engine.supports(query) {
                cells.push(CellKey {
                    figure: FigureId::Fig1,
                    query,
                    size: SizeClass::Small,
                    nodes: 1,
                    engine: engine.name().to_string(),
                });
            }
        }
    }
    cells
}

/// One scripted request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Query `cell` over the framed protocol.
    Framed(usize),
    /// Query `cell` with `POST /query`.
    Http(usize),
    /// `GET /metrics`.
    Scrape,
}

/// The request script: Zipf(`ZIPF_S`) popularity over a seed-shuffled
/// cell order, alternating front ends, a scrape every `SCRAPE_EVERY`.
pub fn script(seed: u64, n_cells: usize, len: usize) -> Vec<Op> {
    let mut rng = SplitMix64(seed ^ 0x5e7e_c0de);
    let mut order: Vec<usize> = (0..n_cells).collect();
    rng.shuffle(&mut order);
    let weights: Vec<f64> = (0..n_cells)
        .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    (0..len)
        .map(|i| {
            if (i + 1) % SCRAPE_EVERY == 0 {
                return Op::Scrape;
            }
            let mut u = rng.unit() * total;
            let mut rank = n_cells - 1;
            for (k, w) in weights.iter().enumerate() {
                if u < *w {
                    rank = k;
                    break;
                }
                u -= w;
            }
            if i % 2 == 0 {
                Op::Framed(order[rank])
            } else {
                Op::Http(order[rank])
            }
        })
        .collect()
}

/// One request as the client saw it.
struct Sample {
    op: Op,
    ms: f64,
    hit: bool,
}

/// What a round's clients collected.
#[derive(Default)]
struct RoundLog {
    samples: Vec<Sample>,
    /// Distinct served outcome JSON per cell index.
    outcomes: BTreeMap<usize, BTreeSet<String>>,
    ok_queries: u64,
    failures: Vec<String>,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> Error + '_ {
    move |e| Error::invalid(format!("{what}: {e}"))
}

fn framed(addr: SocketAddr, key: &CellKey) -> Result<Json> {
    let mut stream = {
        let _span = trace::span(|| "serve.connect".to_string());
        let mut stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
        let mut hello = Json::obj();
        hello.set("type", Json::from("hello"));
        hello.set("protocol", Json::from(genbase::coord::PROTOCOL));
        hello.set("role", Json::from("client"));
        write_frame(&mut stream, &hello)?;
        let welcome = read_frame_opt(&mut stream)?
            .ok_or_else(|| Error::invalid("closed during handshake"))?;
        if welcome.get("type").and_then(Json::as_str) != Some("welcome") {
            return Err(Error::invalid(format!("handshake: {}", welcome.render())));
        }
        stream
    };
    let _span = trace::span(|| "serve.reply".to_string());
    let mut req = Json::obj();
    req.set("type", Json::from("query"));
    req.set("engine", Json::from(key.engine.as_str()));
    req.set("query", Json::from(key.query.name()));
    req.set("size", Json::from(key.size.slug()));
    write_frame(&mut stream, &req)?;
    read_frame_opt(&mut stream)?.ok_or_else(|| Error::invalid("closed before reply"))
}

/// One HTTP/1.1 exchange; returns (status, body).
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(io_err("http write"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io_err("http read"))?;
    let text = String::from_utf8(raw).map_err(|_| Error::invalid("http reply is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| Error::invalid("http reply without header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::invalid("http reply without status"))?;
    Ok((status, body.to_string()))
}

fn query_body(key: &CellKey) -> String {
    let mut req = Json::obj();
    req.set("engine", Json::from(key.engine.as_str()));
    req.set("query", Json::from(key.query.name()));
    req.set("size", Json::from(key.size.slug()));
    req.render()
}

/// The served outcome JSON of a `result` reply.
fn outcome_of(reply: &Json) -> Result<String> {
    if reply.get("type").and_then(Json::as_str) != Some("result") {
        return Err(Error::invalid(format!(
            "reply is not a result: {}",
            reply.render()
        )));
    }
    reply
        .get("outcome")
        .map(Json::render)
        .ok_or_else(|| Error::invalid("result without outcome"))
}

/// Parse one unlabeled counter or gauge from Prometheus text.
pub fn scraped(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

fn client(
    addrs: (SocketAddr, SocketAddr),
    cells: &[CellKey],
    script: &[Op],
    next: &AtomicUsize,
    done: &Mutex<HashSet<usize>>,
    log: &Mutex<RoundLog>,
) {
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&op) = script.get(i) else {
            return;
        };
        let hit = match op {
            Op::Framed(c) | Op::Http(c) => done.lock().expect("done set").contains(&c),
            Op::Scrape => false,
        };
        let t0 = Instant::now();
        let result: Result<Option<(usize, String)>> = trace::with_request(i as u64, || {
            let name = match op {
                Op::Framed(_) => "serve.framed",
                Op::Http(_) => "serve.http",
                Op::Scrape => "serve.scrape",
            };
            let tag = if hit { "hit" } else { "cold" };
            let _span = trace::span(|| match op {
                Op::Scrape => name.to_string(),
                _ => format!("{name}.{tag}"),
            });
            match op {
                Op::Framed(c) => Ok(Some((c, outcome_of(&framed(addrs.0, &cells[c])?)?))),
                Op::Http(c) => {
                    let (status, body) = http(addrs.1, "POST", "/query", &query_body(&cells[c]))?;
                    if status != 200 {
                        return Err(Error::invalid(format!("HTTP {status}: {}", body.trim())));
                    }
                    Ok(Some((c, outcome_of(&Json::parse(&body)?)?)))
                }
                Op::Scrape => {
                    let (status, _) = http(addrs.1, "GET", "/metrics", "")?;
                    if status != 200 {
                        return Err(Error::invalid(format!("scrape HTTP {status}")));
                    }
                    Ok(None)
                }
            }
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut log = log.lock().expect("round log");
        match result {
            Ok(reply) => {
                log.samples.push(Sample { op, ms, hit });
                if let Some((c, outcome)) = reply {
                    log.ok_queries += 1;
                    log.outcomes.entry(c).or_default().insert(outcome);
                    done.lock().expect("done set").insert(c);
                }
            }
            Err(e) => log.failures.push(format!("request {i} ({op:?}): {e}")),
        }
    }
}

/// Client samples and cache/serve counters over all rounds.
#[derive(Default)]
pub struct ServeTotals {
    samples: Vec<Sample>,
    artifact_hits: f64,
    artifact_misses: f64,
    evictions: f64,
    resident_bytes: f64,
    result_hits: f64,
    served: f64,
}

/// Bind a fresh server, run `script` against it with `CLIENTS` clients,
/// check its counters, drain it. Returns the timed wall seconds.
fn round(
    cells: &[CellKey],
    script: &[Op],
    outcomes: &mut BTreeMap<usize, BTreeSet<String>>,
    totals: &mut ServeTotals,
    out: &mut Outcome,
) -> Result<f64> {
    let stop = Arc::new(AtomicBool::new(false));
    let cfg = config();
    let setup = Instant::now();
    let server = {
        let _span = trace::span(|| "setup".to_string());
        BenchServer::bind(
            "127.0.0.1:0",
            "127.0.0.1:0",
            cfg.clone(),
            options(&cfg, stop.clone()),
        )?
    };
    let addrs = (server.frame_addr()?, server.http_addr()?);
    out.setup_s.push(setup.elapsed().as_secs_f64());
    let next = AtomicUsize::new(0);
    let done = Mutex::new(HashSet::new());
    let log = Mutex::new(RoundLog::default());
    let (secs, report, final_metrics) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve());
        let start = Instant::now();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client(addrs, cells, script, &next, &done, &log)))
            .collect();
        let mut panicked = false;
        for c in clients {
            panicked |= c.join().is_err();
        }
        let secs = start.elapsed().as_secs_f64();
        let final_metrics = http(addrs.1, "GET", "/metrics", "");
        stop.store(true, Ordering::SeqCst);
        let report = serving
            .join()
            .map_err(|_| Error::invalid("server thread panicked"))
            .and_then(|r| r);
        if panicked {
            return (
                secs,
                Err(Error::invalid("client thread panicked")),
                final_metrics,
            );
        }
        (secs, report, final_metrics)
    });
    let report = report?;
    let (status, metrics) = final_metrics?;
    if status != 200 {
        return Err(Error::invalid(format!("final scrape HTTP {status}")));
    }
    let log = log.into_inner().expect("round log");
    let queries = script.iter().filter(|op| **op != Op::Scrape).count() as u64;
    let distinct: HashSet<usize> = script
        .iter()
        .filter_map(|op| match op {
            Op::Framed(c) | Op::Http(c) => Some(*c),
            Op::Scrape => None,
        })
        .collect();
    out.attempted += script.len() as u64;
    out.failed += log.failures.len() as u64;
    for f in &log.failures {
        eprintln!("perfbench: {f}");
    }
    let counter = |name: &str| -> Result<f64> {
        scraped(&metrics, name).ok_or_else(|| Error::invalid(format!("/metrics lacks {name}")))
    };
    let served = counter("genbase_served_total")?;
    let result_hits = counter("genbase_result_cache_hits_total")?;
    if served != log.ok_queries as f64 || report.served != log.ok_queries {
        out.problem(format!(
            "server counted {served} served queries, clients received {}",
            log.ok_queries
        ));
    }
    if result_hits > (queries - distinct.len() as u64) as f64 {
        out.problem(format!(
            "{result_hits} result-cache hits exceed {queries} queries minus {} distinct cells",
            distinct.len()
        ));
    }
    if report.rejected != 0 || report.failed != 0 {
        out.problem(format!(
            "server rejected {} and failed {} requests",
            report.rejected, report.failed
        ));
    }
    totals.artifact_hits += counter("genbase_cache_hits_total")? - result_hits;
    totals.artifact_misses += counter("genbase_cache_misses_total")?;
    totals.evictions += counter("genbase_cache_evictions_total")?;
    totals.resident_bytes = counter("genbase_cache_bytes")?;
    totals.result_hits += result_hits;
    totals.served += served;
    for s in &log.samples {
        out.op_ms.push(s.ms);
        if let Op::Framed(c) | Op::Http(c) = s.op {
            out.cell_ms
                .entry(format!(
                    "{}/{}/small",
                    cells[c].engine,
                    cells[c].query.name()
                ))
                .or_default()
                .push(s.ms);
        }
    }
    totals.samples.extend(log.samples);
    for (c, set) in log.outcomes {
        outcomes.entry(c).or_default().extend(set);
    }
    Ok(secs)
}

/// Served-equals-batch check: every distinct served outcome of a cell must
/// equal `Scheduler::run_cell` on that cell in this process. Returns each
/// in-process execution's wall milliseconds.
fn check_outcomes(
    cells: &[CellKey],
    outcomes: &BTreeMap<usize, BTreeSet<String>>,
    out: &mut Outcome,
) -> Result<Vec<f64>> {
    let scheduler = Scheduler::new(config())?;
    let mut exec_ms = Vec::new();
    for (c, key) in cells.iter().enumerate() {
        let span = trace::span(|| format!("serve.exec/{}/{}", key.engine, key.query.name()));
        let t0 = Instant::now();
        let want = scheduler.run_cell(key, THREADS)?.to_json().render();
        exec_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(span);
        for got in outcomes.get(&c).into_iter().flatten() {
            if *got != want {
                out.problem(format!(
                    "served {} differs from the batch outcome",
                    key.id()
                ));
            }
        }
    }
    Ok(exec_ms)
}

/// Run `script_len`-request rounds for about `seconds` (at least
/// `min_rounds`), check every served reply, and record the serve and
/// cache per-layer metrics when tracing.
pub fn drive(
    seed: u64,
    seconds: f64,
    script_len: usize,
    min_rounds: usize,
    out: &mut Outcome,
) -> Result<()> {
    let cells = cells();
    let script = script(seed, cells.len(), script_len);
    let mut outcomes = BTreeMap::new();
    let mut totals = ServeTotals::default();
    let (rounds, rss) = timed_rounds(seconds, min_rounds, |_| {
        round(&cells, &script, &mut outcomes, &mut totals, out)
    })?;
    out.rounds_s = rounds;
    out.rounds_rss_mib = rss;
    let exec_ms = check_outcomes(&cells, &outcomes, out)?;
    if trace::enabled() {
        serve_metrics(out, &totals, &exec_ms);
    }
    out.notes
        .push(("script_seed".to_string(), Json::from(seed)));
    out.notes
        .push(("script_len".to_string(), Json::from(script_len)));
    Ok(())
}

fn serve_metrics(out: &mut Outcome, totals: &ServeTotals, exec_ms: &[f64]) {
    let p50 = |pick: &dyn Fn(&Sample) -> bool| {
        let v: Vec<f64> = totals
            .samples
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.ms)
            .collect();
        stats::median(&v)
    };
    let is_query = |s: &Sample| s.op != Op::Scrape;
    out.layer(
        "serve.framed_ms_p50",
        p50(&|s| matches!(s.op, Op::Framed(_))),
        "ms",
    );
    out.layer(
        "serve.http_ms_p50",
        p50(&|s| matches!(s.op, Op::Http(_))),
        "ms",
    );
    out.layer("serve.hit_ms_p50", p50(&|s| is_query(s) && s.hit), "ms");
    out.layer("serve.cold_ms_p50", p50(&|s| is_query(s) && !s.hit), "ms");
    out.layer("serve.exec_ms_p50", stats::median(exec_ms), "ms");
    out.layer("serve.scrape_ms", p50(&|s| s.op == Op::Scrape), "ms");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.layer(
        "cache.artifact_hit_ratio",
        ratio(
            totals.artifact_hits,
            totals.artifact_hits + totals.artifact_misses,
        ),
        "ratio",
    );
    out.layer("cache.evictions", totals.evictions, "count");
    out.layer(
        "cache.resident_mib",
        totals.resident_bytes / (1u64 << 20) as f64,
        "MiB",
    );
    out.layer(
        "cache.result_hit_ratio",
        ratio(totals.result_hits, totals.served),
        "ratio",
    );
}

/// The `serve_hits_small` workload. Each round's server bind is one
/// set-up sample. Served replies carry each cell's outcome (status, costs,
/// trace) but not its query output, so after the timed rounds an untimed
/// in-process sweep of the same 32 small cells puts their outputs through
/// the reference checks. The process runs on one malloc arena, so
/// `peak_rss_mib` does not depend on which arena each connection thread
/// lands in.
pub fn run(args: &Args) -> Result<Outcome> {
    crate::record::single_malloc_arena();
    let mut out = Outcome::default();
    drive(args.seed, args.seconds, SCRIPT_LEN, 2, &mut out)?;
    if args.trace {
        out.layer("trace.overhead_pct", overhead_pct(&out.rounds_s), "%");
    }
    crate::probes::small_sweep(&mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_script_is_seeded_and_mixes_front_ends_and_scrapes() {
        let a = script(5, 32, 200);
        assert_eq!(a, script(5, 32, 200));
        assert_ne!(a, script(6, 32, 200));
        assert_eq!(a.iter().filter(|op| **op == Op::Scrape).count(), 4);
        assert!(a.iter().any(|op| matches!(op, Op::Framed(_))));
        assert!(a.iter().any(|op| matches!(op, Op::Http(_))));
    }

    #[test]
    fn the_served_outcome_check_rejects_a_perturbed_reply() {
        let cells = cells();
        let key = &cells[..1];
        let good = Scheduler::new(config())
            .unwrap()
            .run_cell(&key[0], THREADS)
            .unwrap()
            .to_json()
            .render();
        let mut outcomes = BTreeMap::from([(0, BTreeSet::from([good.clone()]))]);
        let mut out = Outcome::default();
        check_outcomes(key, &outcomes, &mut out).unwrap();
        assert!(out.problems.is_empty());
        let bad = good.replacen("completed", "infinite", 1);
        assert_ne!(bad, good);
        outcomes.get_mut(&0).unwrap().insert(bad);
        check_outcomes(key, &outcomes, &mut out).unwrap();
        assert_eq!(out.problems.len(), 1);
    }

    #[test]
    fn scraped_reads_unlabeled_samples_only() {
        let text = "# HELP genbase_served_total x\n# TYPE genbase_served_total counter\n\
                    genbase_served_total 12\ngenbase_served_total_extra 3\n";
        assert_eq!(scraped(text, "genbase_served_total"), Some(12.0));
        assert_eq!(scraped(text, "genbase_missing_total"), None);
    }
}
