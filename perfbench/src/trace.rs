//! In-memory spans recorded around the runner's calls into each layer.
//!
//! Tracing is off unless [`set_enabled`] turns it on (the `--trace 1` run);
//! a disabled [`span`] costs one atomic load. Spans carry a name, start and
//! end (nanoseconds since the first span), the enclosing span on the same
//! thread, and an optional request id for served traffic. They stay in
//! memory until [`take`] hands them to the caller, which writes them out
//! when the run ends.

use genbase_util::Json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Served-request id, if the span belongs to one.
    pub request: Option<u64>,
    /// Layer boundary name, e.g. `cell/SciDB/svd` or `serve.connect`.
    pub name: String,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Turn span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Open a span; it closes when the guard drops. `name` is only evaluated
/// when tracing is on.
pub fn span(name: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    SpanGuard(Some(Span {
        id,
        parent,
        request: REQUEST.with(Cell::get),
        name: name(),
        start_ns: now_ns(),
        end_ns: 0,
    }))
}

/// Run `f` with every span it opens on this thread tagged with `request`.
pub fn with_request<R>(request: u64, f: impl FnOnce() -> R) -> R {
    let before = REQUEST.with(|r| r.replace(Some(request)));
    let out = f();
    REQUEST.with(|r| r.set(before));
    out
}

/// An open span (or nothing, when tracing is off).
pub struct SpanGuard(Option<Span>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut span) = self.0.take() {
            span.end_ns = now_ns();
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(span);
            }
        }
    }
}

/// Remove and return every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    SPANS.lock().expect("span store poisoned").clone()
}

/// Self time (duration minus the union of its children's intervals) of
/// every span, in milliseconds, keyed by span id.
pub fn self_ms(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 / 1e6)
        })
        .collect()
}

/// Self times (ms) of the spans whose name satisfies `pick`.
pub fn self_ms_where(spans: &[Span], pick: impl Fn(&str) -> bool) -> Vec<f64> {
    let selfs = self_ms(spans);
    spans
        .iter()
        .filter(|s| pick(&s.name))
        .map(|s| selfs[&s.id])
        .collect()
}

/// The spans as a JSON array (the run's trace file).
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                let mut o = Json::obj();
                o.set("id", Json::from(s.id));
                o.set("parent", s.parent.map(Json::from).unwrap_or(Json::Null));
                o.set("request", s.request.map(Json::from).unwrap_or(Json::Null));
                o.set("name", Json::from(s.name.as_str()));
                o.set("start_ns", Json::from(s.start_ns));
                o.set("end_ns", Json::from(s.end_ns));
                o
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: None,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            s(1, None, 0, 100),
            s(2, Some(1), 10, 40),
            s(3, Some(1), 30, 50),  // overlaps child 2
            s(4, Some(1), 90, 120), // runs past the parent
        ];
        let selfs = self_ms(&spans);
        assert!((selfs[&1] - (100.0 - 40.0 - 10.0) / 1e6).abs() < 1e-15);
        assert!((selfs[&2] - 30.0 / 1e6).abs() < 1e-15);
    }
}
