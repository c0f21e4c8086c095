//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer of the program in
//! [`span`]. While recording is off, [`span`] is a single atomic load and
//! a direct call, so untraced runs measure the program alone. Spans are
//! kept in memory and written out once, when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `isa.parse`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Unique id (1-based).
    pub id: u64,
    /// Enclosing span on the same thread, 0 at top level.
    pub parent: u64,
    /// Benchmark operation the call belongs to, 0 outside any op.
    pub op: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static COUNTS: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags the calling thread's subsequent spans with operation `op`.
pub fn set_op(op: u64) {
    OP.with(|c| c.set(op));
}

/// Runs `f`, recording a span named `name` around it when enabled.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let result = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let op = OP.with(Cell::get);
    SPANS.lock().expect("span log poisoned").push(Span {
        name,
        start_ns,
        end_ns,
        id,
        parent,
        op,
    });
    result
}

/// Adds `value` to the counter `name` when enabled.
pub fn count(name: &'static str, value: f64) {
    if enabled() {
        *COUNTS
            .lock()
            .expect("counter log poisoned")
            .entry(name)
            .or_insert(0.0) += value;
    }
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span log poisoned").clone()
}

/// Every counter recorded so far.
pub fn counts() -> BTreeMap<&'static str, f64> {
    COUNTS.lock().expect("counter log poisoned").clone()
}

/// Total milliseconds per span name.
pub fn totals_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e6;
    }
    out
}

/// Nanoseconds covered by the union of all spans.
pub fn covered_ns(spans: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    iv.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            _ => {
                if let Some((ca, cb)) = cur {
                    total += cb - ca;
                }
                cur = Some((a, b));
            }
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Renders spans as JSON lines.
pub fn json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.op
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, a: u64, b: u64) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            id: 0,
            parent: 0,
            op: 0,
        }
    }

    #[test]
    fn coverage_merges_overlaps() {
        let s = [at("a", 0, 10), at("b", 5, 20), at("c", 50, 60)];
        assert_eq!(covered_ns(&s), 30);
        assert_eq!(totals_ms(&s)["b"], 15.0 / 1e6);
    }
}
