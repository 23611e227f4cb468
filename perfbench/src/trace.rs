//! In-memory spans recorded by the benchmark around each call into a
//! layer's public functions. Nothing here reaches into the program: a
//! layer's time is what its public call takes, seen from outside.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the process's first
/// tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u64>,
    /// The request (job, fanout invocation, serve request) it belongs to.
    pub req: u64,
}

/// An open span: closed by [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    name: String,
    start: u64,
    parent: Option<u64>,
    req: u64,
}

/// The id children of an open span name as their parent.
pub fn id_of(open: &Option<Open>) -> Option<u64> {
    open.as_ref().map(|o| o.id)
}

/// Span ids, unique across every tracer of the process so the spans of
/// several runs can be analysed together.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Collects spans when enabled; when disabled `begin`/`end` record
/// nothing, so the untraced run pays only a branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        EPOCH.get_or_init(Instant::now);
        Tracer {
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &str, parent: Option<u64>, req: u64) -> Option<Open> {
        self.on.then(|| Open {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            name: name.to_string(),
            start: self.now(),
            parent,
            req,
        })
    }

    pub fn end(&self, open: Option<Open>) {
        if let Some(o) = open {
            let end = self.now();
            self.spans.lock().expect("span list poisoned").push(Span {
                id: o.id,
                name: o.name,
                start: o.start,
                end,
                parent: o.parent,
                req: o.req,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &str, parent: Option<u64>, req: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, parent, req);
        let out = f();
        self.end(open);
        out
    }

    /// A copy of the spans closed so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by the union of its children (children may overlap when they
/// ran on parallel threads, and are clipped to the parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                let hi = hi.min(s.end);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.id, (s.end - s.start) - covered)
        })
        .collect()
}

/// Total duration and total self time per span name, in nanoseconds.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, (u64, u64, usize)> {
    let own = self_times(spans);
    let mut out: BTreeMap<String, (u64, u64, usize)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += s.end - s.start;
        e.1 += own[&s.id];
        e.2 += 1;
    }
    out
}

/// Spans as JSON lines, for writing out when the run ends.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}\n",
            s.id,
            s.name,
            s.start,
            s.end,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.req
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            name: format!("s{id}"),
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > a [10,40) > a1 [15,25); root > b [50,70).
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 15, 25),
            span(4, Some(1), 50, 70),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 30 - 20);
        assert_eq!(own[&2], 30 - 10);
        assert_eq!(own[&3], 10);
        assert_eq!(own[&4], 20);
        // Self times partition the root's interval.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        // Two parallel children [10,60) and [30,80) cover [10,80); a
        // child running past the parent's end is clipped at 90.
        let spans = vec![
            span(1, None, 0, 90),
            span(2, Some(1), 10, 60),
            span(3, Some(1), 30, 80),
            span(4, Some(1), 85, 120),
        ];
        assert_eq!(self_times(&spans)[&1], 90 - 70 - 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, || 7), 7);
        assert!(t.take().is_empty());
        let t = Tracer::new(true);
        let outer = t.begin("outer", None, 3);
        let id = id_of(&outer);
        t.span("inner", id, 3, || ());
        t.end(outer);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, id);
        let totals = by_name(&spans);
        assert_eq!(totals["outer"].2, 1);
        assert!(totals["outer"].0 >= totals["inner"].0);
    }
}
