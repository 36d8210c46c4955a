//! In-memory spans recorded around calls into the layers under test.
//!
//! A span has a name, start and end, the span that was open when it
//! began (its parent), the request it served and the work it covered
//! (values or bytes, by span name). Spans stay in memory until the run
//! ends; [`Tracer::totals`] then folds them into per-name totals whose
//! self time excludes child spans.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The request the span served. No metric folds it; it keeps every
    /// span in the log attributable to its request.
    #[allow(dead_code)]
    pub request: u64,
    pub work: u64,
}

/// Records spans when on; when off, [`Tracer::span`] only calls through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals over all spans of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub work: u64,
}

impl Totals {
    /// Work per self-time second, in millions.
    pub fn m_per_s(&self) -> f64 {
        self.work as f64 / (self.self_ns as f64 / 1e9).max(1e-12) / 1e6
    }

    /// Mean self time in ms.
    pub fn mean_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6 / self.count.max(1) as f64
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        work: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.nest(name, request, work, |_| f())
    }

    /// Like [`Tracer::span`] for a body that needs the tracer itself, so
    /// it can open child spans.
    pub fn nest<R>(
        &mut self,
        name: &'static str,
        request: u64,
        work: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
            work,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals; a span's self time is its duration less the
    /// durations of its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
            t.work += s.work;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.nest("outer", 1, 10, |t| {
            t.span("inner", 1, 4, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", 1, 4, || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.request == 1));
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(inner.work, 8);
        assert!(inner.total_ns >= 5_000_000);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, 1, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
