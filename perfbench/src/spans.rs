//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark itself around each call
//! into a layer; nothing inside the simulator is instrumented. When the
//! recorder is off, `begin`/`end` cost one branch and record nothing, so
//! the untraced run executes the same code path.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open, `end_ns == None`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, `<crate>.<phase>` (for example `sim.run`).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: Option<u64>,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the cell the span belongs to, if any.
    pub cell: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e.saturating_sub(self.start_ns))
    }
}

/// Records spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: Option<usize>,
}

impl Tracer {
    /// A recorder that records (`on`) or only passes calls through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: None,
        }
    }

    /// Tags the spans opened from now on with cell `id` (`None` outside
    /// cells).
    pub fn set_cell(&mut self, id: Option<usize>) {
        self.cell = id;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: None,
            parent: self.open.last().copied(),
            cell: self.cell,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = Some(end);
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self-time per span name in seconds: each span's duration minus the
/// durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = s.duration_ns().saturating_sub(children);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Seconds covered by top-level spans (those with no parent).
pub fn covered_s(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum()
}

/// Checks that every span is closed, lies inside its parent, and does
/// not overlap a sibling. Returns the first violation found.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut last_end_under: BTreeMap<Option<usize>, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let end = s
            .end_ns
            .ok_or_else(|| format!("span {i} ({}) never closed", s.name))?;
        if end < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} ({}) has no earlier parent {p}", s.name))?;
            let parent_end = parent.end_ns.unwrap_or(0);
            if s.start_ns < parent.start_ns || end > parent_end {
                return Err(format!(
                    "span {i} ({}) escapes its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
        let prev = last_end_under.entry(s.parent).or_insert(0);
        if s.start_ns < *prev {
            return Err(format!(
                "span {i} ({}) overlaps its previous sibling",
                s.name
            ));
        }
        *prev = end;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: Some(end),
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // cell [0,100) ⊃ sim.run [10,60) ⊃ inner [20,30); sim.finalize [60,90).
        let spans = [
            span("bench.cell", 0, 100, None),
            span("sim.run", 10, 60, Some(0)),
            span("inner", 20, 30, Some(1)),
            span("sim.finalize", 60, 90, Some(0)),
        ];
        let t = self_times(&spans);
        let ns = |name| (t[name] * 1e9).round() as u64;
        assert_eq!(ns("bench.cell"), 100 - 50 - 30);
        assert_eq!(ns("sim.run"), 50 - 10);
        assert_eq!(ns("inner"), 10);
        assert_eq!(ns("sim.finalize"), 30);
        // Self-times of a fully nested tree add up to the root's span.
        assert_eq!(t.values().sum::<f64>(), covered_s(&spans));
    }

    #[test]
    fn repeated_names_accumulate() {
        let spans = [span("sim.run", 0, 5, None), span("sim.run", 5, 12, None)];
        assert_eq!((self_times(&spans)["sim.run"] * 1e9).round() as u64, 12);
    }

    #[test]
    fn nesting_check_accepts_a_tree_and_rejects_escapes_and_overlaps() {
        let good = [
            span("a", 0, 10, None),
            span("b", 1, 4, Some(0)),
            span("c", 4, 9, Some(0)),
            span("d", 10, 12, None),
        ];
        assert!(check_nesting(&good).is_ok());
        let escapes = [span("a", 0, 10, None), span("b", 5, 11, Some(0))];
        assert!(check_nesting(&escapes).unwrap_err().contains("escapes"));
        let overlaps = [
            span("a", 0, 10, None),
            span("b", 1, 6, Some(0)),
            span("c", 5, 9, Some(0)),
        ];
        assert!(check_nesting(&overlaps).unwrap_err().contains("overlaps"));
        let mut open = good.to_vec();
        open[1].end_ns = None;
        assert!(check_nesting(&open).unwrap_err().contains("never closed"));
    }

    #[test]
    fn recorder_nests_and_stays_empty_when_off() {
        let mut on = Tracer::new(true);
        on.set_cell(Some(3));
        on.time("outer", || {});
        on.begin("a");
        on.time("b", || {});
        on.end();
        let s = on.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, None, Some(1))
        );
        assert!(s.iter().all(|x| x.cell == Some(3)));
        assert!(check_nesting(s).is_ok());

        let mut off = Tracer::new(false);
        off.begin("a");
        assert_eq!(off.time("b", || 7), 7);
        off.end();
        assert!(off.spans().is_empty());
    }
}
