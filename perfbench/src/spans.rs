//! In-memory span recording for the traced run.
//!
//! A span brackets one public call into a layer, recorded from the
//! benchmark's side of the call. Spans nest: the one open when another
//! starts is its parent. Nothing is written until the run ends.

use plasticine::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, named `<layer>.<call>` after the repository module.
    pub name: &'static str,
    /// The app or request the span belongs to.
    pub id: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled recorder records nothing and costs one
/// branch per call, so the untraced passes share the traced code path.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its index (or `None` when disabled).
    pub fn enter(&mut self, name: &'static str, id: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id: id.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span `enter` returned. Spans close innermost first.
    pub fn exit(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            let end = self.now_ns();
            self.spans[i].end_ns = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: &str, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name, id);
        let out = f();
        self.exit(s);
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All spans with their self times, as JSON for the span file.
    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    Json::obj([
                        ("name", Json::from(s.name)),
                        ("id", Json::from(s.id.as_str())),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("self_ns", Json::from(self_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children count once, and a
/// child sticking out of its parent counts only inside the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            id: "x".to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("app", 0, 100, None),
            span("compiler.compile", 10, 30, Some(0)),
            span("sim.advance", 40, 90, Some(0)),
            // A grandchild is already inside its parent's interval.
            span("dram.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_protruding_children_count_once_inside_the_parent() {
        let spans = [
            span("pass", 100, 200, None),
            span("a", 90, 130, Some(0)),
            span("b", 120, 150, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // Covered: [100,150) and [190,200) = 60 of 100.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_and_a_disabled_recorder_records_nothing() {
        let mut t = Spans::new(true);
        t.time("app", "GEMM", || ());
        let outer = t.enter("pass", "0");
        t.time("sim.advance", "GEMM", || std::hint::black_box(1 + 1));
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].parent, Some(1));
        assert!(s[1].start_ns <= s[2].start_ns && s[2].end_ns <= s[1].end_ns);
        let selfs = self_times(s);
        assert_eq!(selfs[1], s[1].dur_ns() - s[2].dur_ns());

        let mut off = Spans::new(false);
        assert_eq!(off.time("sim.advance", "GEMM", || 7), 7);
        assert!(off.spans().is_empty());
    }
}
