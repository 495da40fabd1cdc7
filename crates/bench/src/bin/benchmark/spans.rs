//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! crate's public functions, kept in memory, and written as Chrome
//! trace-event JSON when the run ends. A span's self time is its
//! duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes [`Tracer::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: u64,
    /// Display track: 0 is the caller's thread.
    pub track: u32,
}

/// Records spans while enabled; a disabled tracer runs the same calls
/// and records nothing, which is how tracing overhead is measured.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    request_id: u64,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            request_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as the root span of request `request_id`.
    pub fn request<T>(
        &mut self,
        name: &'static str,
        request_id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.request_id = request_id;
        self.span(name, f)
    }

    /// Run `f` inside a span that is a child of the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request_id: self.request_id,
            track: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record an interval the callee reported (a portfolio strategy's
    /// thread) as a child of the innermost open span.
    pub fn child(&mut self, name: &'static str, start_ns: u64, end_ns: u64, track: u32) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
                request_id: self.request_id,
                track,
            });
        }
    }

    /// Start of the innermost open span, for placing reported children.
    pub fn open_start_ns(&self) -> u64 {
        self.open.last().map_or(0, |&id| self.spans[id].start_ns)
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Write the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto).
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(b"{\"traceEvents\":[")?;
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{id},\"parent\":{},\"request_id\":{}}}}}",
                s.name,
                s.track,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request_id,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span. A child on another track
/// ran beside its parent, not instead of it, and takes nothing away:
/// the parent's thread was blocked for that time all the same.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| spans[p].track == s.track) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.end_ns - s.start_ns - covered
        })
        .collect()
}

/// Per request, the summed self time of its caller-thread spans whose
/// name passes `is_layer`, in nanoseconds: how much of the request's
/// wall time the layers account for.
pub fn layer_self_per_request(spans: &[Span], is_layer: impl Fn(&str) -> bool) -> Vec<u64> {
    let mut per_request: BTreeMap<u64, u64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        if s.track == 0 && is_layer(s.name) {
            *per_request.entry(s.request_id).or_default() += self_ns;
        }
    }
    per_request.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 0,
            track: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 40, 60, Some(0)), // adjacent to `a`
        ];
        // root: 100 - (30 + 20); a: 30 - 10; grandchildren do not
        // count against the root twice.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 120, 180, Some(0)),    // overlaps a
            span("c", 130, 140, Some(0)),    // inside both
            span("late", 190, 260, Some(0)), // runs past the parent
        ];
        // Union of children inside [100, 200): [110, 180) + [190, 200).
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn children_on_parallel_tracks_leave_the_parent_whole() {
        let mut spans = vec![
            span("dist.portfolio", 0, 100, None),
            span("dist.strategy.gbs", 5, 20, Some(0)),
            span("dist.strategy.random", 5, 95, Some(0)),
        ];
        spans[1].track = 1;
        spans[2].track = 2;
        assert_eq!(self_times(&spans), vec![100, 15, 90]);
        // Only the caller's thread counts toward a request's wall time.
        assert_eq!(layer_self_per_request(&spans, |_| true), vec![100]);
    }

    #[test]
    fn tracer_nests_by_call_structure_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        let got = tr.request("request", 7, |tr| {
            tr.span("serve.parse", |_| ());
            tr.span("apps.build_model", |tr| {
                tr.span("core.measure_arch", |_| 42)
            })
        });
        assert_eq!(got, 42);
        let names: Vec<_> = tr.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("request", None),
                ("serve.parse", Some(0)),
                ("apps.build_model", Some(0)),
                ("core.measure_arch", Some(2)),
            ]
        );
        assert!(tr.spans.iter().all(|s| s.request_id == 7));
        assert!(tr.spans.iter().all(|s| s.start_ns <= s.end_ns));

        let mut off = Tracer::new(false);
        assert_eq!(off.request("request", 1, |tr| tr.span("x", |_| 5)), 5);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn layer_self_time_is_summed_per_request() {
        let mut spans = vec![
            span("request", 0, 100, None),
            span("serve.parse", 0, 10, Some(0)),
            span("dist.portfolio", 10, 90, Some(0)),
            span("request", 100, 150, None),
            span("serve.parse", 100, 120, Some(3)),
        ];
        spans[3].request_id = 1;
        spans[4].request_id = 1;
        let sums = layer_self_per_request(&spans, |n| n != "request");
        assert_eq!(sums, vec![90, 20]);
    }
}
