//! The benchmark's own spans: recorded around calls into the program,
//! kept in memory, written out once when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span on the run's monotonic timeline.
pub struct Span {
    /// What ran: a stage or kernel metric name, `engine`, or `trial`.
    pub name: &'static str,
    /// The trial (or repetition, or job) the span belongs to; spans of
    /// one trial share it.
    pub trial: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// An in-memory span log.
pub struct Tracer {
    origin: Instant,
    /// Closed spans in the order they were opened.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose timeline starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the span's index so nested
    /// calls can name it as their parent. Returns the span's duration in
    /// seconds with `f`'s result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        trial: u32,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> (f64, T) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trial,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let out = f(self, index);
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        ((end_ns - start_ns) as f64 / 1e9, out)
    }

    /// Record a span measured elsewhere (a client thread's job phases):
    /// `start` and `end` are instants on the same monotonic clock.
    pub fn record(
        &mut self,
        name: &'static str,
        trial: u32,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            trial,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// The whole log as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"trial\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trial, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut tr = Tracer::new();
        let (total, _) = tr.span("trial", 0, None, |tr, trial| {
            tr.span("engine", 0, Some(trial), |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        let child = (tr.spans[1].end_ns - tr.spans[1].start_ns) as f64 / 1e9;
        assert!(child >= 0.005 && total >= child);
        let json = tr.to_json("w", 3);
        assert!(json.contains("\"name\":\"engine\",\"trial\":0,\"parent\":0"));
    }
}
