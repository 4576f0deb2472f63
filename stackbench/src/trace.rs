//! Spans recorded in memory by the benchmark around its calls into each
//! layer, written out as a Chrome trace-event file when the run ends.

use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`nn.layer.3`, `serve.inproc`).
    pub name: String,
    /// Start, ns after the tracer's origin.
    pub start_ns: u64,
    /// End, ns after the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass or request id shared by every span of one operation.
    pub id: u64,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder. A disabled tracer records nothing and reads no
/// clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// ns since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index for [`Tracer::end`] and for
    /// children's `parent` (`usize::MAX` when disabled).
    pub fn begin(&mut self, name: &str, parent: Option<usize>, id: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns: start_ns, parent, id });
        self.spans.len() - 1
    }

    /// Closes span `idx`.
    pub fn end(&mut self, idx: usize) {
        if self.enabled {
            let now = self.now_ns();
            self.spans[idx].end_ns = now;
        }
    }

    /// Records an already-timed span (cross-thread measurements).
    pub fn push(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::us).collect()
    }

    /// The spans as Chrome trace-event JSON (complete `X` events; `args`
    /// carry the id and the parent's index).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.us(),
                s.id
            ));
        }
        out.push_str("]}\n");
        out
    }
}
