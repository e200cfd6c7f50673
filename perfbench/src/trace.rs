//! Spans recorded by the benchmark around its calls into each library layer.
//!
//! Every timed call goes through [`Tracer::begin`] / [`Tracer::end`]; the
//! returned duration feeds the end-to-end metrics whether or not tracing is
//! on. With tracing on, each call also records a span (name, layer, start,
//! end, parent, batch id) in memory; the spans are written out as JSON lines
//! when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    batch: u64,
}

/// An open span: its start and, when tracing, its slot in the span list.
#[must_use = "close the span with Tracer::end"]
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

/// Records spans when enabled; always times.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span of `layer` nested in the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, batch: u64) -> Open {
        if !self.enabled {
            return Open {
                start: Instant::now(),
                slot: None,
            };
        }
        let slot = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            batch,
        });
        self.stack.push(slot);
        let start = Instant::now();
        self.spans[slot].start_ns = nanos(start - self.origin);
        Open {
            start,
            slot: Some(slot),
        }
    }

    /// Closes a span and returns its wall time.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = nanos(end - self.origin);
            let top = self.stack.pop();
            assert_eq!(top, Some(slot), "spans close in reverse order of opening");
        }
        end - open.start
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        batch: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(layer, name, batch);
        let out = f();
        (out, self.end(open))
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer in milliseconds: each span's duration minus the
    /// part covered by its child spans, summed by layer, sorted by layer.
    pub fn self_ms_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children) as f64 / 1e6;
            match by_layer.iter_mut().find(|(layer, _)| *layer == span.layer) {
                Some((_, total)) => *total += own,
                None => by_layer.push((span.layer, own)),
            }
        }
        by_layer.sort_by(|a, b| a.0.cmp(b.0));
        by_layer
    }

    /// Measured cost of recording one span (begin + end), in nanoseconds,
    /// from a calibration loop on a throwaway tracer.
    pub fn cost_per_span_ns() -> f64 {
        const ROUNDS: usize = 20_000;
        let mut probe = Tracer::new(true);
        let outer = probe.begin("trace", "calibration", 0);
        let start = Instant::now();
        for i in 0..ROUNDS {
            let open = probe.begin("trace", "probe", i as u64);
            probe.end(open);
        }
        let elapsed = start.elapsed();
        probe.end(outer);
        elapsed.as_nanos() as f64 / ROUNDS as f64
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{}}}",
                s.layer, s.name, s.start_ns, s.end_ns, s.batch
            );
        }
        out
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
