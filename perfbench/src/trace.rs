//! Span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! library, one per call: name, start, end, the span that caused it, and
//! the query it belongs to. They stay in memory until the run ends, are
//! then written once as a Chrome trace (`chrome://tracing`, Perfetto),
//! and are reduced to per-name and per-layer busy time, self time and
//! counts. A span's layer is the first dotted component of its name
//! (`core.schedule.compile` belongs to `core`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    query: u64,
}

/// An open span, returned by [`Tracer::enter`] and closed by
/// [`Tracer::exit`].
#[must_use = "an entered span must be exited"]
pub struct Open(usize);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    query: u64,
}

/// Busy time, self time and call count of one span name or layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Wall time covered by the spans (nested spans of the same name or
    /// layer are not counted twice).
    pub busy_ns: u64,
    /// Busy time minus the time covered by child spans.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), query: 0 }
    }

    /// Tags the spans that follow with a query id.
    pub fn set_query(&mut self, query: u64) {
        self.query = query;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, query: self.query });
        self.stack.push(id);
        Open(id)
    }

    /// Closes a span opened by [`Tracer::enter`].
    ///
    /// # Panics
    ///
    /// Panics when spans are not closed innermost-first, which is a bug
    /// in the benchmark's instrumentation.
    pub fn exit(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost-first");
        self.spans[open.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Number of recorded spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals. A span's self time is its duration minus the
    /// time its direct children cover.
    #[must_use]
    pub fn by_name(&self) -> BTreeMap<&'static str, Totals> {
        self.totals(|s| s.name)
    }

    /// Per-layer totals. A span counts toward its layer's busy time only
    /// when its parent lies in another layer, so nested spans of one
    /// layer are not counted twice; the layer's self time is the sum of
    /// its spans' self times.
    #[must_use]
    pub fn by_layer(&self) -> BTreeMap<&'static str, Totals> {
        self.totals(|s| layer_of(s.name))
    }

    fn totals(&self, key: impl Fn(&Span) -> &'static str) -> BTreeMap<&'static str, Totals> {
        let dur = |s: &Span| s.end_ns - s.start_ns;
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += dur(s);
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let k = key(s);
            let t = out.entry(k).or_default();
            t.count += 1;
            t.self_ns += dur(s).saturating_sub(child_ns[i]);
            // A span nested in one of the same key is already covered by
            // that ancestor's busy time.
            if s.parent.is_none_or(|p| key(&self.spans[p]) != k) {
                t.busy_ns += dur(s);
            }
        }
        out
    }

    /// Writes every span once, as Chrome trace-event JSON.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"query\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                layer_of(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.query,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// The layer a span name belongs to: its first dotted component.
#[must_use]
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, query: 0 }
    }

    #[test]
    fn self_time_subtracts_children_and_layers_do_not_double_count() {
        let t = Tracer {
            origin: Instant::now(),
            spans: vec![
                span("core.functional.step", 0, 100, None),
                span("core.functional.block_forward", 10, 50, Some(0)),
                span("tensor.gemv", 20, 30, Some(1)),
                span("model.logits", 100, 120, None),
            ],
            stack: Vec::new(),
            query: 0,
        };
        let names = t.by_name();
        assert_eq!(names["core.functional.step"].self_ns, 60);
        assert_eq!(names["core.functional.block_forward"].self_ns, 30);
        let layers = t.by_layer();
        assert_eq!(layers["core"].busy_ns, 100);
        assert_eq!(layers["core"].self_ns, 90);
        assert_eq!(layers["core"].count, 2);
        assert_eq!(layers["tensor"].busy_ns, 10);
        assert_eq!(layers["model"].busy_ns, 20);
    }
}
