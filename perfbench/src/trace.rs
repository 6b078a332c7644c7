//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, round)`. Names are
//! `<layer>.<op>`, where the layer is the workspace crate the timed call
//! belongs to (`nn.sgd`, `core.plan`, ...). Spans nest through an open
//! stack; work fanned out across threads is recorded afterwards as
//! *lane* spans, which hang under the fork-join span but are not
//! subtracted from its self time (they overlap each other in wall time).
//! Nothing here is read by the code under measurement.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: Option<u64>,
    /// A parallel task span: reported, but not part of its parent's
    /// self-time arithmetic.
    pub lane: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer (crate) a span belongs to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Per-round scalar observations of the traced run (`compress.nnz`,
/// `core.matched_share`, ...), kept beside the spans.
#[derive(Debug, Default)]
pub struct Tally(BTreeMap<String, Vec<f64>>);

impl Tally {
    pub fn push(&mut self, name: &str, v: f64) {
        match self.0.get_mut(name) {
            Some(vals) => vals.push(v),
            None => {
                self.0.insert(name.to_string(), vec![v]);
            }
        }
    }

    pub fn values(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Mean of `name`'s observations (0 if none).
    pub fn mean(&self, name: &str) -> f64 {
        let v = self.values(name);
        self.sum(name) / v.len().max(1) as f64
    }

    pub fn sum(&self, name: &str) -> f64 {
        // `+ 0.0` turns the empty sum's -0.0 into 0.
        self.values(name).iter().sum::<f64>() + 0.0
    }
}

/// Everything a traced run records.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: SpanLog,
    pub tally: Tally,
}

/// The span log of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl SpanLog {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str, round: Option<u64>) -> usize {
        let now = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            round,
            lane: false,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (and anything still open inside it).
    pub fn close(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Wall time of span `id` in ms.
    pub fn ms(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64 / 1e6
    }

    /// Records a finished root span timed by the caller.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, round: Option<u64>) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            round,
            lane: false,
        });
    }

    /// Records a finished parallel task span under `parent`.
    pub fn lane(&mut self, name: &'static str, parent: usize, start: Instant, end: Instant) {
        let round = self.spans[parent].round;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            round,
            lane: true,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every non-lane span: its duration minus its direct
    /// non-lane children's durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), false) = (s.parent, s.lane) {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| {
                if s.lane {
                    0
                } else {
                    s.dur_ns().saturating_sub(c)
                }
            })
            .collect()
    }

    /// Summed self time per layer over the spans below (and including)
    /// every root span named `root`.
    pub fn layer_self_ns(&self, root: &str) -> BTreeMap<&'static str, u64> {
        let own = self.self_ns();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.lane || self.root_name(i) != root {
                continue;
            }
            *out.entry(s.layer()).or_insert(0) += own[i];
        }
        out
    }

    /// Summed duration and count of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, n), s| (t + s.dur_ns(), n + 1))
    }

    /// Durations (ns) of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    fn root_name(&self, mut i: usize) -> &'static str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        self.spans[i].name
    }

    /// Writes every span as one JSON object per line, followed by the
    /// `extra` lines (already JSON).
    pub fn write_jsonl(&self, path: &Path, extra: &[String]) -> std::io::Result<()> {
        let mut buf = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let round = s.round.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                buf,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"round\": {round}, \"lane\": {}}}",
                s.name, s.start_ns, s.end_ns, s.lane
            )
            .unwrap();
        }
        for line in extra {
            buf.push_str(line);
            buf.push('\n');
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(buf.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_but_not_lanes() {
        let mut log = SpanLog::default();
        let root = log.open("round", Some(0));
        let a = log.open("nn.sgd", Some(0));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t = Instant::now();
        log.lane(
            "nn.sgd_step",
            a,
            t,
            t + std::time::Duration::from_millis(50),
        );
        log.close(a);
        log.close(root);
        let own = log.self_ns();
        assert_eq!(own[a], log.spans()[a].dur_ns());
        assert_eq!(
            own[root],
            log.spans()[root].dur_ns() - log.spans()[a].dur_ns()
        );
        let layers = log.layer_self_ns("round");
        assert_eq!(layers["nn"], own[a]);
        assert_eq!(log.total("nn.sgd").1, 1);
    }
}
