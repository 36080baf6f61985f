//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(id, parent, name, request, start, end)`. Spans are kept in
//! memory while the traced run measures, written out once at the end, and
//! a layer's self time is its spans' durations minus the parts of those
//! intervals their child spans cover.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: Cow<'static, str>,
    /// The request (query, batch or trace index) the span served.
    pub request: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Shared span sink. Recording takes one uncontended lock per span; the
/// cost shows up in the reported tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: impl Into<Cow<'static, str>>,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span sink poisoned");
        let id = spans.len() as u64;
        spans.push(Span {
            id,
            parent,
            name: name.into(),
            request,
            start: self.ns(start),
            end: self.ns(end),
        });
        id
    }

    /// Reserves an id for a span whose end is not known yet; children may
    /// name it as their parent before [`Tracer::close`] fills it in.
    pub fn open(&self, name: impl Into<Cow<'static, str>>, parent: u64, request: u64) -> u64 {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&self, id: u64) {
        let end = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span sink poisoned");
        if let Some(s) = spans.get_mut(id as usize) {
            s.end = end;
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &self,
        name: impl Into<Cow<'static, str>>,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// Self time in seconds summed per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.to_string()).or_insert(0.0) += t as f64 * 1e-9;
    }
    out
}

/// Writes spans as tab-separated values with a header line.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\trequest\tstart_ns\tend_ns\tself_ns")?;
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let parent = if s.parent == ROOT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{}\t{parent}\t{}\t{}\t{}\t{}\t{t}",
            s.id, s.name, s.request, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: Cow::Borrowed(if parent == ROOT { "outer" } else { "inner" }),
            request: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, ROOT, 0, 100),
            // Overlapping children cover 10..40, then 60..120 clipped to 100.
            span(1, 0, 10, 30),
            span(2, 0, 20, 40),
            span(3, 0, 60, 120),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 20, 60]);
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name["outer"] - 30e-9).abs() < 1e-15);
        assert!((by_name["inner"] - 100e-9).abs() < 1e-15);
    }
}
