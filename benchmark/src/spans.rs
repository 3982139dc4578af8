//! Benchmark-side spans around calls into the system's public API.
//!
//! A span has a name, a start and end (nanoseconds since the log's
//! epoch), the span that caused it, and the job or request it belongs
//! to. Spans stay in memory and are written once, as JSON lines, when
//! the traced run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// What a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Owner {
    /// The run as a whole (set-up, legs).
    Run,
    /// One synthesis job, by its index in the run.
    Job(u64),
    /// One served request, by its runtime request id.
    Request(u64),
}

/// Identifier of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    owner: Owner,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span `[start, end]` and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        owner: Owner,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            parent,
            owner,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Renders every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let (kind, of) = match s.owner {
                Owner::Run => ("run", 0),
                Owner::Job(j) => ("job", j),
                Owner::Request(r) => ("request", r),
            };
            // `write!` into a String cannot fail.
            let _ = writeln!(
                out,
                r#"{{"id":{id},"name":"{}","parent":{parent},"owner":"{kind}","owner_id":{of},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Writes the log to `path` (creating its directory).
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing the file.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(self.to_json_lines().as_bytes())?;
        file.flush()
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_render_with_parents_and_owners() {
        let mut log = SpanLog::new();
        let t = Instant::now();
        let job = log.record("job", None, Owner::Job(3), t, t);
        log.record("schedule.synthesize", Some(job), Owner::Job(3), t, t);
        let text = log.to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""parent":null"#));
        assert!(lines[1].contains(r#""parent":0"#));
        assert!(lines[1].contains(r#""owner":"job","owner_id":3"#));
    }
}
