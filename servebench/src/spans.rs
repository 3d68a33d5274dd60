//! In-memory spans for the traced run, written out when the run ends.
//!
//! A span records one call the benchmark makes into a layer's public
//! function: its name, start and end (ns since the recorder was made),
//! the span that caused it, and the batch (cycle) it belongs to. A
//! layer's self time is its span minus the part its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `federation.observe_batch`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Cycle the call belongs to (`u32::MAX` outside the ingest loop).
    pub batch: u32,
}

/// Span recorder. With `on == false` nothing is kept, so untraced runs
/// pay one branch per call site.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `capacity` spans are reserved up front when `on`.
    pub fn new(on: bool, capacity: usize) -> Self {
        Spans {
            epoch: Instant::now(),
            on,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
        }
    }

    /// Whether spans are kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch of `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span from `start` to `end`, returning its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        batch: u32,
    ) -> u32 {
        if !self.on {
            return ROOT;
        }
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            batch,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span at `start` whose end is set by [`Spans::close`], so
    /// children recorded in between can name it as their parent.
    pub fn open(&mut self, name: &'static str, start: Instant, parent: u32, batch: u32) -> u32 {
        self.record(name, start, start, parent, batch)
    }

    /// Sets the end of a span made by [`Spans::open`].
    pub fn close(&mut self, id: u32, end: Instant) {
        if self.on {
            let end = self.ns(end);
            self.spans[id as usize].end = end;
        }
    }

    /// Total duration (ns) and count of spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, n), s| (t + (s.end - s.start), n + 1))
    }

    /// Self time (ns) of spans named `name`: their durations minus the
    /// parts their direct children cover.
    pub fn self_time(&self, name: &str) -> u64 {
        let mut total = 0u64;
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                total += (s.end - s.start).saturating_sub(child[i]);
            }
        }
        total
    }

    /// Writes every span as JSON: `{"spans": [[name, start, end,
    /// parent, batch], ...]}` with `-1` for a root parent or no batch.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"unit\": \"ns\", \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let batch = if s.batch == u32::MAX {
                -1
            } else {
                i64::from(s.batch)
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                f,
                "[\"{}\", {}, {}, {parent}, {batch}]{sep}",
                s.name, s.start, s.end
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}
