//! In-memory spans for the traced run: name, start, end, parent, the
//! lifecycle they belong to, and the heap allocations made inside them.
//! Written out as JSON Lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::alloc::AllocCount;
use crate::report::quantile_sorted;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one lifecycle share this id (the account's index).
    pub lifecycle: Option<u64>,
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregates.
#[derive(Clone, Debug)]
pub struct SpanStats {
    pub count: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Summed duration minus the time covered by child spans.
    pub self_ms: f64,
    pub allocs_p50: f64,
}

/// Records nested spans against one monotonic origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, AllocCount)>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, lifecycle: Option<u64>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().map(|&(p, _)| p),
            lifecycle,
            allocs: 0,
        });
        self.open.push((id, AllocCount::now()));
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        let (top, heap) = self.open.pop().expect("close without an open span");
        assert_eq!(top, id, "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = heap.elapsed().allocs;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        lifecycle: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, lifecycle);
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f` inside a span that `f` can nest child spans under.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        lifecycle: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.open(name, lifecycle);
        let out = f(self);
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Aggregates every span by name.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(s.duration_ns() as f64 / 1e3);
            entry.1.push(s.allocs as f64);
            entry.2 += s.duration_ns().saturating_sub(*child);
        }
        by_name
            .into_iter()
            .map(|(name, (mut us, mut allocs, self_ns))| {
                us.sort_by(f64::total_cmp);
                allocs.sort_by(f64::total_cmp);
                let stats = SpanStats {
                    count: us.len(),
                    p50_us: quantile_sorted(&us, 0.50),
                    p99_us: quantile_sorted(&us, 0.99),
                    self_ms: self_ns as f64 / 1e6,
                    allocs_p50: quantile_sorted(&allocs, 0.50),
                };
                (name, stats)
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"lifecycle\":{},\"allocs\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.lifecycle.map_or("null".to_owned(), |l| l.to_string()),
                s.allocs
            )?;
        }
        out.flush()
    }
}
