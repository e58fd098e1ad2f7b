//! A dependency-free stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the small slice of criterion's API its benches use:
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`BenchmarkGroup::bench_with_input`], [`BenchmarkId`], [`Bencher::iter`],
//! and the [`criterion_group!`] / [`criterion_main!`] macros. Each of
//! `sample_size` samples is timed on its own (one call, or a batch of
//! calls for routines under 10 µs) and the report is their median, minimum
//! and median absolute deviation (MAD): robust to the occasional preempted
//! sample that drags a plain mean, with none of criterion's bootstrap
//! statistics.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// The benchmark driver handed to each `criterion_group!` target.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        println!("\n== bench group: {name} ==");
        BenchmarkGroup {
            name: name.to_owned(),
            sample_size: 10,
        }
    }
}

/// A named benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id of the form `function/parameter`.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// A group of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark routine.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: self.sample_size,
            summary: Summary::default(),
        };
        routine(&mut b);
        let Summary { median, min, mad } = b.summary;
        println!(
            "{}/{}: {:>12.3?} median per iter (min {:.3?}, MAD {:.3?}, k = {})",
            self.name, id.id, median, min, mad, self.sample_size
        );
        self
    }

    /// Runs one benchmark routine with a borrowed input value.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| routine(b, input))
    }

    /// Ends the group (kept for API compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// Robust statistics over a set of timed samples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// Median sample (the mean of the middle two for an even count).
    pub median: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// Median absolute deviation from the median.
    pub mad: Duration,
}

impl Summary {
    /// Summarises `samples` (reordered in place); all zero when empty.
    pub fn of(samples: &mut [Duration]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let median = median_of(samples);
        let min = samples[0];
        let mut deviations: Vec<Duration> = samples.iter().map(|s| s.abs_diff(median)).collect();
        Summary {
            median,
            min,
            mad: median_of(&mut deviations),
        }
    }
}

/// Median of a non-empty slice, which is left sorted.
fn median_of(values: &mut [Duration]) -> Duration {
    values.sort_unstable();
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2
    }
}

/// Times a closure over repeated iterations.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    summary: Summary,
}

/// Shortest timed sample: nanosecond-scale routines run in batches this
/// long, so the clock's own cost (tens of ns) stays out of the figure.
const MIN_SAMPLE: Duration = Duration::from_micros(10);

impl Bencher {
    /// Measures `f` over `samples` timed batches, storing the [`Summary`]
    /// of the per-call wall-clock durations.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One warm-up call keeps lazy setup out of the measurement; a
        // second, timed, sizes the batch.
        std::hint::black_box(f());
        let start = Instant::now();
        std::hint::black_box(f());
        let once = start.elapsed().as_nanos().max(1);
        let batch = (MIN_SAMPLE.as_nanos() / once).clamp(1, 1 << 20) as u32;
        let mut samples: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..batch {
                    std::hint::black_box(f());
                }
                start.elapsed() / batch
            })
            .collect();
        self.summary = Summary::of(&mut samples);
    }
}

/// Declares a function that runs the listed benchmark targets.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` for a bench binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_reports_nonzero_mean_for_real_work() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(5);
        let mut total = 0u64;
        group.bench_function("sum", |b| {
            b.iter(|| {
                total = (0..1000u64).sum();
                total
            })
        });
        group.finish();
        assert_eq!(total, 499_500);
    }

    #[test]
    fn summary_is_median_min_and_mad() {
        let ms = Duration::from_millis;
        // One 100 ms outlier: a mean would read 23.6 ms.
        let mut odd = [ms(5), ms(3), ms(100), ms(4), ms(6)];
        assert_eq!(
            Summary::of(&mut odd),
            Summary {
                median: ms(5),
                min: ms(3),
                mad: ms(1),
            }
        );
        // Even count: median and MAD average the middle pair.
        let mut even = [ms(8), ms(2), ms(4), ms(6)];
        assert_eq!(
            Summary::of(&mut even),
            Summary {
                median: ms(5),
                min: ms(2),
                mad: ms(2),
            }
        );
        assert_eq!(Summary::of(&mut []), Summary::default());
    }

    #[test]
    fn benchmark_ids_format_function_and_parameter() {
        let id = BenchmarkId::new("capture", 42);
        assert_eq!(id.id, "capture/42");
    }
}
