//! Deterministic telemetry: time-series sampling, SLO health verdicts,
//! and a span profiler — all in sim time.
//!
//! The tracer ([`crate::trace`]) answers "what happened, event by
//! event"; this module answers the operator questions layered on top of
//! it: *how is the fleet trending over time* (per-shard series sampled
//! on the logical clock), *is it healthy* (declarative SLO rules over
//! the series), and *where does sim time go* (self/cumulative cost per
//! span stack). Every output is a pure function of sim-deterministic
//! inputs, so the same seed produces byte-identical series, verdicts,
//! and profiles at any worker count — the observability surface obeys
//! the same determinism contract as the protocol itself.
//!
//! Two layers:
//!
//! * [`ShardSampler`] — folds a shard's drained trace events into typed
//!   counters: a [`ProtocolMetrics`] through
//!   [`ProtocolMetrics::observe`] (the fold
//!   [`crate::trace::derive_metrics`] is made of, so series totals
//!   reconcile *exactly* with live metrics) plus the storage and fault
//!   events `observe` ignores. Each cut reads the server's gauges and
//!   its risk histogram through `&self` and writes a [`SeriesPoint`]
//!   every `interval` logical ticks. Per-shard points merge by
//!   `(lt, shard)` exactly like the event merge in
//!   [`crate::parallel`], which is what makes [`export_series_jsonl`]
//!   worker-count invariant.
//! * [`HealthEngine`] / [`SpanProfile`] — SLO rules evaluated over the
//!   merged series into a deterministic [`HealthReport`] (alerts are
//!   recordable as [`EventKind::SloAlert`] trace events, which
//!   `derive_metrics` ignores, so trace/metrics parity is unchanged),
//!   and span aggregation with a folded-stack (flamegraph) export.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{ProtocolMetrics, LATENCY_BUCKET_MS};
use crate::server::WebServer;
use crate::trace::{EventKind, TraceEvent, Tracer};

/// Buckets for the risk-score distribution histogram: percent of the
/// rolling window's touches that verified. The overflow bucket is the
/// fully-verified (100%) case.
pub const RISK_BUCKET_PCT: [u64; 5] = [25, 50, 75, 90, 99];

/// A sampled value: a scalar for counters/gauges, a bucket-count vector
/// for histograms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SampleValue {
    /// Counter or gauge reading.
    Int(u64),
    /// Histogram reading: `counts[i]` samples were `<= bounds[i]`, with
    /// one trailing overflow bucket (`counts.len() == bounds.len() + 1`).
    Dist {
        /// Upper bounds, ascending.
        bounds: &'static [u64],
        /// Per-bucket sample counts, including the overflow bucket.
        counts: Vec<u64>,
    },
}

// --- Time series -----------------------------------------------------------

/// One sample of every metric at a logical-clock tick, for one shard.
/// `values` is sorted by metric name, so serialization is canonical.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SeriesPoint {
    /// The shard's logical clock (round-robin sweep counter) at sample
    /// time.
    pub lt: u64,
    /// The shard the sample describes.
    pub shard: usize,
    /// `(metric name, value)` in metric-name order. Counters and
    /// histograms are cumulative since the start of the run.
    pub values: Vec<(&'static str, SampleValue)>,
}

impl SeriesPoint {
    /// The scalar value of `metric` at this point, if present
    /// (histograms return `None`).
    pub fn scalar(&self, metric: &str) -> Option<u64> {
        self.values.iter().find_map(|(name, v)| match v {
            SampleValue::Int(x) if *name == metric => Some(*x),
            _ => None,
        })
    }

    /// The distribution value of `metric` at this point, if present.
    pub fn dist(&self, metric: &str) -> Option<(&'static [u64], &[u64])> {
        self.values.iter().find_map(|(name, v)| match v {
            SampleValue::Dist { bounds, counts } if *name == metric => {
                Some((*bounds, counts.as_slice()))
            }
            _ => None,
        })
    }
}

/// Serializes a merged series as JSON Lines, one point per line, keys in
/// fixed order. The caller passes points already merged by `(lt, shard)`
/// ([`merge_series`]); two same-seed runs export byte-identical strings
/// at any worker count.
pub fn export_series_jsonl(points: &[SeriesPoint]) -> String {
    let mut out = String::new();
    for p in points {
        let _ = write!(
            out,
            "{{\"lt\":{},\"shard\":{},\"metrics\":{{",
            p.lt, p.shard
        );
        for (i, (name, value)) in p.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            match value {
                SampleValue::Int(v) => {
                    let _ = write!(out, "{v}");
                }
                SampleValue::Dist { bounds, counts } => {
                    out.push_str("{\"bounds\":[");
                    for (j, b) in bounds.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{b}");
                    }
                    out.push_str("],\"counts\":[");
                    for (j, c) in counts.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{c}");
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("}}\n");
    }
    out
}

/// Merges per-shard series into the global sample order: a stable sort
/// by `(lt, shard)` — the same merge key the event stream uses, and for
/// the same reason: it is a pure function of per-shard data, so any
/// worker schedule merges to the same bytes.
pub fn merge_series(per_shard: impl IntoIterator<Item = Vec<SeriesPoint>>) -> Vec<SeriesPoint> {
    let mut all: Vec<SeriesPoint> = per_shard.into_iter().flatten().collect();
    all.sort_by_key(|p| (p.lt, p.shard));
    all
}

// --- Shard sampler ---------------------------------------------------------

/// Storage and fault counters: the events [`ProtocolMetrics::observe`]
/// leaves alone.
#[derive(Debug, Default)]
struct StorageCounters {
    server_rejects: u64,
    journal_appends: u64,
    journal_bytes: u64,
    segments_sealed: u64,
    sync_retries: u64,
    crashes: u64,
    recoveries: u64,
    records_skipped: u64,
}

impl StorageCounters {
    fn observe(&mut self, event: &EventKind) {
        match event {
            EventKind::ServerReject { .. } => self.server_rejects += 1,
            EventKind::JournalAppend { bytes, .. } => {
                self.journal_appends += 1;
                self.journal_bytes += *bytes as u64;
            }
            EventKind::SegmentSealed { .. } => self.segments_sealed += 1,
            EventKind::SyncRetried { .. } => self.sync_retries += 1,
            EventKind::CrashInjected { .. } => self.crashes += 1,
            EventKind::Recovered { skipped, .. } => {
                self.recoveries += 1;
                self.records_skipped += *skipped as u64;
            }
            _ => {}
        }
    }
}

/// Samples one shard's simulation into a fixed-interval time series.
///
/// Counters are a fold of the shard's drained trace events: protocol
/// counters through [`ProtocolMetrics::observe`], the same rule every
/// flow folds its live metrics with, and storage counters through a
/// small match over the events that rule ignores. So the series' final
/// cumulative values reconcile **exactly** with the live
/// [`ProtocolMetrics`] ([`reconcile`] checks this, and CI enforces it).
/// Gauges and the risk histogram are read from the shard server's
/// accessors at each cut. A [`SeriesPoint`] is cut every `interval`
/// logical ticks plus once at the end of the run.
#[derive(Debug)]
pub struct ShardSampler {
    shard: usize,
    interval: u64,
    protocol: ProtocolMetrics,
    storage: StorageCounters,
    points: Vec<SeriesPoint>,
    last_sampled: Option<u64>,
}

impl ShardSampler {
    /// Creates a sampler for `shard` cutting a point every `interval`
    /// logical ticks (`interval >= 1`).
    pub fn new(shard: usize, interval: u64) -> Self {
        assert!(interval >= 1, "sampling interval must be at least 1 tick");
        ShardSampler {
            shard,
            interval,
            protocol: ProtocolMetrics::default(),
            storage: StorageCounters::default(),
            points: Vec::new(),
            last_sampled: None,
        }
    }

    /// Folds one drained trace event into the counters. Call in drain
    /// order; the events are observed, never consumed, so tracing output
    /// is untouched.
    pub fn observe_event(&mut self, ev: &TraceEvent) {
        self.protocol.observe(&ev.kind);
        self.storage.observe(&ev.kind);
    }

    /// Cuts a point at tick `lt` if it is on the sampling interval and
    /// was not already sampled. `live_lifecycles` is the driver's count
    /// of still-open lifecycles (the fleet's window occupancy at
    /// lock-step grain).
    pub fn tick(&mut self, lt: u64, server: &WebServer, live_lifecycles: u64) {
        if lt.is_multiple_of(self.interval) {
            self.cut(lt, server, live_lifecycles);
        }
    }

    /// Cuts a final point at `lt` unconditionally, so the series always
    /// ends with the run's cumulative totals (the values [`reconcile`]
    /// checks), and returns the series (ascending `lt`).
    pub fn finish(mut self, lt: u64, server: &WebServer) -> Vec<SeriesPoint> {
        self.cut(lt, server, 0);
        self.points
    }

    fn cut(&mut self, lt: u64, server: &WebServer, live_lifecycles: u64) {
        use SampleValue::Int;
        if self.last_sampled == Some(lt) {
            return;
        }
        self.last_sampled = Some(lt);
        let p = &self.protocol;
        let s = &self.storage;
        let stats = server.resident_stats();
        let mut quarantined = 0u64;
        let mut pressure_pct = 0u64;
        for idx in 0..server.shard_count() {
            quarantined += u64::from(server.is_quarantined(idx));
            if let Some(pressure) = server.journal(idx).pressure() {
                pressure_pct = pressure_pct.max((pressure * 100.0).round() as u64);
            }
        }
        let served =
            p.hello.samples + p.submit.samples + p.interaction.samples + p.lifecycle.samples;
        self.points.push(SeriesPoint {
            lt,
            shard: self.shard,
            // In metric-name order.
            values: vec![
                ("cache_entries", Int(stats.cache_entries as u64)),
                ("crashes_total", Int(s.crashes)),
                ("degraded_mode", Int(u64::from(server.is_degraded()))),
                ("giveups_total", Int(p.giveups)),
                (
                    "interaction_rtt_ms",
                    SampleValue::Dist {
                        bounds: &LATENCY_BUCKET_MS,
                        counts: p.interaction.counts.to_vec(),
                    },
                ),
                ("journal_appends_total", Int(s.journal_appends)),
                ("journal_bytes_total", Int(s.journal_bytes)),
                ("journal_resident_bytes", Int(server.journal_bytes() as u64)),
                ("live_sessions", Int(stats.sessions as u64)),
                ("quarantined_shards", Int(quarantined)),
                ("records_skipped_total", Int(s.records_skipped)),
                ("recoveries_total", Int(s.recoveries)),
                ("replays_accepted_total", Int(p.replays_accepted)),
                ("resyncs_total", Int(p.resyncs)),
                ("retries_total", Int(p.retries)),
                (
                    "risk_verified_pct",
                    SampleValue::Dist {
                        bounds: &RISK_BUCKET_PCT,
                        counts: server.risk_verified_counts().to_vec(),
                    },
                ),
                ("segments_sealed_total", Int(s.segments_sealed)),
                ("sends_total", Int(p.sends)),
                ("served_total", Int(served)),
                ("server_rejects_total", Int(s.server_rejects)),
                ("storage_pressure_pct", Int(pressure_pct)),
                ("sync_retries_total", Int(s.sync_retries)),
                ("timeouts_total", Int(p.timeouts)),
                ("window_occupancy", Int(live_lifecycles)),
            ],
        });
    }
}

/// Checks that a merged series' final cumulative values reconcile
/// exactly with live [`ProtocolMetrics`] accounting. Returns the first
/// mismatch as an error string.
///
/// This is the telemetry analogue of trace/metrics parity: both sides
/// fold with [`ProtocolMetrics::observe`], the live side at emit time
/// inside each lifecycle and the series side over the drained, stamped
/// stream, so any divergence means an event was dropped or drained
/// twice.
pub fn reconcile(points: &[SeriesPoint], live: &ProtocolMetrics) -> Result<(), String> {
    // Final point per shard: points are merged by (lt, shard), so the
    // last occurrence of each shard id carries its cumulative totals.
    let mut finals: BTreeMap<usize, &SeriesPoint> = BTreeMap::new();
    for p in points {
        finals.insert(p.shard, p);
    }
    let sum =
        |metric: &str| -> u64 { finals.values().map(|p| p.scalar(metric).unwrap_or(0)).sum() };
    let checks: [(&str, u64, u64); 7] = [
        ("sends_total", sum("sends_total"), live.sends),
        ("retries_total", sum("retries_total"), live.retries),
        ("timeouts_total", sum("timeouts_total"), live.timeouts),
        ("giveups_total", sum("giveups_total"), live.giveups),
        ("resyncs_total", sum("resyncs_total"), live.resyncs),
        (
            "replays_accepted_total",
            sum("replays_accepted_total"),
            live.replays_accepted,
        ),
        (
            "served_total",
            sum("served_total"),
            live.hello.samples
                + live.submit.samples
                + live.interaction.samples
                + live.lifecycle.samples,
        ),
    ];
    for (metric, series, expected) in checks {
        if series != expected {
            return Err(format!(
                "series {metric} = {series} but live metrics say {expected}"
            ));
        }
    }
    // The interaction latency distribution must match bucket for bucket.
    let mut counts = vec![0u64; LATENCY_BUCKET_MS.len() + 1];
    for p in finals.values() {
        if let Some((_, c)) = p.dist("interaction_rtt_ms") {
            for (acc, v) in counts.iter_mut().zip(c.iter()) {
                *acc += v;
            }
        }
    }
    if counts != live.interaction.counts {
        return Err(format!(
            "series interaction_rtt_ms counts {:?} != live {:?}",
            counts, live.interaction.counts
        ));
    }
    Ok(())
}

// --- SLO rules and health --------------------------------------------------

/// One declarative service-level rule over the sampled series.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SloRule {
    /// The counter must end the run at zero.
    CounterZero {
        /// The counter metric.
        metric: &'static str,
    },
    /// The metric's final value must be `<= max`.
    FinalAtMost {
        /// The scalar metric.
        metric: &'static str,
        /// Inclusive bound.
        max: u64,
    },
    /// The histogram metric's `q_pct`-th percentile (conservative bucket
    /// upper bound; overflow counts as `bounds.max + 1`) must be
    /// `<= max`.
    QuantileAtMost {
        /// The histogram metric.
        metric: &'static str,
        /// Percentile, 1–100.
        q_pct: u8,
        /// Inclusive bound, in the histogram's unit.
        max: u64,
    },
    /// The gauge must be nonzero in at most `max_pct` percent of the
    /// shard's samples (duty cycle at sampling resolution).
    DutyCycleAtMost {
        /// The gauge metric.
        metric: &'static str,
        /// Inclusive duty-cycle bound in percent.
        max_pct: u8,
    },
    /// Retry-storm detection by rolling-window rate of change: over the
    /// cumulative counter's per-sample deltas, no window of `window`
    /// deltas may sum to `>= min_delta` while also exceeding `factor`
    /// times the previous window's sum.
    RateSpikeBelow {
        /// The cumulative counter metric.
        metric: &'static str,
        /// Rolling window length, in samples.
        window: usize,
        /// Growth factor versus the previous window that counts as a
        /// spike.
        factor: u64,
        /// Absolute floor below which growth is never a spike (filters
        /// small-number noise).
        min_delta: u64,
    },
}

/// A named SLO and its evaluation scope.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SloSpec {
    /// Stable rule name (appears in verdicts and alert events).
    pub name: &'static str,
    /// The rule.
    pub rule: SloRule,
    /// `true`: one verdict per shard; `false`: one fleet-wide verdict
    /// over summed finals / merged distributions.
    pub per_shard: bool,
}

/// Evaluates a set of [`SloSpec`]s over a merged series.
#[derive(Clone, Debug)]
pub struct HealthEngine {
    /// The rules, in verdict order.
    pub slos: Vec<SloSpec>,
}

/// One rule's verdict: the observed value against its bound.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SloVerdict {
    /// The rule's name.
    pub slo: &'static str,
    /// The shard scoped to, or `None` for fleet-wide.
    pub shard: Option<usize>,
    /// Whether the rule held.
    pub ok: bool,
    /// The observed value (unit depends on the rule).
    pub observed: u64,
    /// The rule's bound.
    pub bound: u64,
}

/// A deterministic health evaluation: verdicts in `(rule, shard)` order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HealthReport {
    /// Every rule's verdict.
    pub verdicts: Vec<SloVerdict>,
}

impl HealthEngine {
    /// The standard fleet SLOs: exactly-once (`replays_accepted == 0`),
    /// interaction p99 within the histogram's top bucket, degraded-mode
    /// duty cycle, quarantine count, and retry-storm detection.
    pub fn standard() -> Self {
        HealthEngine {
            slos: vec![
                SloSpec {
                    name: "replays-zero",
                    rule: SloRule::CounterZero {
                        metric: "replays_accepted_total",
                    },
                    per_shard: false,
                },
                SloSpec {
                    name: "auth-p99",
                    rule: SloRule::QuantileAtMost {
                        metric: "interaction_rtt_ms",
                        q_pct: 99,
                        max: LATENCY_BUCKET_MS[LATENCY_BUCKET_MS.len() - 1],
                    },
                    per_shard: false,
                },
                SloSpec {
                    name: "degraded-duty",
                    rule: SloRule::DutyCycleAtMost {
                        metric: "degraded_mode",
                        max_pct: 50,
                    },
                    per_shard: true,
                },
                SloSpec {
                    name: "quarantine-zero",
                    rule: SloRule::FinalAtMost {
                        metric: "quarantined_shards",
                        max: 0,
                    },
                    per_shard: true,
                },
                SloSpec {
                    name: "retry-storm",
                    rule: SloRule::RateSpikeBelow {
                        metric: "retries_total",
                        window: 4,
                        factor: 8,
                        min_delta: 96,
                    },
                    per_shard: true,
                },
            ],
        }
    }

    /// Evaluates every rule over `points` (merged by `(lt, shard)`).
    /// Deterministic: verdicts come out in `(rule order, shard id)`
    /// order, and every observation is integer arithmetic over the
    /// series.
    pub fn evaluate(&self, points: &[SeriesPoint]) -> HealthReport {
        let mut shards: Vec<usize> = points.iter().map(|p| p.shard).collect();
        shards.sort_unstable();
        shards.dedup();
        let mut verdicts = Vec::new();
        for spec in &self.slos {
            if spec.per_shard {
                for &shard in &shards {
                    let shard_points: Vec<&SeriesPoint> =
                        points.iter().filter(|p| p.shard == shard).collect();
                    verdicts.push(eval_rule(spec, Some(shard), &shard_points));
                }
            } else {
                let all: Vec<&SeriesPoint> = points.iter().collect();
                verdicts.push(eval_rule(spec, None, &all));
            }
        }
        HealthReport { verdicts }
    }
}

/// Final (cumulative) value of `metric` summed over each shard's last
/// point within `points`.
fn final_sum(points: &[&SeriesPoint], metric: &str) -> u64 {
    let mut finals: BTreeMap<usize, u64> = BTreeMap::new();
    for p in points {
        if let Some(v) = p.scalar(metric) {
            finals.insert(p.shard, v);
        }
    }
    finals.values().sum()
}

fn eval_rule(spec: &SloSpec, shard: Option<usize>, points: &[&SeriesPoint]) -> SloVerdict {
    let (ok, observed, bound) = match spec.rule {
        SloRule::CounterZero { metric } => {
            let v = final_sum(points, metric);
            (v == 0, v, 0)
        }
        SloRule::FinalAtMost { metric, max } => {
            let v = final_sum(points, metric);
            (v <= max, v, max)
        }
        SloRule::QuantileAtMost { metric, q_pct, max } => {
            // Points are cumulative, so each shard's *final* point
            // carries its whole-run distribution; sum those.
            let mut bounds: &'static [u64] = &[];
            let mut finals: BTreeMap<usize, &[u64]> = BTreeMap::new();
            for p in points {
                if let Some((b, c)) = p.dist(metric) {
                    bounds = b;
                    finals.insert(p.shard, c);
                }
            }
            let mut counts = vec![0u64; bounds.len() + 1];
            for c in finals.values() {
                for (acc, v) in counts.iter_mut().zip(c.iter()) {
                    *acc += v;
                }
            }
            let total: u64 = counts.iter().sum();
            if total == 0 {
                (true, 0, max)
            } else {
                // Rank of the q-th percentile sample, conservative
                // (bucket upper bound; overflow counts as max bound + 1).
                let q = u64::from(q_pct.clamp(1, 100));
                let rank = (total * q).div_ceil(100);
                let mut seen = 0u64;
                let mut observed = bounds.last().map(|b| b + 1).unwrap_or(u64::MAX);
                for (bucket, count) in counts.iter().enumerate() {
                    seen += count;
                    if seen >= rank {
                        observed = match bounds.get(bucket) {
                            Some(b) => *b,
                            None => bounds.last().map(|b| b + 1).unwrap_or(u64::MAX),
                        };
                        break;
                    }
                }
                (observed <= max, observed, max)
            }
        }
        SloRule::DutyCycleAtMost { metric, max_pct } => {
            let samples: Vec<u64> = points.iter().filter_map(|p| p.scalar(metric)).collect();
            if samples.is_empty() {
                (true, 0, u64::from(max_pct))
            } else {
                let hot = samples.iter().filter(|v| **v != 0).count() as u64;
                let pct = hot * 100 / samples.len() as u64;
                (pct <= u64::from(max_pct), pct, u64::from(max_pct))
            }
        }
        SloRule::RateSpikeBelow {
            metric,
            window,
            factor,
            min_delta,
        } => {
            let series: Vec<u64> = points.iter().filter_map(|p| p.scalar(metric)).collect();
            let deltas: Vec<u64> = series
                .windows(2)
                .map(|w| w[1].saturating_sub(w[0]))
                .collect();
            let mut worst = 0u64;
            if deltas.len() >= window * 2 {
                for i in window..=deltas.len() - window {
                    let prev: u64 = deltas[i - window..i].iter().sum();
                    let cur: u64 = deltas[i..i + window].iter().sum();
                    if cur >= min_delta && cur > prev.saturating_mul(factor) {
                        worst = worst.max(cur);
                    }
                }
            }
            (worst == 0, worst, min_delta)
        }
    };
    SloVerdict {
        slo: spec.name,
        shard,
        ok,
        observed,
        bound,
    }
}

impl HealthReport {
    /// Whether every rule held.
    pub fn healthy(&self) -> bool {
        self.verdicts.iter().all(|v| v.ok)
    }

    /// The failed verdicts, in report order.
    pub fn alerts(&self) -> impl Iterator<Item = &SloVerdict> {
        self.verdicts.iter().filter(|v| !v.ok)
    }

    /// Records one [`EventKind::SloAlert`] per failed verdict into
    /// `tracer`, in report order. The alert events are ignored by
    /// [`crate::trace::derive_metrics`], so trace/metrics parity is
    /// unchanged by alerting.
    pub fn record_alerts(&self, tracer: &Tracer) {
        for v in self.alerts() {
            tracer.record(EventKind::SloAlert {
                rule: v.slo,
                alert_shard: v.shard,
            });
        }
    }

    /// A fixed-width verdict table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>5} {:>12} {:>12}",
            "slo", "shard", "ok", "observed", "bound"
        );
        for v in &self.verdicts {
            let shard = v
                .shard
                .map(|s| s.to_string())
                .unwrap_or_else(|| "fleet".to_owned());
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>5} {:>12} {:>12}",
                v.slo,
                shard,
                if v.ok { "ok" } else { "FAIL" },
                v.observed,
                v.bound
            );
        }
        out
    }
}

// --- Span profiler ---------------------------------------------------------

/// Aggregated cost of one span stack on one shard.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanStat {
    /// The shard the spans ran on.
    pub shard: usize,
    /// Semicolon-joined open-span names, outermost first (the
    /// folded-stack key, e.g. `lifecycle;interact`).
    pub stack: String,
    /// Spans closed under this exact stack.
    pub count: u64,
    /// Modeled sim time attributed directly to this stack (served RTTs
    /// plus retry/corrupt backoffs recorded while it was innermost).
    pub self_nanos: u64,
    /// Self time plus all nested spans' time.
    pub total_nanos: u64,
}

/// A deterministic span-cost profile: stats sorted by `(shard, stack)`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SpanProfile {
    /// Per-stack aggregates, sorted by `(shard, stack)`.
    pub stats: Vec<SpanStat>,
}

#[derive(Default)]
struct OpenFrame {
    name: &'static str,
    self_nanos: u64,
    child_nanos: u64,
}

/// Builds a [`SpanProfile`] from `(shard, event)` pairs in merge order.
///
/// Stacks are rebuilt per `(shard, account)` — spans nest strictly
/// within one principal's flow, and the merged stream preserves each
/// shard's recording order, so reconstruction is exact and worker-count
/// invariant. Costs are the modeled wire times the trace already
/// carries: `Served.rtt_nanos`, plus `Timeout`/`CorruptReject` backoffs.
pub fn profile_spans<'a>(events: impl IntoIterator<Item = (usize, &'a TraceEvent)>) -> SpanProfile {
    type StackKey = (usize, Option<String>);
    let mut stacks: BTreeMap<StackKey, Vec<OpenFrame>> = BTreeMap::new();
    let mut agg: BTreeMap<(usize, String), (u64, u64, u64)> = BTreeMap::new();
    for (shard, ev) in events {
        let key: StackKey = (shard, ev.ctx.account.clone());
        match &ev.kind {
            EventKind::SpanOpen { span } => {
                stacks.entry(key).or_default().push(OpenFrame {
                    name: span.name(),
                    ..OpenFrame::default()
                });
            }
            EventKind::SpanClose { .. } => {
                let stack = stacks.entry(key).or_default();
                if let Some(frame) = stack.pop() {
                    let total = frame.self_nanos + frame.child_nanos;
                    let mut path: Vec<&str> = stack.iter().map(|f| f.name).collect();
                    path.push(frame.name);
                    if let Some(parent) = stack.last_mut() {
                        parent.child_nanos += total;
                    }
                    let entry = agg.entry((shard, path.join(";"))).or_default();
                    entry.0 += 1;
                    entry.1 += frame.self_nanos;
                    entry.2 += total;
                }
            }
            EventKind::Served { rtt_nanos, .. } => {
                if let Some(frame) = stacks.entry(key).or_default().last_mut() {
                    frame.self_nanos += rtt_nanos;
                }
            }
            EventKind::Timeout { backoff_ms, .. } | EventKind::CorruptReject { backoff_ms, .. } => {
                if let Some(frame) = stacks.entry(key).or_default().last_mut() {
                    frame.self_nanos += backoff_ms * 1_000_000;
                }
            }
            _ => {}
        }
    }
    let stats = agg
        .into_iter()
        .map(
            |((shard, stack), (count, self_nanos, total_nanos))| SpanStat {
                shard,
                stack,
                count,
                self_nanos,
                total_nanos,
            },
        )
        .collect();
    SpanProfile { stats }
}

impl SpanProfile {
    /// The profile in folded-stack (flamegraph collapsed) format: one
    /// `shard<N>;<stack> <self_nanos>` line per stack, sorted. Feed to
    /// any flamegraph renderer.
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        for s in &self.stats {
            let _ = writeln!(out, "shard{};{} {}", s.shard, s.stack, s.self_nanos);
        }
        out
    }

    /// The `k` hottest stacks by self time (ties broken by `(shard,
    /// stack)` so the order is total).
    pub fn top_spans(&self, k: usize) -> Vec<&SpanStat> {
        let mut sorted: Vec<&SpanStat> = self.stats.iter().collect();
        sorted.sort_by(|a, b| {
            b.self_nanos
                .cmp(&a.self_nanos)
                .then(a.shard.cmp(&b.shard))
                .then(a.stack.cmp(&b.stack))
        });
        sorted.truncate(k);
        sorted
    }

    /// A fixed-width top-`k` hot-span table (self/total in sim
    /// milliseconds).
    pub fn render_top(&self, k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:<28} {:>8} {:>12} {:>12}",
            "shard", "stack", "count", "self_ms", "total_ms"
        );
        for s in self.top_spans(k) {
            let _ = writeln!(
                out,
                "{:<6} {:<28} {:>8} {:>12} {:>12}",
                s.shard,
                s.stack,
                s.count,
                s.self_nanos / 1_000_000,
                s.total_nanos / 1_000_000
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::TrustAuthority;
    use crate::metrics::Phase;
    use crate::trace::{CtxArgs, Outcome, SpanKind};
    use btd_crypto::group::DhGroup;
    use btd_sim::rng::SimRng;

    #[test]
    fn series_export_is_canonical() {
        let mut rng = SimRng::seed_from(3);
        let mut ca = TrustAuthority::new(DhGroup::test_512(), &mut rng);
        let server = WebServer::new("www.xyz.com", DhGroup::test_512(), &mut ca, &mut rng);
        let mut s = ShardSampler::new(3, 2);
        s.tick(0, &server, 1);
        s.tick(1, &server, 1); // off-interval: no point
        s.tick(2, &server, 1);
        let points = s.finish(2, &server);
        assert_eq!(points.len(), 2, "a finish on a sampled tick adds no point");
        assert_eq!(points[0].lt, 0);
        assert_eq!(points[1].lt, 2);
        let jsonl = export_series_jsonl(&points);
        assert!(jsonl.starts_with("{\"lt\":0,\"shard\":3,\"metrics\":{"));
        assert_eq!(jsonl.lines().count(), 2);
        // Names appear in sorted order.
        let names: Vec<&str> = points[0].values.iter().map(|(name, _)| *name).collect();
        assert_eq!(names.len(), 24);
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        assert_eq!(points[0].scalar("window_occupancy"), Some(1));
    }

    #[test]
    fn merge_series_orders_by_lt_then_shard() {
        let mk = |lt, shard| SeriesPoint {
            lt,
            shard,
            values: Vec::new(),
        };
        let merged = merge_series(vec![vec![mk(0, 1), mk(2, 1)], vec![mk(0, 0), mk(1, 0)]]);
        let keys: Vec<_> = merged.iter().map(|p| (p.lt, p.shard)).collect();
        assert_eq!(keys, vec![(0, 0), (0, 1), (1, 0), (2, 1)]);
    }

    #[test]
    fn health_rules_fire_on_violations() {
        let point = |lt, shard, retries: u64, degraded: u64| SeriesPoint {
            lt,
            shard,
            values: vec![
                ("degraded_mode", SampleValue::Int(degraded)),
                ("replays_accepted_total", SampleValue::Int(0)),
                ("retries_total", SampleValue::Int(retries)),
            ],
        };
        // A retry storm: flat, then an 8x rate-of-change spike.
        let mut points = Vec::new();
        let mut total = 0u64;
        for lt in 0..16u64 {
            total += if lt >= 12 { 200 } else { 1 };
            points.push(point(lt, 0, total, u64::from(lt >= 8)));
        }
        let engine = HealthEngine::standard();
        let report = engine.evaluate(&points);
        assert!(!report.healthy());
        let storm = report
            .verdicts
            .iter()
            .find(|v| v.slo == "retry-storm")
            .unwrap();
        assert!(!storm.ok);
        let duty = report
            .verdicts
            .iter()
            .find(|v| v.slo == "degraded-duty")
            .unwrap();
        assert!(duty.ok, "50% duty bound holds at 7/16 hot samples");
        // All-quiet series is healthy.
        let quiet: Vec<SeriesPoint> = (0..16).map(|lt| point(lt, 0, 0, 0)).collect();
        assert!(engine.evaluate(&quiet).healthy());
    }

    #[test]
    fn alert_events_do_not_perturb_derived_metrics() {
        use crate::trace::derive_metrics;
        let tracer = Tracer::enabled();
        tracer.record(EventKind::Send { attempt: 0 });
        let before = derive_metrics(&tracer.events());
        let report = HealthReport {
            verdicts: vec![SloVerdict {
                slo: "retry-storm",
                shard: Some(2),
                ok: false,
                observed: 500,
                bound: 96,
            }],
        };
        report.record_alerts(&tracer);
        let events = tracer.events();
        assert_eq!(events.len(), 2, "alert was traced");
        assert_eq!(derive_metrics(&events), before, "parity unchanged");
        assert!(crate::trace::event_json(&events[1]).contains("\"type\":\"slo_alert\""));
    }

    #[test]
    fn profiler_attributes_self_and_total_time() {
        let tracer = Tracer::enabled();
        tracer.open(SpanKind::Lifecycle, CtxArgs::account("alice"));
        tracer.record(EventKind::Served {
            phase: Phase::Hello,
            rtt_nanos: 5_000_000,
        });
        tracer.open(SpanKind::Interact(0), CtxArgs::account("alice"));
        tracer.record(EventKind::Served {
            phase: Phase::Interaction,
            rtt_nanos: 40_000_000,
        });
        tracer.record(EventKind::Timeout {
            attempt: 0,
            backoff_ms: 10,
        });
        tracer.close(SpanKind::Interact(0), Outcome::Success);
        tracer.close(SpanKind::Lifecycle, Outcome::Success);
        let events = tracer.events();
        let profile = profile_spans(events.iter().map(|e| (0usize, e)));
        let interact = profile
            .stats
            .iter()
            .find(|s| s.stack == "lifecycle;interact")
            .unwrap();
        assert_eq!(interact.self_nanos, 50_000_000);
        assert_eq!(interact.total_nanos, 50_000_000);
        let lifecycle = profile
            .stats
            .iter()
            .find(|s| s.stack == "lifecycle")
            .unwrap();
        assert_eq!(lifecycle.self_nanos, 5_000_000);
        assert_eq!(lifecycle.total_nanos, 55_000_000);
        let folded = profile.folded_stacks();
        assert!(folded.contains("shard0;lifecycle;interact 50000000"));
        assert_eq!(profile.top_spans(1)[0].stack, "lifecycle;interact");
    }
}
