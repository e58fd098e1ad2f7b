//! Protocol robustness accounting and retry policy.
//!
//! [`ProtocolMetrics`] is threaded through the Fig. 9/10 flows so every
//! report states exactly what the network did to it: how many sends,
//! retries, and timeouts it took, how duplicates were classified (benign
//! cache resends vs. actual replay-defense failures), and how round-trip
//! latency distributed per protocol phase. [`RetryPolicy`] is the
//! device-side liveness knob: per-attempt timeout, attempt cap, and
//! exponential backoff.
//!
//! The counters are a fold of the protocol's trace events:
//! [`ProtocolMetrics::observe`] is the one rule for which event moves
//! which counter. Flows never bump a counter by hand; they emit the event
//! (`Tracer::emit`), which folds it into their metrics and records it, and
//! [`derive_metrics`](crate::trace::derive_metrics) replays the same fold
//! over a recorded trace.

use btd_sim::time::SimDuration;

use crate::trace::{DuplicateVerdict, EventKind};

/// Upper bounds (in milliseconds, inclusive) of the latency buckets; the
/// final bucket is unbounded.
pub const LATENCY_BUCKET_MS: [u64; 5] = [75, 150, 300, 600, 1200];

/// A fixed-bucket histogram of round-trip latencies.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LatencyHistogram {
    /// Sample counts per bucket: one per [`LATENCY_BUCKET_MS`] bound plus
    /// a final overflow bucket.
    pub counts: [u64; 6],
    /// Number of recorded samples.
    pub samples: u64,
    /// Sum of all recorded samples.
    pub total: SimDuration,
    /// Largest recorded sample (zero with no samples). Gives the
    /// overflow bucket a true upper bound for [`LatencyHistogram::quantile`].
    pub max: SimDuration,
}

impl LatencyHistogram {
    /// Records one round-trip sample.
    ///
    /// Accumulation saturates: fleet-scale merges of pathological
    /// latencies clamp at `u64::MAX` nanoseconds instead of wrapping
    /// silently in release builds (which would drag `mean` and the
    /// overflow-bucket quantile backwards).
    pub fn record(&mut self, rtt: SimDuration) {
        let ms = rtt.as_millis();
        let bucket = LATENCY_BUCKET_MS
            .iter()
            .position(|bound| ms <= *bound)
            .unwrap_or(LATENCY_BUCKET_MS.len());
        self.counts[bucket] += 1;
        self.samples += 1;
        self.total = self.total.saturating_add(rtt);
        if rtt > self.max {
            self.max = rtt;
        }
    }

    /// Mean recorded latency, or zero with no samples.
    pub fn mean(&self) -> SimDuration {
        if self.samples == 0 {
            SimDuration::ZERO
        } else {
            self.total.div_int(self.samples)
        }
    }

    /// `(label, count)` rows for display, e.g. `("<=150ms", 3)`.
    pub fn rows(&self) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = LATENCY_BUCKET_MS
            .iter()
            .zip(self.counts.iter())
            .map(|(bound, count)| (format!("<={bound}ms"), *count))
            .collect();
        rows.push((
            format!(">{}ms", LATENCY_BUCKET_MS[LATENCY_BUCKET_MS.len() - 1]),
            self.counts[LATENCY_BUCKET_MS.len()],
        ));
        rows
    }

    /// Merges another histogram into this one: bucket-wise counts, sample
    /// and total sums (saturating), max of maxes. Used to roll per-device
    /// chaos reports up into fleet-level summaries.
    ///
    /// Two hardenings keep fleet p99 columns honest at scale:
    ///
    /// * sums saturate instead of wrapping, so a release-build overflow
    ///   cannot silently shrink `total`/`samples` and with them the
    ///   quantile ranks;
    /// * `max` is only taken from histograms that actually hold samples —
    ///   a hand-constructed empty histogram with a stale `max` must not
    ///   become the fleet's overflow-bucket bound.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.samples = self.samples.saturating_add(other.samples);
        self.total = self.total.saturating_add(other.total);
        if other.samples > 0 && other.max > self.max {
            self.max = other.max;
        }
    }

    /// Latency at quantile `q`, or `None` with no samples.
    ///
    /// Buckets only bound samples, so this returns the *upper bound* of
    /// the bucket holding the rank-`ceil(q * samples)` sample — a
    /// conservative (pessimistic) estimate, clamped to the true recorded
    /// [`LatencyHistogram::max`] so no quantile can ever exceed an
    /// observed latency (all samples at 100 ms must report p50 = 100 ms,
    /// not the 150 ms bucket bound). For the unbounded overflow bucket it
    /// returns the true recorded max directly.
    ///
    /// Edge behavior is pinned: `q` is clamped to `[0, 1]` (negative `q`
    /// behaves as `0.0` → the minimum, `q > 1` behaves as `1.0` → the
    /// maximum), and a NaN `q` returns `None` rather than a
    /// meaningless rank.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.samples == 0 || q.is_nan() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples as f64).ceil() as u64).clamp(1, self.samples);
        let mut seen = 0u64;
        for (bucket, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(match LATENCY_BUCKET_MS.get(bucket) {
                    Some(bound) => SimDuration::from_millis(*bound).min(self.max),
                    None => self.max,
                });
            }
        }
        Some(self.max)
    }
}

/// Which protocol phase a round trip belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Page fetch + server hello (Figs. 9/10, step 1).
    Hello,
    /// Registration or login submission (Fig. 9 step 4 / Fig. 10 step 2).
    Submit,
    /// Post-login interaction (Fig. 10, step 4).
    Interaction,
    /// Identity-lifecycle operations: wire identity reset and session
    /// resumption after a server restart.
    Lifecycle,
}

/// What the network did to one protocol flow, and what the endpoints did
/// about it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProtocolMetrics {
    /// Request transmissions, including retries.
    pub sends: u64,
    /// Retransmissions after a timeout or a retryable reject.
    pub retries: u64,
    /// Attempts abandoned because no acceptable reply arrived in time.
    pub timeouts: u64,
    /// Duplicate deliveries the server answered from its idempotency
    /// cache — benign: no server state advanced.
    pub duplicates_resent: u64,
    /// Duplicate deliveries the server *accepted as fresh*, advancing
    /// state twice. This is a replay-defense failure and must stay zero.
    pub replays_accepted: u64,
    /// Duplicate deliveries the server rejected outright.
    pub replays_rejected: u64,
    /// Exchanges healed through the idempotency cache after a lost
    /// response desynchronized device and server.
    pub resyncs: u64,
    /// Exchanges abandoned after exhausting every retry attempt.
    pub giveups: u64,
    /// Retries forced by a message damaged in transit (failed MAC,
    /// signature, or nonce echo on an otherwise honest exchange).
    pub corrupt_rejected: u64,
    /// Duplicate or stale content pages the device discarded.
    pub stale_content_ignored: u64,
    /// Round-trip latency of served hello fetches.
    pub hello: LatencyHistogram,
    /// Round-trip latency of served registration/login submissions.
    pub submit: LatencyHistogram,
    /// Round-trip latency of served interactions.
    pub interaction: LatencyHistogram,
    /// Round-trip latency of served lifecycle operations (reset, resume).
    pub lifecycle: LatencyHistogram,
}

impl ProtocolMetrics {
    /// Records a served round trip under its phase.
    pub fn record_latency(&mut self, phase: Phase, rtt: SimDuration) {
        match phase {
            Phase::Hello => self.hello.record(rtt),
            Phase::Submit => self.submit.record(rtt),
            Phase::Interaction => self.interaction.record(rtt),
            Phase::Lifecycle => self.lifecycle.record(rtt),
        }
    }

    /// Folds one protocol event into the counters. This is the only rule
    /// for which outcome moves which counter; events that carry no
    /// protocol accounting (spans, storage, faults, window bookkeeping)
    /// leave the metrics unchanged.
    pub fn observe(&mut self, event: &EventKind) {
        match event {
            EventKind::Send { attempt } => {
                self.sends += 1;
                if *attempt > 0 {
                    self.retries += 1;
                }
            }
            EventKind::Timeout { .. } => self.timeouts += 1,
            EventKind::CorruptReject { .. } | EventKind::ReplyRejected { .. } => {
                self.corrupt_rejected += 1;
            }
            EventKind::Duplicate { verdict } => match verdict {
                DuplicateVerdict::AcceptedFresh => self.replays_accepted += 1,
                DuplicateVerdict::Resent => self.duplicates_resent += 1,
                DuplicateVerdict::Rejected => self.replays_rejected += 1,
            },
            EventKind::Resync => self.resyncs += 1,
            EventKind::GiveUp => self.giveups += 1,
            EventKind::StaleContent { copies } => self.stale_content_ignored += copies,
            EventKind::Served { phase, rtt_nanos } => {
                self.record_latency(*phase, SimDuration::from_nanos(*rtt_nanos));
            }
            _ => {}
        }
    }

    /// Folds another flow's metrics into this one (for whole-scenario
    /// summaries).
    pub fn absorb(&mut self, other: &ProtocolMetrics) {
        self.sends += other.sends;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.duplicates_resent += other.duplicates_resent;
        self.replays_accepted += other.replays_accepted;
        self.replays_rejected += other.replays_rejected;
        self.resyncs += other.resyncs;
        self.giveups += other.giveups;
        self.corrupt_rejected += other.corrupt_rejected;
        self.stale_content_ignored += other.stale_content_ignored;
        self.hello.merge(&other.hello);
        self.submit.merge(&other.submit);
        self.interaction.merge(&other.interaction);
        self.lifecycle.merge(&other.lifecycle);
    }
}

/// Device-side retry/timeout/backoff policy for one protocol exchange.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Maximum transmissions per exchange (1 = no retries).
    pub max_attempts: u32,
    /// How long the device waits for an acceptable reply per attempt.
    pub timeout: SimDuration,
    /// Backoff before retry `k` is `min(backoff_base * 2^k, backoff_cap)`.
    pub backoff_base: SimDuration,
    /// Hard ceiling on any single backoff, so exponential growth from a
    /// large base cannot run an exchange's clock into absurd territory.
    pub backoff_cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            timeout: SimDuration::from_millis(250),
            backoff_base: SimDuration::from_millis(50),
            backoff_cap: SimDuration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// Backoff to wait after failed attempt `attempt` (0-based).
    ///
    /// The doubling multiply saturates — `backoff_base * 2^16` can exceed
    /// `u64::MAX` nanoseconds for large bases, and a wrapped duration
    /// would turn the longest backoff into (nearly) none at all — and the
    /// result is clamped to [`RetryPolicy::backoff_cap`].
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        self.backoff_base
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.backoff_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bound() {
        let mut h = LatencyHistogram::default();
        h.record(SimDuration::from_millis(70)); // <=75
        h.record(SimDuration::from_millis(75)); // <=75 (inclusive)
        h.record(SimDuration::from_millis(200)); // <=300
        h.record(SimDuration::from_millis(5_000)); // overflow
        assert_eq!(h.counts, [2, 0, 1, 0, 0, 1]);
        assert_eq!(h.samples, 4);
        assert_eq!(h.mean(), SimDuration::from_millis(5_345).div_int(4));
    }

    #[test]
    fn histogram_rows_label_every_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(SimDuration::from_millis(100));
        let rows = h.rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[1], ("<=150ms".to_owned(), 1));
        assert_eq!(rows[5].0, ">1200ms");
    }

    #[test]
    fn merge_sums_counts_and_takes_max_of_maxes() {
        let mut a = LatencyHistogram::default();
        a.record(SimDuration::from_millis(100));
        a.record(SimDuration::from_millis(2_000));
        let mut b = LatencyHistogram::default();
        b.record(SimDuration::from_millis(400));
        b.record(SimDuration::from_millis(9_000));
        a.merge(&b);
        assert_eq!(a.samples, 4);
        assert_eq!(a.counts, [0, 1, 0, 1, 0, 2]);
        assert_eq!(a.total, SimDuration::from_millis(11_500));
        assert_eq!(a.max, SimDuration::from_millis(9_000));
    }

    #[test]
    fn quantile_returns_bucket_bound_or_true_max() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..90 {
            h.record(SimDuration::from_millis(100));
        }
        for _ in 0..9 {
            h.record(SimDuration::from_millis(500));
        }
        h.record(SimDuration::from_millis(3_000));
        // p50 and p95 land in bounded buckets: upper bound is returned.
        assert_eq!(h.quantile(0.50), Some(SimDuration::from_millis(150)));
        assert_eq!(h.quantile(0.95), Some(SimDuration::from_millis(600)));
        // p100 lands in the overflow bucket: the true max is returned.
        assert_eq!(h.quantile(1.0), Some(SimDuration::from_millis(3_000)));
        // Quantiles are monotone in q.
        assert!(h.quantile(0.99) <= h.quantile(1.0));

        // A bucket's upper bound is clamped to the observed max: with every
        // sample at 100 ms, p50 must report 100 ms, not the 150 ms bound of
        // the bucket the samples landed in. Bug pinned by this PR's fix.
        let mut uniform = LatencyHistogram::default();
        for _ in 0..90 {
            uniform.record(SimDuration::from_millis(100));
        }
        assert_eq!(uniform.quantile(0.50), Some(SimDuration::from_millis(100)));
        assert_eq!(uniform.quantile(1.0), Some(SimDuration::from_millis(100)));
        // The clamp never lifts a bound: quantiles stay monotone and at
        // most max even when samples straddle several buckets.
        let mut mixed = LatencyHistogram::default();
        mixed.record(SimDuration::from_millis(40));
        mixed.record(SimDuration::from_millis(110));
        // Rank-1 sample sits under the 75 ms bound, below max: unclamped.
        assert_eq!(mixed.quantile(0.5), Some(SimDuration::from_millis(75)));
        // Rank-2 sample sits in the 150 ms bucket, but 110 ms was the
        // largest latency ever observed: the bound is clamped to it.
        assert_eq!(mixed.quantile(1.0), Some(SimDuration::from_millis(110)));
    }

    #[test]
    fn metrics_absorb_sums_everything() {
        let mut a = ProtocolMetrics {
            sends: 3,
            retries: 1,
            ..Default::default()
        };
        a.record_latency(Phase::Hello, SimDuration::from_millis(120));
        let mut b = ProtocolMetrics {
            sends: 2,
            timeouts: 2,
            ..Default::default()
        };
        b.record_latency(Phase::Hello, SimDuration::from_millis(130));
        a.absorb(&b);
        assert_eq!(a.sends, 5);
        assert_eq!(a.retries, 1);
        assert_eq!(a.timeouts, 2);
        assert_eq!(a.hello.samples, 2);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), SimDuration::from_millis(50));
        assert_eq!(p.backoff(1), SimDuration::from_millis(100));
        assert_eq!(p.backoff(3), SimDuration::from_millis(400));
    }

    #[test]
    fn backoff_saturates_at_the_overflow_boundary() {
        // backoff_base * 2^16 overflows u64 nanoseconds for any base above
        // ~2.8e14 ns (~78 hours). Before the saturating multiply this
        // wrapped in release builds, producing a near-zero backoff exactly
        // when the policy asked for the longest one.
        let p = RetryPolicy {
            backoff_base: SimDuration::from_nanos(u64::MAX / 2),
            backoff_cap: SimDuration::from_nanos(u64::MAX),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(16), SimDuration::from_nanos(u64::MAX));
        assert_eq!(p.backoff(40), SimDuration::from_nanos(u64::MAX));
        // Below the boundary the doubling is exact.
        assert_eq!(p.backoff(1), SimDuration::from_nanos(u64::MAX - 1));
    }

    #[test]
    fn backoff_respects_the_cap() {
        let p = RetryPolicy {
            backoff_cap: SimDuration::from_millis(150),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(0), SimDuration::from_millis(50));
        assert_eq!(p.backoff(1), SimDuration::from_millis(100));
        assert_eq!(p.backoff(2), SimDuration::from_millis(150));
        assert_eq!(p.backoff(12), SimDuration::from_millis(150));
    }

    #[test]
    fn quantile_edge_behavior_is_pinned() {
        let mut h = LatencyHistogram::default();
        // Empty histogram: every q, even a weird one, is None.
        assert_eq!(h.quantile(f64::NAN), None);
        h.record(SimDuration::from_millis(100));
        h.record(SimDuration::from_millis(5_000));
        // Out-of-range q clamps to the endpoints.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.5), h.quantile(1.0));
        assert_eq!(h.quantile(1.0), Some(SimDuration::from_millis(5_000)));
        // NaN never manufactures a rank.
        assert_eq!(h.quantile(f64::NAN), None);
    }

    #[test]
    fn merge_ignores_max_of_empty_histograms() {
        let mut fleet = LatencyHistogram::default();
        fleet.record(SimDuration::from_millis(2_000));
        // An empty histogram with a stale max must not poison the fleet
        // overflow bound (p100 here resolves through `max`).
        let empty = LatencyHistogram {
            max: SimDuration::from_secs(3_600),
            ..LatencyHistogram::default()
        };
        fleet.merge(&empty);
        assert_eq!(fleet.quantile(1.0), Some(SimDuration::from_millis(2_000)));
        assert_eq!(fleet.samples, 1);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = LatencyHistogram::default();
        a.record(SimDuration::from_nanos(u64::MAX));
        let mut b = LatencyHistogram::default();
        b.record(SimDuration::from_nanos(u64::MAX));
        a.merge(&b);
        assert_eq!(a.samples, 2);
        assert_eq!(a.total, SimDuration::from_nanos(u64::MAX));
        assert_eq!(a.quantile(0.99), Some(SimDuration::from_nanos(u64::MAX)));
    }
}
