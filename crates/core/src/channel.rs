//! The untrusted network between device and server.
//!
//! "The Internet communication between a Web Server and a mobile device is
//! untrusted. Replay and Man-in-the-Middle attacks need to be considered."
//! [`Channel`] is a seedable fault-injection harness: it delivers messages
//! with a latency model and an on-path [`Adversary`] that can drop,
//! duplicate, delay, reorder (by late delivery), and corrupt traffic.
//! All randomness comes from a forked [`SimRng`], so a whole lossy run
//! replays bit-for-bit from one seed. Tampering attacks are expressed by
//! the attack experiments as modified message copies, which the channel
//! delivers faithfully (the adversary *is* the network).

use btd_sim::rng::SimRng;
use btd_sim::time::SimDuration;

use crate::trace::{EventKind, FaultKind, Tracer};

/// A message type that can cross the [`Channel`].
///
/// `corrupt` flips bits the way an on-path attacker or a noisy link would;
/// implementations should damage an integrity-protected field (MAC,
/// signature, nonce) so the corruption is *detectable* — the protocol's
/// whole claim is that flipped bits surface as rejects, not as silently
/// altered state.
pub trait NetMessage: Clone {
    /// Damages the message in place, deterministically from `rng`.
    fn corrupt(&mut self, rng: &mut SimRng);
}

/// Flips one random bit of `bytes` (helper for [`NetMessage`] impls).
pub fn flip_random_bit(bytes: &mut [u8], rng: &mut SimRng) {
    if bytes.is_empty() {
        return;
    }
    let byte = rng.below(bytes.len() as u64) as usize;
    let bit = rng.below(8) as u8;
    bytes[byte] ^= 1 << bit;
}

impl NetMessage for String {
    fn corrupt(&mut self, rng: &mut SimRng) {
        // Stay valid UTF-8: damage via a safe ASCII substitution.
        let mut bytes = std::mem::take(self).into_bytes();
        if bytes.is_empty() {
            bytes.push(b'?');
        } else {
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] = b'a' + (rng.below(26) as u8);
        }
        *self = String::from_utf8(bytes).expect("ascii substitution");
    }
}

impl NetMessage for u32 {
    fn corrupt(&mut self, rng: &mut SimRng) {
        *self ^= 1 << rng.below(32);
    }
}

impl NetMessage for u64 {
    fn corrupt(&mut self, rng: &mut SimRng) {
        *self ^= 1 << rng.below(64);
    }
}

/// What the on-path adversary does to traffic.
#[derive(Clone, PartialEq, Debug)]
pub enum Adversary {
    /// Honest network.
    None,
    /// Records every message and immediately replays a copy of each —
    /// the classic replay attack.
    Replayer,
    /// Drops every `n`-th message (lossy/censoring network; tests
    /// liveness handling, not a security property).
    Dropper {
        /// Drop period: every `period`-th message is dropped (1 = all).
        period: u32,
    },
    /// Drops each message independently with probability `loss`.
    RandomLoss {
        /// Per-message loss probability in `[0, 1]`.
        loss: f64,
    },
    /// Correlated loss: once a burst starts (probability `start` per
    /// message), the next `burst` messages are all dropped — the radio
    /// fade / handover pattern of mobile links.
    BurstLoss {
        /// Probability that a given message starts a burst.
        start: f64,
        /// Number of consecutive messages each burst destroys.
        burst: u32,
    },
    /// Adds uniform random extra delay in `[0, max_extra_ms]` to every
    /// message (congestion jitter).
    Jitter {
        /// Maximum extra one-way delay, in milliseconds.
        max_extra_ms: u64,
    },
    /// Delays every `period`-th message by `extra_ms`. With a stop-and-wait
    /// protocol this is how reordering manifests: the delayed original is
    /// overtaken by the sender's retransmission and arrives as a stale
    /// duplicate. Nothing is ever lost.
    Reorderer {
        /// Delay period: every `period`-th message arrives late.
        period: u32,
        /// How late, in milliseconds.
        extra_ms: u64,
    },
    /// Corrupts every `period`-th message in transit (bit flips).
    Corruptor {
        /// Corruption period: every `period`-th message is damaged.
        period: u32,
    },
    /// Applies each adversary in order to the same traffic, so loss,
    /// jitter, and corruption can be studied together.
    Composed(Vec<Adversary>),
}

/// One delivered copy of a transmitted message.
#[derive(Clone, Debug)]
pub struct Arrival<T> {
    /// The (possibly corrupted) message.
    pub msg: T,
    /// One-way delay from transmission to arrival.
    pub delay: SimDuration,
}

/// The copies of one transmitted message that arrive, earliest first.
///
/// Every send starts with one copy and only a duplicating adversary adds
/// more, so the first copy is held inline and the heap is touched only
/// when a second one joins. Derefs to a slice; iterating by value yields
/// the copies in order.
#[derive(Clone, Debug)]
pub struct Arrivals<T>(Copies<T>);

#[derive(Clone, Debug)]
enum Copies<T> {
    /// No copy or one copy.
    Inline(Option<Arrival<T>>),
    /// Two or more copies.
    Spilled(Vec<Arrival<T>>),
}

impl<T> Arrivals<T> {
    fn one(arrival: Arrival<T>) -> Self {
        Arrivals(Copies::Inline(Some(arrival)))
    }

    fn push(&mut self, arrival: Arrival<T>) {
        self.0 = match std::mem::replace(&mut self.0, Copies::Inline(None)) {
            Copies::Inline(None) => Copies::Inline(Some(arrival)),
            Copies::Inline(Some(first)) => Copies::Spilled(vec![first, arrival]),
            Copies::Spilled(mut all) => {
                all.push(arrival);
                Copies::Spilled(all)
            }
        };
    }

    fn clear(&mut self) {
        self.0 = Copies::Inline(None);
    }

    /// Keeps the copies `keep` approves, visiting them in order.
    fn retain(&mut self, mut keep: impl FnMut(&Arrival<T>) -> bool) {
        match &mut self.0 {
            Copies::Inline(slot) => {
                if slot.as_ref().is_some_and(|a| !keep(a)) {
                    *slot = None;
                }
            }
            Copies::Spilled(all) => all.retain(keep),
        }
    }
}

impl<T> std::ops::Deref for Arrivals<T> {
    type Target = [Arrival<T>];

    fn deref(&self) -> &[Arrival<T>] {
        match &self.0 {
            Copies::Inline(slot) => slot.as_slice(),
            Copies::Spilled(all) => all,
        }
    }
}

impl<T> std::ops::DerefMut for Arrivals<T> {
    fn deref_mut(&mut self) -> &mut [Arrival<T>] {
        match &mut self.0 {
            Copies::Inline(slot) => slot.as_mut_slice(),
            Copies::Spilled(all) => all,
        }
    }
}

impl<T> IntoIterator for Arrivals<T> {
    type Item = Arrival<T>;
    type IntoIter =
        std::iter::Chain<std::option::IntoIter<Arrival<T>>, std::vec::IntoIter<Arrival<T>>>;

    fn into_iter(self) -> Self::IntoIter {
        let (inline, spilled) = match self.0 {
            Copies::Inline(slot) => (slot, Vec::new()),
            Copies::Spilled(all) => (None, all),
        };
        inline.into_iter().chain(spilled)
    }
}

/// Per-adversary-kind fault breakdown. The aggregate [`ChannelStats`]
/// counters lose which adversary layer fired — under a `Composed` stack,
/// `dropped` can't say whether the dropper or a loss burst destroyed a
/// message. These counters attribute every fault to its layer; the
/// conservation invariants tying them to the aggregates are pinned in
/// `prop_channel.rs`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultCounts {
    /// Extra copies injected by the replayer.
    pub replay_duplicates: u64,
    /// Copies destroyed by the periodic dropper.
    pub dropper_drops: u64,
    /// Copies destroyed by independent random loss.
    pub random_loss_drops: u64,
    /// Copies destroyed inside a loss burst.
    pub burst_loss_drops: u64,
    /// Copies delayed by congestion jitter.
    pub jitter_delays: u64,
    /// Copies delayed by the reorderer.
    pub reorder_delays: u64,
    /// Copies damaged by the corruptor.
    pub corruptions: u64,
}

/// Channel counters. Conservation invariant:
/// `delivered + dropped == sent + duplicated`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ChannelStats {
    /// Messages handed to the channel.
    pub sent: u64,
    /// Copies that arrived (on time or late).
    pub delivered: u64,
    /// Extra copies injected by the adversary.
    pub duplicated: u64,
    /// Copies destroyed in transit.
    pub dropped: u64,
    /// Copies damaged in transit (still delivered).
    pub corrupted: u64,
    /// Copies that arrived later than the base latency.
    pub delayed: u64,
    /// Which adversary layer each fault came from: `duplicated`,
    /// `dropped`, `corrupted`, and `delayed` broken down by kind.
    pub faults: FaultCounts,
}

/// Extra delay between an original and its adversarial replay copy.
const REPLAY_GAP: SimDuration = SimDuration::from_millis(5);

/// The network channel.
#[derive(Clone, Debug)]
pub struct Channel {
    /// One-way latency.
    pub latency: SimDuration,
    adversary: Adversary,
    rng: SimRng,
    /// Remaining messages to destroy in the current loss burst.
    burst_left: u32,
    stats: ChannelStats,
    tracer: Tracer,
}

impl Channel {
    /// An honest channel with mobile-network latency (~60 ms one way).
    pub fn honest() -> Self {
        Channel::with_adversary(Adversary::None)
    }

    /// A channel with the given adversary and a fixed internal seed.
    ///
    /// Use [`Channel::seeded`] when the surrounding experiment wants the
    /// channel's randomness tied to its own seed.
    pub fn with_adversary(adversary: Adversary) -> Self {
        Channel::seeded(adversary, &mut SimRng::seed_from(0x006E_6574_776F_726B))
    }

    /// A channel with the given adversary, drawing all stochastic faults
    /// (random loss, bursts, jitter, bit flips) from a stream forked off
    /// `rng`.
    pub fn seeded(adversary: Adversary, rng: &mut SimRng) -> Self {
        Channel {
            latency: SimDuration::from_millis(60),
            adversary,
            rng: rng.fork(0xC4A7),
            burst_left: 0,
            stats: ChannelStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a tracer; injected faults are recorded as
    /// [`EventKind::Fault`] events as they fire.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The channel's tracer handle (disabled unless installed).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn fault(&mut self, fault: FaultKind, copies: u64) {
        if self.tracer.is_enabled() {
            for _ in 0..copies {
                self.tracer.record(EventKind::Fault { fault });
            }
        }
    }

    /// Transmits a message, returning the copies that arrive, earliest
    /// first. No arrival means every copy was destroyed in transit.
    pub fn transmit<T: NetMessage>(&mut self, msg: T) -> Arrivals<T> {
        self.stats.sent += 1;
        let seq = self.stats.sent;
        let mut arrivals = Arrivals::one(Arrival {
            msg,
            delay: self.latency,
        });
        // Lent out for the send rather than cloned: `apply` needs `self`
        // mutably for the fault streams and counters.
        let adversary = std::mem::replace(&mut self.adversary, Adversary::None);
        self.apply(&adversary, &mut arrivals, seq);
        self.adversary = adversary;
        arrivals.sort_by_key(|a| a.delay);
        self.stats.delivered += arrivals.len() as u64;
        arrivals
    }

    fn apply<T: NetMessage>(
        &mut self,
        adversary: &Adversary,
        arrivals: &mut Arrivals<T>,
        seq: u64,
    ) {
        match adversary {
            Adversary::None => {}
            Adversary::Replayer => {
                let copies = arrivals.len();
                for i in 0..copies {
                    let copy = Arrival {
                        msg: arrivals[i].msg.clone(),
                        delay: arrivals[i].delay + REPLAY_GAP,
                    };
                    arrivals.push(copy);
                }
                self.stats.duplicated += copies as u64;
                self.stats.faults.replay_duplicates += copies as u64;
                self.fault(FaultKind::ReplayDuplicate, copies as u64);
            }
            Adversary::Dropper { period } => {
                if *period > 0 && seq.is_multiple_of(*period as u64) {
                    self.stats.dropped += arrivals.len() as u64;
                    self.stats.faults.dropper_drops += arrivals.len() as u64;
                    self.fault(FaultKind::DropperDrop, arrivals.len() as u64);
                    arrivals.clear();
                }
            }
            Adversary::RandomLoss { loss } => {
                arrivals.retain(|_| {
                    if self.rng.chance(*loss) {
                        self.stats.dropped += 1;
                        self.stats.faults.random_loss_drops += 1;
                        self.fault(FaultKind::RandomLossDrop, 1);
                        false
                    } else {
                        true
                    }
                });
            }
            Adversary::BurstLoss { start, burst } => {
                let in_burst = if self.burst_left > 0 {
                    self.burst_left -= 1;
                    true
                } else if self.rng.chance(*start) {
                    self.burst_left = burst.saturating_sub(1);
                    true
                } else {
                    false
                };
                if in_burst {
                    self.stats.dropped += arrivals.len() as u64;
                    self.stats.faults.burst_loss_drops += arrivals.len() as u64;
                    self.fault(FaultKind::BurstLossDrop, arrivals.len() as u64);
                    arrivals.clear();
                }
            }
            Adversary::Jitter { max_extra_ms } => {
                for a in arrivals.iter_mut() {
                    let extra = self.rng.below(max_extra_ms + 1);
                    if extra > 0 {
                        a.delay += SimDuration::from_millis(extra);
                        self.stats.delayed += 1;
                        self.stats.faults.jitter_delays += 1;
                        self.fault(FaultKind::JitterDelay { extra_ms: extra }, 1);
                    }
                }
            }
            Adversary::Reorderer { period, extra_ms } => {
                if *period > 0 && seq.is_multiple_of(*period as u64) {
                    for a in arrivals.iter_mut() {
                        a.delay += SimDuration::from_millis(*extra_ms);
                        self.stats.delayed += 1;
                        self.stats.faults.reorder_delays += 1;
                        self.fault(
                            FaultKind::ReorderDelay {
                                extra_ms: *extra_ms,
                            },
                            1,
                        );
                    }
                }
            }
            Adversary::Corruptor { period } => {
                if *period > 0 && seq.is_multiple_of(*period as u64) {
                    for a in arrivals.iter_mut() {
                        a.msg.corrupt(&mut self.rng);
                        self.stats.corrupted += 1;
                        self.stats.faults.corruptions += 1;
                        self.fault(FaultKind::Corruption, 1);
                    }
                }
            }
            Adversary::Composed(layers) => {
                for layer in layers {
                    self.apply(layer, arrivals, seq);
                    if arrivals.is_empty() {
                        break;
                    }
                }
            }
        }
    }

    /// Channel counters.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }
}

impl Default for Channel {
    fn default() -> Self {
        Channel::honest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrived<T: Clone>(arrivals: &[Arrival<T>]) -> Vec<T> {
        arrivals.iter().map(|a| a.msg.clone()).collect()
    }

    #[test]
    fn honest_channel_delivers_once() {
        let mut ch = Channel::honest();
        let out = ch.transmit(1u32);
        assert_eq!(arrived(&out), vec![1]);
        assert_eq!(out[0].delay, ch.latency);
        let s = ch.stats();
        assert_eq!((s.sent, s.delivered, s.dropped), (1, 1, 0));
    }

    #[test]
    fn replayer_duplicates_every_message() {
        let mut ch = Channel::with_adversary(Adversary::Replayer);
        let out = ch.transmit("msg".to_owned());
        assert_eq!(arrived(&out), vec!["msg".to_owned(), "msg".to_owned()]);
        assert!(out[0].delay < out[1].delay, "replay copy arrives later");
        assert_eq!(ch.stats().duplicated, 1);
    }

    #[test]
    fn dropper_drops_periodically() {
        let mut ch = Channel::with_adversary(Adversary::Dropper { period: 2 });
        assert_eq!(arrived(&ch.transmit(1u32)), vec![1]); // 1st delivered
        assert!(ch.transmit(2u32).is_empty()); // 2nd dropped
        assert_eq!(arrived(&ch.transmit(3u32)), vec![3]);
        assert_eq!(ch.stats().dropped, 1);
    }

    #[test]
    fn burst_loss_destroys_consecutive_messages() {
        let mut ch = Channel::with_adversary(Adversary::BurstLoss {
            start: 1.0,
            burst: 3,
        });
        // start == 1.0: the very first message opens a burst of 3.
        assert!(ch.transmit(1u32).is_empty());
        assert!(ch.transmit(2u32).is_empty());
        assert!(ch.transmit(3u32).is_empty());
        assert_eq!(ch.stats().dropped, 3);
    }

    #[test]
    fn jitter_never_shrinks_delay() {
        let mut rng = SimRng::seed_from(7);
        let mut ch = Channel::seeded(Adversary::Jitter { max_extra_ms: 40 }, &mut rng);
        for i in 0..50u32 {
            for a in ch.transmit(i) {
                assert!(a.delay >= ch.latency);
                assert!(a.delay <= ch.latency + SimDuration::from_millis(40));
            }
        }
        assert_eq!(ch.stats().dropped, 0);
    }

    #[test]
    fn reorderer_delays_but_never_loses() {
        let mut ch = Channel::with_adversary(Adversary::Reorderer {
            period: 2,
            extra_ms: 500,
        });
        let on_time = ch.transmit(1u32);
        let late = ch.transmit(2u32);
        assert_eq!(on_time[0].delay, ch.latency);
        assert_eq!(late[0].delay, ch.latency + SimDuration::from_millis(500));
        let s = ch.stats();
        assert_eq!((s.delivered, s.dropped, s.delayed), (2, 0, 1));
    }

    #[test]
    fn corruptor_damages_periodically() {
        let mut rng = SimRng::seed_from(9);
        let mut ch = Channel::seeded(Adversary::Corruptor { period: 2 }, &mut rng);
        assert_eq!(arrived(&ch.transmit(7u64)), vec![7]);
        let damaged = ch.transmit(7u64);
        assert_ne!(damaged[0].msg, 7, "corruptor must flip a bit");
        assert_eq!(ch.stats().corrupted, 1);
    }

    #[test]
    fn composed_layers_apply_in_order() {
        let mut ch = Channel::with_adversary(Adversary::Composed(vec![
            Adversary::Replayer,
            Adversary::Dropper { period: 2 },
        ]));
        assert_eq!(arrived(&ch.transmit(1u32)).len(), 2); // duplicated
        assert!(ch.transmit(2u32).is_empty()); // both copies dropped
        let s = ch.stats();
        assert_eq!(s.delivered + s.dropped, s.sent + s.duplicated);
    }

    #[test]
    fn seeded_channels_replay_identically() {
        let run = |seed: u64| {
            let mut rng = SimRng::seed_from(seed);
            let mut ch = Channel::seeded(
                Adversary::Composed(vec![
                    Adversary::RandomLoss { loss: 0.3 },
                    Adversary::Jitter { max_extra_ms: 25 },
                ]),
                &mut rng,
            );
            let mut log = Vec::new();
            for i in 0..100u32 {
                for a in ch.transmit(i) {
                    log.push((a.msg, a.delay));
                }
            }
            (log, ch.stats())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn round_trip_doubles_latency() {
        let ch = Channel::honest();
        assert_eq!(ch.round_trip(), SimDuration::from_millis(120));
    }

    impl Channel {
        /// Round-trip latency for one request/response exchange.
        pub fn round_trip(&self) -> SimDuration {
            self.latency * 2
        }
    }
}
