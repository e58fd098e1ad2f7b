#![warn(missing_docs)]

//! TRUST — Trust Reinforcement based on the Unified Structural
//! Touch-display.
//!
//! This crate is the paper's primary contribution: continuous local and
//! remote mobile identity management on top of the FLock biometric
//! touch-display module. It implements both TRUST scenarios end-to-end
//! against simulated adversaries:
//!
//! * **Local identity management** (paper §IV-A) — device unlock and
//!   continuous opportunistic fingerprint authentication live in
//!   [`btd_flock`]; this crate adds the device abstraction and scenario
//!   harnesses around them.
//! * **Remote identity management** (paper §IV-B) — device-to-web-server
//!   registration (Fig. 9), continuous per-interaction authentication over
//!   an untrusted network and host stack (Fig. 10), frame-hash auditing,
//!   identity reset, and identity transfer.
//!
//! Module map:
//!
//! * [`wire`] — canonical byte encoding shared by all signed/MACed
//!   messages.
//! * [`messages`] — the cookie-extension protocol messages of Figs. 9/10.
//! * [`ca`] — the certificate authority of Fig. 8.
//! * [`pages`] — hyper-text pages and their finite set of rendered views.
//! * [`server`] — the web server: account binding, sessions, replay
//!   protection, risk policy, audit log.
//! * [`server::journal`] — the server's crash-fault-tolerance layer: a
//!   CRC-framed write-ahead log with snapshot compaction, plus
//!   deterministic crash-point injection.
//! * [`device`] — the mobile device: untrusted host stack in front of a
//!   [`btd_flock::FlockModule`].
//! * [`channel`] — the untrusted network: a seedable fault-injection
//!   harness with replay, loss, jitter, reordering, and corruption
//!   adversaries.
//! * [`metrics`] — protocol robustness accounting (sends, retries,
//!   duplicate classification, latency histograms) and the retry policy.
//! * [`risk_policy`] — the "Risk: x out of the n touches authenticated"
//!   report and the server-side policy on it.
//! * [`registration`] — the Fig. 9 binding flow, end to end.
//! * [`auth`] — the Fig. 10 continuous-authentication flow.
//! * [`audit`] — offline frame-hash verification against the finite view
//!   set.
//! * [`reset`] — identity reset after device loss, over the wire.
//! * [`transfer`] — identity transfer to a new device over the faulty
//!   local link.
//! * [`chaos`] — the crash/loss chaos harness: the full lifecycle driven
//!   through seeded server crashes, journal recoveries, and session
//!   resumption.
//! * [`trace`] — deterministic protocol tracing: typed spans and point
//!   events across every layer, with JSONL export, queries, trace diff,
//!   and metrics derivation.
//! * [`scenario`] — turnkey harnesses used by the examples, integration
//!   tests, and benches.
//! * [`parallel`] — the deterministic shard-parallel runtime: shard
//!   workers on OS threads outside the sim core, merged by logical time
//!   into byte-identical same-seed output at any worker count.
//! * [`telemetry`] — deterministic fleet observability over the trace:
//!   per-shard time series folded from the event stream with
//!   [`metrics::ProtocolMetrics::observe`] and sampled on the logical
//!   clock, declarative SLO health verdicts, and a span profiler with
//!   folded-stack export.
//!
//! # Example
//!
//! ```
//! use trust_core::scenario::World;
//! use btd_sim::rng::SimRng;
//!
//! let mut rng = SimRng::seed_from(1);
//! let mut world = World::new(&mut rng);
//! world.add_server("www.xyz.com", &mut rng);
//! let device = world.add_device("phone-1", 42, &mut rng);
//! let report = world.register(device, "www.xyz.com", "alice", &mut rng);
//! assert!(report.is_ok());
//! ```

pub mod audit;
pub mod auth;
pub mod ca;
pub mod channel;
pub mod chaos;
pub mod device;
pub mod engine;
pub mod messages;
pub mod metrics;
pub mod pages;
pub mod parallel;
pub mod registration;
pub mod reset;
pub mod risk_policy;
pub mod scenario;
pub mod server;
pub mod telemetry;
pub mod trace;
pub mod transfer;
pub mod wire;

pub use device::MobileDevice;
pub use scenario::World;
pub use server::WebServer;
