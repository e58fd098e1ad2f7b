//! `trust-lint`: a zero-dependency static analysis pass enforcing the
//! TRUST/FLock trust boundary, determinism, and journal discipline.
//!
//! The paper's security argument rests on invariants the Rust type system
//! does not express: secrets never leave the FLock module, the simulation
//! is seed-deterministic, durable server state mutates only through the
//! journal, and every metrics counter has a matching trace event. Each has
//! already cost us (or nearly cost us) a shipped bug; this crate makes
//! them mechanical.
//!
//! The tool is built on a hand-rolled lexer ([`lexer`]) because the build
//! environment is offline — `syn` is unreachable — and a checker this
//! load-bearing must not be the one thing that cannot build. Rules operate
//! on token patterns plus brace-matched structure ([`model`]); they are
//! deliberately heuristic and err on the side of firing, because every
//! finding is waivable in place:
//!
//! ```text
//! // trust-lint: allow(wall-clock) -- benchmark wall time is the product
//! // trust-lint: allow-file(secret-outside-trust) -- attacker-model test
//! ```
//!
//! The reason after `--` is mandatory; a reasonless or typo'd waiver is a
//! `waiver-syntax` finding that cannot itself be waived. The binary
//! (`--bin trust_lint`) exits non-zero on any unwaived finding, and runs
//! in `scripts/check.sh` and CI between clippy and the test suite.
//!
//! Rule families (ids in [`findings::RULES`]):
//!
//! | family | rules | invariant |
//! |---|---|---|
//! | secret containment | `secret-debug-derive`, `secret-outside-trust`, `secret-format-leak`, `secret-payload-field` | secrets stay behind the FLock boundary and out of all formatted/serialized output |
//! | determinism | `wall-clock`, `os-thread`, `os-random`, `unordered-iteration` | same seed ⇒ byte-identical runs |
//! | journal discipline | `journal-discipline` | durable state mutates only in `ShardState::apply` |
//! | storage sync discipline | `storage-sync-before-reply` | a reply never leaves before its record is synced |
//! | metrics/trace parity | `metrics-trace-parity` | counters move only in the `ProtocolMetrics::observe` fold of trace events, so `derive_metrics` reconciles exactly |
//! | dataflow | `secret-taint`, `determinism-reach` | no secret value reaches a sink through renames or calls; nothing a sim entry reaches is nondeterministic |
//! | dead code | `unreached-pub-fn` | every `pub fn` is reached from a bin, example, bench, integration test, trait impl or item initializer |

pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod engine;
pub mod findings;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod symbols;

pub use config::Config;
pub use engine::{find_root, lint_sources, lint_workspace};
pub use findings::{Finding, Report, RULES};
