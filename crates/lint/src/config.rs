//! The lint's model of the TRUST workspace: what is secret, what is
//! trusted, which files are wire definitions, which server fields are
//! durable. Defaults encode this repository; tests construct variants.

/// A secret-bearing type in the manifest.
#[derive(Clone, Debug)]
pub struct SecretType {
    /// The type name as written in source.
    pub name: &'static str,
    /// Path fragment of the file defining it (the debug-derive rule only
    /// fires on the definition, so an unrelated type that happens to share
    /// the name elsewhere is not punished).
    pub defined_in: &'static str,
    /// Whether mentioning the name outside trusted modules is forbidden.
    /// True for globally unique exported types (`KeyPair`, `Template`);
    /// false for private types whose names are common words (`Session`).
    pub containment: bool,
    /// What the secret half is, for diagnostics.
    pub why: &'static str,
}

/// Workspace-wide lint configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Types whose definitions may not derive `Debug` (or implement
    /// `Display`), and — when `containment` — may only be named inside
    /// trusted modules.
    pub secret_types: Vec<SecretType>,
    /// Identifiers that name raw secret values. Forbidden inside
    /// format-family macro arguments and trace-event payloads anywhere,
    /// and as wire/journal field names unless `sealed_`-prefixed.
    pub secret_idents: Vec<&'static str>,
    /// Path fragments of the trusted modules (the FLock boundary plus the
    /// server's private internals).
    pub trusted: Vec<&'static str>,
    /// Files defining serialized payloads (wire messages, journal
    /// records): secret idents/types may not appear as field names/types.
    pub payload_files: Vec<&'static str>,
    /// Path fragments where the determinism rules apply (everything
    /// scanned; bench binaries carry waivers instead of an exemption, so
    /// each wall-clock use is individually justified).
    pub deterministic: Vec<&'static str>,
    /// The single lint-sanctioned home for `std::thread`: the shard
    /// worker pool, which runs whole-shard simulations on OS threads
    /// *outside* the sim-deterministic core and erases scheduling order
    /// with a stable merge. The `os-thread` rule skips exactly these
    /// paths; every other sim path keeps the rule, with no ad-hoc
    /// waivers.
    pub thread_pool_files: Vec<&'static str>,
    /// Markers in function names whose bodies must iterate maps in a
    /// canonical order (snapshot/digest/export paths).
    pub ordered_fn_markers: Vec<&'static str>,
    /// Journal discipline: the file holding the shard's durable state,
    /// the durable field names, and the functions allowed to mutate them.
    pub durable_file: &'static str,
    pub durable_fields: Vec<&'static str>,
    /// Identifiers a durable-field access hangs off (`self.accounts…`,
    /// `self.shards[idx].accounts…`). Anchoring on the receiver keeps
    /// field-name collisions on unrelated structs (e.g. a stats struct
    /// with a `sessions` count) from firing.
    pub durable_receivers: Vec<&'static str>,
    pub durable_mutators: Vec<&'static str>,
    /// Storage sync discipline, in the file holding the commit path: any
    /// function calling a reply marker must have called a sync marker
    /// earlier in its body — a reply must never leave before its record
    /// is durably synced.
    pub commit_file: &'static str,
    pub reply_markers: Vec<&'static str>,
    pub sync_markers: Vec<&'static str>,
    /// Metrics/trace parity: crate prefix, the `ProtocolMetrics` counter
    /// fields, and functions exempt because they aggregate rather than
    /// observe (`absorb`) or *are* the event-to-counter fold (`observe`).
    pub parity_paths: Vec<&'static str>,
    pub counters: Vec<&'static str>,
    pub parity_exempt_fns: Vec<&'static str>,
    /// Dataflow taint sources: (type, field) pairs whose field reads are
    /// secret regardless of what the value is later called. The
    /// `secret-taint` rule tracks these through renames, projections, and
    /// calls to any format/trace/payload sink.
    pub secret_fields: Vec<(&'static str, &'static str)>,
    /// Functions/methods whose output is public by construction: calling
    /// one launders taint (MACs, seals, hashes, lengths). Names, not
    /// paths — the crypto boundary is the API.
    pub taint_sanitizers: Vec<&'static str>,
    /// Simulation entry points for `determinism-reach`: every method of
    /// these types…
    pub sim_entry_types: Vec<&'static str>,
    /// …and every fn with these names is a root; anything transitively
    /// reachable from a root must stay clock/OS-random/OS-thread free
    /// (outside `thread_pool_files`).
    pub sim_entry_fns: Vec<&'static str>,
    /// Path fragments where the *direct* wall-clock rule applies. Bench
    /// binaries are excluded here (wall time is their product); the
    /// `determinism-reach` rule still guarantees nothing sim-reachable
    /// touches the clock, so the old per-binary waivers are retired.
    pub wall_clock_paths: Vec<&'static str>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            secret_types: vec![
                SecretType {
                    name: "KeyPair",
                    defined_in: "crates/crypto/src/schnorr.rs",
                    containment: true,
                    why: "holds the Schnorr secret scalar",
                },
                SecretType {
                    name: "Template",
                    defined_in: "crates/fingerprint/src/template.rs",
                    containment: true,
                    why: "an enrolled biometric template is a credential",
                },
                SecretType {
                    name: "DomainRecord",
                    defined_in: "crates/flock/src/storage.rs",
                    containment: true,
                    why: "carries the per-site secret scalar",
                },
                SecretType {
                    name: "SecureStorage",
                    defined_in: "crates/flock/src/storage.rs",
                    containment: true,
                    why: "the protected flash holding every domain secret",
                },
                SecretType {
                    name: "Session",
                    defined_in: "crates/core/src/server/state.rs",
                    containment: false,
                    why: "holds the raw session MAC key",
                },
                SecretType {
                    name: "DeviceSession",
                    defined_in: "crates/core/src/device.rs",
                    containment: false,
                    why: "holds the raw session MAC key",
                },
                SecretType {
                    name: "ChaChaEntropy",
                    defined_in: "crates/crypto/src/entropy.rs",
                    containment: false,
                    why: "RNG state predicts every future key and nonce",
                },
            ],
            secret_idents: vec![
                "session_key",
                "mac_key",
                "cipher_key",
                "secret_scalar",
                "user_secret",
                "secret_key",
                "private_key",
            ],
            trusted: vec![
                "crates/crypto/",
                "crates/fingerprint/",
                "crates/flock/",
                "crates/core/src/server",
            ],
            payload_files: vec![
                "crates/core/src/messages.rs",
                "crates/core/src/server/journal.rs",
            ],
            deterministic: vec!["crates/", "tests/", "examples/"],
            thread_pool_files: vec!["crates/core/src/parallel.rs"],
            ordered_fn_markers: vec!["snapshot", "digest", "export", "canonical"],
            durable_file: "crates/core/src/server/state.rs",
            durable_fields: vec![
                "accounts",
                "sessions",
                "reg_cache",
                "login_cache",
                "resume_cache",
                "reset_cache",
                "consumed",
                "audit",
                "session_counter",
            ],
            durable_receivers: vec!["self", "state"],
            durable_mutators: vec![
                // `ShardState::apply`, the journal-then-apply path, and the
                // snapshot decoder (replaying durable state wholesale
                // during recovery is the other legitimate writer).
                "apply",
                "from_snapshot",
            ],
            commit_file: "crates/core/src/server/mod.rs",
            reply_markers: vec!["pre_reply_crash"],
            sync_markers: vec![
                // `journal_append` ends in the shard sync barrier; the
                // rest are the barrier itself and its storage spellings.
                "journal_append",
                "sync_shard",
                "sync",
                "flush",
            ],
            parity_paths: vec!["crates/core/"],
            counters: vec![
                "sends",
                "retries",
                "timeouts",
                "duplicates_resent",
                "replays_accepted",
                "replays_rejected",
                "resyncs",
                "giveups",
                "corrupt_rejected",
                "stale_content_ignored",
            ],
            parity_exempt_fns: vec!["absorb", "observe"],
            secret_fields: vec![
                ("Session", "key"),
                ("DeviceSession", "key"),
                ("KeyPair", "x"),
                ("DomainRecord", "keys"),
                ("Template", "minutiae"),
                // The matcher's per-template constants: the `sin_cos` of
                // every enrolled direction, derived from the minutiae.
                ("TemplateSet", "direction_trig"),
                // The matcher's scoring buffer: the template's positions
                // under a candidate transform.
                ("Workspace", "positions"),
                ("ChaChaEntropy", "key"),
            ],
            taint_sanitizers: vec![
                "mac",
                "hmac",
                "verify_mac",
                "sign",
                "verify",
                "seal",
                "unseal",
                "seal_key",
                "unseal_key",
                "encrypt",
                "decrypt",
                "kdf",
                "derive_key",
                "hash",
                "digest",
                "crc32",
                "pow_mod",
                "len",
                "is_empty",
                "public",
                "fingerprint",
                // The matcher is the sanctioned consumer of templates: its
                // scores/decisions are the system's outputs, derived from
                // the secret by design.
                "best_match",
            ],
            sim_entry_types: vec!["World"],
            sim_entry_fns: vec!["run_shard", "run_parallel", "run_chaos_lifecycle"],
            wall_clock_paths: vec![
                "crates/core/",
                "crates/crypto/",
                "crates/fingerprint/",
                "crates/flock/",
                "crates/lint/",
                "crates/placement/",
                "crates/sensor/",
                "crates/sim/",
                "crates/touch/",
                "crates/workload/",
                "tests/",
                "examples/",
            ],
        }
    }
}
