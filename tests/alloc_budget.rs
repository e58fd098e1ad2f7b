//! Exact heap-allocation budget of one device lifecycle, stage by stage.
//!
//! Allocation counts repeat exactly for a seed, so unlike wall time they
//! can be pinned free of host noise. This binary installs its own
//! counting allocator with per-thread counters (test threads run side by
//! side) and pins the allocations and bytes requested by every register,
//! login, interaction and close step of one honest and one 10%-loss
//! lifecycle, the set-up of one device (FLock provisioning and the
//! owner's enrolment), the totals of one traced shard of a fleet run,
//! the path the wall-clock benchmark measures, and the merge of a fleet's
//! shard traces and its trace/metrics check. A change that adds or
//! removes an allocation on the Fig. 10 path moves the pin; move it
//! deliberately, in the same commit.
//!
//! To see where each stage of one honest lifecycle allocates, set-up
//! included, run the ignored profiler, which prints the allocating call
//! sites of every stage under its own heading, most frequent first:
//!
//! ```sh
//! cargo test --release --test alloc_budget -- --ignored --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use btd_crypto::nonce::Nonce;
use btd_crypto::sha256::Digest;
use btd_sim::rng::SimRng;
use trust_core::channel::{Adversary, Channel};
use trust_core::chaos::{ChaosReport, DeviceLifecycle};
use trust_core::parallel::{run_shard, ParallelConfig, ParallelRun, ShardRun, StampedEvent};
use trust_core::scenario::{World, DEFAULT_ACTIONS};
use trust_core::server::journal::{CrashProfile, Journal, JournalRecord};

/// Forwards to the system allocator and counts every request on the
/// requesting thread. A `realloc` counts as one allocation of its new size.
struct Counting;

thread_local! {
    /// (allocations, bytes) requested by this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Set while this thread records a backtrace per allocation (only the
    /// ignored profiler sets it, so the pinned tests stay exact).
    static PROFILING: Cell<bool> = const { Cell::new(false) };
    /// Set while a backtrace is being captured: the capture allocates,
    /// and those allocations must not capture again.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    /// The backtraces recorded while `PROFILING` was set.
    static SITES: RefCell<Vec<Backtrace>> = const { RefCell::new(Vec::new()) };
}

fn count(bytes: usize) {
    // `try_with`: a thread's last deallocations can run after its locals
    // are gone; a const-initialized `Cell` has no destructor, so this
    // never fails in practice and never allocates.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
    if PROFILING.try_with(Cell::get).unwrap_or(false)
        && !CAPTURING.try_with(Cell::get).unwrap_or(true)
    {
        CAPTURING.set(true);
        let trace = Backtrace::force_capture();
        SITES.with_borrow_mut(|sites| sites.push(trace));
        CAPTURING.set(false);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. Counting touches only
// const-initialized thread-local `Cell`s and never allocates; the
// profiler's capture does allocate, but `CAPTURING` stops that from
// capturing again, so the recursion is one level deep.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const DOMAIN: &str = "www.xyz.com";
const ACCOUNT: &str = "budget-user";
const HOLDER: u64 = 1_007;
const TOUCHES: usize = 16;

/// What one stage's steps requested from the heap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Budget {
    /// Lifecycle steps attributed to the stage.
    steps: u64,
    /// Allocation requests over those steps.
    allocs: u64,
    /// Bytes requested over those steps.
    bytes: u64,
}

/// The lifecycle stages, in the order of [`stage_of`]'s indices.
const STAGES: [&str; 4] = ["register", "login", "interact", "close"];

/// Stage index of the next step: register, login, interact or close, from
/// what the server, the device and the report show before it.
fn stage_of(registered: bool, in_session: bool, report: &ChaosReport) -> usize {
    let touches_resolved = report.attempted == TOUCHES as u64
        && report.served + report.rejects.len() as u64 == report.attempted;
    if !registered {
        0
    } else if !in_session {
        1
    } else if report.terminated || touches_resolved {
        3
    } else {
        2
    }
}

/// One device's lifecycle against one server, set up and ready to step.
struct Rig {
    rng: SimRng,
    world: World,
    server: usize,
    device: usize,
    lc: DeviceLifecycle,
    /// What adding the device requested from the heap.
    setup: Budget,
}

impl Rig {
    /// Sets up the world. Only `World::add_device` is counted, into
    /// `setup`, and only it is profiled if the caller is profiling.
    fn new(adversary: Adversary) -> Rig {
        let profiling = PROFILING.replace(false);
        let mut rng = SimRng::seed_from(0xA110C);
        let mut world = World::with_adversary(adversary, &mut rng);
        let server = world.add_server(DOMAIN, &mut rng);
        let before = COUNTS.with(Cell::get);
        PROFILING.set(profiling);
        let device = world.add_device("budget-dev", HOLDER, &mut rng);
        PROFILING.set(false);
        let after = COUNTS.with(Cell::get);
        let setup = b(1, after.0 - before.0, after.1 - before.1);
        let touches = world.touches_for_holder(device, TOUCHES, &mut rng);
        let lc = DeviceLifecycle::new(
            DOMAIN,
            ACCOUNT,
            HOLDER,
            &DEFAULT_ACTIONS,
            touches,
            world.server(server),
        );
        Rig {
            rng,
            world,
            server,
            device,
            lc,
            setup,
        }
    }

    /// Stage index of the next step.
    fn stage(&self) -> usize {
        stage_of(
            self.world.server(self.server).has_account(ACCOUNT),
            self.world.device(self.device).session_id(DOMAIN).is_some(),
            &self.lc.report,
        )
    }

    /// Advances the lifecycle by one step.
    fn step(&mut self) {
        self.world.step_lifecycle(
            &mut self.lc,
            self.device,
            self.server,
            CrashProfile::uniform(0.0),
            &mut self.rng,
        );
    }
}

/// Runs one lifecycle over `adversary` and returns the heap requests of
/// its register, login, interact and close steps. World set-up is not
/// counted.
fn lifecycle_budget(adversary: Adversary) -> [Budget; 4] {
    let mut rig = Rig::new(adversary);
    let mut budget = [Budget::default(); 4];
    while !rig.lc.is_done() {
        let stage = rig.stage();
        let before = COUNTS.with(Cell::get);
        rig.step();
        let after = COUNTS.with(Cell::get);
        let b = &mut budget[stage];
        b.steps += 1;
        b.allocs += after.0 - before.0;
        b.bytes += after.1 - before.1;
    }
    assert!(
        rig.lc.failure().is_none(),
        "lifecycle failed: {:?}",
        rig.lc.failure()
    );
    assert_eq!(rig.lc.report.served, TOUCHES as u64);
    budget
}

/// Measures after one warm-up lifecycle, so lazily built process-wide
/// tables are not charged to the pinned run, and checks the measurement
/// repeats.
fn measured(adversary: Adversary) -> [Budget; 4] {
    lifecycle_budget(adversary.clone());
    let first = lifecycle_budget(adversary.clone());
    assert_eq!(
        first,
        lifecycle_budget(adversary),
        "allocations do not repeat"
    );
    first
}

fn b(steps: u64, allocs: u64, bytes: u64) -> Budget {
    Budget {
        steps,
        allocs,
        bytes,
    }
}

/// One `World::add_device`: the FLock module, its provisioning and the
/// owner's three enrolled fingers.
#[test]
fn device_setup_allocations_are_pinned() {
    lifecycle_budget(Adversary::None);
    let got = Rig::new(Adversary::None).setup;
    assert_eq!(
        got,
        Rig::new(Adversary::None).setup,
        "allocations do not repeat"
    );
    assert_eq!(got, b(1, 27, 35_484), "device set-up budget moved: {got:?}");
}

#[test]
fn honest_lifecycle_allocations_are_pinned() {
    let got = measured(Adversary::None);
    assert_eq!(
        got,
        [
            b(1, 64, 50_919),
            b(1, 43, 30_308),
            b(16, 18, 22_904),
            b(1, 25, 21_301),
        ],
        "honest lifecycle budget moved (register, login, interact, close): {got:?}"
    );
}

#[test]
fn lossy_lifecycle_allocations_are_pinned() {
    let got = measured(Adversary::RandomLoss { loss: 0.10 });
    assert_eq!(
        got,
        [
            b(1, 64, 50_919),
            b(1, 43, 30_308),
            b(16, 18, 22_904),
            b(1, 25, 21_301),
        ],
        "10%-loss lifecycle budget moved (register, login, interact, close): {got:?}"
    );
}

/// What one traced shard of a fleet run requested from the heap, whole
/// run included: world set-up, every lifecycle, the trace and the
/// telemetry sampler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ShardBudget {
    /// Interactions the shard served.
    served: u64,
    /// Allocation requests over the whole `run_shard` call.
    allocs: u64,
    /// Bytes requested over the whole `run_shard` call.
    bytes: u64,
}

impl ShardBudget {
    /// Allocations per served interaction (the benchmark's figure).
    fn allocs_per_interaction(&self) -> f64 {
        self.allocs as f64 / self.served as f64
    }

    /// Bytes per served interaction.
    fn bytes_per_interaction(&self) -> f64 {
        self.bytes as f64 / self.served as f64
    }
}

/// Runs shard 0 of a small honest fleet exactly as `run_parallel` runs
/// each of its shards: 16 shards, the default telemetry sampling, the
/// shard's own tracer on.
fn shard_budget() -> ShardBudget {
    let mut cfg = ParallelConfig::new(0x5EED, 32, 16, 1);
    cfg.touches = 128;
    let before = COUNTS.with(Cell::get);
    let run = run_shard(&cfg, 0);
    let after = COUNTS.with(Cell::get);
    assert!(
        run.failures.is_empty(),
        "lifecycle failed: {:?}",
        run.failures
    );
    assert_eq!(run.served, (run.accounts * cfg.touches) as u64);
    assert!(!run.events.is_empty(), "the shard must be traced");
    ShardBudget {
        served: run.served,
        allocs: after.0 - before.0,
        bytes: after.1 - before.1,
    }
}

#[test]
fn traced_shard_allocations_are_pinned() {
    shard_budget();
    let got = shard_budget();
    assert_eq!(got, shard_budget(), "allocations do not repeat");
    assert_eq!(
        got,
        ShardBudget {
            served: 512,
            allocs: 1_269,
            bytes: 3_205_190,
        },
        "traced shard budget moved ({:.2} allocations, {:.0} B per interaction): {got:?}",
        got.allocs_per_interaction(),
        got.bytes_per_interaction(),
    );
}

/// The merge allocates the merged trace once, at its exact length, plus
/// one small vector of shard cursors, and copies no entry into any other
/// buffer; re-deriving the fleet metrics from the merged trace, which the
/// benchmark checks after every repetition, allocates nothing.
#[test]
fn merge_allocates_the_trace_once_and_parity_allocates_nothing() {
    let mut cfg = ParallelConfig::new(0x5EED, 16, 4, 1);
    cfg.touches = 8;
    let merge_cfg = cfg.clone();
    let shard_runs: Vec<ShardRun> = (0..cfg.shards).map(|s| run_shard(&cfg, s)).collect();
    let total: usize = shard_runs.iter().map(|r| r.events.len()).sum();
    assert!(total > 0, "the shards must be traced");

    let before = COUNTS.with(Cell::get);
    let run = ParallelRun::merge(merge_cfg, shard_runs);
    let after = COUNTS.with(Cell::get);
    assert_eq!(run.merged.len(), total);
    assert_eq!(run.merged.capacity(), total);
    let entries = total * size_of::<(usize, StampedEvent)>();
    let cursors = cfg.shards * size_of::<(usize, std::vec::IntoIter<StampedEvent>)>();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (2, (entries + cursors) as u64),
        "merge allocations moved ({total} entries)"
    );

    let before = COUNTS.with(Cell::get);
    let derived = run.derived_metrics();
    let after = COUNTS.with(Cell::get);
    assert_eq!(derived, run.fleet_metrics());
    assert_eq!(after.0 - before.0, 0, "derived_metrics allocated");
}

/// Honest sends (and independent loss and jitter, which filter and delay
/// in place) hand back their one arrival without touching the heap.
#[test]
fn channel_transmit_without_duplicates_allocates_nothing() {
    let adversaries = [
        Adversary::None,
        Adversary::RandomLoss { loss: 0.5 },
        Adversary::Jitter { max_extra_ms: 20 },
    ];
    for adversary in adversaries {
        let mut channel = Channel::seeded(adversary.clone(), &mut SimRng::seed_from(3));
        let before = COUNTS.with(Cell::get);
        let mut delivered = 0u64;
        for i in 0..64u64 {
            for arrival in channel.transmit(i) {
                delivered += arrival.msg;
            }
        }
        let after = COUNTS.with(Cell::get);
        assert!(delivered > 0, "{adversary:?} delivered nothing");
        assert_eq!(after.0 - before.0, 0, "{adversary:?}: transmit allocated");
    }
}

/// A crash or a discard that drops no log bytes, which in memory is
/// every one, keeps the pending count without decoding the log.
#[test]
fn in_memory_journal_crash_allocates_nothing() {
    let mut journal = Journal::in_memory();
    for i in 0..100u8 {
        journal.append(&JournalRecord::Registered {
            account: format!("user-{i}").into(),
            public_key: vec![i; 256],
            reset_password: format!("reset-{i}"),
            nonce: Nonce([i; 16]),
            signature: vec![i; 64],
            frame_hash: Digest([i; 32]),
        });
    }
    let before = COUNTS.with(Cell::get);
    journal.crash();
    journal.discard_unsynced();
    let after = COUNTS.with(Cell::get);
    assert_eq!(after.0 - before.0, 0, "crash or discard allocated");
    assert_eq!(journal.pending_records(), 100);
}

/// The first frame of `trace` outside the allocator, the standard
/// library and this file's counting hooks: the call site that asked for
/// the memory, with its caller for context.
fn allocation_site(trace: &Backtrace) -> String {
    let text = trace.to_string();
    let frames: Vec<&str> = text
        .lines()
        .filter_map(|line| {
            let (index, name) = line.trim_start().split_once(": ")?;
            index.parse::<usize>().ok().map(|_| name)
        })
        .collect();
    let plumbing = |name: &str| {
        [
            "std::",
            "core::",
            "alloc::",
            "<std::",
            "<core::",
            "<alloc::",
            "__rust",
            "alloc_budget::",
        ]
        .iter()
        .any(|prefix| name.starts_with(prefix))
            || name.contains("Counting")
            || name.contains("GlobalAlloc")
    };
    let mut sites = frames.iter().skip_while(|name| plumbing(name));
    match (sites.next(), sites.next()) {
        (Some(site), Some(caller)) => format!("{site}\n        from {caller}"),
        (Some(site), None) => (*site).to_owned(),
        _ => "<unresolved>".to_owned(),
    }
}

/// Prints the call sites behind the allocations of one honest lifecycle
/// (after a warm-up lifecycle), stage by stage: device set-up, then
/// register, login, interact and close, each under its own heading and
/// most frequent first: the starting point for the next cut. Most
/// interaction steps allocate nothing; what is left lands on the step
/// that grows a collection past its capacity. Backtraces are captured
/// only on this test's thread, so the pinned tests running beside it
/// stay exact.
#[test]
#[ignore = "diagnostic: prints allocation call sites"]
fn print_allocation_sites() {
    lifecycle_budget(Adversary::None);
    PROFILING.set(true);
    let mut rig = Rig::new(Adversary::None);
    PROFILING.set(false);
    print_sites("set-up (World::add_device)", 1, &SITES.take());
    let mut traces: [Vec<Backtrace>; 4] = Default::default();
    let mut steps = [0u64; 4];
    while !rig.lc.is_done() {
        let stage = rig.stage();
        PROFILING.set(true);
        rig.step();
        PROFILING.set(false);
        traces[stage].append(&mut SITES.take());
        steps[stage] += 1;
    }
    for ((name, traces), steps) in STAGES.iter().zip(&traces).zip(steps) {
        print_sites(name, steps, traces);
    }
}

/// Prints one stage's allocations grouped by call site, most frequent
/// first.
fn print_sites(stage: &str, steps: u64, traces: &[Backtrace]) {
    let mut by_site: HashMap<String, u64> = HashMap::new();
    for trace in traces {
        *by_site.entry(allocation_site(trace)).or_default() += 1;
    }
    let mut sites: Vec<(String, u64)> = by_site.into_iter().collect();
    sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!(
        "\n== {stage}: {} allocations in {steps} steps",
        traces.len()
    );
    for (site, n) in sites {
        println!("{n:>4}  {site}");
    }
}
