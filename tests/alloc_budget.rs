//! Exact heap-allocation budget of one device lifecycle, stage by stage.
//!
//! Allocation counts repeat exactly for a seed, so unlike wall time they
//! can be pinned free of host noise. This binary installs its own
//! counting allocator with per-thread counters (test threads run side by
//! side) and pins the allocations and bytes requested by every register,
//! login, interaction and close step of one honest and one 10%-loss
//! lifecycle, and the totals of one traced shard of a fleet run, the path
//! the wall-clock benchmark measures. A change that adds or removes an
//! allocation on the Fig. 10 path moves the pin; move it deliberately, in
//! the same commit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use btd_sim::rng::SimRng;
use trust_core::channel::Adversary;
use trust_core::chaos::{ChaosReport, DeviceLifecycle};
use trust_core::parallel::{run_shard, ParallelConfig};
use trust_core::scenario::{World, DEFAULT_ACTIONS};
use trust_core::server::journal::CrashProfile;

/// Forwards to the system allocator and counts every request on the
/// requesting thread. A `realloc` counts as one allocation of its new size.
struct Counting;

thread_local! {
    /// (allocations, bytes) requested by this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: a thread's last deallocations can run after its locals
    // are gone; a const-initialized `Cell` has no destructor, so this
    // never fails in practice and never allocates.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local `Cell` and never allocates, so it cannot
// recurse into the allocator.
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

/// Runs one lifecycle over `adversary` and returns the heap requests of
/// its register, login, interact and close steps. World set-up is not
/// counted.
fn lifecycle_budget(adversary: Adversary) -> [Budget; 4] {
    let mut rng = SimRng::seed_from(0xA110C);
    let mut world = World::with_adversary(adversary, &mut rng);
    let server = world.add_server(DOMAIN, &mut rng);
    let device = world.add_device("budget-dev", HOLDER, &mut rng);
    let touches = world.touches_for_holder(device, TOUCHES, &mut rng);
    let mut lc = DeviceLifecycle::new(
        DOMAIN,
        ACCOUNT,
        HOLDER,
        &DEFAULT_ACTIONS,
        touches,
        world.server(server),
    );
    let mut budget = [Budget::default(); 4];
    while !lc.is_done() {
        let stage = stage_of(
            world.server(server).has_account(ACCOUNT),
            world.device(device).session_id(DOMAIN).is_some(),
            &lc.report,
        );
        let before = COUNTS.with(Cell::get);
        world.step_lifecycle(
            &mut lc,
            device,
            server,
            CrashProfile::uniform(0.0),
            &mut rng,
        );
        let after = COUNTS.with(Cell::get);
        let b = &mut budget[stage];
        b.steps += 1;
        b.allocs += after.0 - before.0;
        b.bytes += after.1 - before.1;
    }
    assert!(
        lc.failure().is_none(),
        "lifecycle failed: {:?}",
        lc.failure()
    );
    assert_eq!(lc.report.served, TOUCHES as u64);
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

#[test]
fn honest_lifecycle_allocations_are_pinned() {
    let got = measured(Adversary::None);
    assert_eq!(
        got,
        [
            b(1, 150, 61_330),
            b(1, 123, 46_489),
            b(16, 492, 60_464),
            b(1, 396, 39_833),
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
            b(1, 153, 64_274),
            b(1, 126, 49_025),
            b(16, 577, 70_123),
            b(1, 396, 39_833),
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
            allocs: 22_782,
            bytes: 6_103_746,
        },
        "traced shard budget moved ({:.2} allocations, {:.0} B per interaction): {got:?}",
        got.allocs_per_interaction(),
        got.bytes_per_interaction(),
    );
}
