//! Pluggable disk layer + log-structured segmented storage for the journal.
//!
//! [`MemStorage`](super::journal::MemStorage) keeps the whole journal in one
//! `Vec` — fine for tests, but it makes storage an untestable assumption:
//! appends cannot tear, syncs cannot fail, sealed bytes cannot rot, and the
//! disk is never full. This module makes the storage layer itself a
//! first-class fault domain, mirroring how `trust_core::channel` treats the
//! network:
//!
//! * [`Disk`] is the seam: named files with buffered (unsynced) writes, an
//!   explicit `sync` barrier, and crash semantics that drop — or tear — what
//!   was never synced.
//! * [`SimDisk`] drives a [`DiskFaultSchedule`], the disk-side analogue of
//!   [`CrashSchedule`](super::journal::CrashSchedule): torn appends at crash,
//!   transient `WouldBlock`-style sync failures, bit rot in sealed segments,
//!   and [`StorageError::DiskFull`] against a configurable log-partition
//!   capacity. Same seed, same faults.
//! * [`SegmentedStorage`] is a log-structured
//!   [`Storage`](super::journal::Storage) implementation on top: the log is a
//!   chain of segments rotated at a size target, a rotated segment is
//!   CRC-certified ("sealed") at the first sync after rotation, snapshots
//!   stream to a reserved checkpoint area in bounded chunks, and a snapshot
//!   install garbage-collects every segment it covers.
//!
//! Capacity models two partitions: the log partition (bounded by `capacity`,
//! the source of `DiskFull`) and a reserved checkpoint area for snapshots
//! (exempt from the bound), matching deployments that pre-reserve checkpoint
//! space so compaction — the very thing that frees a full log — can always
//! run.
//!
//! The segment manifest (sealed CRCs, rotation order, active segment) lives
//! in memory: it models the small, atomically-rewritten index file a real
//! implementation would keep beside the segments. Losing it is process loss,
//! which is exactly the crash model the journal already covers — recovery
//! reuses the surviving storage object, as a restarted process would reread
//! its manifest.

use std::collections::{BTreeMap, BTreeSet};

use btd_sim::rng::SimRng;

use super::journal::{crc32, LogChunk, SealInfo, Storage, StorageError};

/// Default segment rotation target: segments seal once they reach this size.
pub const DEFAULT_SEGMENT_TARGET: usize = 64 * 1024;

/// Default chunk size for streaming a snapshot to the checkpoint area.
pub const DEFAULT_SNAPSHOT_CHUNK: usize = 4096;

// --- Fault schedule ---------------------------------------------------------

/// The disk fault kinds a [`SimDisk`] can inject. Mirrors
/// [`CrashPoint`](super::journal::CrashPoint): the interesting failures
/// straddle the durability boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskFaultKind {
    /// A crash persists a prefix of the unsynced write stream, possibly
    /// ending mid-frame (a torn append).
    TornAppend,
    /// A sync fails transiently (`WouldBlock`); the unsynced buffers are
    /// retained, so a retry may succeed.
    SyncFail,
    /// A freshly sealed segment suffers one flipped bit (bit rot caught by
    /// the seal CRC at the next recovery).
    BitrotSeal,
}

const DISK_FAULTS: [DiskFaultKind; 3] = [
    DiskFaultKind::TornAppend,
    DiskFaultKind::SyncFail,
    DiskFaultKind::BitrotSeal,
];

fn fault_index(k: DiskFaultKind) -> usize {
    DISK_FAULTS
        .iter()
        .position(|f| *f == k)
        .expect("known fault")
}

/// Per-fault trip probabilities (a seedable schedule samples them).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct DiskFaultProfile {
    /// Probability a crash tears the unsynced tail instead of dropping it.
    pub torn_append: f64,
    /// Probability a sync fails transiently.
    pub sync_fail: f64,
    /// Probability a freshly sealed segment rots.
    pub bitrot_seal: f64,
}

impl DiskFaultProfile {
    /// The same probability for every fault kind.
    pub fn uniform(p: f64) -> Self {
        DiskFaultProfile {
            torn_append: p,
            sync_fail: p,
            bitrot_seal: p,
        }
    }

    fn prob(&self, k: DiskFaultKind) -> f64 {
        match k {
            DiskFaultKind::TornAppend => self.torn_append,
            DiskFaultKind::SyncFail => self.sync_fail,
            DiskFaultKind::BitrotSeal => self.bitrot_seal,
        }
    }
}

/// A deterministic disk fault schedule: never, a scripted one-shot at the
/// nth visit of one fault kind, or seeded sampling of a
/// [`DiskFaultProfile`] — same seed, same faults.
#[derive(Clone, Debug)]
pub enum DiskFaultSchedule {
    /// No faults (a perfect disk).
    Never,
    /// Fires exactly once, at the nth (0-based) visit of `kind`.
    OnceAt {
        /// The fault kind to trip.
        kind: DiskFaultKind,
        /// How many visits of `kind` to let pass first.
        nth: u64,
        /// Visits seen so far, per fault kind.
        seen: [u64; 3],
        /// Whether the one shot has fired.
        fired: bool,
    },
    /// Samples each visit against the profile with a private RNG.
    Seeded {
        /// Trip probabilities.
        profile: DiskFaultProfile,
        /// Private RNG (seeded, so runs replay bit-for-bit).
        rng: SimRng,
    },
}

impl DiskFaultSchedule {
    /// A seeded stochastic schedule over `profile`.
    pub fn seeded(profile: DiskFaultProfile, seed: u64) -> Self {
        DiskFaultSchedule::Seeded {
            profile,
            rng: SimRng::seed_from(seed),
        }
    }

    /// Visits `kind`; true means the fault fires here.
    pub fn visit(&mut self, kind: DiskFaultKind) -> bool {
        match self {
            DiskFaultSchedule::Never => false,
            DiskFaultSchedule::OnceAt {
                kind: target,
                nth,
                seen,
                fired,
            } => {
                let idx = fault_index(kind);
                let hit = !*fired && kind == *target && seen[idx] == *nth;
                seen[idx] += 1;
                if hit {
                    *fired = true;
                }
                hit
            }
            DiskFaultSchedule::Seeded { profile, rng } => rng.chance(profile.prob(kind)),
        }
    }
}

// --- The disk seam ----------------------------------------------------------

/// A flat namespace of append-only files with an explicit sync barrier.
///
/// Writes buffer in an unsynced area until [`Disk::sync`] flushes them to
/// durable bytes; a [`Disk::crash`] loses (or tears) whatever was never
/// synced. [`Disk::read`] and [`Disk::file_len`] cover the combined
/// durable + unsynced view — what a live process sees through the page
/// cache — while recovery-relevant durability is governed entirely by the
/// sync/crash pair.
pub trait Disk: std::fmt::Debug {
    /// Appends `bytes` to `file`'s unsynced buffer.
    fn write(&mut self, file: u64, bytes: &[u8]);
    /// Flushes every unsynced buffer to durable bytes, or fails with the
    /// buffers retained ([`StorageError::WouldBlock`] is transient,
    /// [`StorageError::DiskFull`] clears once files are removed).
    fn sync(&mut self) -> Result<(), StorageError>;
    /// The combined durable + unsynced bytes of `file` (empty if unknown).
    fn read(&self, file: u64) -> Vec<u8>;
    /// Combined durable + unsynced length of `file`.
    fn file_len(&self, file: u64) -> usize;
    /// Deletes `file` (durable bytes, unsynced buffer, and any exemption).
    fn remove(&mut self, file: u64);
    /// Takes `file`'s unsynced buffer out, leaving durable bytes alone.
    fn take_unsynced(&mut self, file: u64) -> Vec<u8>;
    /// Marks `file` as living in the reserved checkpoint area: its bytes do
    /// not count against the log-partition capacity.
    fn exempt(&mut self, file: u64);
    /// Durable non-exempt bytes (what counts against capacity).
    fn used(&self) -> usize;
    /// Log-partition pressure in `[0, 1+]`: (durable + unsynced non-exempt
    /// bytes) / capacity. `None` when the disk is unbounded.
    fn pressure(&self) -> Option<f64>;
    /// Loses the unsynced buffers, as a power cut would. A faulty disk may
    /// instead persist a prefix of the unsynced write stream — possibly
    /// mid-append (torn); returns `true` when it kept such torn bytes, so
    /// the storage layer can fence them off from future appends.
    fn crash(&mut self) -> bool;
    /// Gives the disk one chance to rot `file`'s durable bytes (fault
    /// injection hook, called by the storage layer right after sealing).
    fn rot(&mut self, file: u64);
    /// Flips one bit of `file` at `offset` in the combined view (test
    /// fault hook).
    fn corrupt(&mut self, file: u64, offset: usize, bit: u8);
    /// Removes the last `n` bytes of `file`'s combined view (test fault
    /// hook: unsynced tail first, then durable bytes).
    fn tear(&mut self, file: u64, n: usize);
    /// An independent deep copy (same fault schedule state).
    fn clone_disk(&self) -> Box<dyn Disk>;
}

/// A faultless in-memory disk: writes buffer until sync, a crash drops every
/// unsynced byte cleanly, capacity is unbounded.
#[derive(Clone, Debug, Default)]
pub struct MemDisk {
    durable: BTreeMap<u64, Vec<u8>>,
    unsynced: BTreeMap<u64, Vec<u8>>,
}

impl MemDisk {
    fn flush(&mut self) {
        for (file, buf) in std::mem::take(&mut self.unsynced) {
            if !buf.is_empty() {
                self.durable
                    .entry(file)
                    .or_default()
                    .extend_from_slice(&buf);
            }
        }
    }
}

fn combined(
    durable: &BTreeMap<u64, Vec<u8>>,
    unsynced: &BTreeMap<u64, Vec<u8>>,
    file: u64,
) -> Vec<u8> {
    let mut out = durable.get(&file).cloned().unwrap_or_default();
    if let Some(buf) = unsynced.get(&file) {
        out.extend_from_slice(buf);
    }
    out
}

fn corrupt_in(
    durable: &mut BTreeMap<u64, Vec<u8>>,
    unsynced: &mut BTreeMap<u64, Vec<u8>>,
    file: u64,
    offset: usize,
    bit: u8,
) {
    let dlen = durable.get(&file).map_or(0, Vec::len);
    let (buf, off) = if offset < dlen {
        (durable.get_mut(&file).expect("durable bytes"), offset)
    } else {
        (
            unsynced.get_mut(&file).expect("offset within file"),
            offset - dlen,
        )
    };
    buf[off] ^= 1 << (bit % 8);
}

fn tear_in(
    durable: &mut BTreeMap<u64, Vec<u8>>,
    unsynced: &mut BTreeMap<u64, Vec<u8>>,
    file: u64,
    n: usize,
) {
    let mut left = n;
    if let Some(buf) = unsynced.get_mut(&file) {
        let cut = left.min(buf.len());
        buf.truncate(buf.len() - cut);
        left -= cut;
    }
    if left > 0 {
        if let Some(buf) = durable.get_mut(&file) {
            let cut = left.min(buf.len());
            buf.truncate(buf.len() - cut);
        }
    }
}

impl Disk for MemDisk {
    fn write(&mut self, file: u64, bytes: &[u8]) {
        self.unsynced
            .entry(file)
            .or_default()
            .extend_from_slice(bytes);
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.flush();
        Ok(())
    }
    fn read(&self, file: u64) -> Vec<u8> {
        combined(&self.durable, &self.unsynced, file)
    }
    fn file_len(&self, file: u64) -> usize {
        self.durable.get(&file).map_or(0, Vec::len) + self.unsynced.get(&file).map_or(0, Vec::len)
    }
    fn remove(&mut self, file: u64) {
        self.durable.remove(&file);
        self.unsynced.remove(&file);
    }
    fn take_unsynced(&mut self, file: u64) -> Vec<u8> {
        self.unsynced.remove(&file).unwrap_or_default()
    }
    fn exempt(&mut self, _file: u64) {}
    fn used(&self) -> usize {
        self.durable.values().map(Vec::len).sum()
    }
    fn pressure(&self) -> Option<f64> {
        None
    }
    fn crash(&mut self) -> bool {
        self.unsynced.clear();
        false
    }
    fn rot(&mut self, _file: u64) {}
    fn corrupt(&mut self, file: u64, offset: usize, bit: u8) {
        corrupt_in(&mut self.durable, &mut self.unsynced, file, offset, bit);
    }
    fn tear(&mut self, file: u64, n: usize) {
        tear_in(&mut self.durable, &mut self.unsynced, file, n);
    }
    fn clone_disk(&self) -> Box<dyn Disk> {
        Box::new(self.clone())
    }
}

/// A deterministic faulty disk: every fault is drawn from a seeded
/// [`DiskFaultSchedule`], so same-seed runs replay bit-for-bit.
#[derive(Clone, Debug)]
pub struct SimDisk {
    durable: BTreeMap<u64, Vec<u8>>,
    unsynced: BTreeMap<u64, Vec<u8>>,
    /// Files in the reserved checkpoint area (outside the capacity bound).
    exempt_files: BTreeSet<u64>,
    /// Log-partition capacity in bytes; `None` is unbounded.
    capacity: Option<usize>,
    schedule: DiskFaultSchedule,
    /// Private RNG for torn-prefix lengths and rot positions (the schedule
    /// keeps its own, so *whether* a fault fires never perturbs *where*).
    rng: SimRng,
}

impl SimDisk {
    /// A disk with the given schedule, log capacity, and seed.
    pub fn new(schedule: DiskFaultSchedule, capacity: Option<usize>, seed: u64) -> Self {
        SimDisk {
            durable: BTreeMap::new(),
            unsynced: BTreeMap::new(),
            exempt_files: BTreeSet::new(),
            capacity,
            schedule,
            rng: SimRng::seed_from(seed),
        }
    }

    fn pending(&self) -> usize {
        self.unsynced
            .iter()
            .filter(|(f, _)| !self.exempt_files.contains(f))
            .map(|(_, b)| b.len())
            .sum()
    }
}

impl Disk for SimDisk {
    fn write(&mut self, file: u64, bytes: &[u8]) {
        self.unsynced
            .entry(file)
            .or_default()
            .extend_from_slice(bytes);
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        if self.schedule.visit(DiskFaultKind::SyncFail) {
            return Err(StorageError::WouldBlock);
        }
        if let Some(cap) = self.capacity {
            if self.used() + self.pending() > cap {
                return Err(StorageError::DiskFull);
            }
        }
        for (file, buf) in std::mem::take(&mut self.unsynced) {
            if !buf.is_empty() {
                self.durable
                    .entry(file)
                    .or_default()
                    .extend_from_slice(&buf);
            }
        }
        Ok(())
    }

    fn read(&self, file: u64) -> Vec<u8> {
        combined(&self.durable, &self.unsynced, file)
    }

    fn file_len(&self, file: u64) -> usize {
        self.durable.get(&file).map_or(0, Vec::len) + self.unsynced.get(&file).map_or(0, Vec::len)
    }

    fn remove(&mut self, file: u64) {
        self.durable.remove(&file);
        self.unsynced.remove(&file);
        self.exempt_files.remove(&file);
    }

    fn take_unsynced(&mut self, file: u64) -> Vec<u8> {
        self.unsynced.remove(&file).unwrap_or_default()
    }

    fn exempt(&mut self, file: u64) {
        self.exempt_files.insert(file);
    }

    fn used(&self) -> usize {
        self.durable
            .iter()
            .filter(|(f, _)| !self.exempt_files.contains(f))
            .map(|(_, b)| b.len())
            .sum()
    }

    fn pressure(&self) -> Option<f64> {
        self.capacity
            .map(|cap| (self.used() + self.pending()) as f64 / cap.max(1) as f64)
    }

    fn crash(&mut self) -> bool {
        let total: usize = self.unsynced.values().map(Vec::len).sum();
        let torn = total > 0 && self.schedule.visit(DiskFaultKind::TornAppend);
        // A torn crash persists a strict prefix of the unsynced write
        // stream (files in id order, matching append order), possibly
        // cutting mid-frame; a clean crash loses all of it.
        let mut keep = if torn {
            self.rng.below(total as u64) as usize
        } else {
            0
        };
        let kept_any = keep > 0;
        for (file, buf) in std::mem::take(&mut self.unsynced) {
            if keep == 0 {
                continue;
            }
            let take = keep.min(buf.len());
            self.durable
                .entry(file)
                .or_default()
                .extend_from_slice(&buf[..take]);
            keep -= take;
        }
        kept_any
    }

    fn rot(&mut self, file: u64) {
        let len = self.durable.get(&file).map_or(0, Vec::len);
        if len == 0 || !self.schedule.visit(DiskFaultKind::BitrotSeal) {
            return;
        }
        let off = self.rng.below(len as u64) as usize;
        let bit = (self.rng.next_u32() % 8) as u8;
        self.durable.get_mut(&file).expect("nonempty file")[off] ^= 1 << bit;
    }

    fn corrupt(&mut self, file: u64, offset: usize, bit: u8) {
        corrupt_in(&mut self.durable, &mut self.unsynced, file, offset, bit);
    }

    fn tear(&mut self, file: u64, n: usize) {
        tear_in(&mut self.durable, &mut self.unsynced, file, n);
    }

    fn clone_disk(&self) -> Box<dyn Disk> {
        Box::new(self.clone())
    }
}

// --- Log-structured segmented storage ---------------------------------------

/// A sealed (rotated + CRC-certified) segment in the manifest.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct SealedSegment {
    file: u64,
    crc: u32,
}

/// Log-structured [`Storage`] over a [`Disk`]: the log is a chain of
/// segments, rotated once the active segment reaches `segment_target`.
///
/// Sealing is lazy: rotation happens at append time, but the segment is only
/// *certified* (whole-segment CRC recorded in the manifest) at the first
/// successful sync after rotation, when every one of its bytes is durable.
/// A crash before certification leaves an unsealed segment whose frames are
/// salvaged individually — never a false quarantine. Certification is also
/// the bit-rot injection point: the recorded CRC witnesses the pre-rot
/// bytes, so recovery detects the mismatch and quarantines instead of
/// silently absorbing the loss.
///
/// Snapshots stream to the reserved checkpoint area in `snapshot_chunk`
/// slices; a successful install garbage-collects the previous snapshot and
/// every segment the new one covers, while a failed install removes the
/// half-written file and leaves the old state untouched.
#[derive(Debug)]
pub struct SegmentedStorage {
    disk: Box<dyn Disk>,
    sealed: Vec<SealedSegment>,
    /// Rotated but not yet certified, in rotation (log) order.
    uncertified: Vec<u64>,
    active: u64,
    next_file: u64,
    active_len: usize,
    segment_target: usize,
    snapshot_file: Option<u64>,
    snapshot_chunk: usize,
}

impl SegmentedStorage {
    /// Segmented storage over `disk` with default rotation / chunk sizes.
    pub fn new(disk: Box<dyn Disk>) -> Self {
        SegmentedStorage::with_config(disk, DEFAULT_SEGMENT_TARGET, DEFAULT_SNAPSHOT_CHUNK)
    }

    /// Segmented storage with explicit rotation target and snapshot
    /// streaming chunk size (both clamped to at least 1 byte).
    pub fn with_config(disk: Box<dyn Disk>, segment_target: usize, snapshot_chunk: usize) -> Self {
        SegmentedStorage {
            disk,
            sealed: Vec::new(),
            uncertified: Vec::new(),
            active: 0,
            next_file: 1,
            active_len: 0,
            segment_target: segment_target.max(1),
            snapshot_file: None,
            snapshot_chunk: snapshot_chunk.max(1),
        }
    }

    /// Segmented storage over a seeded [`SimDisk`].
    pub fn sim(
        profile: DiskFaultProfile,
        capacity: Option<usize>,
        segment_target: usize,
        seed: u64,
    ) -> Self {
        let disk = SimDisk::new(
            DiskFaultSchedule::seeded(profile, seed),
            capacity,
            seed ^ 0x5eed,
        );
        SegmentedStorage::with_config(Box::new(disk), segment_target, DEFAULT_SNAPSHOT_CHUNK)
    }

    fn alloc_file(&mut self) -> u64 {
        let f = self.next_file;
        self.next_file += 1;
        f
    }

    /// Log files in log order: sealed, then uncertified, then active.
    fn log_files(&self) -> Vec<u64> {
        let mut files: Vec<u64> = self.sealed.iter().map(|s| s.file).collect();
        files.extend(self.uncertified.iter().copied());
        files.push(self.active);
        files
    }
}

impl Storage for SegmentedStorage {
    fn append(&mut self, frame: &[u8]) {
        self.disk.write(self.active, frame);
        self.active_len += frame.len();
        // Rotation at append time keeps every frame inside one segment, so
        // recovery never has to reassemble a frame across chunks.
        if self.active_len >= self.segment_target {
            self.uncertified.push(self.active);
            self.active = self.alloc_file();
            self.active_len = 0;
        }
    }

    fn sync(&mut self) -> Result<Vec<SealInfo>, StorageError> {
        self.disk.sync()?;
        // Certify rotated segments now that their bytes are durable; the
        // rot hook runs *after* the CRC is recorded, so injected bit rot is
        // always caught as a seal mismatch at the next recovery.
        let mut sealed_now = Vec::new();
        for file in std::mem::take(&mut self.uncertified) {
            let bytes = self.disk.read(file);
            self.sealed.push(SealedSegment {
                file,
                crc: crc32(&bytes),
            });
            sealed_now.push(SealInfo {
                segment: file,
                bytes: bytes.len(),
            });
            self.disk.rot(file);
        }
        Ok(sealed_now)
    }

    fn chunks(&self) -> Vec<LogChunk> {
        let mut out = Vec::new();
        for s in &self.sealed {
            let data = self.disk.read(s.file);
            out.push(LogChunk {
                id: s.file,
                sealed: true,
                seal_ok: crc32(&data) == s.crc,
                data,
            });
        }
        for &f in &self.uncertified {
            out.push(LogChunk {
                id: f,
                sealed: false,
                seal_ok: true,
                data: self.disk.read(f),
            });
        }
        out.push(LogChunk {
            id: self.active,
            sealed: false,
            seal_ok: true,
            data: self.disk.read(self.active),
        });
        out
    }

    fn log_len(&self) -> usize {
        // Summed in place: the telemetry sampler calls this for every
        // shard at every sample, where `log_files()` would allocate.
        let sealed = self.sealed.iter().map(|s| s.file);
        let files = sealed.chain(self.uncertified.iter().copied());
        files
            .chain([self.active])
            .map(|f| self.disk.file_len(f))
            .sum()
    }

    fn snapshot(&self) -> Vec<u8> {
        self.snapshot_file
            .map(|f| self.disk.read(f))
            .unwrap_or_default()
    }

    fn snapshot_len(&self) -> usize {
        self.snapshot_file.map_or(0, |f| self.disk.file_len(f))
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
        // Unsynced log bytes are appends the snapshot does not cover (the
        // record in flight); park them so the barrier sync below does not
        // make them durable in a segment about to be collected.
        let mut parked = Vec::new();
        for f in self.log_files() {
            parked.extend_from_slice(&self.disk.take_unsynced(f));
        }
        // Stream the snapshot to a fresh checkpoint file in bounded chunks.
        let file = self.alloc_file();
        self.disk.exempt(file);
        for chunk in snapshot.chunks(self.snapshot_chunk) {
            self.disk.write(file, chunk);
        }
        if let Err(e) = self.disk.sync() {
            // Failed install: drop the half-written checkpoint, restore the
            // parked bytes, keep the old snapshot + log intact.
            self.disk.remove(file);
            if !parked.is_empty() {
                self.disk.write(self.active, &parked);
            }
            return Err(e);
        }
        // The new checkpoint is durable: collect the old one and every
        // segment it covers, then restart the log with the parked bytes.
        if let Some(old) = self.snapshot_file {
            self.disk.remove(old);
        }
        for s in std::mem::take(&mut self.sealed) {
            self.disk.remove(s.file);
        }
        for f in std::mem::take(&mut self.uncertified) {
            self.disk.remove(f);
        }
        self.disk.remove(self.active);
        self.snapshot_file = Some(file);
        self.active = self.alloc_file();
        self.active_len = parked.len();
        if !parked.is_empty() {
            self.disk.write(self.active, &parked);
        }
        Ok(())
    }

    fn segment_count(&self) -> usize {
        self.sealed.len() + self.uncertified.len() + 1
    }

    fn pressure(&self) -> Option<f64> {
        self.disk.pressure()
    }

    fn crash(&mut self) -> bool {
        let before = self.log_len();
        let torn = self.disk.crash();
        self.active_len = self.disk.file_len(self.active);
        // A torn crash leaves a partial frame at the end of the active
        // segment. New records appended after that garbage would be hidden
        // from recovery (the reader skips from a torn frame to the next
        // chunk), so fence it off: rotate the active segment, leaving the
        // torn tail in its own chunk — counted as exactly one skip — and
        // append from a clean frame boundary.
        if torn && self.active_len > 0 {
            self.uncertified.push(self.active);
            self.active = self.alloc_file();
            self.active_len = 0;
        }
        self.log_len() < before
    }

    fn discard_unsynced(&mut self) -> bool {
        let before = self.log_len();
        for f in self.log_files() {
            self.disk.take_unsynced(f);
        }
        self.active_len = self.disk.file_len(self.active);
        self.log_len() < before
    }

    fn tear_tail(&mut self, n: usize) -> bool {
        let before = self.log_len();
        let mut left = n;
        for f in self.log_files().into_iter().rev() {
            if left == 0 {
                break;
            }
            let cut = left.min(self.disk.file_len(f));
            self.disk.tear(f, cut);
            left -= cut;
        }
        self.active_len = self.disk.file_len(self.active);
        self.log_len() < before
    }

    fn corrupt_at(&mut self, offset: usize, bit: u8) {
        let mut off = offset;
        for f in self.log_files() {
            let len = self.disk.file_len(f);
            if off < len {
                self.disk.corrupt(f, off, bit);
                return;
            }
            off -= len;
        }
        panic!("corrupt_at offset {offset} beyond log");
    }

    fn duplicate(&self) -> Box<dyn Storage> {
        Box::new(SegmentedStorage {
            disk: self.disk.clone_disk(),
            sealed: self.sealed.clone(),
            uncertified: self.uncertified.clone(),
            active: self.active,
            next_file: self.next_file,
            active_len: self.active_len,
            segment_target: self.segment_target,
            snapshot_file: self.snapshot_file,
            snapshot_chunk: self.snapshot_chunk,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::journal::MemStorage;

    #[test]
    fn schedule_once_at_fires_once() {
        let mut s = DiskFaultSchedule::once_at(DiskFaultKind::SyncFail, 1);
        assert!(!s.visit(DiskFaultKind::SyncFail)); // 0th visit
        assert!(!s.visit(DiskFaultKind::TornAppend)); // other kind
        assert!(s.visit(DiskFaultKind::SyncFail)); // 1st visit: fire
        assert!(!s.visit(DiskFaultKind::SyncFail)); // never again
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let visits: Vec<DiskFaultKind> = (0..60).map(|i| DISK_FAULTS[i % 3]).collect();
        let run = |seed| {
            let mut s = DiskFaultSchedule::seeded(DiskFaultProfile::uniform(0.3), seed);
            visits.iter().map(|k| s.visit(*k)).collect::<Vec<bool>>()
        };
        assert_eq!(run(9), run(9));
        assert!(run(9).iter().any(|b| *b), "p=0.3 over 60 visits must fire");
    }

    #[test]
    fn mem_disk_sync_and_crash() {
        let mut d = MemDisk::default();
        d.write(0, b"abc");
        assert_eq!(d.read(0), b"abc", "live view sees unsynced bytes");
        assert_eq!(d.used(), 0, "nothing durable before sync");
        d.sync().expect("mem disk never fails");
        d.write(0, b"def");
        d.crash();
        assert_eq!(d.read(0), b"abc", "crash loses exactly the unsynced tail");
    }

    #[test]
    fn sim_disk_clean_crash_drops_unsynced() {
        let mut d = SimDisk::faultless();
        d.write(0, b"durable");
        d.sync().expect("faultless");
        d.write(0, b"lost");
        d.crash();
        assert_eq!(d.read(0), b"durable");
    }

    #[test]
    fn sim_disk_torn_crash_keeps_a_strict_prefix() {
        let mut d = SimDisk::new(
            DiskFaultSchedule::once_at(DiskFaultKind::TornAppend, 0),
            None,
            7,
        );
        d.write(0, &[1u8; 64]);
        d.crash();
        let kept = d.read(0).len();
        assert!(kept < 64, "a torn crash never persists the whole write");
    }

    #[test]
    fn sim_disk_sync_fail_retains_buffers() {
        let mut d = SimDisk::new(
            DiskFaultSchedule::once_at(DiskFaultKind::SyncFail, 0),
            None,
            7,
        );
        d.write(0, b"abc");
        assert_eq!(d.sync(), Err(StorageError::WouldBlock));
        d.sync().expect("one-shot fault passed");
        assert_eq!(d.used(), 3, "retained bytes flush on retry");
    }

    #[test]
    fn sim_disk_full_then_remove_frees_space() {
        let mut d = SimDisk::new(DiskFaultSchedule::Never, Some(8), 7);
        d.write(0, &[0u8; 6]);
        d.sync().expect("fits");
        d.write(1, &[0u8; 6]);
        assert_eq!(d.sync(), Err(StorageError::DiskFull));
        d.remove(0);
        d.sync().expect("space freed");
        assert_eq!(d.used(), 6);
    }

    #[test]
    fn sim_disk_exempt_files_do_not_count() {
        let mut d = SimDisk::new(DiskFaultSchedule::Never, Some(8), 7);
        d.exempt(9);
        d.write(9, &[0u8; 100]);
        d.write(0, &[0u8; 4]);
        d.sync().expect("checkpoint area is reserved space");
        assert_eq!(d.used(), 4);
        let p = d.pressure().expect("bounded");
        assert!(p <= 1.0, "pressure covers the log partition only: {p}");
    }

    fn frame(b: u8, n: usize) -> Vec<u8> {
        vec![b; n]
    }

    #[test]
    fn snapshot_len_matches_the_snapshot_copy() {
        let faulty = SegmentedStorage::sim(DiskFaultProfile::uniform(0.3), Some(4096), 64, 11);
        let storages: [Box<dyn Storage>; 3] = [
            Box::<MemStorage>::default(),
            Box::new(SegmentedStorage::with_config(
                Box::new(SimDisk::faultless()),
                64,
                16,
            )),
            Box::new(faulty),
        ];
        for mut s in storages {
            let check = |s: &dyn Storage, at: &str| {
                assert_eq!(s.snapshot_len(), s.snapshot().len(), "{at}: {s:?}");
            };
            check(&*s, "fresh");
            for round in 0..6u8 {
                s.append(&frame(round, 40));
                let _ = s.install_snapshot(&vec![round; 100 + 37 * round as usize]);
                check(&*s, "after install_snapshot");
                s.append(&frame(round, 30));
                s.crash();
                check(&*s, "after crash");
            }
        }
    }

    #[test]
    fn segmented_rotates_and_seals_at_sync() {
        let mut s = SegmentedStorage::with_config(Box::new(SimDisk::faultless()), 8, 4);
        s.append(&frame(1, 6));
        assert_eq!(s.segment_count(), 1, "under target: no rotation");
        s.append(&frame(2, 6)); // 12 >= 8: rotate
        assert_eq!(s.segment_count(), 2);
        let sealed = s.sync().expect("faultless");
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].bytes, 12);
        let chunks = s.chunks();
        assert_eq!(chunks.len(), 2);
        assert!(chunks[0].sealed && chunks[0].seal_ok);
        assert!(!chunks[1].sealed);
        assert_eq!(s.log_len(), 12);
    }

    #[test]
    fn crash_before_certification_never_quarantines() {
        let mut s = SegmentedStorage::with_config(Box::new(SimDisk::faultless()), 8, 4);
        s.append(&frame(1, 10)); // rotates immediately, uncertified
        s.crash(); // unsynced rotated bytes lost before any seal
        let chunks = s.chunks();
        assert!(
            chunks.iter().all(|c| !c.sealed),
            "an uncertified segment is salvaged per-frame, not quarantined"
        );
        s.sync().expect("faultless");
        assert_eq!(
            s.chunks()[0].data.len(),
            0,
            "the torn rotated segment seals empty, not corrupt"
        );
    }

    #[test]
    fn bitrot_at_seal_is_caught_by_the_certificate() {
        let mut s = SegmentedStorage::with_config(
            Box::new(SimDisk::new(
                DiskFaultSchedule::once_at(DiskFaultKind::BitrotSeal, 0),
                None,
                7,
            )),
            8,
            4,
        );
        s.append(&frame(1, 10));
        s.sync().expect("sync itself succeeds");
        let chunks = s.chunks();
        assert!(chunks[0].sealed);
        assert!(!chunks[0].seal_ok, "rot after certify must mismatch");
    }

    #[test]
    fn snapshot_install_streams_and_collects_segments() {
        let mut s = SegmentedStorage::with_config(Box::new(SimDisk::faultless()), 8, 4);
        for i in 0..4 {
            s.append(&frame(i, 6));
        }
        s.sync().expect("faultless");
        let snap = vec![9u8; 10]; // 3 chunks of <=4 bytes
        s.install_snapshot(&snap).expect("faultless");
        assert_eq!(s.snapshot(), snap);
        assert_eq!(s.segment_count(), 1, "covered segments were collected");
        assert_eq!(s.log_len(), 0);
        s.append(&frame(9, 3));
        assert_eq!(s.log_len(), 3, "log restarts after the checkpoint");
    }

    #[test]
    fn failed_snapshot_install_rolls_back() {
        let mut s = SegmentedStorage::with_config(
            Box::new(SimDisk::new(
                DiskFaultSchedule::once_at(DiskFaultKind::SyncFail, 1),
                None,
                7,
            )),
            64,
            4,
        );
        s.append(&frame(1, 6));
        s.sync().expect("visit 0 passes");
        s.append(&frame(2, 6)); // unsynced: must survive the failed install
        assert_eq!(
            s.install_snapshot(b"snap"),
            Err(StorageError::WouldBlock),
            "visit 1 fires inside the install barrier"
        );
        assert_eq!(s.snapshot(), b"", "old (absent) snapshot kept");
        assert_eq!(s.log_len(), 12, "log intact, parked bytes restored");
        s.sync().expect("one-shot passed");
        s.install_snapshot(b"snap").expect("retry succeeds");
        assert_eq!(s.snapshot(), b"snap");
    }

    #[test]
    fn duplicate_is_independent_and_identical() {
        let mut s = SegmentedStorage::with_config(Box::new(SimDisk::faultless()), 8, 4);
        s.append(&frame(1, 10));
        s.sync().expect("faultless");
        let copy = s.duplicate();
        assert_eq!(copy.log_len(), s.log_len());
        s.append(&frame(2, 3));
        assert_eq!(copy.log_len() + 3, s.log_len(), "copies do not share bytes");
    }

    #[test]
    fn tear_and_corrupt_address_the_combined_log() {
        let mut s = SegmentedStorage::with_config(Box::new(SimDisk::faultless()), 8, 4);
        s.append(&frame(1, 6));
        s.append(&frame(2, 6)); // rotates: files [seg0 of 12B] + active
        s.append(&frame(3, 4));
        s.sync().expect("faultless");
        assert_eq!(s.log_len(), 16);
        s.tear_tail(2);
        assert_eq!(s.log_len(), 14, "tear trims the log tail across files");
        let before = s.chunks()[0].data.clone();
        s.corrupt_at(1, 0); // offset 1 lands in the sealed segment
        let after = s.chunks()[0].data.clone();
        assert_eq!(before[1] ^ 1, after[1]);
    }

    impl DiskFaultSchedule {
        /// A schedule that fires exactly once, at the `nth` (0-based) visit of
        /// `kind`.
        pub fn once_at(kind: DiskFaultKind, nth: u64) -> Self {
            DiskFaultSchedule::OnceAt {
                kind,
                nth,
                seen: [0; 3],
                fired: false,
            }
        }
    }

    impl SimDisk {
        /// A perfect unbounded disk (still buffers until sync).
        pub fn faultless() -> Self {
            SimDisk::new(DiskFaultSchedule::Never, None, 0)
        }
    }
}
