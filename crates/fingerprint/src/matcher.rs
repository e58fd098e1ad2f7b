//! Partial-fingerprint matching by Hough alignment voting.
//!
//! The paper's local-identity mechanism assumes partial-print matching "is
//! robust enough" (§IV-A, assumption 3, citing score-level fusion work).
//! This matcher recovers the unknown rigid transform between an enrolled
//! template (fingertip frame) and an observation (sensor frame) by letting
//! every (template, observed) minutia pair vote for the transform it
//! implies, then scoring greedy one-to-one correspondences under the best
//! transform.

use crate::minutiae::{angle_distance, normalize_angle, Minutia};
use crate::template::Template;

/// Matcher tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct MatchConfig {
    /// Max positional error for a correspondence, millimetres.
    pub pos_tolerance_mm: f64,
    /// Max angular error for a correspondence, radians.
    pub angle_tolerance_rad: f64,
    /// Rotation quantization for Hough voting, radians.
    pub rotation_bin_rad: f64,
    /// Translation quantization for Hough voting, millimetres.
    pub translation_bin_mm: f64,
    /// Score at or above which the match is accepted as genuine.
    pub score_threshold: f64,
    /// Score at or below which the observation is *conclusively* someone
    /// else's finger. Scores between the two thresholds are inconclusive —
    /// typical of noisy genuine captures — and should not be treated as
    /// evidence of fraud.
    pub reject_threshold: f64,
    /// Minimum matched correspondences for an accept: the quadratic score
    /// is noisy on tiny observations, so a high score from very few pairs
    /// is treated as inconclusive rather than as a match.
    pub min_match_count: usize,
    /// Minimum observed minutiae for a meaningful match attempt.
    pub min_minutiae: usize,
    /// Minimum observed minutiae before a low score may be treated as a
    /// *conclusive* reject rather than merely inconclusive.
    pub reject_min_minutiae: usize,
    /// How many of the top-voted Hough bins to refine and score (the best
    /// result wins). Noisy observations split the true transform's votes
    /// across neighbouring bins, so evaluating more candidates trades a
    /// little work for robustness.
    pub hough_bins_evaluated: usize,
    /// ICP refinement iterations per bin. More iterations recover noisy
    /// genuine transforms better but also let impostor alignments
    /// over-fit; keep low unless the observation noise demands it.
    pub refine_iterations: usize,
    /// Treat minutia directions as π-periodic orientations instead of full
    /// 2π headings. Image-domain extraction ([`crate::extract`]) recovers
    /// direction only up to the ridge's sign, so matching extracted
    /// observations needs this mode.
    pub angle_mod_pi: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            pos_tolerance_mm: 0.9,
            angle_tolerance_rad: 0.5,
            rotation_bin_rad: 0.18,
            translation_bin_mm: 1.2,
            score_threshold: 0.38,
            reject_threshold: 0.20,
            min_match_count: 7,
            min_minutiae: 4,
            reject_min_minutiae: 8,
            hough_bins_evaluated: 4,
            refine_iterations: 1,
            angle_mod_pi: false,
        }
    }
}

impl MatchConfig {
    /// The configuration for matching image-extracted observations
    /// (π-periodic directions, slightly wider angular tolerance).
    pub fn for_image_extraction() -> Self {
        MatchConfig {
            angle_mod_pi: true,
            angle_tolerance_rad: 0.55,
            pos_tolerance_mm: 0.6,
            rotation_bin_rad: 0.35,
            hough_bins_evaluated: 8,
            refine_iterations: 3,
            score_threshold: 0.45,
            ..MatchConfig::default()
        }
    }

    /// Folds an angle difference into this configuration's canonical
    /// range: `[0, 2π)` for full headings, or the *signed* `[−π/2, π/2)`
    /// for π-periodic orientations. The signed range matters: a tiny
    /// negative orientation difference must fold near 0, not near π,
    /// or Hough votes for the identity transform split into a spurious
    /// 180°-rotation bin.
    fn fold(&self, a: f64) -> f64 {
        self.fold_parity(a).0
    }

    /// [`MatchConfig::fold`], also telling whether the fold moved `a` by an
    /// odd multiple of π, which flips the signs of both its sine and
    /// cosine. The parity is `None` two or more periods from zero, where
    /// the fold calls `fmod` and does not count periods.
    fn fold_parity(&self, a: f64) -> (f64, Option<bool>) {
        let pi = std::f64::consts::PI;
        let period = if self.angle_mod_pi {
            pi
        } else {
            std::f64::consts::TAU
        };
        // `fmod` is exact: below one period it returns `a` itself, and
        // below two it returns `a ∓ period`, which is representable, so the
        // subtraction gives it exactly (`copysign` keeps a zero's sign as
        // `fmod` does).
        let (mut d, mut odd) = if a.abs() < period {
            (a, Some(false))
        } else if a.abs() < 2.0 * period {
            // One period off: π (odd) or τ (even).
            (
                (a - period.copysign(a)).copysign(a),
                Some(self.angle_mod_pi),
            )
        } else {
            (a % period, None)
        };
        if self.angle_mod_pi {
            if d < -pi / 2.0 {
                d += pi;
                odd = odd.map(|o| !o);
            } else if d >= pi / 2.0 {
                d -= pi;
                odd = odd.map(|o| !o);
            }
        } else if d < 0.0 {
            d += period;
        }
        (d, odd)
    }

    /// Angular distance under this configuration's period.
    fn angle_gap(&self, a: f64, b: f64) -> f64 {
        if self.angle_mod_pi {
            self.fold(a - b).abs()
        } else {
            angle_distance(a, b)
        }
    }
}

/// The outcome of a match attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatchResult {
    /// Normalized similarity in `[0, 1]`.
    pub score: f64,
    /// Number of minutia correspondences under the best transform.
    pub matched: usize,
    /// Recovered rotation (template → sensor frame), radians.
    pub rotation: f64,
    /// Recovered translation, millimetres.
    pub translation: (f64, f64),
}

impl MatchResult {
    /// A definite non-match.
    pub fn no_match() -> Self {
        MatchResult {
            score: 0.0,
            matched: 0,
            rotation: 0.0,
            translation: (0.0, 0.0),
        }
    }

    /// Whether this result clears `config`'s acceptance criteria (score
    /// threshold and minimum matched-pair count).
    pub fn is_accepted(&self, config: &MatchConfig) -> bool {
        self.score >= config.score_threshold && self.matched >= config.min_match_count
    }
}

/// Enrolled templates with the constants the vote derives from them: the
/// `sin_cos` of every template direction and whether every template lies
/// in the certified range. They are computed once, when the set is built,
/// instead of on every match ([`MatchScratch::best_match`]).
///
/// The constants are derived from the minutiae, so they are as secret:
/// `Debug` shows only the template count. They stay out of [`Template`]
/// itself, so a template's encoding, size and clone cost are unchanged.
#[derive(Clone, Default)]
pub struct TemplateSet {
    templates: Vec<Template>,
    /// `sin_cos` of each template direction, template after template.
    direction_trig: Vec<(f64, f64)>,
    /// Whether every template minutia lies in the certified range.
    certified: bool,
}

impl std::fmt::Debug for TemplateSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TemplateSet({} templates <redacted>)",
            self.templates.len()
        )
    }
}

impl TemplateSet {
    /// The set of `templates`, with its constants.
    pub fn new(templates: Vec<Template>) -> Self {
        let mut direction_trig = Vec::with_capacity(templates.iter().map(Template::len).sum());
        for template in &templates {
            direction_trig.extend(template.minutiae().iter().map(|m| m.angle.sin_cos()));
        }
        let certified = templates
            .iter()
            .all(|t| FilteredVote::certifies(t.minutiae()));
        TemplateSet {
            templates,
            direction_trig,
            certified,
        }
    }

    /// The templates, in the order they were given.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// The templates, giving up the constants.
    pub fn into_templates(self) -> Vec<Template> {
        self.templates
    }
}

/// The buffers matching needs, kept across calls so that matching a
/// certified template set allocates nothing once they have grown: the
/// Hough vote table, the best bins, the bins that reached two votes, the
/// scoring `Workspace`, and the observed minutiae in the key pass's lane
/// layout. [`MatchScratch::reserve_for`] sizes all but the vote table for
/// a template set up front. The vote table grows to the most pairs a call
/// has needed (34 KB for 58 × 19 pairs): reserved for the 58 × 58 pairs a
/// 58-point template bounds, it would take 86 KB on every device, most of
/// it never used, since observations are a sensor patch's worth of
/// minutiae.
///
/// Between calls the buffers still hold minutiae derived from the last
/// template matched, so a scratch belongs with the templates it matches
/// (the fingerprint processor keeps one next to its template store). Its
/// `Debug` shows none of them, and a clone is a fresh, empty scratch.
#[derive(Default)]
pub struct MatchScratch {
    /// The bins to score, best first.
    top: Vec<(u32, BinKey)>,
    /// Indices into the vote table's bins of those that reached two votes.
    twos: Vec<u32>,
    /// The observed minutiae with their directions' `sin_cos`, four to an
    /// entry (filled only for a certified call).
    observed_lanes: Vec<ObservedLanes>,
    table: VoteTable,
    work: Workspace,
}

impl std::fmt::Debug for MatchScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchScratch").finish_non_exhaustive()
    }
}

impl Clone for MatchScratch {
    fn clone(&self) -> Self {
        MatchScratch::new()
    }
}

impl MatchScratch {
    /// An empty scratch; its buffers grow on first use.
    pub fn new() -> Self {
        MatchScratch::default()
    }

    /// Sizes every buffer for matching `set` under `config`, taking the
    /// longest template as the bound on an observation's minutiae, so a
    /// device's first verifications do not grow them one doubling at a
    /// time.
    pub fn reserve_for(&mut self, set: &TemplateSet, config: &MatchConfig) {
        let most = set.templates.iter().map(Template::len).max().unwrap_or(0);
        let keep = config.hough_bins_evaluated.clamp(1, most.max(1));
        self.top.reserve(keep);
        self.twos.reserve(most);
        self.observed_lanes.reserve(most.div_ceil(LANES));
        self.work.reserve(most);
    }

    /// Matches `observed` against every template of `set` and returns the
    /// index and result of the best score (the first template, on a tie),
    /// or `None` when `set` is empty. A template's result does not depend
    /// on the other templates of the set or on what the scratch matched
    /// before. An observation with fewer than
    /// [`MatchConfig::min_minutiae`] points gives
    /// [`MatchResult::no_match`] for the first template.
    ///
    /// # Example
    ///
    /// ```
    /// use btd_fingerprint::enroll::enroll;
    /// use btd_fingerprint::matcher::{MatchConfig, MatchScratch, TemplateSet};
    /// use btd_fingerprint::minutiae::CaptureWindow;
    /// use btd_fingerprint::pattern::FingerPattern;
    /// use btd_fingerprint::quality::CaptureConditions;
    /// use btd_sim::geom::MmPoint;
    /// use btd_sim::rng::SimRng;
    ///
    /// let finger = FingerPattern::generate(1, 0);
    /// let mut rng = SimRng::seed_from(2);
    /// let set = TemplateSet::new(vec![enroll(&finger, 5, &mut rng)]);
    /// let window = CaptureWindow::centered(MmPoint::new(0.0, 2.0), 8.0, 8.0);
    /// let cfg = MatchConfig::default();
    /// let mut scratch = MatchScratch::new();
    /// scratch.reserve_for(&set, &cfg);
    ///
    /// let obs = finger.observe(&window, &CaptureConditions::ideal(), &mut rng);
    /// let (_, genuine) = scratch.best_match(&set, &obs.minutiae, &cfg).unwrap();
    ///
    /// let impostor_finger = FingerPattern::generate(2, 0);
    /// let obs2 = impostor_finger.observe(&window, &CaptureConditions::ideal(), &mut rng);
    /// let (_, impostor) = scratch.best_match(&set, &obs2.minutiae, &cfg).unwrap();
    /// assert!(genuine.score > impostor.score);
    /// ```
    pub fn best_match(
        &mut self,
        set: &TemplateSet,
        observed: &[Minutia],
        config: &MatchConfig,
    ) -> Option<(usize, MatchResult)> {
        let templates = &set.templates;
        if templates.is_empty() {
            return None;
        }
        if observed.len() < config.min_minutiae {
            return Some((0, MatchResult::no_match()));
        }
        let fast = FilteredVote::new(config)
            .filter(|_| set.certified && FilteredVote::certifies(observed));
        self.observed_lanes.clear();
        if fast.is_some() {
            self.observed_lanes
                .extend(observed.chunks(LANES).map(ObservedLanes::new));
        }
        let obs_bound = bounding_radius(observed);
        let most_pairs = templates.iter().map(Template::len).max().unwrap_or(0) * observed.len();
        self.table.reserve(most_pairs);
        let mut best: Option<(usize, MatchResult)> = None;
        let mut rest = &set.direction_trig[..];
        for (i, template) in templates.iter().enumerate() {
            let (trig, later) = rest.split_at(template.len());
            rest = later;
            self.vote(template, trig, observed, config, fast);
            // Evaluate the top few bins — vote quantization occasionally
            // splits the true transform across neighbouring bins, and
            // committing to a single bin causes catastrophic genuine
            // misalignments.
            let mut result = MatchResult::no_match();
            for &(_, bin) in &self.top {
                let candidate =
                    score_bin(template, observed, config, bin, obs_bound, &mut self.work);
                if candidate.score > result.score {
                    result = candidate;
                }
            }
            if best.is_none_or(|(_, b)| result.score > b.score) {
                best = Some((i, result));
            }
        }
        best
    }

    /// Hough voting over (rotation, translation): every (template,
    /// observed) pair hypothesizes a rotation by the angle difference and
    /// whatever translation then maps the template minutia onto the
    /// observed one. Leaves the `hough_bins_evaluated` (at least one)
    /// most-voted bins in `self.top`, ordered by votes descending, then
    /// key ascending.
    ///
    /// Votes are counted in an open-addressing table sized for one vote
    /// per pair, so it never grows. The (votes, key) order is total over
    /// distinct keys, so the bins chosen do not depend on how the table is
    /// laid out. `template_trig` holds the `sin_cos` of the template's
    /// directions (read only when `fast` is set).
    ///
    /// Kept out of line: inlined into `best_match`, its loops were
    /// compiled differently from one build to the next, and the π-periodic
    /// search's time moved by up to 10% with them.
    #[inline(never)]
    fn vote(
        &mut self,
        template: &Template,
        template_trig: &[(f64, f64)],
        observed: &[Minutia],
        config: &MatchConfig,
        fast: Option<FilteredVote>,
    ) {
        let pairs = template.len() * observed.len();
        let slot_bits = VoteTable::slot_bits(pairs);
        let table = &mut self.table;
        let slots = &mut table.slots;
        slots.clear();
        slots.resize(1 << slot_bits, 0);
        let keep = config.hough_bins_evaluated.max(1);
        self.top.clear();
        match fast {
            Some(fast) => {
                // Key pass: one packed key per pair, template-major, with
                // no call or early exit per pair; pairs the filter cannot
                // round are marked `EXACT`.
                let bins = &mut table.bins;
                bins.clear();
                bins.resize(pairs, (0, 0));
                fast.key_pass(
                    config.angle_mod_pi,
                    template.minutiae(),
                    template_trig,
                    &self.observed_lanes,
                    observed.len(),
                    bins,
                );
                // Counting pass: the distinct bins are compacted into the
                // front of the same buffer, never past the key being read,
                // and each bin is noted when it reaches two votes.
                let twos = &mut self.twos;
                twos.clear();
                let mut distinct = 0;
                for i in 0..pairs {
                    let mut key = bins[i].1;
                    if key == EXACT {
                        let (t, o) = (i / observed.len(), i % observed.len());
                        key = pack(exact_key(config, &template.minutiae()[t], &observed[o]));
                    }
                    let hash = key.wrapping_mul(FIBONACCI);
                    match probe(slots, slot_bits, hash, |b| bins[b].1 == key) {
                        Ok(b) => {
                            bins[b].0 += 1;
                            if bins[b].0 == 2 {
                                twos.push(b as u32);
                            }
                        }
                        Err(slot) => {
                            bins[distinct] = (1, key);
                            distinct += 1;
                            *slot = distinct as u32;
                        }
                    }
                }
                bins.truncate(distinct);
                // A bin with one vote ranks below every bin with two or
                // more, so when at least `keep` bins reached two votes the
                // best `keep` are among them.
                if twos.len() >= keep {
                    for &b in twos.iter() {
                        let (votes, key) = bins[b as usize];
                        keep_best(&mut self.top, keep, (votes, unpack(key)));
                    }
                } else {
                    for &(votes, key) in bins.iter() {
                        keep_best(&mut self.top, keep, (votes, unpack(key)));
                    }
                }
            }
            None => {
                // Outside the certified range a key can be any `i64`:
                // full keys, in a table allocated for the call.
                let mut bins: Vec<(u32, BinKey)> = Vec::with_capacity(pairs);
                for t in template.minutiae() {
                    for o in observed {
                        let key = exact_key(config, t, o);
                        match probe(slots, slot_bits, bin_hash(key), |b| bins[b].1 == key) {
                            Ok(b) => bins[b].0 += 1,
                            Err(slot) => {
                                bins.push((1, key));
                                *slot = bins.len() as u32;
                            }
                        }
                    }
                }
                for &bin in &bins {
                    keep_best(&mut self.top, keep, bin);
                }
            }
        }
    }
}

/// The Hough vote table, reserved for the most pairs a call votes and
/// reused for any fewer, so it never grows while in use.
#[derive(Default)]
struct VoteTable {
    /// Open addressing: each slot holds 1 + an index into `bins`, 0 marks
    /// an empty slot.
    slots: Vec<u32>,
    /// The distinct bins a certified call voted for, with their votes.
    bins: Vec<(u32, PackedKey)>,
}

impl VoteTable {
    /// Grows the table, to exactly what is asked, when it holds fewer
    /// than `pairs` votes.
    fn reserve(&mut self, pairs: usize) {
        self.slots.clear();
        self.slots.reserve_exact(1 << VoteTable::slot_bits(pairs));
        self.bins.clear();
        self.bins.reserve_exact(pairs);
    }

    /// log2 of the slot count for `pairs` votes: at most half full, for
    /// short probe runs.
    fn slot_bits(pairs: usize) -> u32 {
        (2 * pairs).next_power_of_two().max(16).trailing_zeros()
    }
}

/// A Hough bin: quantized (rotation, x translation, y translation).
type BinKey = (i64, i64, i64);

/// A certified call's [`BinKey`] in one word: each coordinate biased by
/// [`PACK_BIAS`] into 21 bits, rotation highest, so that the words order
/// as the keys do. Certified inputs keep every coordinate below 2 · 10⁴
/// in magnitude (|rotation| ≤ 2π / 1e-3 rad, |translation| ≤ 155 mm /
/// 1e-2 mm), far inside ±2²⁰.
type PackedKey = u64;

const PACK_BIAS: i64 = 1 << 20;

/// Golden-ratio multiplier for Fibonacci hashing.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

fn pack((r, x, y): BinKey) -> PackedKey {
    debug_assert!([r, x, y]
        .iter()
        .all(|v| (-PACK_BIAS..PACK_BIAS).contains(v)));
    let field = |v: i64| (v + PACK_BIAS) as u64;
    field(r) << 42 | field(x) << 21 | field(y)
}

fn unpack(key: PackedKey) -> BinKey {
    let field = |shift: u32| ((key >> shift) & ((1 << 21) - 1)) as i64 - PACK_BIAS;
    (field(42), field(21), field(0))
}

/// A multiplicative hash of a full bin key; the high bits are the well
/// mixed ones.
fn bin_hash((r, x, y): BinKey) -> u64 {
    [r, x, y].iter().fold(0u64, |h, &w| {
        (h.rotate_left(23) ^ w as u64).wrapping_mul(FIBONACCI)
    })
}

/// Finds the bin whose hash is `hash` in the open-addressing `slots`
/// (each holds 1 + an index into the bins, 0 marking an empty slot):
/// `Ok` with the index of the first bin `is_key` accepts along the probe
/// run, or `Err` with the empty slot that ends the run.
fn probe(
    slots: &mut [u32],
    slot_bits: u32,
    hash: u64,
    is_key: impl Fn(usize) -> bool,
) -> Result<usize, &mut u32> {
    let mask = (1u64 << slot_bits) - 1;
    let mut slot = hash >> (64 - slot_bits);
    loop {
        match slots[slot as usize] {
            0 => return Err(&mut slots[slot as usize]),
            i if is_key(i as usize - 1) => return Ok(i as usize - 1),
            _ => slot = (slot + 1) & mask,
        }
    }
}

/// Inserts `bin` into `top`, the best `keep` bins so far by votes
/// descending, then key ascending, when it ranks among them.
fn keep_best(top: &mut Vec<(u32, BinKey)>, keep: usize, bin: (u32, BinKey)) {
    let ranks_before = |a: (u32, BinKey), b: (u32, BinKey)| a.0 > b.0 || (a.0 == b.0 && a.1 < b.1);
    if top.len() == keep {
        if !ranks_before(bin, top[keep - 1]) {
            return;
        }
        top.pop();
    }
    let at = top.partition_point(|&b| ranks_before(b, bin));
    top.insert(at, bin);
}

/// The bin a (template, observed) pair votes for, evaluated as written:
/// `sin_cos` of the folded angle difference and three divisions and
/// roundings. [`FilteredVote`] falls back to it.
fn exact_key(config: &MatchConfig, t: &Minutia, o: &Minutia) -> BinKey {
    let dtheta = config.fold(o.angle - t.angle);
    let (s, c) = dtheta.sin_cos();
    let tx = o.pos.x - (t.pos.x * c - t.pos.y * s);
    let ty = o.pos.y - (t.pos.x * s + t.pos.y * c);
    (
        (dtheta / config.rotation_bin_rad).round() as i64,
        (tx / config.translation_bin_mm).round() as i64,
        (ty / config.translation_bin_mm).round() as i64,
    )
}

/// Largest |coordinate| of a certified minutia, millimetres.
const CERTIFIED_POS_MM: f64 = 64.0;
/// Largest |direction| of a certified minutia, radians.
const CERTIFIED_ANGLE_RAD: f64 = 4.0 * std::f64::consts::PI;
/// Narrowest certified rotation bin, radians.
const MIN_ROTATION_BIN_RAD: f64 = 1e-3;
/// Narrowest certified translation bin, millimetres.
const MIN_TRANSLATION_BIN_MM: f64 = 1e-2;
/// How far from a half-integer, in bin units, a fast coordinate must lie
/// to be rounded.
const DELTA: f64 = 1e-9;
/// 1.5 · 2^52: adding and subtracting it rounds any |x| ≤ 2^51 to the
/// nearest integer (ties to even) in two additions.
const ROUNDER: f64 = 6_755_399_441_055_744.0;

/// The vote key without libm calls or divisions, as a filtered
/// evaluation of [`exact_key`]: a fast approximation whose error is
/// bounded, used only where that bound cannot change the rounded key.
///
/// Per pair, `sin`/`cos` of the angle difference come from each
/// minutia's own `sin_cos` by the subtraction identities
/// `sin(o − t) = sin o cos t − cos o sin t` and
/// `cos(o − t) = cos o cos t + sin o sin t`. The fold into the canonical
/// range takes off whole periods; where it takes off an odd number of π
/// (π-periodic mode) both signs flip. Divisions become multiplications by
/// the reciprocal bin widths, and rounding is [`ROUNDER`]'s two
/// additions.
///
/// **Error bound.** Inside the certified range (every |coordinate| ≤ 64
/// mm and |direction| ≤ 4π, bins at least 1e-3 rad and 1e-2 mm), with
/// u = 2⁻⁵³ and libm's `sin`/`cos` within 1 ulp (≤ 2u on [−1, 1]):
///
/// - The folded difference `d` is bit-identical to `exact_key`'s: the
///   fast path runs only where [`MatchConfig::fold_parity`] needs no
///   `fmod`. It differs from the real `(o − t) − mπ` by the rounding of
///   `o − t` (|o − t| < 4π here: ≤ 2⁻⁵⁰ = 8.9e-16), by `m` times
///   `|π − PI|` (≤ 4 · 1.23e-16, counting τ as two π) and by the final
///   `± PI` or `+ TAU` (≤ 2⁻⁵¹ = 4.4e-16): 1.82e-15 in all. With libm's
///   2u, `exact_key`'s sine and cosine are within 2.04e-15 of
///   ±sin(o − t) and ±cos(o − t).
/// - The identities take four libm values (2u each), two products and a
///   sum: within 11u = 1.22e-15 of the same. So the fast `s`, `c` differ
///   from `exact_key`'s by at most ε_t = 3.26e-15.
/// - `tx = o.x − (t.x·c − t.y·s)`: ε_t times |t.x| + |t.y| ≤ 128 gives
///   4.17e-13 mm, plus both evaluations' four roundings (magnitudes ≤ 64,
///   64, 128, 192: ≤ 5.7e-14 each) gives 5.3e-13 mm; `ty` alike.
/// - In bin units, the reciprocal and product add 2u and the division u
///   of |tx| / b ≤ 192 / b: ε = (5.3e-13 + 6.4e-14) / b ≤ 5.9e-11 for
///   b ≥ 1e-2 mm. The rotation differs only by that rounding:
///   3u · 2π / rb ≤ 2.1e-12 for rb ≥ 1e-3 rad.
///
/// So ε ≤ 5.9e-11 ≪ δ = [`DELTA`] = 1e-9 (5e-13 at the default 1.2 mm
/// bins). Where the fast value `x` lies more than δ from every
/// half-integer, `x − rne(x)` (exact: its operands are within a factor
/// of two, or `rne(x)` is 0) is below 1/2 − δ, so the exact value lies
/// within 1/2 − δ + ε < 1/2 of the same integer and `round` picks it too.
/// Any pair that fails that test, or needs `fmod`, and any call with an
/// input outside the certified range, votes through `exact_key`. Every
/// key, and so every score, equals the unfiltered vote's.
#[derive(Clone, Copy)]
struct FilteredVote {
    inv_rotation_bin: f64,
    inv_translation_bin: f64,
}

impl FilteredVote {
    /// The filter for `config`, or `None` when its bins are narrower than
    /// the certified range.
    fn new(config: &MatchConfig) -> Option<Self> {
        (config.rotation_bin_rad >= MIN_ROTATION_BIN_RAD
            && config.translation_bin_mm >= MIN_TRANSLATION_BIN_MM)
            .then(|| FilteredVote {
                inv_rotation_bin: 1.0 / config.rotation_bin_rad,
                inv_translation_bin: 1.0 / config.translation_bin_mm,
            })
    }

    /// Whether every minutia lies in the certified range (NaN never does).
    fn certifies(minutiae: &[Minutia]) -> bool {
        minutiae.iter().all(|m| {
            m.pos.x.abs() <= CERTIFIED_POS_MM
                && m.pos.y.abs() <= CERTIFIED_POS_MM
                && m.angle.abs() <= CERTIFIED_ANGLE_RAD
        })
    }

    /// Writes the packed key of every (template, observed) pair into
    /// `bins` (`template.len()` rows of `count`), on the CPU's AVX2 when it
    /// has it and in scalar code otherwise. Both write the same keys.
    /// `trig` holds the `sin_cos` of the template's directions, `observed`
    /// the `count` observed minutiae.
    fn key_pass(
        &self,
        mod_pi: bool,
        template: &[Minutia],
        trig: &[(f64, f64)],
        observed: &[ObservedLanes],
        count: usize,
        bins: &mut [(u32, PackedKey)],
    ) {
        if count == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if avx2::key_pass(self, mod_pi, template, trig, observed, count, bins) {
            return;
        }
        if mod_pi {
            self.key_pass_scalar::<true>(template, trig, observed, count, bins);
        } else {
            self.key_pass_scalar::<false>(template, trig, observed, count, bins);
        }
    }

    /// [`FilteredVote::key_pass`] one pair at a time (`count` > 0).
    fn key_pass_scalar<const MOD_PI: bool>(
        &self,
        template: &[Minutia],
        trig: &[(f64, f64)],
        observed: &[ObservedLanes],
        count: usize,
        bins: &mut [(u32, PackedKey)],
    ) {
        for ((t, &t_trig), row) in template.iter().zip(trig).zip(bins.chunks_exact_mut(count)) {
            let t = Oriented::new(t, t_trig);
            for (lanes, bins) in observed.iter().zip(row.chunks_mut(LANES)) {
                for (lane, bin) in bins.iter_mut().enumerate() {
                    bin.1 = self.packed_key::<MOD_PI>(&t, &lanes.lane(lane));
                }
            }
        }
    }

    /// The packed [`exact_key`] of the pair, from each minutia's
    /// `sin_cos`, or [`EXACT`] where the fast value cannot be rounded
    /// safely or the fold would need `fmod`. `MOD_PI` is the
    /// configuration's `angle_mod_pi`.
    ///
    /// [`MatchConfig::fold_parity`]'s cases are evaluated on the same
    /// operations in the same order, so the folded difference and its
    /// parity are bit-identical to `fold_parity`'s wherever that one
    /// counts periods; where it would call `fmod`, the pair is marked
    /// instead of branching to the exact key. The rounded coordinates are
    /// read off the bits of the [`ROUNDER`] sums (`rounded_bits`), not
    /// converted. The AVX2 kernel (`avx2::key_pass`) runs these
    /// operations, in this order, on four pairs at a time.
    #[inline(always)]
    fn packed_key<const MOD_PI: bool>(&self, t: &Oriented, o: &Oriented) -> PackedKey {
        use std::f64::consts::{PI, TAU};
        let (st, ct, so, co) = (t.sin, t.cos, o.sin, o.cos);
        let a = o.angle - t.angle;
        let period = if MOD_PI { PI } else { TAU };
        let once = a.abs() >= period;
        let folds = a.abs() < 2.0 * period;
        let d = if once {
            (a - period.copysign(a)).copysign(a)
        } else {
            a
        };
        let (dtheta, odd) = if MOD_PI {
            let (low, high) = (d < -PI / 2.0, d >= PI / 2.0);
            let d = if low {
                d + PI
            } else if high {
                d - PI
            } else {
                d
            };
            (d, once ^ low ^ high)
        } else {
            (if d < 0.0 { d + period } else { d }, false)
        };
        let sign = if odd { -1.0 } else { 1.0 };
        let s = sign * (so * ct - co * st);
        let c = sign * (co * ct + so * st);
        let tx = o.x - (t.x * c - t.y * s);
        let ty = o.y - (t.x * s + t.y * c);
        let (r, x, y) = (
            dtheta * self.inv_rotation_bin,
            tx * self.inv_translation_bin,
            ty * self.inv_translation_bin,
        );
        let (sr, sx, sy) = (r + ROUNDER, x + ROUNDER, y + ROUNDER);
        let (rr, rx, ry) = (sr - ROUNDER, sx - ROUNDER, sy - ROUNDER);
        let clear = 0.5 - DELTA;
        let exact =
            folds & ((r - rr).abs() < clear) & ((x - rx).abs() < clear) & ((y - ry).abs() < clear);
        debug_assert!(!exact || [rr, rx, ry].iter().all(|v| v.abs() < PACK_BIAS as f64));
        let key = rounded_bits(sr) << 42 | rounded_bits(sx) << 21 | rounded_bits(sy);
        if exact {
            key
        } else {
            EXACT
        }
    }
}

/// [`pack`]'s field of `rne(x)`, from `sum = x + ROUNDER`: for
/// |x| ≤ 2⁵¹ the sum lies in [2⁵², 2⁵³), where the ulp is 1, so its bits
/// less [`ROUNDER`]'s are `rne(x)` as an integer. Certified coordinates
/// stay far inside ±2²⁰, so the biased field fits its 21 bits; the field
/// of a pair marked [`EXACT`] is not used.
#[inline(always)]
fn rounded_bits(sum: f64) -> PackedKey {
    let field = sum
        .to_bits()
        .wrapping_sub(ROUNDER.to_bits())
        .wrapping_add(PACK_BIAS as u64);
    field & ((1 << 21) - 1)
}

/// Marks a pair that votes through [`exact_key`]: no packed key has its
/// top bit set.
const EXACT: PackedKey = u64::MAX;

/// Minutiae per kernel step: four `f64` lanes, one AVX2 register.
const LANES: usize = 4;

/// One coordinate of four minutiae.
type Lanes = [f64; LANES];

/// A minutia's position and direction, with the direction's `sin_cos`.
#[derive(Clone, Copy)]
struct Oriented {
    x: f64,
    y: f64,
    angle: f64,
    sin: f64,
    cos: f64,
}

impl Oriented {
    fn new(m: &Minutia, (sin, cos): (f64, f64)) -> Self {
        Oriented {
            x: m.pos.x,
            y: m.pos.y,
            angle: m.angle,
            sin,
            cos,
        }
    }
}

/// Four observed minutiae as the key pass reads them: each field holds
/// one coordinate of all four. Lanes past the end of the observation hold
/// zeros; the kernels compute keys for them and drop them.
#[derive(Clone, Copy, Default)]
struct ObservedLanes {
    x: Lanes,
    y: Lanes,
    angle: Lanes,
    sin: Lanes,
    cos: Lanes,
}

impl ObservedLanes {
    /// The lanes of up to [`LANES`] minutiae, with their `sin_cos`.
    fn new(minutiae: &[Minutia]) -> Self {
        let mut lanes = ObservedLanes::default();
        for (i, m) in minutiae.iter().enumerate() {
            lanes.x[i] = m.pos.x;
            lanes.y[i] = m.pos.y;
            lanes.angle[i] = m.angle;
            (lanes.sin[i], lanes.cos[i]) = m.angle.sin_cos();
        }
        lanes
    }

    fn lane(&self, i: usize) -> Oriented {
        Oriented {
            x: self.x[i],
            y: self.y[i],
            angle: self.angle[i],
            sin: self.sin[i],
            cos: self.cos[i],
        }
    }
}

/// The positions of four transformed template minutiae. Lanes past the
/// end of the template hold zeros; the gate masks them off.
#[derive(Clone, Copy, Default)]
struct PositionLanes {
    x: Lanes,
    y: Lanes,
}

/// The scoring buffers, shared by every bin and refinement pass.
#[derive(Default)]
struct Workspace {
    /// The template's positions under the current transform, four to an
    /// entry.
    positions: Vec<PositionLanes>,
    /// How many template minutiae `positions` holds.
    count: usize,
    /// The current transform's rotation.
    theta: f64,
    /// Candidate correspondences `(distance, template, observed)`.
    candidates: Vec<(f64, usize, usize)>,
    /// Greedy one-to-one correspondences `(template, observed)`.
    pairs: Vec<(usize, usize)>,
    /// Which minutiae are already paired: the template's, then the
    /// observation's.
    used: Vec<bool>,
}

impl Workspace {
    /// Sizes every buffer for templates and observations of up to `most`
    /// minutiae, with room for two candidates per minutia.
    fn reserve(&mut self, most: usize) {
        self.positions.reserve(most.div_ceil(LANES));
        self.candidates.reserve(2 * most);
        self.pairs.reserve(most);
        self.used.reserve(2 * most);
    }

    /// Puts the template's positions under the rigid transform (rotate by
    /// `theta`, then translate) into `self.positions`, with
    /// `theta.sin_cos()` evaluated once for the whole template. The
    /// directions are transformed only where `correspond` needs them.
    fn transform(&mut self, template: &Template, theta: f64, (tx, ty): (f64, f64)) {
        let (s, c) = theta.sin_cos();
        self.theta = theta;
        self.count = template.len();
        self.positions.clear();
        self.positions
            .extend(template.minutiae().chunks(LANES).map(|chunk| {
                let mut lanes = PositionLanes::default();
                for (i, m) in chunk.iter().enumerate() {
                    lanes.x[i] = m.pos.x * c - m.pos.y * s + tx;
                    lanes.y[i] = m.pos.x * s + m.pos.y * c + ty;
                }
                lanes
            }));
    }

    /// The transformed template positions, in template order.
    fn positions(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        (0..self.count).map(|i| position(&self.positions, i))
    }

    /// Greedy one-to-one correspondences (closest pairs first) between
    /// the transformed `template` and `observed`, into `self.pairs`.
    ///
    /// Ties in distance go to the candidate found first in (observed,
    /// template) order, as a stable sort of the candidates in that push
    /// order would leave them.
    fn correspond(
        &mut self,
        template: &Template,
        observed: &[Minutia],
        pos_tolerance: f64,
        angle_tolerance: f64,
        config: &MatchConfig,
    ) {
        let gate = squared_gate(pos_tolerance);
        let theta = self.theta;
        let candidates = &mut self.candidates;
        candidates.clear();
        // The pairs inside the gate: the root is taken, and the template
        // direction transformed as `Minutia::new` normalizes it, only for
        // those.
        let mut visit = |oi: usize, ti: usize, d2: f64| {
            let d = d2.sqrt();
            if d <= pos_tolerance
                && config.angle_gap(
                    observed[oi].angle,
                    normalize_angle(template.minutiae()[ti].angle + theta),
                ) <= angle_tolerance
            {
                candidates.push((d, ti, oi));
            }
        };
        #[cfg(target_arch = "x86_64")]
        let gated = avx2::gate(&self.positions, self.count, observed, gate, &mut visit);
        #[cfg(not(target_arch = "x86_64"))]
        let gated = false;
        if !gated {
            gate_scalar(&self.positions, self.count, observed, gate, &mut visit);
        }
        self.candidates.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite distances")
                .then(a.2.cmp(&b.2))
                .then(a.1.cmp(&b.1))
        });
        self.used.clear();
        self.used.resize(self.count + observed.len(), false);
        let (t_used, o_used) = self.used.split_at_mut(self.count);
        self.pairs.clear();
        for &(_, ti, oi) in &self.candidates {
            if !t_used[ti] && !o_used[oi] {
                t_used[ti] = true;
                o_used[oi] = true;
                self.pairs.push((ti, oi));
            }
        }
    }
}

/// The correspondence gate one pair at a time: calls `visit(observed
/// index, template index, d2)` for every pair of an observed minutia and
/// one of the `count` transformed template minutiae in `positions` whose
/// squared distance `d2` is not above `gate` (NaN is not), in (observed,
/// template) order.
fn gate_scalar(
    positions: &[PositionLanes],
    count: usize,
    observed: &[Minutia],
    gate: f64,
    visit: &mut impl FnMut(usize, usize, f64),
) {
    for (oi, o) in observed.iter().enumerate() {
        for ti in 0..count {
            let d2 = squared_distance(o, positions, ti);
            if d2 > gate {
                continue;
            }
            visit(oi, ti, d2);
        }
    }
}

/// `MmPoint::distance_to`'s sum of squares between `o` and transformed
/// template minutia `ti`; its root is taken only for pairs the gate
/// cannot rule out.
#[inline(always)]
fn squared_distance(o: &Minutia, positions: &[PositionLanes], ti: usize) -> f64 {
    let (x, y) = position(positions, ti);
    (o.pos.x - x).powi(2) + (o.pos.y - y).powi(2)
}

/// Transformed template minutia `i`'s position.
#[inline(always)]
fn position(positions: &[PositionLanes], i: usize) -> (f64, f64) {
    let lanes = &positions[i / LANES];
    (lanes.x[i % LANES], lanes.y[i % LANES])
}

/// A squared distance above which a correctly rounded square root exceeds
/// `limit`, or infinity where `limit` is too small, too large or NaN for
/// the bound to hold. If `sqrt(d2)` rounds to at most `limit`, then
/// `d2 ≤ limit²·(1 + u)² < limit²·(1 + 3u)`, below the gate's
/// `limit²·(1 + 1e-9)` less its own three roundings.
fn squared_gate(limit: f64) -> f64 {
    if (1e-100..=1e100).contains(&limit) {
        limit * limit * (1.0 + 1e-9)
    } else {
        f64::INFINITY
    }
}

/// Refines the transform implied by one Hough bin and scores the
/// correspondences it induces.
///
/// Refinement is ICP-style: starting from the bin-centre transform, find
/// greedy one-to-one correspondences, re-estimate the rigid transform from
/// *those pairs only*, and repeat. Estimating only from matched pairs (as
/// opposed to every pair that voted near the bin) keeps accidental
/// pairings from contaminating the transform.
fn score_bin(
    template: &Template,
    observed: &[Minutia],
    config: &MatchConfig,
    (rb, xb, yb): BinKey,
    obs_bound: f64,
    work: &mut Workspace,
) -> MatchResult {
    let mut rotation = config.fold(rb as f64 * config.rotation_bin_rad);
    let mut translation = (
        xb as f64 * config.translation_bin_mm,
        yb as f64 * config.translation_bin_mm,
    );

    let iterations = config.refine_iterations.max(1);
    for iteration in 0..iterations {
        // Generous tolerances while the transform is still coarse.
        let slack = match iterations - 1 - iteration {
            0 => 1.0,
            1 => 1.3,
            _ => 1.6,
        };
        work.transform(template, rotation, translation);
        work.correspond(
            template,
            observed,
            config.pos_tolerance_mm * slack,
            config.angle_tolerance_rad * slack,
            config,
        );
        if work.pairs.is_empty() {
            return MatchResult::no_match();
        }
        // Re-estimate the transform from the matched pairs only, by a
        // circular mean with the period the angle convention demands:
        // doubled angles for pi-periodic orientations.
        let (mut sin_sum, mut cos_sum) = (0.0f64, 0.0);
        for &(ti, oi) in &work.pairs {
            let d = observed[oi].angle - template.minutiae()[ti].angle;
            let (s, c) = if config.angle_mod_pi {
                (2.0 * d).sin_cos()
            } else {
                d.sin_cos()
            };
            sin_sum += s;
            cos_sum += c;
        }
        rotation = if config.angle_mod_pi {
            // Doubled-angle circular mean, kept in the signed [−π/2, π/2)
            // range so near-identity rotations stay near zero.
            config.fold(0.5 * sin_sum.atan2(cos_sum))
        } else {
            normalize_angle(sin_sum.atan2(cos_sum))
        };
        let (s, c) = rotation.sin_cos();
        let (mut tx, mut ty) = (0.0f64, 0.0);
        for &(ti, oi) in &work.pairs {
            let tm = &template.minutiae()[ti];
            tx += observed[oi].pos.x - (tm.pos.x * c - tm.pos.y * s);
            ty += observed[oi].pos.y - (tm.pos.x * s + tm.pos.y * c);
        }
        translation = (tx / work.pairs.len() as f64, ty / work.pairs.len() as f64);
    }

    // --- Final correspondence count under exact tolerances ---------------
    work.transform(template, rotation, translation);
    work.correspond(
        template,
        observed,
        config.pos_tolerance_mm,
        config.angle_tolerance_rad,
        config,
    );
    let matched = work.pairs.len();

    // --- Normalization ---------------------------------------------------
    // The classic quadratic minutiae score: matched^2 over the product of
    // the candidate set sizes. Accidental alignments that pair only a few
    // minutiae are punished much harder than by a linear ratio, which is
    // what keeps impostor scores low on small partial prints.
    let bound = obs_bound + config.pos_tolerance_mm;
    // Squared radii clearly inside or outside `bound` decide without
    // `hypot`: the sum of squares is within 3u of x² + y² and `hypot`
    // within 1 ulp of its root, far inside the 1e-9 band.
    let band = (1e-100..=1e100)
        .contains(&bound)
        .then_some((bound * bound * (1.0 - 1e-9), bound * bound * (1.0 + 1e-9)));
    let in_region = work
        .positions()
        .filter(|&(x, y)| {
            let r2 = x * x + y * y;
            match band {
                Some((inside, _)) if r2 <= inside => true,
                Some((_, outside)) if r2 >= outside => false,
                _ => x.hypot(y) <= bound,
            }
        })
        .count()
        .max(config.min_minutiae);
    let denom = (observed.len() * in_region) as f64;
    let score = ((matched * matched) as f64 / denom).clamp(0.0, 1.0);

    MatchResult {
        score,
        matched,
        rotation,
        translation,
    }
}

/// Radius of the observation cloud around the sensor-frame origin.
fn bounding_radius(minutiae: &[Minutia]) -> f64 {
    minutiae
        .iter()
        .map(|m| m.pos.x.hypot(m.pos.y))
        .fold(0.0, f64::max)
}

#[cfg(target_arch = "x86_64")]
mod avx2;

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enroll::enroll;
    use crate::minutiae::CaptureWindow;
    use crate::pattern::FingerPattern;
    use crate::quality::CaptureConditions;
    use btd_sim::geom::MmPoint;
    use btd_sim::rng::SimRng;
    use proptest::prelude::*;

    /// One template matched with a fresh scratch.
    fn match_observation(
        template: &Template,
        observed: &[Minutia],
        config: &MatchConfig,
    ) -> MatchResult {
        MatchScratch::new()
            .best_match(&TemplateSet::new(vec![template.clone()]), observed, config)
            .expect("one template")
            .1
    }

    fn genuine_and_impostor_scores(window_size: f64, trials: u64) -> (Vec<f64>, Vec<f64>) {
        let cfg = MatchConfig::default();
        let mut genuine = Vec::new();
        let mut impostor = Vec::new();
        for trial in 0..trials {
            let owner = FingerPattern::generate(trial, 0);
            let other = FingerPattern::generate(10_000 + trial, 0);
            let mut rng = SimRng::seed_from(500 + trial);
            let template = enroll(&owner, 5, &mut rng);
            let window = CaptureWindow::centered(
                MmPoint::new(rng.range_f64(-2.0, 2.0), rng.range_f64(-3.0, 3.0)),
                window_size,
                window_size,
            );
            let obs_g = owner.observe(&window, &CaptureConditions::ideal(), &mut rng);
            genuine.push(match_observation(&template, &obs_g.minutiae, &cfg).score);
            let obs_i = other.observe(&window, &CaptureConditions::ideal(), &mut rng);
            impostor.push(match_observation(&template, &obs_i.minutiae, &cfg).score);
        }
        (genuine, impostor)
    }

    #[test]
    fn genuine_scores_dominate_impostor_scores() {
        let (genuine, impostor) = genuine_and_impostor_scores(8.0, 12);
        let g_mean = genuine.iter().sum::<f64>() / genuine.len() as f64;
        let i_mean = impostor.iter().sum::<f64>() / impostor.len() as f64;
        assert!(
            g_mean > i_mean + 0.25,
            "genuine {g_mean:.3} vs impostor {i_mean:.3}"
        );
    }

    #[test]
    fn default_threshold_separates_most_cases() {
        let cfg = MatchConfig::default();
        let (genuine, impostor) = genuine_and_impostor_scores(8.0, 12);
        let frr = genuine.iter().filter(|s| **s < cfg.score_threshold).count();
        let far = impostor
            .iter()
            .filter(|s| **s >= cfg.score_threshold)
            .count();
        assert!(frr <= 3, "false rejects: {frr}/12 (scores {genuine:?})");
        assert!(far <= 1, "false accepts: {far}/12 (scores {impostor:?})");
    }

    #[test]
    fn recovers_the_applied_rotation() {
        let finger = FingerPattern::generate(77, 0);
        let mut rng = SimRng::seed_from(4);
        let template = enroll(&finger, 5, &mut rng);
        let window = CaptureWindow::centered(MmPoint::new(0.0, 0.0), 9.0, 9.0);
        let obs = finger.observe(&window, &CaptureConditions::ideal(), &mut rng);
        let result = match_observation(&template, &obs.minutiae, &MatchConfig::default());
        assert!(result.matched >= 4);
        let err = angle_distance(result.rotation, obs.true_rotation);
        assert!(err < 0.2, "rotation error {err}");
    }

    #[test]
    fn too_few_minutiae_is_no_match() {
        let finger = FingerPattern::generate(78, 0);
        let mut rng = SimRng::seed_from(5);
        let template = enroll(&finger, 5, &mut rng);
        let obs = [Minutia::new(
            MmPoint::new(0.0, 0.0),
            0.0,
            crate::minutiae::MinutiaKind::Ending,
        )];
        let result = match_observation(&template, &obs, &MatchConfig::default());
        assert_eq!(result, MatchResult::no_match());
    }

    #[test]
    fn empty_observation_is_no_match() {
        let finger = FingerPattern::generate(79, 0);
        let mut rng = SimRng::seed_from(6);
        let template = enroll(&finger, 5, &mut rng);
        let result = match_observation(&template, &[], &MatchConfig::default());
        assert_eq!(result.score, 0.0);
    }

    #[test]
    fn smaller_windows_lower_scores_but_still_match() {
        let (g_large, _) = genuine_and_impostor_scores(10.0, 8);
        let (g_small, _) = genuine_and_impostor_scores(5.0, 8);
        let large_mean = g_large.iter().sum::<f64>() / g_large.len() as f64;
        let small_mean = g_small.iter().sum::<f64>() / g_small.len() as f64;
        // Small patches carry fewer minutiae; scores drop but stay usable.
        assert!(small_mean > 0.2, "small-window mean {small_mean}");
        assert!(large_mean > 0.4, "large-window mean {large_mean}");
    }

    /// Every bit of a result, for exact comparison.
    fn result_bits(r: &MatchResult) -> [u64; 5] {
        [
            r.score.to_bits(),
            r.matched as u64,
            r.rotation.to_bits(),
            r.translation.0.to_bits(),
            r.translation.1.to_bits(),
        ]
    }

    /// Folds every bit of a result into `h`.
    fn fold_result(h: u64, r: &MatchResult) -> u64 {
        result_bits(r).iter().fold(h, |h, &w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29)
        })
    }

    /// A fixed corpus of (template, observation) cases: genuine and
    /// impostor observations at 8 mm and 4 mm, observations cut to exactly
    /// `min_minutiae`, and template-derived observations whose directions
    /// sit on the 0/2π and ±π/2 folds.
    fn golden_corpus() -> Vec<(Template, Vec<Minutia>)> {
        use std::f64::consts::{FRAC_PI_2, PI, TAU};
        let mut cases = Vec::new();
        for trial in 0..6u64 {
            let owner = FingerPattern::generate(trial, 0);
            let other = FingerPattern::generate(20_000 + trial, 0);
            let mut rng = SimRng::seed_from(900 + trial);
            let template = enroll(&owner, 5, &mut rng);
            let conditions = if trial % 2 == 0 {
                CaptureConditions::ideal()
            } else {
                CaptureConditions {
                    pressure: 0.3,
                    moisture: 0.6,
                    ..CaptureConditions::ideal()
                }
            };
            for size in [8.0, 4.0] {
                let window = CaptureWindow::centered(
                    MmPoint::new(rng.range_f64(-2.0, 2.0), rng.range_f64(-3.0, 3.0)),
                    size,
                    size,
                );
                let genuine = owner.observe(&window, &conditions, &mut rng).minutiae;
                let impostor = other.observe(&window, &conditions, &mut rng).minutiae;
                cases.push((template.clone(), genuine.clone()));
                cases.push((template.clone(), impostor));
                if size == 8.0 {
                    let min = MatchConfig::default().min_minutiae;
                    cases.push((template.clone(), genuine[..min.min(genuine.len())].to_vec()));
                }
            }
            // The template's own minutiae near the origin, rotated so that
            // Hough angle differences land on the fold boundaries.
            let near: Vec<Minutia> = template
                .minutiae()
                .iter()
                .filter(|m| m.pos.x.hypot(m.pos.y) < 4.5)
                .copied()
                .collect();
            for theta in [0.0, FRAC_PI_2, -FRAC_PI_2, PI] {
                let obs = near
                    .iter()
                    .map(|m| m.transformed(theta, 0.3 * trial as f64, -0.2))
                    .collect();
                cases.push((template.clone(), obs));
            }
            let edges = [
                0.0,
                f64::EPSILON,
                TAU - 1e-9,
                FRAC_PI_2 - 1e-9,
                FRAC_PI_2,
                FRAC_PI_2 + 1e-9,
                3.0 * FRAC_PI_2 - 1e-9,
                3.0 * FRAC_PI_2 + 1e-9,
            ];
            let obs = near
                .iter()
                .enumerate()
                .map(|(i, m)| Minutia {
                    angle: edges[i % edges.len()],
                    ..*m
                })
                .collect();
            cases.push((template, obs));
        }
        cases
    }

    #[test]
    fn golden_results_are_bit_exact() {
        let corpus = golden_corpus();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut accepted = 0;
        for cfg in [MatchConfig::default(), MatchConfig::for_image_extraction()] {
            for (template, obs) in &corpus {
                let r = match_observation(template, obs, &cfg);
                accepted += usize::from(r.is_accepted(&cfg));
                h = fold_result(h, &r);
            }
        }
        assert_eq!(corpus.len(), 6 * 10);
        assert!(accepted > 10, "corpus too easy to reject: {accepted}");
        assert_eq!(
            h, 0x57db_5bee_e02c_8a03,
            "golden matcher digest moved: {h:#018x}"
        );
    }

    #[test]
    fn result_accept_uses_threshold_and_match_count() {
        let cfg = MatchConfig::default();
        let good = MatchResult {
            score: cfg.score_threshold + 0.01,
            matched: cfg.min_match_count,
            ..MatchResult::no_match()
        };
        let low_score = MatchResult {
            score: cfg.score_threshold - 0.01,
            matched: cfg.min_match_count,
            ..MatchResult::no_match()
        };
        let too_few_pairs = MatchResult {
            score: cfg.score_threshold + 0.2,
            matched: cfg.min_match_count - 1,
            ..MatchResult::no_match()
        };
        assert!(good.is_accepted(&cfg));
        assert!(!low_score.is_accepted(&cfg));
        assert!(!too_few_pairs.is_accepted(&cfg));
    }

    /// Angles inside and outside `[0, 2π)`, on the folds, signed zeros and
    /// large magnitudes (the `angle` field is public, so any `f64` can
    /// reach the matcher).
    fn arb_angle() -> impl Strategy<Value = f64> {
        use std::f64::consts::{FRAC_PI_2, PI, TAU};
        prop_oneof![
            0.0f64..TAU,
            -20.0f64..20.0,
            Just(0.0),
            Just(-0.0),
            Just(TAU),
            Just(-TAU),
            Just(PI),
            Just(-PI),
            Just(FRAC_PI_2),
            Just(-FRAC_PI_2),
            Just(TAU - 1e-12),
            Just(1e9 + 0.5),
            Just(-3e7),
        ]
    }

    /// Minutiae on a half-millimetre grid (so many candidate distances
    /// tie) or anywhere in a 12 mm square.
    fn arb_minutia() -> impl Strategy<Value = Minutia> {
        let coord = || {
            prop_oneof![
                (0u32..25).prop_map(|i| (i as f64 - 12.0) * 0.5),
                -6.0f64..6.0
            ]
        };
        (coord(), coord(), arb_angle(), any::<bool>()).prop_map(|(x, y, angle, ending)| Minutia {
            pos: MmPoint::new(x, y),
            angle,
            kind: if ending {
                crate::minutiae::MinutiaKind::Ending
            } else {
                crate::minutiae::MinutiaKind::Bifurcation
            },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        #[test]
        fn matches_reference_bit_for_bit(
            template in proptest::collection::vec(arb_minutia(), 1..40),
            extra in proptest::collection::vec(arb_minutia(), 0..10),
            picks in proptest::collection::vec(0usize..64, 0..32),
            pose in (arb_angle(), -3.0f64..3.0, -3.0f64..3.0),
            knobs in (0usize..4, 0usize..3, any::<bool>(), 0usize..6, 0usize..4, any::<bool>())
        ) {
            let (bins, refine, mod_pi, min_minutiae, copies, lattice) = knobs;
            // On the lattice, poses and bin centres are exact multiples of
            // 0.5 mm, so grid minutiae produce exactly tied distances
            // between distinct pairs.
            let (theta, tx, ty) = if lattice {
                (0.0, (pose.1 * 2.0).round() * 0.5, (pose.2 * 2.0).round() * 0.5)
            } else {
                pose
            };
            // A partly genuine observation: picked template minutiae under
            // a rigid transform (repeated picks are duplicates), then
            // unrelated minutiae, then copies of the first few entries.
            let mut observed: Vec<Minutia> = picks
                .iter()
                .map(|&i| template[i % template.len()].transformed(theta, tx, ty))
                .collect();
            observed.extend(extra);
            observed.extend_from_within(..copies.min(observed.len()));
            let base = if mod_pi {
                MatchConfig::for_image_extraction()
            } else {
                MatchConfig::default()
            };
            let cfg = MatchConfig {
                hough_bins_evaluated: [0, 1, 4, 64][bins],
                refine_iterations: [0, 1, 3][refine],
                min_minutiae,
                translation_bin_mm: if lattice { 0.5 } else { base.translation_bin_mm },
                ..base
            };
            let template = Template::new(0, 0, template);
            let fast = match_observation(&template, &observed, &cfg);
            let slow = reference::match_observation(&template, &observed, &cfg);
            prop_assert_eq!(result_bits(&fast), result_bits(&slow));
        }
    }

    /// Every bin with its votes from the production vote, ranked as
    /// `reference::hough_votes` ranks them.
    fn vote_table(
        template: &Template,
        observed: &[Minutia],
        cfg: &MatchConfig,
    ) -> Vec<(u32, BinKey)> {
        let all = MatchConfig {
            hough_bins_evaluated: usize::MAX,
            min_minutiae: 0,
            ..*cfg
        };
        let mut scratch = MatchScratch::new();
        scratch.best_match(&TemplateSet::new(vec![template.clone()]), observed, &all);
        scratch.top
    }

    /// Steps `v` by single ulps (at most 64) while that brings `f(v)`
    /// nearer `target`.
    fn aim(mut v: f64, target: f64, f: impl Fn(f64) -> f64) -> f64 {
        let miss = |v: f64| (f(v) - target).abs();
        for _ in 0..64 {
            let (up, down) = (v.next_up(), v.next_down());
            if miss(up) < miss(v) && miss(up) <= miss(down) {
                v = up;
            } else if miss(down) < miss(v) {
                v = down;
            } else {
                break;
            }
        }
        v
    }

    /// `n` (template, observed) pairs, each aimed so that its exact
    /// rotation, x or y translation (in turn), in bin units, lands on a
    /// half-integer or within 1e-15 to 9e-13 of one (checked inside the
    /// certified range; outside it, as near as the floats allow).
    /// Positions are offset by `(shift, −shift)` mm and directions by
    /// `turn` rad.
    fn boundary_pairs(
        cfg: &MatchConfig,
        rng: &mut SimRng,
        n: usize,
        shift: f64,
        turn: f64,
    ) -> (Vec<Minutia>, Vec<Minutia>) {
        use std::f64::consts::TAU;
        let point = |rng: &mut SimRng| {
            MmPoint::new(
                rng.range_f64(-6.0, 6.0) + shift,
                rng.range_f64(-6.0, 6.0) - shift,
            )
        };
        let (mut template, mut observed) = (Vec::new(), Vec::new());
        for i in 0..n {
            let t = Minutia {
                pos: point(rng),
                angle: rng.range_f64(0.0, TAU) + turn,
                kind: crate::minutiae::MinutiaKind::Ending,
            };
            let o = Minutia {
                pos: point(rng),
                angle: rng.range_f64(0.0, TAU) + turn,
                ..t
            };
            let offset = [0.0, 1e-15, -1e-15, 1e-13, -1e-13, 9e-13, -9e-13][i % 7];
            let axis = i % 3;
            let coord = |o: &Minutia| {
                let (r, x, y) = reference::pair_coordinates(cfg, &t, o);
                [r, x, y][axis]
            };
            // Moves the observed minutia's direction, x or y so that its
            // coordinate on `axis` lands on `target`.
            let place = |target: f64| {
                let now = coord(&o);
                let o = match axis {
                    0 => {
                        let start = o.angle + (target - now) * cfg.rotation_bin_rad;
                        let angle = aim(start, target, |a| coord(&Minutia { angle: a, ..o }));
                        Minutia { angle, ..o }
                    }
                    1 => {
                        let start = o.pos.x + (target - now) * cfg.translation_bin_mm;
                        let at = |x| MmPoint::new(x, o.pos.y);
                        let x = aim(start, target, |x| coord(&Minutia { pos: at(x), ..o }));
                        Minutia { pos: at(x), ..o }
                    }
                    _ => {
                        let start = o.pos.y + (target - now) * cfg.translation_bin_mm;
                        let at = |y| MmPoint::new(o.pos.x, y);
                        let y = aim(start, target, |y| coord(&Minutia { pos: at(y), ..o }));
                        Minutia { pos: at(y), ..o }
                    }
                };
                (o, coord(&o))
            };
            // The half-integer just above the current coordinate, or a
            // neighbour where that one is outside the rotation's fold.
            let above = coord(&o).floor() + 0.5;
            let (half, (o, aimed)) = [above, above - 1.0, above + 1.0]
                .into_iter()
                .map(|half| (half, place(half + offset)))
                .find(|(half, (_, aimed))| (aimed - half).abs() < 1e-6)
                .unwrap_or_else(|| (above, place(above + offset)));
            if shift == 0.0 && turn == 0.0 && FilteredVote::new(cfg).is_some() {
                assert!(
                    (aimed - half).abs() <= 1e-12,
                    "pair {i} missed: {aimed} vs {half}"
                );
            }
            template.push(t);
            observed.push(o);
        }
        (template, observed)
    }

    /// The production vote table and results, for a few bin counts, equal
    /// the reference's bit for bit.
    fn assert_votes_exact(template: Vec<Minutia>, observed: &[Minutia], cfg: &MatchConfig) {
        let template = Template::new(0, 0, template);
        assert_eq!(
            vote_table(&template, observed, cfg),
            reference::hough_votes(&template, observed, cfg),
            "vote tables differ (mod pi: {})",
            cfg.angle_mod_pi
        );
        for bins in [1, 4] {
            let cfg = MatchConfig {
                hough_bins_evaluated: bins,
                ..*cfg
            };
            assert_eq!(
                result_bits(&match_observation(&template, observed, &cfg)),
                result_bits(&reference::match_observation(&template, observed, &cfg)),
            );
        }
    }

    #[test]
    fn filtered_vote_is_exact_at_rounding_boundaries() {
        for cfg in [MatchConfig::default(), MatchConfig::for_image_extraction()] {
            let mut rng = SimRng::seed_from(0xB0DE);
            for _ in 0..6 {
                let (template, observed) = boundary_pairs(&cfg, &mut rng, 42, 0.0, 0.0);
                assert_votes_exact(template, &observed, &cfg);
            }
        }
    }

    #[test]
    fn inputs_outside_the_certified_range_vote_exactly() {
        for cfg in [MatchConfig::default(), MatchConfig::for_image_extraction()] {
            let mut rng = SimRng::seed_from(0x0FF);
            // Positions a kilometre and a thousand kilometres out, with
            // aimed boundaries.
            for shift in [1e6, 1e6, 1e9, 1e9] {
                let (template, observed) = boundary_pairs(&cfg, &mut rng, 42, shift, 0.0);
                assert_votes_exact(template, &observed, &cfg);
            }
            // Directions far outside [0, 2π): both sides near ±1e9 rad, or
            // one side there and the other in range.
            for turn in [1e9, -1e9] {
                let (template, observed) = boundary_pairs(&cfg, &mut rng, 42, 0.0, turn);
                assert_votes_exact(template, &observed, &cfg);
                let (template, mut observed) = boundary_pairs(&cfg, &mut rng, 42, 0.0, 0.0);
                for o in observed.iter_mut().step_by(2) {
                    o.angle += turn;
                }
                assert_votes_exact(template, &observed, &cfg);
            }
            // Bins narrower than certified, with in-range inputs.
            let narrow = MatchConfig {
                rotation_bin_rad: 1e-5,
                translation_bin_mm: 1e-4,
                ..cfg
            };
            let (template, observed) = boundary_pairs(&narrow, &mut rng, 42, 0.0, 0.0);
            assert_votes_exact(template, &observed, &narrow);
            // NaN directions on either side.
            let (mut template, mut observed) = boundary_pairs(&cfg, &mut rng, 42, 0.0, 0.0);
            template[3].angle = f64::NAN;
            observed[5].angle = f64::NAN;
            assert_votes_exact(template, &observed, &cfg);
        }
    }

    /// The `keep` best bins the production vote leaves for scoring.
    fn top_bins(
        template: &Template,
        observed: &[Minutia],
        cfg: &MatchConfig,
        keep: usize,
    ) -> Vec<(u32, BinKey)> {
        let cfg = MatchConfig {
            hough_bins_evaluated: keep,
            min_minutiae: 0,
            ..*cfg
        };
        let mut scratch = MatchScratch::new();
        scratch.best_match(&TemplateSet::new(vec![template.clone()]), observed, &cfg);
        scratch.top
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The whole vote table, and the best `keep` bins for several
        /// counts, equal the reference's ranking in both angle modes:
        /// pairs aimed at rounding boundaries (which the filter must send
        /// to the exact key), stray minutiae, and repeated observed
        /// minutiae, whose every bin gets at least two votes.
        #[test]
        fn vote_and_top_bins_match_reference_on_aimed_pairs(
            seed in any::<u64>(),
            aimed in 1usize..24,
            stray in 0usize..8,
            copies in 0usize..16,
            mod_pi in any::<bool>()
        ) {
            use std::f64::consts::TAU;
            let cfg = if mod_pi {
                MatchConfig::for_image_extraction()
            } else {
                MatchConfig::default()
            };
            let mut rng = SimRng::seed_from(seed);
            let (template, mut observed) = boundary_pairs(&cfg, &mut rng, aimed, 0.0, 0.0);
            for _ in 0..stray {
                observed.push(Minutia {
                    pos: MmPoint::new(rng.range_f64(-6.0, 6.0), rng.range_f64(-6.0, 6.0)),
                    angle: rng.range_f64(0.0, TAU),
                    kind: crate::minutiae::MinutiaKind::Bifurcation,
                });
            }
            observed.extend_from_within(..copies.min(observed.len()));
            let template = Template::new(0, 0, template);
            let reference = reference::hough_votes(&template, &observed, &cfg);
            prop_assert_eq!(&vote_table(&template, &observed, &cfg), &reference);
            for keep in [1, 2, 4, 8, 32] {
                prop_assert_eq!(
                    &top_bins(&template, &observed, &cfg, keep)[..],
                    &reference[..keep.min(reference.len())]
                );
            }
        }
    }

    #[test]
    fn fmod_free_fold_is_bit_exact() {
        use std::f64::consts::{FRAC_PI_2, PI, TAU};
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        for a in [
            0.0,
            -0.0,
            PI,
            -PI,
            below(PI),
            -below(PI),
            FRAC_PI_2,
            -FRAC_PI_2,
            TAU,
            -TAU,
            below(TAU),
            -below(TAU),
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NAN,
        ] {
            for cfg in [MatchConfig::default(), MatchConfig::for_image_extraction()] {
                assert_eq!(
                    cfg.fold(a).to_bits(),
                    reference::fold(&cfg, a).to_bits(),
                    "fold({a:e})"
                );
            }
        }
    }

    /// A key-pass backend: writes the keys of every (template, observed)
    /// pair, as [`FilteredVote::key_pass`] does.
    type KeyPass = fn(
        &FilteredVote,
        bool,
        &[Minutia],
        &[(f64, f64)],
        &[ObservedLanes],
        usize,
        &mut [(u32, PackedKey)],
    );

    /// A correspondence-gate backend, as `gate_scalar`.
    type Gate = fn(&[PositionLanes], usize, &[Minutia], f64, &mut dyn FnMut(usize, usize, f64));

    /// Every key-pass and gate backend this CPU can run, by name. The AVX2
    /// ones are left out only when the CPU lacks AVX2.
    fn backends() -> Vec<(&'static str, KeyPass, Gate)> {
        let mut out: Vec<(&'static str, KeyPass, Gate)> = vec![(
            "scalar",
            |vote, mod_pi, template, trig, observed, count, bins| {
                if mod_pi {
                    vote.key_pass_scalar::<true>(template, trig, observed, count, bins);
                } else {
                    vote.key_pass_scalar::<false>(template, trig, observed, count, bins);
                }
            },
            |positions, count, observed, gate, mut visit| {
                gate_scalar(positions, count, observed, gate, &mut visit);
            },
        )];
        #[cfg(target_arch = "x86_64")]
        if avx2::available() {
            out.push((
                "avx2",
                |vote, mod_pi, template, trig, observed, count, bins| {
                    assert!(avx2::key_pass(
                        vote, mod_pi, template, trig, observed, count, bins
                    ));
                },
                |positions, count, observed, gate, mut visit| {
                    assert!(avx2::gate(positions, count, observed, gate, &mut visit));
                },
            ));
        } else {
            eprintln!("no AVX2 on this CPU: AVX2 kernels not tested");
        }
        out
    }

    /// The key of every pair of `template` × `observed` under `cfg`, on
    /// one key-pass backend.
    fn keys_with(
        key_pass: KeyPass,
        cfg: &MatchConfig,
        template: &[Minutia],
        observed: &[Minutia],
    ) -> Vec<PackedKey> {
        let vote = FilteredVote::new(cfg).expect("certified bins");
        let trig: Vec<_> = template.iter().map(|m| m.angle.sin_cos()).collect();
        let lanes: Vec<_> = observed.chunks(LANES).map(ObservedLanes::new).collect();
        let mut bins = vec![(0, 0); template.len() * observed.len()];
        if !observed.is_empty() {
            key_pass(
                &vote,
                cfg.angle_mod_pi,
                template,
                &trig,
                &lanes,
                observed.len(),
                &mut bins,
            );
        }
        bins.into_iter().map(|(_, key)| key).collect()
    }

    /// Every gate visit for `template` under `pose` against `observed`,
    /// on one gate backend, for a few gates: the gate, observed and
    /// template index and the bits of the squared distance.
    fn gate_visits(
        gate_fn: Gate,
        template: &[Minutia],
        observed: &[Minutia],
        (theta, tx, ty): (f64, f64, f64),
    ) -> Vec<(u64, usize, usize, u64)> {
        let mut work = Workspace::default();
        work.transform(&Template::new(0, 0, template.to_vec()), theta, (tx, ty));
        let mut visits = Vec::new();
        // Gates on some pairs' own squared distances, and just below them,
        // where an ulp of difference between the backends would show.
        let on_pairs = observed.iter().take(3).flat_map(|o| {
            let d2 = squared_distance(o, &work.positions, 0);
            [d2, d2.next_down()]
        });
        let gates = [
            squared_gate(0.9),
            squared_gate(0.9 * 1.6),
            0.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for gate in gates.into_iter().chain(on_pairs) {
            gate_fn(
                &work.positions,
                work.count,
                observed,
                gate,
                &mut |oi, ti, d2| visits.push((gate.to_bits(), oi, ti, d2.to_bits())),
            );
        }
        visits
    }

    /// Both kernels give the same bits on every backend, in both angle
    /// modes, and every key the filter does not mark is `exact_key`'s
    /// where the inputs are certified. The messages name the backend, not
    /// the template-derived values.
    fn assert_backends_agree(template: &[Minutia], observed: &[Minutia]) {
        let backends = backends();
        let (_, scalar_keys, scalar_gate) = backends[0];
        for cfg in [MatchConfig::default(), MatchConfig::for_image_extraction()] {
            let keys = keys_with(scalar_keys, &cfg, template, observed);
            if FilteredVote::certifies(template) && FilteredVote::certifies(observed) {
                for (i, &key) in keys.iter().enumerate() {
                    let (t, o) = (&template[i / observed.len()], &observed[i % observed.len()]);
                    if key != EXACT {
                        assert!(unpack(key) == exact_key(&cfg, t, o), "pair {i}");
                    }
                }
            }
            for &(name, key_pass, _) in &backends[1..] {
                assert!(
                    keys_with(key_pass, &cfg, template, observed) == keys,
                    "{name} keys differ (mod pi: {})",
                    cfg.angle_mod_pi
                );
            }
        }
        for pose in [(0.0, 0.0, 0.0), (0.7, 1.3, -0.4), (-2.9, 0.0, 2.5)] {
            let visits = gate_visits(scalar_gate, template, observed, pose);
            for &(name, _, gate) in &backends[1..] {
                assert!(
                    gate_visits(gate, template, observed, pose) == visits,
                    "{name} gate masks differ"
                );
            }
        }
    }

    #[test]
    fn backends_agree_on_the_golden_corpus_and_odd_counts() {
        for (template, observed) in golden_corpus() {
            assert_backends_agree(template.minutiae(), &observed);
            // Every observation length mod 4, so the padding lanes of both
            // sides' last quad are exercised.
            for n in 1..=9.min(observed.len()) {
                assert_backends_agree(&template.minutiae()[..n + 2], &observed[..n]);
            }
        }
    }

    #[test]
    fn backends_agree_on_fleet_touches() {
        let mut rng = SimRng::seed_from(0xF1EE7);
        let templates: Vec<Template> = (0..3)
            .map(|finger| enroll(&FingerPattern::generate(800, finger), 5, &mut rng))
            .collect();
        // The fleet's touches: 4–8 mm windows anywhere on the pad, uneven
        // conditions, two in three from the owner and the rest from a
        // stranger.
        for i in 0..60u64 {
            let user = if i % 3 == 2 { 70_000 + i } else { 800 };
            let pattern = FingerPattern::generate(user, (i % 3) as u8);
            let side = rng.range_f64(4.0, 8.0);
            let window = CaptureWindow::centered(
                MmPoint::new(rng.range_f64(-3.0, 3.0), rng.range_f64(-4.0, 4.0)),
                side,
                side,
            );
            let conditions = CaptureConditions {
                speed_mm_s: rng.range_f64(0.0, 30.0),
                pressure: rng.range_f64(0.3, 1.0),
                coverage: rng.range_f64(0.6, 1.0),
                moisture: rng.range_f64(0.2, 0.7),
            };
            let observed = pattern.observe(&window, &conditions, &mut rng).minutiae;
            assert_backends_agree(templates[i as usize % 3].minutiae(), &observed);
        }
    }

    #[test]
    fn backends_agree_on_aimed_and_out_of_range_pairs() {
        for cfg in [MatchConfig::default(), MatchConfig::for_image_extraction()] {
            let mut rng = SimRng::seed_from(0xB0DE);
            for n in [42, 41, 7, 1] {
                let (template, observed) = boundary_pairs(&cfg, &mut rng, n, 0.0, 0.0);
                assert_backends_agree(&template, &observed);
            }
            // Outside the certified range the call votes through
            // `exact_key` and the key pass never runs; the kernels still
            // agree, marking every pair they cannot round. Positions out
            // to 1e4 mm keep the packed fields in range.
            let (template, observed) = boundary_pairs(&cfg, &mut rng, 42, 5e3, 0.0);
            assert!(!FilteredVote::certifies(&template));
            assert_backends_agree(&template, &observed);
            for turn in [1e9, -1e9] {
                let (template, mut observed) = boundary_pairs(&cfg, &mut rng, 42, 0.0, 0.0);
                for o in observed.iter_mut().step_by(2) {
                    o.angle += turn;
                }
                assert!(!FilteredVote::certifies(&observed));
                assert_backends_agree(&template, &observed);
            }
            let (mut template, mut observed) = boundary_pairs(&cfg, &mut rng, 42, 0.0, 0.0);
            template[3].angle = f64::NAN;
            template[4].pos = MmPoint::new(f64::NAN, 1.0);
            observed[5].angle = f64::NAN;
            observed[6].pos = MmPoint::new(2.0, f64::NAN);
            assert!(!FilteredVote::certifies(&template));
            assert_backends_agree(&template, &observed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn backends_agree_on_arbitrary_minutiae(
            template in proptest::collection::vec(arb_minutia(), 1..40),
            observed in proptest::collection::vec(arb_minutia(), 1..14),
        ) {
            assert_backends_agree(&template, &observed);
        }
    }
}
