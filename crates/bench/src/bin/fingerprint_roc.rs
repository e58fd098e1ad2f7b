//! Partial-fingerprint matcher ROC (supports the paper's §IV-A assumption
//! that partial-print matching "is robust enough").
//!
//! Generates genuine and impostor match-score populations as a function of
//! the sensor patch size and reports FAR/FRR/EER.
//!
//! ```sh
//! cargo run -p btd-bench --bin fingerprint_roc
//! ```

use btd_bench::report::{banner, Table};
use btd_fingerprint::enroll::enroll;
use btd_fingerprint::matcher::{MatchConfig, MatchScratch, TemplateSet};
use btd_fingerprint::minutiae::{CaptureWindow, Minutia};
use btd_fingerprint::pattern::FingerPattern;
use btd_fingerprint::quality::CaptureConditions;
use btd_fingerprint::roc::RocAnalysis;
use btd_sim::geom::MmPoint;
use btd_sim::rng::SimRng;

const TRIALS: u64 = 120;

fn populations(window_mm: f64, seed: u64) -> RocAnalysis {
    let cfg = MatchConfig::default();
    let mut genuine = Vec::new();
    let mut impostor = Vec::new();
    let mut scratch = MatchScratch::new();
    for t in 0..TRIALS {
        let mut rng = SimRng::seed_from(seed + t);
        let owner = FingerPattern::generate(t, 0);
        let other = FingerPattern::generate(100_000 + t, 0);
        let template = TemplateSet::new(vec![enroll(&owner, 5, &mut rng)]);
        let window = CaptureWindow::centered(
            MmPoint::new(rng.range_f64(-2.0, 2.0), rng.range_f64(-3.0, 3.0)),
            window_mm,
            window_mm,
        );
        let g = owner.observe(&window, &CaptureConditions::ideal(), &mut rng);
        genuine.push(score(&mut scratch, &template, &g.minutiae, &cfg));
        let i = other.observe(&window, &CaptureConditions::ideal(), &mut rng);
        impostor.push(score(&mut scratch, &template, &i.minutiae, &cfg));
    }
    RocAnalysis::new(genuine, impostor)
}

/// The match score of `observed` against the one template of `template`.
fn score(
    scratch: &mut MatchScratch,
    template: &TemplateSet,
    observed: &[Minutia],
    cfg: &MatchConfig,
) -> f64 {
    let (_, result) = scratch
        .best_match(template, observed, cfg)
        .expect("one template");
    result.score
}

fn main() {
    banner(&format!(
        "partial-print matcher ROC ({TRIALS} genuine + {TRIALS} impostor pairs per row)"
    ));
    let threshold = MatchConfig::default().score_threshold;
    let mut table = Table::new([
        "patch size",
        "genuine mean",
        "impostor mean",
        "separation (d')",
        "EER",
        &format!("FRR @ t={threshold}"),
        &format!("FAR @ t={threshold}"),
    ]);
    for window_mm in [4.0, 6.0, 8.0, 10.0, 12.0] {
        let roc = populations(window_mm, 1_000 + window_mm as u64);
        let (eer, _) = roc.eer();
        table.row([
            format!("{window_mm:.0} x {window_mm:.0} mm"),
            format!("{:.3}", roc.genuine_mean()),
            format!("{:.3}", roc.impostor_mean()),
            format!("{:.2}", roc.separation()),
            format!("{:.1}%", 100.0 * eer),
            format!("{:.1}%", 100.0 * roc.frr_at(threshold)),
            format!("{:.1}%", 100.0 * roc.far_at(threshold)),
        ]);
    }
    table.print();
    println!(
        "\nshape check: separation grows with patch size; at the deployed 8 mm patch \
         the operating point keeps FAR near zero while FRR stays low enough for \
         opportunistic use (failures are retried on the next touch)."
    );

    banner("quality sensitivity at the deployed 8 mm patch");
    let mut table = Table::new(["capture condition", "genuine mean", "FRR @ threshold"]);
    for (name, mutate) in [
        (
            "ideal",
            Box::new(|_c: &mut CaptureConditions| {}) as Box<dyn Fn(&mut CaptureConditions)>,
        ),
        (
            "moderate speed (30 mm/s)",
            Box::new(|c: &mut CaptureConditions| c.speed_mm_s = 30.0),
        ),
        (
            "light pressure (0.3)",
            Box::new(|c: &mut CaptureConditions| c.pressure = 0.3),
        ),
        (
            "partial coverage (0.7)",
            Box::new(|c: &mut CaptureConditions| c.coverage = 0.7),
        ),
    ] {
        let cfg = MatchConfig::default();
        let mut genuine = Vec::new();
        let mut scratch = MatchScratch::new();
        for t in 0..TRIALS {
            let mut rng = SimRng::seed_from(5_000 + t);
            let owner = FingerPattern::generate(t, 0);
            let template = TemplateSet::new(vec![enroll(&owner, 5, &mut rng)]);
            let window = CaptureWindow::centered(MmPoint::new(0.0, 1.0), 8.0, 8.0);
            let mut conditions = CaptureConditions::ideal();
            mutate(&mut conditions);
            let g = owner.observe(&window, &conditions, &mut rng);
            genuine.push(score(&mut scratch, &template, &g.minutiae, &cfg));
        }
        let mean = genuine.iter().sum::<f64>() / genuine.len() as f64;
        let frr = genuine.iter().filter(|s| **s < cfg.score_threshold).count() as f64
            / genuine.len() as f64;
        table.row([
            name.to_owned(),
            format!("{mean:.3}"),
            format!("{:.1}%", 100.0 * frr),
        ]);
    }
    table.print();
}
