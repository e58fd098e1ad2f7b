//! Criterion: partial-print matcher and enrollment cost.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use btd_fingerprint::enroll::enroll;
use btd_fingerprint::extract::{extract_minutiae, thin, Bitmap, ExtractionConfig};
use btd_fingerprint::image::rasterize;
use btd_fingerprint::matcher::{match_observation, MatchConfig};
use btd_fingerprint::minutiae::CaptureWindow;
use btd_fingerprint::pattern::FingerPattern;
use btd_fingerprint::quality::{CaptureConditions, QualityReport};
use btd_flock::fp_processor::FingerprintProcessor;
use btd_sim::geom::MmPoint;
use btd_sim::rng::SimRng;

fn bench_matcher(c: &mut Criterion) {
    let mut group = c.benchmark_group("matcher");

    let finger = FingerPattern::generate(1, 0);
    let impostor = FingerPattern::generate(2, 0);
    let mut rng = SimRng::seed_from(1);
    let template = enroll(&finger, 5, &mut rng);
    let window = CaptureWindow::centered(MmPoint::new(0.0, 1.0), 8.0, 8.0);
    let genuine_obs = finger.observe(&window, &CaptureConditions::ideal(), &mut rng);
    let impostor_obs = impostor.observe(&window, &CaptureConditions::ideal(), &mut rng);
    let cfg = MatchConfig::default();

    group.bench_function("match_genuine_8mm", |b| {
        b.iter(|| {
            black_box(match_observation(
                &template,
                black_box(&genuine_obs.minutiae),
                &cfg,
            ))
        })
    });
    group.bench_function("match_impostor_8mm", |b| {
        b.iter(|| {
            black_box(match_observation(
                &template,
                black_box(&impostor_obs.minutiae),
                &cfg,
            ))
        })
    });
    // The fleet's per-touch call: the owner's 8 mm observation against
    // all three enrolled fingers.
    let mut processor = FingerprintProcessor::new();
    processor.enroll_user(1, 3, &mut SimRng::seed_from(2));
    group.bench_function("verify_3_templates", |b| {
        b.iter(|| black_box(processor.verify(black_box(&genuine_obs.minutiae))))
    });
    group.bench_function("quality_assessment", |b| {
        b.iter(|| {
            black_box(QualityReport::assess(
                black_box(&CaptureConditions::ideal()),
            ))
        })
    });
    group.bench_function("observe_capture", |b| {
        b.iter(|| black_box(finger.observe(&window, &CaptureConditions::ideal(), &mut rng)))
    });
    group.sample_size(10);
    group.bench_function("enroll_5_captures", |b| {
        b.iter(|| black_box(enroll(&finger, 5, &mut rng)))
    });
    group.bench_function("pattern_generate", |b| {
        b.iter(|| black_box(FingerPattern::generate(black_box(77), 0)))
    });

    // The pixel pipeline: rasterize, thin, extract from an 8 mm patch.
    let region = btd_sim::geom::MmRect::centered(
        MmPoint::new(0.0, 0.0),
        btd_sim::geom::MmSize::new(8.0, 8.0),
    );
    let img = rasterize(&finger, region, 0.05);
    group.bench_function("rasterize_8mm_patch", |b| {
        b.iter(|| black_box(rasterize(&finger, region, 0.05)))
    });
    group.bench_function("thin_8mm_patch", |b| {
        let bitmap = Bitmap::from_image(&img, 128);
        b.iter(|| black_box(thin(black_box(&bitmap))))
    });
    group.bench_function("extract_minutiae_8mm_patch", |b| {
        b.iter(|| black_box(extract_minutiae(&img, &ExtractionConfig::default())))
    });
    group.finish();
}

criterion_group!(benches, bench_matcher);
criterion_main!(benches);
