//! Criterion: partial-print matcher and enrollment cost.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use btd_fingerprint::enroll::enroll;
use btd_fingerprint::extract::{extract_minutiae, thin, Bitmap, ExtractionConfig};
use btd_fingerprint::image::rasterize;
use btd_fingerprint::matcher::{MatchConfig, MatchScratch, TemplateSet};
use btd_fingerprint::minutiae::CaptureWindow;
use btd_fingerprint::minutiae::Minutia;
use btd_fingerprint::pattern::FingerPattern;
use btd_fingerprint::quality::{CaptureConditions, QualityGate, QualityReport};
use btd_flock::fp_processor::FingerprintProcessor;
use btd_flock::module::FlockConfig;
use btd_sensor::capture::{CaptureOutcome, CapturePipeline};
use btd_sensor::readout::ReadoutConfig;
use btd_sim::geom::MmPoint;
use btd_sim::rng::SimRng;
use btd_workload::profile::UserProfile;
use btd_workload::session::{SessionGenerator, TouchSample};

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
    // One template, its set built and its scratch kept outside the loop,
    // as a caller matching many observations against it does.
    let one = TemplateSet::new(vec![template]);
    let mut scratch = MatchScratch::new();

    group.bench_function("match_genuine_8mm", |b| {
        b.iter(|| black_box(scratch.best_match(&one, black_box(&genuine_obs.minutiae), &cfg)))
    });
    group.bench_function("match_impostor_8mm", |b| {
        b.iter(|| black_box(scratch.best_match(&one, black_box(&impostor_obs.minutiae), &cfg)))
    });
    // The fleet's per-touch call: the owner's 8 mm observation against
    // all three enrolled fingers.
    let mut processor = FingerprintProcessor::new();
    processor.enroll_user(1, 3, &mut SimRng::seed_from(2));
    group.bench_function("verify_3_templates", |b| {
        b.iter(|| black_box(processor.verify(black_box(&genuine_obs.minutiae))))
    });
    // The same search under the image-extraction configuration, so the
    // π-periodic voting branch is timed too.
    let templates = TemplateSet::new(processor.export_templates());
    let image_cfg = MatchConfig::for_image_extraction();
    group.bench_function("verify_3_templates_pi_periodic", |b| {
        b.iter(|| {
            black_box(scratch.best_match(&templates, black_box(&genuine_obs.minutiae), &image_cfg))
        })
    });
    // One template in the same mode: the image pipeline's call.
    group.bench_function("match_genuine_8mm_pi_periodic", |b| {
        b.iter(|| black_box(scratch.best_match(&one, black_box(&genuine_obs.minutiae), &image_cfg)))
    });
    // The fleet's touches are smaller than the 8 mm ideal capture above:
    // 4–8 mm windows under uneven pressure, moisture and coverage, two in
    // three from one of the owner's enrolled fingers, the rest from a
    // stranger (about 7.5 minutiae each). One iteration verifies all 64,
    // so every sample times the same touches.
    let touches: Vec<_> = (0..64u64)
        .map(|i| {
            let user = if i % 3 == 2 { 70_000 + i } else { 1 };
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
            pattern.observe(&window, &conditions, &mut rng).minutiae
        })
        .collect();
    group.bench_function("verify_3_templates_fleet_touches", |b| {
        b.iter(|| {
            for touch in &touches {
                black_box(processor.verify(black_box(touch)));
            }
        })
    });
    // The observations the fleet verifies: session touches captured by
    // the FLock's sensors, then explicit-touch captures on the verify
    // button over the first sensor, each kept when the quality gate
    // accepts it, as the device does (about 10.9 minutiae each).
    let (captures, owner) = fleet_captures(64, &mut SimRng::seed_from(3));
    let mut fleet_processor = FingerprintProcessor::new();
    fleet_processor.enroll_user(owner, 3, &mut SimRng::seed_from(4));
    group.bench_function("verify_3_templates_fleet_captures", |b| {
        b.iter(|| {
            for capture in &captures {
                black_box(fleet_processor.verify(black_box(capture)));
            }
        })
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

/// `n` quality-gated captures of one built-in user's fingers through the
/// fleet's capture path, half from session touches and half from
/// explicit touches on the verify button, and the user's id.
fn fleet_captures(n: usize, rng: &mut SimRng) -> (Vec<Vec<Minutia>>, u64) {
    let profile = UserProfile::builtin(0);
    let owner = profile.user_id();
    let capture = CapturePipeline::new(FlockConfig::default_sensors(), ReadoutConfig::default());
    let gate = QualityGate::default();
    let button = capture.sensors()[0].bounds().center();
    let mut session = SessionGenerator::new(profile, rng);
    let (mut touches, mut buttons) = (Vec::new(), Vec::new());
    while touches.len() < n / 2 || buttons.len() < n - n / 2 {
        let touch = session.next_touch(rng);
        // The device's explicit touch (`explicit_verified_touch`).
        let press = TouchSample {
            pos: button,
            finger_center: button.offset(rng.gaussian_with(0.0, 0.6), rng.gaussian_with(1.0, 0.6)),
            speed_mm_s: rng.range_f64(0.0, 5.0),
            pressure: rng.gaussian_with(0.55, 0.08).clamp(0.2, 0.9),
            contact_radius_mm: rng.range_f64(4.0, 5.5),
            moisture: rng.range_f64(0.2, 0.5),
            ..touch
        };
        for (sample, kept, want) in [
            (touch, &mut touches, n / 2),
            (press, &mut buttons, n - n / 2),
        ] {
            let finger = FingerPattern::generate(sample.user_id, sample.finger_index);
            let outcome = capture.capture(
                sample.pos,
                sample.finger_center,
                &finger,
                sample.speed_mm_s,
                sample.pressure,
                sample.contact_radius_mm,
                sample.moisture,
                rng,
            );
            if let CaptureOutcome::Captured(data) = outcome {
                if kept.len() < want && gate.accepts(&data.observation.quality) {
                    kept.push(data.observation.minutiae);
                }
            }
        }
    }
    touches.append(&mut buttons);
    (touches, owner)
}

criterion_group!(benches, bench_matcher);
criterion_main!(benches);
