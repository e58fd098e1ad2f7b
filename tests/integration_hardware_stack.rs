//! Integration: the full hardware stack — touchscreen → TFT sensor →
//! fingerprint → placement (paper §II–III, Figs. 1–4, Table II).

use btd_fingerprint::enroll::enroll;
use btd_fingerprint::matcher::{MatchConfig, MatchScratch, TemplateSet};
use btd_fingerprint::pattern::FingerPattern;
use btd_placement::cost::CostModel;
use btd_placement::greedy::greedy;
use btd_placement::problem::PlacementProblem;
use btd_sensor::array::PlacedSensor;
use btd_sensor::readout::{CellWindow, ColumnTransfer, ReadoutConfig, RowAddressing};
use btd_sensor::spec::SensorSpec;
use btd_sim::geom::{MmPoint, MmSize};
use btd_sim::rng::SimRng;
use btd_sim::time::SimDuration;
use btd_touch::contact::Contact;
use btd_touch::controller::TouchController;
use btd_touch::panel::PanelSpec;
use btd_workload::heatmap::Heatmap;
use btd_workload::profile::UserProfile;
use btd_workload::session::SessionGenerator;

#[test]
fn touchscreen_detection_feeds_sensor_activation() {
    // A finger lands on the panel; the touchscreen detects it; the
    // detected (not ground-truth) coordinates select and window the TFT
    // sensor, exactly as the FLock fingerprint controller would.
    let panel = PanelSpec::smartphone();
    let mut controller = TouchController::new(panel);
    let sensor = PlacedSensor::new(SensorSpec::flock_patch(), MmPoint::new(20.0, 66.0));
    let mut rng = SimRng::seed_from(1);

    let true_touch = MmPoint::new(24.0, 70.0); // on the sensor
    let contact = Contact::new(true_touch, 4.5, 0.6);
    let events = controller.scan_frame(btd_sim::time::SimTime::ZERO, &[contact], &mut rng);
    assert_eq!(events.len(), 1);
    let detected = events[0].pos;
    assert!(detected.distance_to(true_touch) < 1.5);

    // The detected point lands on the sensor and yields a usable window.
    assert!(sensor.covers(detected));
    let window = sensor.window_around(detected, 4.0).unwrap();
    assert!(window.cell_count() > 10_000);

    // And a binary ridge image can be captured through that window.
    let finger = FingerPattern::generate(5, 0);
    let img = sensor.capture_binary(&finger, true_touch, &window);
    let ridge_frac = img.fraction_above(128);
    assert!((0.2..0.8).contains(&ridge_frac));
}

#[test]
fn detected_coordinates_are_good_enough_for_matching() {
    // End-to-end: enroll from ground truth, capture through the
    // *touchscreen-detected* coordinates, and still match.
    let panel = PanelSpec::smartphone();
    let mut controller = TouchController::new(panel);
    let mut rng = SimRng::seed_from(2);
    let finger = FingerPattern::generate(9, 0);
    let template = TemplateSet::new(vec![enroll(&finger, 5, &mut rng)]);

    let true_touch = MmPoint::new(26.0, 74.0);
    let contact = Contact::new(true_touch, 4.5, 0.6);
    let events = controller.scan_frame(btd_sim::time::SimTime::ZERO, &[contact], &mut rng);
    let detected = events[0].pos;

    // Window the fingertip around the *detected* point: the detection
    // error becomes a (small) extra translation the matcher must recover.
    let window = btd_fingerprint::minutiae::CaptureWindow::centered(
        MmPoint::new(detected.x - true_touch.x, detected.y - true_touch.y),
        8.0,
        8.0,
    );
    let obs = finger.observe(
        &window,
        &btd_fingerprint::quality::CaptureConditions::ideal(),
        &mut rng,
    );
    let (_, result) = MatchScratch::new()
        .best_match(&template, &obs.minutiae, &MatchConfig::default())
        .expect("one template");
    assert!(
        result.score >= MatchConfig::default().score_threshold,
        "score {} too low",
        result.score
    );
}

#[test]
fn table_ii_response_times_reproduce_in_shape() {
    // Simulated full-array capture times must track the published response
    // times within a small factor for the rows with known clocks, and the
    // *ordering* of all five sensors must match the paper.
    let baseline = ReadoutConfig::table_ii_baseline();
    let mut simulated: Vec<(&str, SimDuration, Option<SimDuration>)> = SensorSpec::table_ii()
        .into_iter()
        .map(|s| {
            let t = baseline.capture_time(&s, &s.full_window());
            (s.name, t, s.published_response)
        })
        .collect();

    for (name, simulated_t, published) in &simulated {
        if let Some(p) = published {
            let ratio = *simulated_t / *p;
            assert!(
                (0.25..4.0).contains(&ratio),
                "{name}: simulated {simulated_t} vs published {p}"
            );
        }
    }

    // Ordering by simulated time matches ordering by published time.
    simulated.sort_by_key(|(_, t, _)| *t);
    let sim_order: Vec<&str> = simulated.iter().map(|(n, _, _)| *n).collect();
    let mut by_published = SensorSpec::table_ii().to_vec();
    by_published.sort_by_key(|s| s.published_response.unwrap());
    let pub_order: Vec<&str> = by_published.iter().map(|s| s.name).collect();
    assert_eq!(sim_order, pub_order);
}

#[test]
fn figure_4_architecture_delivers_its_promised_speedup() {
    // "Using parallel addressing and selected data transfer, the
    // fingerprint capture speed can be greatly improved."
    let spec = SensorSpec::flock_patch();
    // A touch window of ±2 mm (80×80 cells of the 160×160 array).
    let window = CellWindow::clamped(&spec, 40, 120, 40, 120);

    let naive = ReadoutConfig {
        row_addressing: RowAddressing::Serial,
        column_transfer: ColumnTransfer::Full,
        transfer_lanes: 1,
    };
    let paper = ReadoutConfig {
        row_addressing: RowAddressing::Parallel,
        column_transfer: ColumnTransfer::Selective,
        transfer_lanes: 4,
    };
    let t_naive = naive.capture_time(&spec, &window);
    let t_paper = paper.capture_time(&spec, &window);
    let speedup = t_naive / t_paper;
    assert!(speedup > 5.0, "speedup only {speedup:.1}×");
    // And the paper design keeps windowed capture interactive (<10 ms),
    // comfortably under a typical touch dwell.
    assert!(t_paper < SimDuration::from_millis(10), "capture {t_paper}");
}

#[test]
fn placement_on_real_heatmaps_beats_area_proportional_coverage() {
    // The §IV-A claim quantified across all three users: greedy hot-spot
    // placement of 4 patches captures far more touch mass than the ~5% of
    // panel area it occupies.
    for profile_idx in 0..3 {
        let mut rng = SimRng::seed_from(40 + profile_idx as u64);
        let profile = UserProfile::builtin(profile_idx);
        let panel = profile.panel_size();
        let mut gen = SessionGenerator::new(profile, &mut rng);
        let samples = gen.generate(4_000, &mut rng);
        let heatmap = Heatmap::from_samples(panel, 4.0, &samples);
        let problem = PlacementProblem::new(panel, MmSize::new(8.0, 8.0), heatmap);
        let placement = greedy(&problem, 4, 2.0);
        let coverage = problem.coverage(&placement);
        let area_frac = placement.iter().map(|r| r.area()).sum::<f64>() / (panel.w * panel.h);
        assert!(
            coverage > 5.0 * area_frac,
            "profile {profile_idx}: coverage {coverage:.3} vs area {area_frac:.3}"
        );
        // Cost-effectiveness is meaningful and positive.
        let eff = CostModel::default().effectiveness(coverage, &placement);
        assert!(eff > 0.0);
    }
}

#[test]
fn pooled_placement_serves_all_three_users() {
    // One placement must serve every user of a shared device: pool the
    // heatmaps, optimize once, and check each user individually retains
    // useful coverage.
    let mut rng = SimRng::seed_from(50);
    let panel = UserProfile::builtin(0).panel_size();
    let mut pooled = Heatmap::new(panel, 4.0);
    let mut per_user = Vec::new();
    for idx in 0..3 {
        let mut gen = SessionGenerator::new(UserProfile::builtin(idx), &mut rng);
        let samples = gen.generate(3_000, &mut rng);
        let h = Heatmap::from_samples(panel, 4.0, &samples);
        pooled.absorb(&h);
        per_user.push(h);
    }
    let problem = PlacementProblem::new(panel, MmSize::new(8.0, 8.0), pooled);
    let placement = greedy(&problem, 5, 2.0);

    for (idx, h) in per_user.into_iter().enumerate() {
        let user_problem = PlacementProblem::new(panel, MmSize::new(8.0, 8.0), h);
        let cov = user_problem.coverage(&placement);
        assert!(
            cov > 0.12,
            "user {idx} only gets {cov:.3} coverage from the shared placement"
        );
    }
}

#[test]
fn opportunistic_power_advantage_holds_at_scale() {
    use btd_sensor::power::SensorPowerModel;
    let spec = SensorSpec::flock_patch();
    let model = SensorPowerModel::for_spec(&spec);
    // A heavy day: 8 h of screen time, 5 000 captures of ~6 ms.
    let session = SimDuration::from_secs(8 * 3600);
    let capture = SimDuration::from_millis(6);
    let opportunistic = model.opportunistic_energy(session, 5_000, capture);
    let always_on = model.always_on_energy(session);
    assert!(
        always_on.0 / opportunistic.0 > 100.0,
        "advantage only {:.0}×",
        always_on.0 / opportunistic.0
    );
}
