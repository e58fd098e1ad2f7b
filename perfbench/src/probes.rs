//! Probes: single-layer calls timed after the stage-level run, on the
//! touch samples and key material it left behind, with a random stream of
//! their own so they cannot shift the run's draws.

use std::hint::black_box;

use btd_crypto::entropy::ChaChaEntropy;
use btd_crypto::hmac::hmac_sha256;
use btd_crypto::sha256::sha256;
use btd_fingerprint::pattern::FingerPattern;
use btd_sensor::capture::CaptureOutcome;
use btd_sim::rng::SimRng;

use crate::spans::Recorder;
use crate::stage::StageShard;
use crate::workload::DOMAIN;

/// Times the sensor, matcher and crypto layers on every probe touch, then
/// recovers each shard's server from its journal.
///
/// # Errors
///
/// Fails if a probe's result is wrong: a key that does not reproduce its
/// public element, a signature that does not verify, a device with no
/// enrolled templates, or a recovery that changes durable state.
pub fn run(shards: &mut [StageShard], seed: u64, rec: &mut Recorder) -> Result<(), String> {
    let mut rng = SimRng::seed_from(seed ^ 0x009B_0BE5);
    for sh in shards.iter_mut() {
        for &(didx, touch) in &sh.probe_touches {
            let flock = sh.world.device(didx).flock();
            let pipeline = flock.auth().capture_pipeline().clone();
            let finger = FingerPattern::generate(touch.user_id, touch.finger_index);
            let outcome = rec.time("sensor.capture", None, || {
                pipeline.capture(
                    touch.pos,
                    touch.finger_center,
                    &finger,
                    touch.speed_mm_s,
                    touch.pressure,
                    touch.contact_radius_mm,
                    touch.moisture,
                    &mut rng,
                )
            });
            if let CaptureOutcome::Captured(data) = outcome {
                let processor = sh
                    .world
                    .device_mut(didx)
                    .flock_mut()
                    .auth_mut()
                    .processor_mut();
                rec.time("fingerprint.verify", None, || {
                    processor.verify(&data.observation.minutiae)
                })
                .ok_or("fingerprint probe on a device with no templates")?;
            }

            let flock = sh.world.device(didx).flock();
            let group = flock.group();
            // A biometric false reject can leave a device unregistered.
            let Some(keys) = flock.domain_keypair(DOMAIN) else {
                continue;
            };
            let public = rec.time("crypto.pow_mod", None, || {
                group
                    .generator()
                    .pow_mod(keys.secret_scalar(), group.modulus())
            });
            if &public != keys.public_key().element() {
                return Err("pow_mod does not reproduce the device's public key".into());
            }
            let message = format!("{}:{}:{}", touch.user_id, touch.pos.x, touch.pos.y).into_bytes();
            let mut seed_bytes = [0u8; 32];
            rng.fill_bytes(&mut seed_bytes);
            let mut entropy = ChaChaEntropy::from_seed(seed_bytes);
            let sig = rec.time("crypto.schnorr_sign", None, || {
                keys.sign(&message, &mut entropy)
            });
            if !rec.time("crypto.schnorr_verify", None, || {
                keys.public_key().verify(&message, &sig)
            }) {
                return Err("a fresh Schnorr signature does not verify".into());
            }
            let key = sha256(&keys.secret_scalar().to_be_bytes());
            black_box(rec.time("crypto.hmac_sha256", None, || {
                hmac_sha256(key.as_bytes(), &message)
            }));
        }

        let server = sh.world.server_mut(sh.server);
        let before = sha256(&server.shard_snapshot_bytes(sh.shard));
        rec.time("server.recover_in_place", None, || {
            server.recover_in_place(&mut rng)
        });
        if sha256(&server.shard_snapshot_bytes(sh.shard)) != before {
            return Err(format!("recovering shard {} changed its state", sh.shard));
        }
    }
    Ok(())
}
