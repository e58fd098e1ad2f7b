//! Call level: for a sample of honest-channel lifecycles, the Fig. 9 and
//! Fig. 10 calls are made one by one, each in a span under its stage span.
//! The sample runs in a world of its own, so it leaves the stage-level
//! shards' random draws untouched.

use btd_sim::rng::SimRng;
use trust_core::device::DeviceError;
use trust_core::messages::Reject;
use trust_core::parallel::ParallelConfig;
use trust_core::scenario::{World, DEFAULT_ACTIONS};

use crate::spans::Recorder;
use crate::workload::DOMAIN;

/// Lifecycles in the sample.
pub const SAMPLE: usize = 8;

/// Lifecycle ids of the sample start here, clear of fleet account indices.
const ID_BASE: u64 = 1 << 32;

/// Runs the sampled lifecycles with `cfg`'s shard and touch counts.
///
/// # Errors
///
/// Fails on any refusal or rejection other than a biometric false reject,
/// which ends that lifecycle early, or a risk termination.
pub fn drive_sample(cfg: &ParallelConfig, rec: &mut Recorder) -> Result<(), String> {
    let mut rng = SimRng::seed_from(cfg.seed ^ 0xCA11_5A3E);
    let mut world = World::new(&mut rng);
    let sidx = rec.time("scenario.add_server", None, || {
        world.add_server_with_shards(DOMAIN, cfg.shards, &mut rng)
    });
    for k in 0..SAMPLE {
        let id = ID_BASE + k as u64;
        let holder = 1_000 + id;
        let didx = rec.time("scenario.add_device", Some(id), || {
            world.add_device(&format!("call-dev-{k}"), holder, &mut rng)
        });
        let touches = world.touches_for_holder(didx, cfg.touches, &mut rng);
        let account = format!("call-user-{k}");
        let lc = Some(id);
        let (world, rng) = (&mut world, &mut rng);
        let err = |what: &str, e: &dyn std::fmt::Display| format!("{account}: {what}: {e}");

        let registered = rec.scope("chaos.register", lc, |rec| {
            let hello = rec.time("server.hello", lc, || {
                world.server_mut(sidx).hello("/register")
            });
            let submit = match rec.time("device.begin_registration", lc, || {
                world
                    .device_mut(didx)
                    .begin_registration(&hello, &account, holder, rng)
            }) {
                Ok(submit) => submit,
                Err(DeviceError::BiometricRejected) => return Ok(false),
                Err(e) => return Err(err("registration refused", &e)),
            };
            let (ack, _) = rec
                .time("server.handle_registration", lc, || {
                    world.server_mut(sidx).handle_registration(&submit)
                })
                .map_err(|e| err("registration rejected", &e))?;
            if ack.nonce != submit.nonce || ack.account != account {
                return Err(err("registration ack", &"does not match the submission"));
            }
            Ok(true)
        })?;
        if !registered {
            continue;
        }

        let logged_in = rec.scope("chaos.login", lc, |rec| {
            let hello = rec.time("server.hello", lc, || {
                world.server_mut(sidx).hello("/login")
            });
            let submit = match rec.time("device.begin_login", lc, || {
                world.device_mut(didx).begin_login(&hello, holder, rng)
            }) {
                Ok(submit) => submit,
                Err(DeviceError::BiometricRejected) => return Ok(false),
                Err(e) => return Err(err("login refused", &e)),
            };
            let (page, _) = rec
                .time("server.handle_login", lc, || {
                    world.server_mut(sidx).handle_login(&submit)
                })
                .map_err(|e| err("login rejected", &e))?;
            rec.time("device.accept_content", lc, || {
                world.device_mut(didx).accept_content(DOMAIN, &page)
            })
            .map(|()| true)
            .map_err(|e| err("login page refused", &e))
        })?;
        if !logged_in {
            continue;
        }

        let mut terminated = false;
        for (t, touch) in touches.iter().enumerate() {
            let action = DEFAULT_ACTIONS[t % DEFAULT_ACTIONS.len()];
            let was_served = rec.scope("chaos.interact", lc, |rec| {
                rec.time("device.observe_touch", lc, || {
                    world.device_mut(didx).observe_touch(touch, rng)
                });
                let request = rec
                    .time("device.build_interaction", lc, || {
                        world.device_mut(didx).build_interaction(DOMAIN, action)
                    })
                    .map_err(|e| err("interaction refused", &e))?;
                match rec.time("server.handle_interaction", lc, || {
                    world.server_mut(sidx).handle_interaction(&request)
                }) {
                    Ok((page, _)) => rec
                        .time("device.accept_content", lc, || {
                            world.device_mut(didx).accept_content(DOMAIN, &page)
                        })
                        .map(|()| true)
                        .map_err(|e| err("content refused", &e)),
                    Err(Reject::RiskTerminated) => Ok(false),
                    Err(e) => Err(err("interaction rejected", &e)),
                }
            })?;
            if !was_served {
                terminated = true;
                break;
            }
        }

        rec.scope("chaos.close", lc, |rec| {
            let Some(session) = world.device(didx).session_id(DOMAIN).map(str::to_owned) else {
                return Err(err("close", &"no session"));
            };
            let closed = rec.time("server.close_session", lc, || {
                world.server_mut(sidx).close_session(&account, &session)
            });
            world.device_mut(didx).end_session(DOMAIN);
            match closed {
                Ok(_) => Ok(()),
                Err(_) if terminated => Ok(()),
                Err(e) => Err(err("close rejected", &e)),
            }
        })?;
    }
    Ok(())
}
