//! Turnkey scenario harnesses.
//!
//! [`World`] wires a CA, web servers, mobile devices, and a network channel
//! into one deterministic simulation so examples, integration tests, and
//! benches can express scenarios in a few lines.

use btd_crypto::group::DhGroup;
use btd_flock::module::{FlockConfig, FlockModule};
use btd_sim::rng::SimRng;
use btd_workload::profile::UserProfile;
use btd_workload::session::{SessionGenerator, TouchSample};

use crate::auth::{login, run_session, LoginOutcome, SessionReport};
use crate::ca::TrustAuthority;
use crate::channel::{Adversary, Channel};
use crate::device::MobileDevice;
use crate::metrics::RetryPolicy;
use crate::registration::{register, FlowError, RegistrationReport};
use crate::server::storage::DiskFaultProfile;
use crate::server::WebServer;
use crate::trace::Tracer;

/// Default post-login actions a session cycles through.
pub const DEFAULT_ACTIONS: [&str; 4] = ["/inbox", "/transfer", "/settings", "/home"];

/// A complete TRUST deployment.
#[derive(Debug)]
pub struct World {
    /// The certificate authority.
    pub ca: TrustAuthority,
    /// The network.
    pub channel: Channel,
    /// The device-side retry/timeout/backoff policy for every flow.
    pub policy: RetryPolicy,
    group: &'static DhGroup,
    servers: Vec<WebServer>,
    devices: Vec<(MobileDevice, u64)>,
    tracer: Tracer,
}

impl World {
    /// Creates a world over the fast test group with an honest network.
    pub fn new(rng: &mut SimRng) -> Self {
        World::with_adversary(Adversary::None, rng)
    }

    /// Creates a world with an on-path adversary whose stochastic faults
    /// are seeded from `rng` (same seed → identical run).
    pub fn with_adversary(adversary: Adversary, rng: &mut SimRng) -> Self {
        let group = DhGroup::test_512();
        World {
            ca: TrustAuthority::new(group, rng),
            channel: Channel::seeded(adversary, rng),
            policy: RetryPolicy::default(),
            group,
            servers: Vec::new(),
            devices: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Turns on deterministic protocol tracing for the whole world.
    ///
    /// One shared [`Tracer`] is installed into the channel, every server,
    /// and every device (including ones added later), so all layers append
    /// to a single totally-ordered event buffer. Returns a handle to that
    /// buffer; clones share it.
    pub fn enable_tracing(&mut self) -> Tracer {
        if !self.tracer.is_enabled() {
            self.tracer = Tracer::enabled();
        }
        self.channel.set_tracer(self.tracer.clone());
        for server in self.servers.iter_mut() {
            server.set_tracer(self.tracer.clone());
        }
        for (device, _) in self.devices.iter_mut() {
            device.set_tracer(self.tracer.clone());
        }
        self.tracer.clone()
    }

    /// Turns on deterministic tracing with a ring-buffered event store:
    /// only the most recent `capacity` events are retained
    /// ([`Tracer::enabled_bounded`]). The memory-bounded choice for
    /// fleet-scale runs that drain incrementally; a run that never
    /// overflows exports byte-identically to an unbounded one.
    pub fn enable_tracing_bounded(&mut self, capacity: usize) -> Tracer {
        if !self.tracer.is_enabled() {
            self.tracer = Tracer::enabled_bounded(capacity);
        }
        self.channel.set_tracer(self.tracer.clone());
        for server in self.servers.iter_mut() {
            server.set_tracer(self.tracer.clone());
        }
        for (device, _) in self.devices.iter_mut() {
            device.set_tracer(self.tracer.clone());
        }
        self.tracer.clone()
    }

    /// The world's tracer (disabled unless [`World::enable_tracing`] ran).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Adds a web server for `domain`; returns its index.
    pub fn add_server(&mut self, domain: &str, rng: &mut SimRng) -> usize {
        let mut server = WebServer::new(domain, self.group, &mut self.ca, rng);
        if self.tracer.is_enabled() {
            server.set_tracer(self.tracer.clone());
        }
        self.servers.push(server);
        self.servers.len() - 1
    }

    /// Adds a web server for `domain` whose durable state is partitioned
    /// into `shards` account shards; returns its index.
    pub fn add_server_with_shards(
        &mut self,
        domain: &str,
        shards: usize,
        rng: &mut SimRng,
    ) -> usize {
        let mut server = WebServer::with_shards(domain, self.group, &mut self.ca, rng, shards);
        if self.tracer.is_enabled() {
            server.set_tracer(self.tracer.clone());
        }
        self.servers.push(server);
        self.servers.len() - 1
    }

    /// Adds a sharded web server whose journals live on seeded
    /// [`SegmentedStorage`](crate::server::storage::SegmentedStorage):
    /// disk faults fire per `profile`, the log partition holds `capacity`
    /// bytes (None = unbounded), segments rotate at `segment_target`.
    /// Returns its index.
    #[allow(clippy::too_many_arguments)]
    pub fn add_server_with_storage(
        &mut self,
        domain: &str,
        shards: usize,
        profile: DiskFaultProfile,
        capacity: Option<usize>,
        segment_target: usize,
        storage_seed: u64,
        rng: &mut SimRng,
    ) -> usize {
        let idx = self.add_server_with_shards(domain, shards, rng);
        self.servers[idx].use_segmented_storage(profile, capacity, segment_target, storage_seed);
        idx
    }

    /// Adds a mobile device owned (and enrolled, three fingers) by
    /// `owner_user`; returns its index.
    pub fn add_device(&mut self, name: &str, owner_user: u64, rng: &mut SimRng) -> usize {
        let mut flock = FlockModule::new(name, FlockConfig::fast_test(), rng);
        self.ca.provision_device(&mut flock);
        flock.enroll_owner(owner_user, 3, rng);
        let mut device = MobileDevice::new(name, flock);
        if self.tracer.is_enabled() {
            device.set_tracer(self.tracer.clone());
        }
        self.devices.push((device, owner_user));
        self.devices.len() - 1
    }

    /// Adds a device that is provisioned but whose enrolled owner differs
    /// from the person who will hold it (a stolen device scenario helper).
    pub fn add_device_enrolled_for(
        &mut self,
        name: &str,
        enrolled_user: u64,
        holder_user: u64,
        rng: &mut SimRng,
    ) -> usize {
        let idx = self.add_device(name, enrolled_user, rng);
        self.devices[idx].1 = holder_user;
        idx
    }

    /// The server at `idx`.
    pub fn server(&self, idx: usize) -> &WebServer {
        &self.servers[idx]
    }

    /// The server at `idx`, mutable.
    pub fn server_mut(&mut self, idx: usize) -> &mut WebServer {
        &mut self.servers[idx]
    }

    /// Finds a server by domain.
    pub fn server_by_domain(&self, domain: &str) -> Option<&WebServer> {
        self.servers.iter().find(|s| s.domain() == domain)
    }

    /// The device at `idx`.
    pub fn device(&self, idx: usize) -> &MobileDevice {
        &self.devices[idx].0
    }

    /// The device at `idx`, mutable.
    pub fn device_mut(&mut self, idx: usize) -> &mut MobileDevice {
        &mut self.devices[idx].0
    }

    /// The user currently holding device `idx`.
    pub fn holder(&self, idx: usize) -> u64 {
        self.devices[idx].1
    }

    fn server_index(&self, domain: &str) -> usize {
        self.servers
            .iter()
            .position(|s| s.domain() == domain)
            .unwrap_or_else(|| panic!("no server for {domain}"))
    }

    /// Registers `account` at `domain` from device `device_idx`.
    ///
    /// # Errors
    ///
    /// Propagates the flow error.
    pub fn register(
        &mut self,
        device_idx: usize,
        domain: &str,
        account: &str,
        rng: &mut SimRng,
    ) -> Result<RegistrationReport, FlowError> {
        let sidx = self.server_index(domain);
        let holder = self.devices[device_idx].1;
        let mut report = RegistrationReport::default();
        register(
            &mut self.devices[device_idx].0,
            holder,
            &mut self.servers[sidx],
            &mut self.channel,
            account,
            &self.policy,
            rng,
            &mut report.metrics,
            &mut report.latency,
        )?;
        Ok(report)
    }

    /// Logs device `device_idx` into `domain`.
    ///
    /// # Errors
    ///
    /// Propagates the flow error.
    pub fn login(
        &mut self,
        device_idx: usize,
        domain: &str,
        rng: &mut SimRng,
    ) -> Result<LoginOutcome, FlowError> {
        let sidx = self.server_index(domain);
        let holder = self.devices[device_idx].1;
        let mut outcome = LoginOutcome::default();
        outcome.session_id = login(
            &mut self.devices[device_idx].0,
            holder,
            &mut self.servers[sidx],
            &mut self.channel,
            &self.policy,
            rng,
            &mut outcome.metrics,
            &mut outcome.latency,
        )?;
        Ok(outcome)
    }

    /// Generates `n` natural touches for the holder of device `idx`.
    pub fn touches_for_holder(
        &self,
        device_idx: usize,
        n: usize,
        rng: &mut SimRng,
    ) -> Vec<TouchSample> {
        let holder = self.devices[device_idx].1;
        let profile = UserProfile::builtin((holder % 3) as usize);
        let mut gen = SessionGenerator::new(profile, rng);
        let mut samples = gen.generate(n, rng);
        for s in samples.iter_mut() {
            s.user_id = holder;
        }
        samples
    }

    /// Runs `n` post-login interactions at `domain` from device
    /// `device_idx`, with natural holder touches.
    ///
    /// # Errors
    ///
    /// Propagates flow setup errors; per-interaction rejections are in the
    /// report.
    pub fn run_session(
        &mut self,
        device_idx: usize,
        domain: &str,
        n: usize,
        rng: &mut SimRng,
    ) -> Result<SessionReport, FlowError> {
        let touches = self.touches_for_holder(device_idx, n, rng);
        self.run_session_with_touches(device_idx, domain, &touches, rng)
    }

    /// Resets `account` at `domain` with the fallback password over the
    /// wire and re-binds it to device `device_idx` (paper §IV, "Identity
    /// Reset").
    ///
    /// # Errors
    ///
    /// Propagates the reset or re-registration failure.
    pub fn reset_and_rebind(
        &mut self,
        domain: &str,
        account: &str,
        password: &str,
        device_idx: usize,
        rng: &mut SimRng,
    ) -> Result<crate::reset::ResetReport, FlowError> {
        let sidx = self.server_index(domain);
        let holder = self.devices[device_idx].1;
        crate::reset::reset_and_rebind(
            &mut self.servers[sidx],
            &mut self.channel,
            account,
            password,
            &mut self.devices[device_idx].0,
            holder,
            &self.policy,
            rng,
        )
    }

    /// Transfers the identity of device `old_idx` to device `new_idx`,
    /// authorized by `authorizing_user`'s fingerprint (paper §IV,
    /// "Identity Transfer").
    ///
    /// # Errors
    ///
    /// Propagates the transfer failure.
    ///
    /// # Panics
    ///
    /// Panics if `old_idx == new_idx`.
    pub fn transfer(
        &mut self,
        old_idx: usize,
        new_idx: usize,
        authorizing_user: u64,
        rng: &mut SimRng,
    ) -> Result<crate::transfer::TransferReport, crate::transfer::TransferError> {
        assert_ne!(old_idx, new_idx, "cannot transfer a device to itself");
        let (lo, hi) = (old_idx.min(new_idx), old_idx.max(new_idx));
        let (head, tail) = self.devices.split_at_mut(hi);
        let (a, b) = (&mut head[lo].0, &mut tail[0].0);
        let (old_dev, new_dev) = if old_idx < new_idx { (a, b) } else { (b, a) };
        crate::transfer::transfer_identity(
            old_dev,
            new_dev,
            authorizing_user,
            &mut self.channel,
            &self.policy,
            rng,
        )
    }

    /// Runs the full chaos lifecycle (register → login → `n` touches) at
    /// `domain` from device `device_idx`, with the server crashing per
    /// `profile` on top of the channel's adversary (see
    /// [`crate::chaos::run_chaos_lifecycle`]).
    ///
    /// # Errors
    ///
    /// Propagates flow setup errors; per-interaction rejections are in the
    /// report.
    pub fn run_chaos_lifecycle(
        &mut self,
        device_idx: usize,
        domain: &str,
        account: &str,
        n: usize,
        profile: crate::server::journal::CrashProfile,
        rng: &mut SimRng,
    ) -> Result<crate::chaos::ChaosReport, FlowError> {
        let touches = self.touches_for_holder(device_idx, n, rng);
        let sidx = self.server_index(domain);
        let holder = self.devices[device_idx].1;
        crate::chaos::run_chaos_lifecycle(
            &mut self.devices[device_idx].0,
            holder,
            &mut self.servers[sidx],
            &mut self.channel,
            domain,
            account,
            &DEFAULT_ACTIONS,
            &touches,
            &self.policy,
            profile,
            rng,
        )
    }

    /// Runs `n`-touch chaos lifecycles for several devices *concurrently*
    /// against one server: each `(device_idx, account)` pair becomes a
    /// [`DeviceLifecycle`](crate::chaos::DeviceLifecycle) and the driver
    /// interleaves them round-robin, one unit of work per turn, so
    /// crashes, recoveries, and resumes from different devices overlap on
    /// the shared (sharded) server. Reports come back per device, in the
    /// order given.
    ///
    /// # Errors
    ///
    /// Fails with the first lifecycle's conclusive error (remaining
    /// lifecycles are abandoned); per-interaction rejections are in the
    /// per-device reports.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or names an unknown device.
    pub fn run_concurrent_chaos(
        &mut self,
        domain: &str,
        pairs: &[(usize, &str)],
        n: usize,
        profile: crate::server::journal::CrashProfile,
        rng: &mut SimRng,
    ) -> Result<crate::chaos::MultiChaosReport, FlowError> {
        use crate::server::journal::CrashSchedule;

        assert!(!pairs.is_empty(), "need at least one device");
        let sidx = self.server_index(domain);
        // Generate every device's touches first so workload draws are
        // independent of interleaving order.
        let touches: Vec<Vec<TouchSample>> = pairs
            .iter()
            .map(|&(di, _)| self.touches_for_holder(di, n, rng))
            .collect();
        self.servers[sidx].arm_crash_schedule(CrashSchedule::seeded(profile, rng.next_u64()));
        let holders: Vec<u64> = pairs.iter().map(|&(di, _)| self.devices[di].1).collect();
        let mut lifecycles: Vec<crate::chaos::DeviceLifecycle> = pairs
            .iter()
            .zip(holders)
            .zip(touches)
            .map(|((&(_, account), holder), t)| {
                crate::chaos::DeviceLifecycle::new(
                    domain,
                    account,
                    holder,
                    &DEFAULT_ACTIONS,
                    t,
                    &self.servers[sidx],
                )
            })
            .collect();
        // Round-robin: every live lifecycle advances one unit per sweep.
        let mut live = lifecycles.len();
        while live > 0 {
            live = 0;
            for (lc, &(di, _)) in lifecycles.iter_mut().zip(pairs) {
                if lc.is_done() {
                    continue;
                }
                if lc.step(
                    &mut self.devices[di].0,
                    &mut self.servers[sidx],
                    &mut self.channel,
                    &self.policy,
                    profile,
                    rng,
                ) {
                    live += 1;
                }
            }
        }
        if let Some(err) = lifecycles.iter().find_map(|lc| lc.failure()) {
            return Err(err);
        }
        Ok(crate::chaos::MultiChaosReport {
            per_device: lifecycles.into_iter().map(|lc| lc.report).collect(),
        })
    }

    /// Advances one chaos lifecycle a single unit against this world's
    /// device, server, and channel — the same split borrow
    /// [`World::run_concurrent_chaos`] performs on each sweep, exposed so
    /// external drivers can own the round-robin loop. The shard-parallel
    /// runtime ([`crate::parallel`]) uses this to interleave its logical
    /// clock ticks and trace drains between steps.
    pub fn step_lifecycle(
        &mut self,
        lifecycle: &mut crate::chaos::DeviceLifecycle,
        device_idx: usize,
        server_idx: usize,
        profile: crate::server::journal::CrashProfile,
        rng: &mut SimRng,
    ) -> bool {
        lifecycle.step(
            &mut self.devices[device_idx].0,
            &mut self.servers[server_idx],
            &mut self.channel,
            &self.policy,
            profile,
            rng,
        )
    }

    /// Runs a session with caller-supplied touches (e.g. an impostor's
    /// touches on a hijacked device).
    ///
    /// # Errors
    ///
    /// Propagates flow setup errors; per-interaction rejections are in the
    /// report.
    pub fn run_session_with_touches(
        &mut self,
        device_idx: usize,
        domain: &str,
        touches: &[TouchSample],
        rng: &mut SimRng,
    ) -> Result<SessionReport, FlowError> {
        let sidx = self.server_index(domain);
        run_session(
            &mut self.devices[device_idx].0,
            &mut self.servers[sidx],
            &mut self.channel,
            domain,
            &DEFAULT_ACTIONS,
            touches,
            &self.policy,
            rng,
        )
    }

    /// Logs device `device_idx` in at `domain` with a pipelined window of
    /// `window` interactions advertised by the server for the new session
    /// and armed on the device. The windowed engine
    /// ([`World::run_windowed_session`]) requires both ends to agree on
    /// the window, and the server journals it with the login, so it must
    /// be chosen before the session opens.
    ///
    /// # Errors
    ///
    /// Propagates the login flow error.
    pub fn login_windowed(
        &mut self,
        device_idx: usize,
        domain: &str,
        window: u64,
        rng: &mut SimRng,
    ) -> Result<LoginOutcome, FlowError> {
        assert!(window >= 1, "window must be at least 1");
        let sidx = self.server_index(domain);
        self.servers[sidx].set_interaction_window(window);
        let outcome = self.login(device_idx, domain, rng)?;
        self.devices[device_idx].0.enable_window(domain, window)?;
        Ok(outcome)
    }

    /// Runs `n` post-login interactions through the event-driven pipelined
    /// engine with up to `window` slots in flight (natural holder
    /// touches). The session must have been opened windowed
    /// ([`World::login_windowed`]).
    ///
    /// # Errors
    ///
    /// Propagates flow setup errors; per-interaction rejections are in the
    /// report.
    pub fn run_windowed_session(
        &mut self,
        device_idx: usize,
        domain: &str,
        n: usize,
        window: u64,
        rng: &mut SimRng,
    ) -> Result<crate::engine::WindowedReport, FlowError> {
        let touches = self.touches_for_holder(device_idx, n, rng);
        let sidx = self.server_index(domain);
        crate::engine::run_windowed_session(
            &mut self.devices[device_idx].0,
            &mut self.servers[sidx],
            &mut self.channel,
            domain,
            &DEFAULT_ACTIONS,
            &touches,
            &self.policy,
            window,
            None,
            rng,
        )
    }

    /// [`World::run_windowed_session`] with seeded server crash faults
    /// composed on top of the channel adversary: the engine schedules an
    /// operator restart whenever a crash point fires, and the derived
    /// per-slot nonces make the restart transparent to in-flight slots.
    ///
    /// # Errors
    ///
    /// Propagates flow setup errors; per-interaction rejections are in the
    /// report.
    #[allow(clippy::too_many_arguments)]
    pub fn run_windowed_chaos_session(
        &mut self,
        device_idx: usize,
        domain: &str,
        n: usize,
        window: u64,
        profile: crate::server::journal::CrashProfile,
        rng: &mut SimRng,
    ) -> Result<crate::engine::WindowedReport, FlowError> {
        let touches = self.touches_for_holder(device_idx, n, rng);
        let sidx = self.server_index(domain);
        crate::engine::run_windowed_session(
            &mut self.devices[device_idx].0,
            &mut self.servers[sidx],
            &mut self.channel,
            domain,
            &DEFAULT_ACTIONS,
            &touches,
            &self.policy,
            window,
            Some(profile),
            rng,
        )
    }

    /// Drives `cfg.lifecycles` full device lifecycles through the
    /// pipelined engine's shared event queue against the server at
    /// `domain` (see [`crate::engine::run_windowed_fleet`]). Devices are
    /// provisioned on spawn and dropped on retirement, so the live set
    /// stays at `cfg.max_live` regardless of fleet size; they are *not*
    /// added to this world's device roster.
    pub fn run_windowed_fleet(
        &mut self,
        domain: &str,
        cfg: &crate::engine::FleetConfig,
        rng: &mut SimRng,
    ) -> crate::engine::FleetReport {
        let sidx = self.server_index(domain);
        let World {
            ref mut ca,
            ref mut channel,
            ref mut servers,
            ref policy,
            ..
        } = *self;
        let mut spawn = |i: usize, rng: &mut SimRng| {
            let name = format!("fleet-dev-{i}");
            let owner = 1_000 + i as u64;
            let mut flock = FlockModule::new(&name, FlockConfig::fast_test(), rng);
            ca.provision_device(&mut flock);
            flock.enroll_owner(owner, 3, rng);
            let device = MobileDevice::new(&name, flock);
            let profile = UserProfile::builtin((owner % 3) as usize);
            let mut gen = SessionGenerator::new(profile, rng);
            let mut touches = gen.generate(cfg.touches, rng);
            for t in touches.iter_mut() {
                t.user_id = owner;
            }
            (device, owner, format!("fleet-user-{i}"), touches)
        };
        crate::engine::run_windowed_fleet(
            &mut servers[sidx],
            channel,
            policy,
            domain,
            &DEFAULT_ACTIONS,
            cfg,
            &mut spawn,
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit_server;

    #[test]
    fn happy_path_register_login_browse() {
        let mut rng = SimRng::seed_from(1);
        let mut world = World::new(&mut rng);
        world.add_server("www.xyz.com", &mut rng);
        let d = world.add_device("phone-1", 42, &mut rng);

        let reg = world.register(d, "www.xyz.com", "alice", &mut rng).unwrap();
        assert_eq!(reg.metrics.retries, 0);
        assert_eq!(reg.metrics.replays_accepted, 0);
        assert!(world.server(0).has_account("alice"));

        let login = world.login(d, "www.xyz.com", &mut rng).unwrap();
        assert!(!login.session_id.is_empty());

        let session = world.run_session(d, "www.xyz.com", 25, &mut rng).unwrap();
        assert_eq!(session.attempted, 25);
        assert_eq!(session.served, 25);
        assert!(!session.terminated);
        assert!(session.rejects.is_empty());

        // Clean world, clean audit.
        let audit = audit_server(world.server(0));
        assert!(audit.is_clean());
        assert_eq!(audit.total as u64, 2 + session.served);
    }

    #[test]
    fn duplicate_account_registration_rejected() {
        let mut rng = SimRng::seed_from(2);
        let mut world = World::new(&mut rng);
        world.add_server("www.xyz.com", &mut rng);
        let d1 = world.add_device("phone-1", 42, &mut rng);
        let d2 = world.add_device("phone-2", 43, &mut rng);
        world
            .register(d1, "www.xyz.com", "alice", &mut rng)
            .unwrap();
        let err = world.register(d2, "www.xyz.com", "alice", &mut rng);
        assert_eq!(
            err.unwrap_err(),
            FlowError::Server(crate::messages::Reject::AccountExists)
        );
    }

    #[test]
    fn login_without_registration_fails_on_device() {
        let mut rng = SimRng::seed_from(3);
        let mut world = World::new(&mut rng);
        world.add_server("www.xyz.com", &mut rng);
        let d = world.add_device("phone-1", 42, &mut rng);
        let err = world.login(d, "www.xyz.com", &mut rng);
        assert_eq!(
            err.unwrap_err(),
            FlowError::Device(crate::device::DeviceError::UnknownDomain)
        );
    }

    #[test]
    fn two_servers_get_unrelated_keys() {
        let mut rng = SimRng::seed_from(4);
        let mut world = World::new(&mut rng);
        world.add_server("bank.com", &mut rng);
        world.add_server("mail.com", &mut rng);
        let d = world.add_device("phone-1", 42, &mut rng);
        world.register(d, "bank.com", "alice", &mut rng).unwrap();
        world.register(d, "mail.com", "alice", &mut rng).unwrap();
        let flock = world.device(d).flock();
        let r1 = flock.domain_record("bank.com").unwrap();
        let r2 = flock.domain_record("mail.com").unwrap();
        // Not assert_ne!: on failure it would print both secret scalars.
        let keys_differ = r1.user_secret != r2.user_secret;
        assert!(keys_differ, "per-site keys must differ");
    }
}
