//! Integration: the attack matrix (paper §IV-B security analysis).
//!
//! Every attack the paper's threat model names is mounted against the
//! protocol, and every one must be caught by the mechanism the paper
//! credits: nonces catch replay, signatures/MACs catch tampering and
//! forgery, frame hashes catch display malware (at audit time), and the
//! continuous risk reports catch post-login hijack.

// trust-lint: allow-file(secret-outside-trust) -- the attacker model here IS key theft: these tests mint rogue key pairs to forge messages and must prove the protocol rejects them

use btd_sim::rng::SimRng;
use trust_core::audit::audit_server;
use trust_core::channel::Adversary;
use trust_core::messages::{RegistrationSubmit, Reject};
use trust_core::pages::Page;
use trust_core::scenario::World;

#[test]
fn network_replay_of_every_message_never_advances_state() {
    let mut rng = SimRng::seed_from(20);
    let mut world = World::with_adversary(Adversary::Replayer, &mut rng);
    world.add_server("www.xyz.com", &mut rng);
    let d = world.add_device("phone-1", 42, &mut rng);

    // Every duplicate copy the replayer injects is byte-identical, so the
    // server answers it from its idempotency cache without advancing state.
    // The scoreboard that matters: replays_accepted must be zero.
    let reg = world.register(d, "www.xyz.com", "alice", &mut rng).unwrap();
    assert_eq!(
        reg.metrics.replays_accepted, 0,
        "registration replay accepted"
    );
    assert_eq!(
        reg.metrics.duplicates_resent + reg.metrics.replays_rejected,
        1,
        "the duplicated submission must be classified"
    );
    assert_eq!(world.server(0).account_count(), 1, "exactly one binding");

    let login = world.login(d, "www.xyz.com", &mut rng).unwrap();
    assert_eq!(login.metrics.replays_accepted, 0, "login replay accepted");
    assert_eq!(
        login.metrics.duplicates_resent + login.metrics.replays_rejected,
        1
    );

    let session = world.run_session(d, "www.xyz.com", 20, &mut rng).unwrap();
    assert_eq!(session.served, 20, "legitimate traffic must still flow");
    assert_eq!(
        session.metrics.replays_accepted, 0,
        "interaction replay accepted"
    );
    assert_eq!(
        session.metrics.duplicates_resent + session.metrics.replays_rejected,
        20,
        "every duplicated interaction must be classified"
    );

    // Exactly-once server state: each interaction advanced the session
    // counter and wrote one audit entry, replays added nothing.
    assert_eq!(
        world.server(0).session_interactions(&login.session_id),
        Some(20)
    );
    assert_eq!(
        world.server(0).audit_log().len() as u64,
        2 + session.served,
        "replays must not reach the audit log"
    );
}

#[test]
fn tampered_registration_fields_are_rejected() {
    let mut rng = SimRng::seed_from(21);
    let mut world = World::new(&mut rng);
    world.add_server("www.xyz.com", &mut rng);
    let d = world.add_device("phone-1", 42, &mut rng);

    // Build a legitimate submission by hand so we can tamper with copies.
    let hello = {
        // Serve the page directly (bypassing the channel for test control).
        let server = world.server_mut(0);
        server.hello("/register")
    };
    let holder = 42;
    let submit = world
        .device_mut(d)
        .begin_registration(&hello, "alice", holder, &mut rng)
        .unwrap();

    // MITM 1: swap the account name.
    let mut t1 = submit.clone();
    t1.account = "mallory".to_owned();
    assert_eq!(
        world.server_mut(0).handle_registration(&t1).unwrap_err(),
        Reject::BadSignature
    );

    // MITM 2: substitute the public key (key-swap attack). The nonce was
    // consumed by the first attempt, so re-serve and re-sign legitimately,
    // then tamper only the key.
    let hello2 = world.server_mut(0).hello("/register");
    let submit2 = world
        .device_mut(d)
        .begin_registration(&hello2, "alice2", holder, &mut rng)
        .unwrap();
    let mut t2 = submit2.clone();
    t2.user_public = vec![0x04; 256];
    assert_eq!(
        world.server_mut(0).handle_registration(&t2).unwrap_err(),
        Reject::BadSignature
    );

    // MITM 3: a stale nonce from a *failed* attempt. It was retired from
    // the issued set by MITM 1 but never durably consumed (the submission
    // was rejected), so it now reads as unknown — still rejected.
    let t3 = RegistrationSubmit {
        nonce: submit.nonce,
        ..submit2.clone()
    };
    assert_eq!(
        world.server_mut(0).handle_registration(&t3).unwrap_err(),
        Reject::UnknownNonce
    );

    // And the untampered message still works.
    let hello3 = world.server_mut(0).hello("/register");
    let submit3 = world
        .device_mut(d)
        .begin_registration(&hello3, "alice3", holder, &mut rng)
        .unwrap();
    assert!(world.server_mut(0).handle_registration(&submit3).is_ok());

    // MITM 4: a *successfully consumed* nonce re-presented for the same
    // account with a swapped signature (so the idempotency cache does not
    // resend) is classified as a true replay.
    let t4 = RegistrationSubmit {
        signature: submit2.signature.clone(),
        ..submit3.clone()
    };
    assert_eq!(
        world.server_mut(0).handle_registration(&t4).unwrap_err(),
        Reject::Replay
    );
}

#[test]
fn spoofed_server_hello_is_refused_by_the_device() {
    let mut rng = SimRng::seed_from(22);
    let mut world = World::new(&mut rng);
    world.add_server("www.xyz.com", &mut rng);
    let d = world.add_device("phone-1", 42, &mut rng);

    let hello = world.server_mut(0).hello("/register");

    // Phishing: attacker re-labels the hello for their own domain.
    let mut phish = hello.clone();
    phish.domain = "www.evil.com".to_owned();
    let err = world
        .device_mut(d)
        .begin_registration(&phish, "alice", 42, &mut rng)
        .unwrap_err();
    assert_eq!(err, trust_core::device::DeviceError::UntrustedServer);

    // Content tamper: attacker swaps the page body under the signature.
    let mut tampered = hello.clone();
    tampered.page = Page::new("/register", b"send your password to evil".to_vec());
    let err = world
        .device_mut(d)
        .begin_registration(&tampered, "alice", 42, &mut rng)
        .unwrap_err();
    assert_eq!(err, trust_core::device::DeviceError::BadServerSignature);
}

#[test]
fn malware_forged_request_fails_the_mac_check() {
    let mut rng = SimRng::seed_from(23);
    let mut world = World::new(&mut rng);
    world.add_server("www.xyz.com", &mut rng);
    let d = world.add_device("phone-1", 42, &mut rng);
    world.register(d, "www.xyz.com", "alice", &mut rng).unwrap();
    world.login(d, "www.xyz.com", &mut rng).unwrap();
    // A couple of honest interactions to have a live session.
    world.run_session(d, "www.xyz.com", 3, &mut rng).unwrap();

    // Malware on the host forges a transfer request without FLock.
    let forged = world
        .device(d)
        .malware_forge_interaction("www.xyz.com", "/transfer")
        .expect("session exists");
    let result = world.server_mut(0).handle_interaction(&forged);
    assert_eq!(result.unwrap_err(), Reject::BadMac);
}

#[test]
fn display_malware_is_caught_by_the_offline_audit() {
    let mut rng = SimRng::seed_from(24);
    let mut world = World::new(&mut rng);
    world.add_server("www.xyz.com", &mut rng);
    let d = world.add_device("phone-1", 42, &mut rng);
    world.register(d, "www.xyz.com", "alice", &mut rng).unwrap();
    world.login(d, "www.xyz.com", &mut rng).unwrap();

    // Honest browsing first.
    world.run_session(d, "www.xyz.com", 10, &mut rng).unwrap();
    let clean_so_far = audit_server(world.server(0));
    assert!(clean_so_far.is_clean());

    // Malware starts spoofing what the user sees ("pay mallory" rendered
    // as "pay alice"). The user keeps touching; FLock keeps hashing the
    // *actual* frames.
    world
        .device_mut(d)
        .infect_display(Page::new("/spoof", b"everything is fine".to_vec()));
    let infected_report = world.run_session(d, "www.xyz.com", 10, &mut rng).unwrap();
    assert!(infected_report.served > 0, "online the attack is invisible");

    // Offline audit: the spoofed frames do not match any legitimate view.
    let audit = audit_server(world.server(0));
    assert!(!audit.is_clean(), "audit missed the display malware");
    assert_eq!(audit.findings.len() as u64, infected_report.served);
    // Every finding names the victim account.
    assert!(audit.findings.iter().all(|f| f.account == "alice"));
}

#[test]
fn stolen_session_cookie_is_useless_without_flock() {
    // An attacker who exfiltrates a full interaction message (the "cookie")
    // cannot mint the next request: the nonce is consumed and the MAC key
    // lives in FLock.
    let mut rng = SimRng::seed_from(25);
    let mut world = World::new(&mut rng);
    world.add_server("www.xyz.com", &mut rng);
    let d = world.add_device("phone-1", 42, &mut rng);
    world.register(d, "www.xyz.com", "alice", &mut rng).unwrap();
    world.login(d, "www.xyz.com", &mut rng).unwrap();

    // Capture one legitimate request by building it manually.
    let touches = world.touches_for_holder(d, 1, &mut rng);
    let request = world
        .device_mut(d)
        .interact("www.xyz.com", "/inbox", &touches[0], &mut rng)
        .unwrap();
    // Deliver it legitimately once.
    let (first, freshness) = world.server_mut(0).handle_interaction(&request).unwrap();
    assert_eq!(freshness, trust_core::messages::Freshness::Fresh);
    let session_id = first.session_id.clone();
    let served_once = world.server(0).session_interactions(&session_id);
    let audit_len = world.server(0).audit_log().len();

    // 1. Straight replay: answered from the idempotency cache with the
    // page the attacker already saw — no new nonce, no state advance, no
    // audit entry. The "cookie" buys nothing.
    let (resent, freshness) = world.server_mut(0).handle_interaction(&request).unwrap();
    assert_eq!(freshness, trust_core::messages::Freshness::Resent);
    assert_eq!(resent.nonce, first.nonce, "cache must not mint a new nonce");
    assert_eq!(
        world.server(0).session_interactions(&session_id),
        served_once,
        "a replay advanced the session"
    );
    assert_eq!(
        world.server(0).audit_log().len(),
        audit_len,
        "a replay reached the audit log"
    );

    // 2. Replay with a modified action (attacker rewrites /inbox →
    // /transfer): the MAC no longer matches the cached request, and the
    // nonce is consumed, so it is rejected outright.
    let mut rewritten = request.clone();
    rewritten.action = "/transfer".into();
    assert!(matches!(
        world.server_mut(0).handle_interaction(&rewritten),
        Err(Reject::BadMac) | Err(Reject::Replay) | Err(Reject::UnknownNonce)
    ));
    assert_eq!(
        world.server(0).session_interactions(&session_id),
        served_once
    );
}

#[test]
fn unknown_ca_device_cannot_register() {
    let mut rng = SimRng::seed_from(26);
    let mut world = World::new(&mut rng);
    world.add_server("www.xyz.com", &mut rng);
    // A device provisioned by a *different* (rogue) CA.
    let mut rogue_world = World::new(&mut rng);
    let rogue_d = rogue_world.add_device("rogue-phone", 66, &mut rng);

    let hello = world.server_mut(0).hello("/register");
    // The rogue device will refuse the hello (it does not trust this CA) —
    // so the attacker bypasses the device check and forges the submission
    // path directly.
    let err = rogue_world
        .device_mut(rogue_d)
        .begin_registration(&hello, "eve", 66, &mut rng)
        .unwrap_err();
    assert_eq!(err, trust_core::device::DeviceError::UntrustedServer);

    // Forge anyway with the rogue cert: the server rejects the certificate.
    let hello2 = world.server_mut(0).hello("/register");
    let rogue_cert = rogue_world
        .device(rogue_d)
        .flock()
        .certificate()
        .unwrap()
        .clone();
    let forged = RegistrationSubmit {
        domain: "www.xyz.com".to_owned(),
        account: "eve".to_owned(),
        nonce: hello2.nonce,
        frame_hash: btd_crypto::sha256::Digest([1; 32]),
        user_public: rogue_cert.public_key().to_bytes(),
        device_cert: rogue_cert,
        signature: {
            // Any signature; the cert check fires first.
            let mut e = btd_crypto::entropy::ChaChaEntropy::from_u64_seed(1);
            let kp = btd_crypto::schnorr::KeyPair::generate(
                btd_crypto::group::DhGroup::test_512(),
                &mut e,
            );
            kp.sign(b"junk", &mut e)
        },
    };
    assert_eq!(
        world
            .server_mut(0)
            .handle_registration(&forged)
            .unwrap_err(),
        Reject::BadCertificate
    );
}

#[test]
fn out_of_subgroup_user_keys_are_refused_at_registration() {
    // A certified device signs a registration whose per-site key lies
    // outside the order-q subgroup: p−1 (order 2) or −g^x (order 2q).
    // The signature and certificate are genuine, so only the server's
    // subgroup check stands between such a key and the account table.
    let mut rng = SimRng::seed_from(27);
    let mut world = World::new(&mut rng);
    world.add_server("www.xyz.com", &mut rng);
    let d = world.add_device("phone-1", 42, &mut rng);
    let group = btd_crypto::group::DhGroup::test_512();
    let minus_one = group.modulus().checked_sub(&btd_crypto::U2048::ONE);
    let mut entropy = btd_crypto::entropy::ChaChaEntropy::from_u64_seed(27);
    let g_x = group.pow_g(&group.random_scalar(&mut entropy));
    let keys = [
        (minus_one, Err(Reject::BadSignature)),
        (group.mul(&g_x, &minus_one), Err(Reject::BadSignature)),
        // The same construction with an honest key registers.
        (g_x, Ok(())),
    ];
    for (i, (element, verdict)) in keys.into_iter().enumerate() {
        let user_public = element.to_be_bytes().to_vec();
        let submit = certified_registration(&mut world, d, &format!("odd-key-{i}"), user_public);
        let result = world.server_mut(0).handle_registration(&submit);
        assert_eq!(result.map(|_| ()), verdict, "key {i}");
    }
    assert_eq!(world.server(0).account_count(), 1, "only the honest key");
}

#[test]
fn oversized_user_keys_are_refused_at_registration() {
    // A certified device signs a registration whose per-site key is wider
    // than 2048 bits. The server must refuse it like a bad signature, not
    // fail decoding it: even a leading zero byte in front of an honest key
    // makes 257 bytes.
    let mut rng = SimRng::seed_from(28);
    let mut world = World::new(&mut rng);
    world.add_server("www.xyz.com", &mut rng);
    let d = world.add_device("phone-1", 42, &mut rng);
    let group = btd_crypto::group::DhGroup::test_512();
    let mut entropy = btd_crypto::entropy::ChaChaEntropy::from_u64_seed(28);
    let honest = group
        .pow_g(&group.random_scalar(&mut entropy))
        .to_be_bytes()
        .to_vec();
    let mut padded = vec![0u8];
    padded.extend_from_slice(&honest);
    for (i, user_public) in [padded, vec![0xFF; 300]].into_iter().enumerate() {
        let submit = certified_registration(&mut world, d, &format!("wide-key-{i}"), user_public);
        let result = world.server_mut(0).handle_registration(&submit);
        assert_eq!(result.map(|_| ()), Err(Reject::BadSignature), "key {i}");
    }
    let submit = certified_registration(&mut world, d, "honest-key", honest);
    assert!(world.server_mut(0).handle_registration(&submit).is_ok());
    assert_eq!(world.server(0).account_count(), 1, "only the honest key");
}

/// A registration for `account` carrying `user_public`, with a fresh
/// hello's nonce, signed by device `d`'s certified FLock key: genuine in
/// every field the server checks before the key itself.
fn certified_registration(
    world: &mut World,
    d: usize,
    account: &str,
    user_public: Vec<u8>,
) -> RegistrationSubmit {
    let hello = world.server_mut(0).hello("/register");
    let frame_hash = btd_crypto::sha256::Digest([7; 32]);
    let bytes = RegistrationSubmit::signed_bytes(
        &hello.domain,
        account,
        &hello.nonce,
        &frame_hash,
        &user_public,
    );
    let flock = world.device_mut(d).flock_mut();
    RegistrationSubmit {
        domain: hello.domain.clone(),
        account: account.to_owned(),
        nonce: hello.nonce,
        frame_hash,
        user_public,
        device_cert: flock.certificate().unwrap().clone(),
        signature: flock.sign_with_device_key(&bytes),
    }
}

/// Seals `plaintext` the way `btd_crypto::elgamal::seal` does, but with an
/// ephemeral and shared value of the sender's choosing: the KDF is public,
/// so any sender can build such a box.
fn seal_with_shared(
    ephemeral: btd_crypto::U2048,
    shared: &btd_crypto::U2048,
    plaintext: &[u8],
) -> btd_crypto::elgamal::SealedBox {
    use btd_crypto::sha256::Sha256;
    let mut h = Sha256::new();
    h.update_field(b"elgamal-kdf");
    h.update_field(&shared.to_be_bytes());
    h.update_field(&ephemeral.to_be_bytes());
    let base = h.finalize();
    let expand = |label: u8| {
        let mut hh = Sha256::new();
        hh.update(base.as_bytes());
        hh.update(&[label]);
        hh.finalize()
    };
    let mut nonce = [0u8; 12];
    nonce.copy_from_slice(&expand(3).as_bytes()[..12]);
    let ciphertext = btd_crypto::chacha20::encrypt(expand(1).as_bytes(), &nonce, plaintext);
    let mut tagged = ephemeral.to_be_bytes().to_vec();
    tagged.extend_from_slice(&ciphertext);
    let tag = *btd_crypto::hmac::hmac_sha256(expand(2).as_bytes(), &tagged).as_bytes();
    btd_crypto::elgamal::SealedBox {
        ephemeral,
        ciphertext,
        tag,
    }
}

#[test]
fn login_rejection_paths_are_exhaustive() {
    use btd_crypto::bignum::U2048;
    use btd_crypto::elgamal::seal;
    use btd_crypto::entropy::ChaChaEntropy;
    use btd_crypto::group::DhGroup;
    use btd_crypto::schnorr::KeyPair;
    use trust_core::risk_policy::RiskReport;

    let mut rng = SimRng::seed_from(27);
    let mut world = World::new(&mut rng);
    world.add_server("www.xyz.com", &mut rng);
    let d = world.add_device("phone-1", 42, &mut rng);
    world.register(d, "www.xyz.com", "alice", &mut rng).unwrap();

    // 1. Login for an account that does not exist: build a valid-shaped
    // submission against a fresh hello, with a bogus account.
    let hello = world.server_mut(0).hello("/login");
    let mut entropy = ChaChaEntropy::from_u64_seed(9);
    let attacker = KeyPair::generate(DhGroup::test_512(), &mut entropy);
    let server_key = world.server(0).public_key().clone();
    let sealed = seal(&server_key, b"session-key", &mut entropy);
    let risk = RiskReport::fresh_login();
    let frame_hash = btd_crypto::sha256::Digest([3; 32]);
    let bytes = trust_core::messages::LoginSubmit::signed_bytes(
        "www.xyz.com",
        "nobody",
        &hello.nonce,
        &sealed,
        &frame_hash,
        &risk,
    );
    let forged = trust_core::messages::LoginSubmit {
        domain: "www.xyz.com".to_owned(),
        account: "nobody".to_owned(),
        nonce: hello.nonce,
        sealed_session_key: sealed.clone(),
        frame_hash,
        risk,
        signature: attacker.sign(&bytes, &mut entropy),
    };
    assert_eq!(
        world.server_mut(0).handle_login(&forged).unwrap_err(),
        Reject::UnknownAccount
    );

    // 2. Right account, attacker key: the signature check fires.
    let hello2 = world.server_mut(0).hello("/login");
    let bytes = trust_core::messages::LoginSubmit::signed_bytes(
        "www.xyz.com",
        "alice",
        &hello2.nonce,
        &sealed,
        &frame_hash,
        &risk,
    );
    let forged = trust_core::messages::LoginSubmit {
        domain: "www.xyz.com".to_owned(),
        account: "alice".to_owned(),
        nonce: hello2.nonce,
        sealed_session_key: sealed.clone(),
        frame_hash,
        risk,
        signature: attacker.sign(&bytes, &mut entropy),
    };
    assert_eq!(
        world.server_mut(0).handle_login(&forged).unwrap_err(),
        Reject::BadSignature
    );

    // 3. Legitimate signature but the session key is sealed to the WRONG
    // recipient (a man-in-the-middle swapped the box): reaches the unseal
    // step and fails there.
    let hello3 = world.server_mut(0).hello("/login");
    let wrong_recipient = KeyPair::generate(DhGroup::test_512(), &mut entropy);
    let bad_box = seal(wrong_recipient.public_key(), b"session-key", &mut entropy);
    let bytes = trust_core::messages::LoginSubmit::signed_bytes(
        "www.xyz.com",
        "alice",
        &hello3.nonce,
        &bad_box,
        &frame_hash,
        &risk,
    );
    let user_keys = {
        let record = world
            .device(d)
            .flock()
            .domain_record("www.xyz.com")
            .unwrap();
        record.keys.clone()
    };
    let forged = trust_core::messages::LoginSubmit {
        domain: "www.xyz.com".to_owned(),
        account: "alice".to_owned(),
        nonce: hello3.nonce,
        sealed_session_key: bad_box,
        frame_hash,
        risk,
        signature: user_keys.sign(&bytes, &mut entropy),
    };
    assert_eq!(
        world.server_mut(0).handle_login(&forged).unwrap_err(),
        Reject::BadSessionKey
    );

    // 3b. Small-subgroup probe: a registered device seals with an
    // ephemeral of order 2 (p−1) or 2q (−g^k). The server's shared value
    // is then known up to the parity of its long-term secret, so the
    // device sends one box per parity guess. Both must be refused alike,
    // or the reply reveals that bit.
    let group = DhGroup::test_512();
    let minus_one = group.modulus().checked_sub(&U2048::ONE);
    let k = group.random_scalar(&mut entropy);
    let y_k = group.pow(server_key.element(), &k);
    let probes = [
        (minus_one, [U2048::ONE, minus_one]),
        (
            group.mul(&group.pow_g(&k), &minus_one),
            [y_k, group.mul(&y_k, &minus_one)],
        ),
    ];
    for (ephemeral, guesses) in probes {
        for shared in guesses {
            let probe_box = seal_with_shared(ephemeral, &shared, b"session-key");
            let hello = world.server_mut(0).hello("/login");
            let bytes = trust_core::messages::LoginSubmit::signed_bytes(
                "www.xyz.com",
                "alice",
                &hello.nonce,
                &probe_box,
                &frame_hash,
                &risk,
            );
            let probe = trust_core::messages::LoginSubmit {
                domain: "www.xyz.com".to_owned(),
                account: "alice".to_owned(),
                nonce: hello.nonce,
                sealed_session_key: probe_box,
                frame_hash,
                risk,
                signature: user_keys.sign(&bytes, &mut entropy),
            };
            assert_eq!(
                world.server_mut(0).handle_login(&probe).map(|_| ()),
                Err(Reject::BadSessionKey),
                "a parity guess must not be told apart from the other"
            );
        }
    }

    // 4. Fraud-laden risk report at login: policy terminates.
    let hello4 = world.server_mut(0).hello("/login");
    let fraud_risk = RiskReport {
        window: 12,
        verified: 0,
        mismatched: 5,
    };
    let good_box = seal(&server_key, b"session-key", &mut entropy);
    let bytes = trust_core::messages::LoginSubmit::signed_bytes(
        "www.xyz.com",
        "alice",
        &hello4.nonce,
        &good_box,
        &frame_hash,
        &fraud_risk,
    );
    let forged = trust_core::messages::LoginSubmit {
        domain: "www.xyz.com".to_owned(),
        account: "alice".to_owned(),
        nonce: hello4.nonce,
        sealed_session_key: good_box,
        frame_hash,
        risk: fraud_risk,
        signature: user_keys.sign(&bytes, &mut entropy),
    };
    assert_eq!(
        world.server_mut(0).handle_login(&forged).unwrap_err(),
        Reject::RiskTerminated
    );
}
