//! Criterion: cryptographic primitive costs (the FLock crypto processor's
//! real workload).

// trust-lint: allow-file(secret-outside-trust) -- this bench times the crypto primitives themselves, so it must construct key pairs directly; nothing here crosses a protocol boundary

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use btd_crypto::elgamal::{open, seal};
use btd_crypto::entropy::ChaChaEntropy;
use btd_crypto::group::DhGroup;
use btd_crypto::hmac::hmac_sha256;
use btd_crypto::schnorr::KeyPair;
use btd_crypto::sha256::sha256;

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    group.sample_size(20);

    let mut entropy = ChaChaEntropy::from_u64_seed(1);
    let dh = DhGroup::test_512();
    let keys = KeyPair::generate(dh, &mut entropy);
    let msg = b"interaction request body";

    // A base that is not g, so the generic Montgomery window path runs
    // rather than the fixed-base table.
    let base = *keys.public_key().element();
    let exp = *keys.secret_scalar();
    group.bench_function("pow_mod_512", |b| {
        b.iter(|| black_box(black_box(base).pow_mod(&exp, dh.modulus())))
    });

    group.bench_function("pow_g_512", |b| {
        b.iter(|| black_box(dh.pow_g(black_box(&exp))))
    });

    group.bench_function("schnorr_sign_512", |b| {
        b.iter(|| {
            let sig = keys.sign(black_box(msg), &mut entropy);
            black_box(sig)
        })
    });

    let sig = keys.sign(msg, &mut entropy);
    group.bench_function("schnorr_verify_512", |b| {
        b.iter(|| black_box(keys.public_key().verify(black_box(msg), &sig)))
    });

    group.bench_function("elgamal_seal_open_512", |b| {
        b.iter(|| {
            let boxed = seal(
                keys.public_key(),
                black_box(b"session key material"),
                &mut entropy,
            );
            black_box(open(&keys, &boxed).unwrap())
        })
    });

    let dh_prod = DhGroup::modp_2048();
    let keys_prod = KeyPair::generate(dh_prod, &mut entropy);
    group.bench_function("schnorr_sign_2048", |b| {
        b.iter(|| black_box(keys_prod.sign(black_box(msg), &mut entropy)))
    });

    let sig_prod = keys_prod.sign(msg, &mut entropy);
    group.bench_function("schnorr_verify_2048", |b| {
        b.iter(|| black_box(keys_prod.public_key().verify(black_box(msg), &sig_prod)))
    });

    let page = vec![0xABu8; 64 * 1024];
    group.bench_function("sha256_64k_frame", |b| {
        b.iter(|| black_box(sha256(black_box(&page))))
    });

    group.bench_function("hmac_interaction", |b| {
        b.iter(|| black_box(hmac_sha256(b"session-key", black_box(msg))))
    });

    group.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
