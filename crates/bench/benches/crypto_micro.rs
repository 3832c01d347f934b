//! Micro-benchmarks of the crypto substrate: hash throughput and RSA
//! sign/verify latency — the constants behind every macro number.
//!
//! The paper's per-record cost is one hash walk plus one RSA-1024 signature
//! (its 128-byte `Checksum` column); these benches isolate each primitive.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use tep_crypto::bignum::{BigUint, MontgomeryCtx};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::rsa::KeyPair;
use tep_crypto::sha1::Sha1;
use tep_crypto::sha256::Sha256;

fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_throughput");
    for size in [64usize, 1024, 65_536] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha1", size), &data, |b, d| {
            b.iter(|| Sha1::digest(d))
        });
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| Sha256::digest(d))
        });
    }
    group.finish();
}

fn bench_rsa(c: &mut Criterion) {
    let mut group = c.benchmark_group("rsa");
    group.sample_size(20);
    for bits in [512usize, 1024, 2048] {
        let mut rng = StdRng::seed_from_u64(2009);
        let kp = KeyPair::generate(bits, &mut rng);
        let msg = b"provenance checksum message";
        let sig = kp.sign(HashAlgorithm::Sha1, msg).unwrap();
        group.bench_function(BenchmarkId::new("sign_sha1", bits), |b| {
            b.iter(|| kp.sign(HashAlgorithm::Sha1, msg).unwrap())
        });
        group.bench_function(BenchmarkId::new("verify_sha1", bits), |b| {
            b.iter(|| kp.public().verify(HashAlgorithm::Sha1, msg, &sig).unwrap())
        });
    }
    group.finish();
}

/// The kernel under RSA: one Montgomery product at the limb counts of an
/// RSA-1024 prime (8), an RSA-1024 modulus / RSA-2048 prime (16) and an
/// RSA-2048 modulus (32), and the public-exponent ladder (16 squarings +
/// 1 multiply + the two domain conversions) a verification is made of.
fn bench_montgomery(c: &mut Criterion) {
    let mut group = c.benchmark_group("montgomery");
    let mut rng = StdRng::seed_from_u64(2009);
    for limbs in [8usize, 16, 32] {
        let mut n: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
        n[0] |= 1;
        n[limbs - 1] |= 1 << 63;
        let n = BigUint::from_limbs(n);
        let ctx = MontgomeryCtx::new(&n);
        let x = BigUint::random_below(&n, &mut rng);
        let (a, b) = (
            ctx.to_mont(&x),
            ctx.to_mont(&BigUint::random_below(&n, &mut rng)),
        );
        let mut out = vec![0u64; limbs];
        group.bench_function(BenchmarkId::new("mont_mul", limbs), |bench| {
            bench.iter(|| {
                ctx.mont_mul(black_box(&a), black_box(&b), &mut out);
                black_box(out[0])
            })
        });
        if limbs >= 16 {
            let e = BigUint::from_u64(65537);
            group.bench_function(BenchmarkId::new("modpow_65537", limbs), |bench| {
                bench.iter(|| ctx.modpow(black_box(&x), &e))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_hashing, bench_rsa, bench_montgomery);
criterion_main!(benches);
