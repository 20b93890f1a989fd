//! Criterion micro-benchmarks of the TFHE kernels: gadget
//! decomposition, external product, blind rotation, keyswitching, and
//! a full bootstrapped gate — the CPU-side cost centres of Fig. 1 —
//! plus the classical and multi-bit PBS kernels side by side on the
//! same batch of inputs.

use criterion::{criterion_group, criterion_main, Criterion};
use strix_tfhe::bootstrap::{encode_bool, BootstrapKey, Lut, MultiBitBootstrapKey, PbsJob};
use strix_tfhe::decompose::DecompositionParams;
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::poly::TorusPolynomial;
use strix_tfhe::prelude::*;
use strix_tfhe::torus::encode_fraction;

fn bench_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("decomposition");
    let decomp = DecompositionParams::new(10, 2);
    let poly = TorusPolynomial::from_coeffs(
        (0..1024u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect(),
    );
    group.bench_function("polynomial_1024_l2", |b| b.iter(|| decomp.decompose_polynomial(&poly)));
    group.finish();
}

fn bench_pbs_and_gate(c: &mut Criterion) {
    let mut group = c.benchmark_group("pbs");
    group.sample_size(10);

    // Full PBS at the paper's set I (the Table V CPU measurement).
    let params = TfheParameters::set_i();
    let bsk = BootstrapKey::generate_for_benchmark(&params);
    let lut = Lut::sign(params.polynomial_size, encode_fraction(1, 3));
    let mut raw: Vec<u64> = (0..params.lwe_dimension as u64)
        .map(|i| i.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1)
        .collect();
    raw.push(encode_bool(true));
    let ct = LweCiphertext::from_raw(raw);
    group.bench_function("bootstrap_set_i", |b| b.iter(|| bsk.bootstrap(&ct, &lut).unwrap()));

    // Gate + keyswitch at the fast testing set (full real-key path).
    let (mut client, server) = generate_keys(&TfheParameters::testing_fast(), 5);
    let x = client.encrypt_bool(true);
    let y = client.encrypt_bool(false);
    group.bench_function("nand_gate_testing_fast", |b| b.iter(|| server.nand(&x, &y).unwrap()));

    let boot = server
        .bootstrap_key()
        .bootstrap(x.as_lwe(), &Lut::sign(256, encode_fraction(1, 3)))
        .unwrap();
    group.bench_function("keyswitch_testing_fast", |b| {
        b.iter(|| server.keyswitch_key().keyswitch(&boot).unwrap())
    });
    group.finish();
}

/// One key-major epoch of 8 sign-LUT bootstraps at set II: the
/// classical kernel, then the multi-bit kernel at g = 2, 3 and 4, all
/// on the same ciphertexts. Each key is dropped before the next is
/// built (the g = 4 key is 4x the classical footprint).
fn bench_pbs_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("pbs_kernels");
    group.sample_size(10);
    let params = TfheParameters::set_ii();
    let lut = Lut::sign(params.polynomial_size, encode_fraction(1, 3));
    // Dense pseudorandom masks: a zero mask would modulus-switch to
    // all-zero rotations and skip every CMUX.
    let cts: Vec<LweCiphertext> = (0..8u64)
        .map(|j| {
            LweCiphertext::from_raw(
                (0..=params.lwe_dimension as u64)
                    .map(|i| (j << 32 | i).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
                    .collect(),
            )
        })
        .collect();
    let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();

    let bsk = BootstrapKey::generate_for_benchmark(&params);
    group.bench_function("classical_batch8", |b| b.iter(|| bsk.bootstrap_batch(&jobs).unwrap()));
    drop(bsk);
    for g in 2..=4 {
        let mbsk = MultiBitBootstrapKey::generate_for_benchmark(&params, g);
        group.bench_function(format!("multi_bit_g{g}_batch8"), |b| {
            b.iter(|| mbsk.bootstrap_batch(&jobs).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decomposition, bench_pbs_and_gate, bench_pbs_kernels);
criterion_main!(benches);
