//! Criterion micro-benchmarks of the TFHE kernels: gadget
//! decomposition, external product, blind rotation, keyswitching, and
//! a full bootstrapped gate — the CPU-side cost centres of Fig. 1 —
//! plus the classical and multi-bit PBS kernels side by side on the
//! same batch of inputs, and real set-II key generation (per GLWE row,
//! the noise stream that bounds it, and per key) and seeded-key
//! expansion.

use criterion::{criterion_group, criterion_main, Criterion};
use strix_fft::NegacyclicFft;
use strix_tfhe::bootstrap::{encode_bool, ClassicalBootstrapKey, Lut, PbsJob};
use strix_tfhe::decompose::DecompositionParams;
use strix_tfhe::glwe::GlweKeyProduct;
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::poly::TorusPolynomial;
use strix_tfhe::prelude::*;
use strix_tfhe::rng::NoiseSampler;
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
    let bsk = ClassicalBootstrapKey::generate_for_benchmark(&params);
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
/// on the same ciphertexts, each on its own timing-equivalent server.
/// Each server is dropped before the next is built (the g = 4 key is 4x
/// the classical footprint).
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

    // One server per kernel, from one seed: each holds only its own
    // blind-rotation key, and only one is alive at a time.
    let kernels =
        std::iter::once(("classical_batch8".to_string(), PbsKernel::Classical)).chain((2..=4).map(
            |g| (format!("multi_bit_g{g}_batch8"), PbsKernel::MultiBit { grouping_factor: g }),
        ));
    for (name, kernel) in kernels {
        let server = ServerKey::generate_for_benchmark(&params.clone().with_kernel(kernel), 11);
        let bsk = server.bootstrap_key();
        group.bench_function(name, |b| b.iter(|| bsk.bootstrap_batch(&jobs).unwrap()));
    }
    group.finish();
}

/// Real key material at set II: one GLWE row's exact key product, a
/// classical server key, its seeded transport form, that form's
/// expansion, and a multi-bit g = 3 server key (its grouped key alone).
/// Every GLWE row of each key goes through the key product.
fn bench_keygen(c: &mut Criterion) {
    let mut group = c.benchmark_group("keygen");
    group.sample_size(10);
    let params = TfheParameters::set_ii();
    let mut client = ClientKey::generate(&params, 9);

    // One row (k = 1, N = 1024) under the plan and key spectra a key
    // generation call builds once: the per-row cost of every key below.
    let fft = NegacyclicFft::with_backend(params.polynomial_size, params.fft_backend).unwrap();
    let mut product = GlweKeyProduct::new(client.glwe_secret_key(), &fft);
    let mask: Vec<u64> =
        (0..params.polynomial_size as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let mut body = vec![0u64; params.polynomial_size];
    group.bench_function("key_product", |b| {
        b.iter(|| product.add_product([mask.as_slice()], &mut body, false))
    });

    // The draw stage's floor: one set-II key's noise words — n entries
    // of (k+1)·l rows of N — drawn on one thread. Key generation's
    // helper thread draws these (and the cheaper masks) while the
    // calling thread runs the products and transforms.
    let noise_words = params.lwe_dimension * params.ggsw_row_count() * params.polynomial_size;
    let mut sampler = NoiseSampler::from_seed(9);
    let std = params.glwe_noise_std;
    group.bench_function("noise_stream", |b| {
        b.iter(|| (0..noise_words).fold(0u64, |acc, _| acc ^ sampler.gaussian_torus(std)))
    });

    group.bench_function("server_key", |b| b.iter(|| client.server_key()));
    group.bench_function("seeded_server_key", |b| b.iter(|| client.seeded_server_key(3)));
    let seeded = client.seeded_server_key(3);
    group.bench_function("seeded_expand", |b| b.iter(|| seeded.expand()));
    let multi_bit = params.with_kernel(PbsKernel::MultiBit { grouping_factor: 3 });
    let mut client = ClientKey::generate(&multi_bit, 9);
    group.bench_function("server_key_multi_bit_g3", |b| b.iter(|| client.server_key()));
    group.finish();
}

criterion_group!(benches, bench_decomposition, bench_pbs_and_gate, bench_pbs_kernels, bench_keygen);
criterion_main!(benches);
