//! Correctness of the grouped (multi-bit) blind-rotation kernel
//! against the classical kernel it replaces.
//!
//! The contract pinned here: for any epoch shape — grouping factor
//! g ∈ {2, 3, 4}, polynomial size N ∈ {512, 1024}, job counts that do not
//! divide the CMUX job block, LWE dimensions that leave a remainder
//! group, zero-rotation (trivial-mask) jobs — the grouped kernel must
//! decode to the same message the classical kernel produces, and its
//! parallel path must be *bit*-identical to its sequential path.
//!
//! A server holds one blind-rotation key, so each entry carries two
//! servers built from one seed — one per kernel — over the same secret
//! keys: a ciphertext of the entry's client decrypts under both.

use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;

use strix_tfhe::bootstrap::{Lut, PbsJob};
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::prelude::*;
use strix_tfhe::torus::decode_message;

const MESSAGE_BITS: u32 = 2;

/// One keyed configuration of the kernel matrix. Key generation is the
/// expensive part, so the five (g, N, n) combinations are built once and
/// shared by every proptest case; the client sits behind a mutex because
/// encryption advances its noise rng.
struct Fixture {
    params: TfheParameters,
    client: Mutex<ClientKey>,
    /// The multi-bit server.
    server: ServerKey,
    /// The classical server over the same secret keys.
    classical: ServerKey,
    lut: Lut,
}

impl Fixture {
    fn encrypt(&self, m: u64) -> LweCiphertext {
        let mut client = self.client.lock().unwrap();
        client.encrypt_shortint(m, MESSAGE_BITS).unwrap().as_lwe().clone()
    }

    /// A zero-rotation job: every mask digit mod-switches to zero, so
    /// both kernels take their explicit skip path.
    fn trivial(&self, m: u64) -> LweCiphertext {
        let pt = m << (64 - MESSAGE_BITS - 1);
        LweCiphertext::trivial(self.params.lwe_dimension, pt)
    }

    fn decode(&self, ct: &LweCiphertext) -> u64 {
        let client = self.client.lock().unwrap();
        let phase = client.decrypt_phase(ct).unwrap();
        decode_message(phase, MESSAGE_BITS + 1)
    }
}

fn lut_fn(m: u64) -> u64 {
    (3 * m + 1) % 4
}

/// The kernel matrix: g ∈ {2, 3} × N ∈ {512, 1024}, plus g = 4 at
/// N = 512, with LWE dimensions chosen so the group split exercises an
/// exact divide (14 = 7·2), a width-1 remainder (13 mod 2, 13 mod 3)
/// and a width-2 remainder (14 mod 3, 14 mod 4).
fn fixtures() -> &'static Vec<Fixture> {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        [(2usize, 512usize, 14usize), (2, 1024, 13), (3, 512, 14), (3, 1024, 13), (4, 512, 14)]
            .iter()
            .map(|&(g, poly, n)| {
                let mut params = TfheParameters::testing_fast();
                params.name = format!("mb-test-g{g}-n{poly}");
                params.lwe_dimension = n;
                params.polynomial_size = poly;
                params.pbs_kernel = PbsKernel::MultiBit { grouping_factor: g };
                params.validate().unwrap();
                let seed = 0xC0FFEE ^ (g as u64) << 16 ^ poly as u64;
                let (client, server) = generate_keys(&params, seed);
                assert!(server.multi_bit_bootstrap_key().is_some());
                let classical = params.clone().with_kernel(PbsKernel::Classical);
                let classical = ClientKey::generate(&classical, seed).server_key();
                let lut = Lut::from_function(poly, MESSAGE_BITS, lut_fn).unwrap();
                Fixture { params, client: Mutex::new(client), server, classical, lut }
            })
            .collect()
    })
}

proptest! {
    // PBS-heavy properties: each case runs three full batches.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every kernel-matrix entry and any epoch shape, the grouped
    /// kernel decodes like the classical kernel, and its parallel path
    /// is bit-identical to its sequential path.
    #[test]
    fn grouped_kernel_decodes_identically_to_classical(
        fixture_idx in 0usize..5,
        // (message, use a zero-rotation trivial ciphertext?) per job;
        // lengths 1..6 straddle the CMUX job block of 4.
        job_spec in prop::collection::vec((0u64..4, any::<bool>()), 1..6),
        threads in 1usize..=5,
    ) {
        let fx = &fixtures()[fixture_idx];
        let cts: Vec<LweCiphertext> = job_spec
            .iter()
            .map(|&(m, trivial)| if trivial { fx.trivial(m) } else { fx.encrypt(m) })
            .collect();
        let jobs: Vec<PbsJob<'_>> =
            cts.iter().map(|ct| PbsJob { ct, lut: &fx.lut }).collect();

        let classical = fx.classical.bootstrap_key().bootstrap_batch(&jobs).unwrap();
        let mbsk = fx.server.multi_bit_bootstrap_key().unwrap();
        let grouped = mbsk.bootstrap_batch(&jobs).unwrap();
        let grouped_parallel = mbsk.bootstrap_batch_parallel(&jobs, threads).unwrap();
        prop_assert_eq!(
            &grouped_parallel, &grouped,
            "parallel grouped path diverged ({} jobs, {} threads, {})",
            jobs.len(), threads, fx.params.name
        );

        for (i, &(m, trivial)) in job_spec.iter().enumerate() {
            let expected = lut_fn(m);
            prop_assert_eq!(
                fx.decode(&classical[i]), expected,
                "classical kernel wrong at job {} ({})", i, &fx.params.name
            );
            prop_assert_eq!(
                fx.decode(&grouped[i]), expected,
                "grouped kernel wrong at job {} ({})", i, &fx.params.name
            );
            if trivial {
                // Zero rotations hit the skip path in both kernels, so
                // the two accumulators — and hence the extracted
                // outputs — agree bit for bit.
                prop_assert_eq!(
                    &grouped[i], &classical[i],
                    "zero-rotation job {} not a bit-exact passthrough ({})",
                    i, &fx.params.name
                );
            }
        }
    }
}

#[test]
fn grouped_batch_matches_grouped_singles() {
    // Batched (job-blocked) execution must agree bit for bit with the
    // one-job-at-a-time path on every kernel-matrix entry.
    for fx in fixtures() {
        let cts: Vec<LweCiphertext> = (0..5).map(|m| fx.encrypt(m % 4)).collect();
        let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &fx.lut }).collect();
        let mbsk = fx.server.multi_bit_bootstrap_key().unwrap();
        let batched = mbsk.bootstrap_batch(&jobs).unwrap();
        for (job, out) in jobs.iter().zip(&batched) {
            let single = mbsk.bootstrap(job.ct, job.lut).unwrap();
            assert_eq!(&single, out, "{}", fx.params.name);
        }
    }
}

#[test]
fn all_zero_blocks_take_the_early_return_bit_exactly() {
    // Five zero-rotation jobs straddle the CMUX job block of 4, so the
    // grouped kernel's whole-block early return fires (no job in the
    // block is active) as well as the partial-block path. Both must be
    // bit-exact passthroughs, matching the classical oracle's skip.
    for fx in fixtures() {
        let cts: Vec<LweCiphertext> = (0..5).map(|m| fx.trivial(m % 4)).collect();
        let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &fx.lut }).collect();
        let classical = fx.classical.bootstrap_key().bootstrap_batch(&jobs).unwrap();
        let grouped = fx.server.bootstrap_key().bootstrap_batch(&jobs).unwrap();
        assert_eq!(grouped, classical, "{}", fx.params.name);
        for (i, (out, &m)) in grouped.iter().zip([0u64, 1, 2, 3, 0].iter()).enumerate() {
            assert_eq!(fx.decode(out), lut_fn(m), "job {i} ({})", fx.params.name);
        }
    }
}

#[test]
fn forced_portable_backend_matches_the_detected_backend_on_grouped_pbs() {
    // Same contract as the classical-kernel test in `soa_cmux.rs`, for
    // the grouped path: its transforms run through the backend kernels
    // and its fused tiled VMA is plain autovectorised Rust, so a
    // multi-bit key forced to the portable tier must produce byte-equal
    // outputs to one on the auto-detected tier.
    use strix_tfhe::bootstrap::MultiBitBootstrapKey;
    use strix_tfhe::StrixFftBackend;

    let fx = &fixtures()[1]; // g = 2, N = 1024, n = 13 (width-1 remainder)
    let portable_key = MultiBitBootstrapKey::generate_for_benchmark(
        &fx.params.clone().with_fft_backend(StrixFftBackend::Portable),
        2,
    );
    let auto_key = MultiBitBootstrapKey::generate_for_benchmark(&fx.params, 2);
    let cts: Vec<LweCiphertext> = (0..5).map(|m| fx.trivial(m % 4)).collect();
    // Dense masks too: trivial jobs alone would skip every CMUX.
    let dense: Vec<LweCiphertext> = (0..5)
        .map(|j| {
            let mut state = 0xD1CEu64 + j;
            let next = |s: &mut u64| {
                *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = *s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            LweCiphertext::from_raw(
                (0..=fx.params.lwe_dimension).map(|_| next(&mut state)).collect(),
            )
        })
        .collect();
    for cts in [&cts, &dense] {
        let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &fx.lut }).collect();
        assert_eq!(
            portable_key.bootstrap_batch(&jobs).unwrap(),
            auto_key.bootstrap_batch(&jobs).unwrap(),
            "auto backend ({}) diverged from portable on the grouped kernel",
            auto_key.fft().backend()
        );
    }
}

#[test]
fn empty_epoch_and_shape_mismatch_are_handled() {
    let fx = &fixtures()[0];
    let mbsk = fx.server.multi_bit_bootstrap_key().unwrap();
    assert!(mbsk.bootstrap_batch(&[]).unwrap().is_empty());
    assert!(mbsk.bootstrap_batch_parallel(&[], 4).unwrap().is_empty());
    // A ciphertext of the wrong dimension is rejected, not mangled.
    let bad = LweCiphertext::trivial(fx.params.lwe_dimension + 1, 0);
    assert!(mbsk.check_shape(&bad, &fx.lut).is_err());
}
