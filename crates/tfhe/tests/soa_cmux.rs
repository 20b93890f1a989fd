//! Bit-identity of the coefficient-batched (SoA, job-blocked) blind
//! rotation against the classical per-job reference, across parameter
//! shapes and job counts.
//!
//! The blocked engine re-schedules the external product across jobs —
//! batched split-complex FFTs, a row-major VMA over each block, a
//! batched inverse — but performs the same per-job arithmetic in the
//! same per-job order as the reference
//! (`blind_rotate_reference` → `external_product`, which runs the same
//! batched transforms one job at a time). These tests
//! pin that equivalence at the bit level, including:
//!
//! * every combination of k ∈ {1, 2}, N ∈ {512, 1024, 2048} and
//!   level ∈ {2, 3} (first-stage radix of the half-size kernel flips
//!   between the sizes, and the digit-batch shape (k+1)·l covers
//!   4/6/9),
//! * job counts that do **not** divide `CMUX_JOB_BLOCK` (partial final
//!   blocks) and jobs whose masks modulus-switch to zero rotations
//!   (skipped inside a block),
//! * the parallel sharded entry point (`bootstrap_batch_parallel`).
//!
//! Keys here are real encryptions of a random secret at each shape,
//! and the ciphertexts carry dense pseudo-random masks: after the first
//! CMUX every accumulator polynomial, and so every gadget level and
//! every key row, carries dense low bits, so a reference that dropped a
//! level or summed the rows in another order moves bits here. A trivial
//! key would keep the accumulator trivial under these LUTs (multiples of
//! 2⁶¹) and every digit below level 1 zero, hiding both faults. The same
//! identities on both kernels are pinned by `pbs_identity.rs`.

use std::sync::OnceLock;

use proptest::prelude::*;

use strix_tfhe::bootstrap::{BootstrapKey, ClassicalBootstrapKey, Lut, PbsJob};
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::scratch::CMUX_JOB_BLOCK;
use strix_tfhe::torus::encode_fraction;
use strix_tfhe::{ClientKey, StrixFftBackend, TfheParameters};

/// Small LWE dimension: enough blind-rotation iterations to exercise
/// many (entry, block) steps while keeping 2048-point transforms fast.
const TEST_LWE_DIM: usize = 12;

fn shaped_params(k: usize, n: usize, level: usize) -> TfheParameters {
    let mut p = TfheParameters::set_ii();
    p.name = format!("soa-test-k{k}-n{n}-l{level}");
    p.lwe_dimension = TEST_LWE_DIM;
    p.glwe_dimension = k;
    p.polynomial_size = n;
    p.pbs_level = level;
    p.validate().expect("test parameter shape must be valid");
    p
}

/// A real key at `params`' shape: the blind-rotation key of a client of
/// `seed`, its LWE secret encrypted under its GLWE secret.
fn real_key(params: &TfheParameters, seed: u64) -> ClassicalBootstrapKey {
    match ClientKey::generate(params, seed).server_key().bootstrap_key() {
        BootstrapKey::Classical(key) => key.clone(),
        BootstrapKey::MultiBit(_) => panic!("classical parameters give a classical key"),
    }
}

/// splitmix64 — dense pseudo-random torus values so every mask element
/// modulus-switches to a non-trivial rotation.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_ct(seed: u64, dim: usize) -> LweCiphertext {
    let mut state = seed;
    LweCiphertext::from_raw((0..=dim).map(|_| splitmix(&mut state)).collect())
}

/// The classical per-job reference, one job at a time.
fn oracle_outputs(bsk: &ClassicalBootstrapKey, jobs: &[PbsJob<'_>]) -> Vec<LweCiphertext> {
    jobs.iter()
        .map(|job| bsk.blind_rotate_reference(job.ct, job.lut).unwrap().sample_extract())
        .collect()
}

#[test]
fn blocked_cmux_is_bit_identical_to_per_job_oracle_across_shapes() {
    for k in [1usize, 2] {
        for n in [512usize, 1024, 2048] {
            for level in [2usize, 3] {
                let params = shaped_params(k, n, level);
                let bsk = real_key(&params, (k * n * level) as u64);
                let lut = Lut::sign(n, encode_fraction(1, 3));
                // CMUX_JOB_BLOCK + 1 jobs: one full block plus a
                // partial block of one.
                let cts: Vec<LweCiphertext> = (0..CMUX_JOB_BLOCK as u64 + 1)
                    .map(|j| random_ct(0xA5A5 + j + (k * n * level) as u64, TEST_LWE_DIM))
                    .collect();
                let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();
                let blocked = bsk.bootstrap_batch(&jobs).unwrap();
                let oracle = oracle_outputs(&bsk, &jobs);
                assert_eq!(blocked, oracle, "k={k} n={n} level={level}");
            }
        }
    }
}

#[test]
fn blocked_cmux_handles_zero_rotations_inside_a_block() {
    // A trivial ciphertext (all-zero mask) skips every CMUX; mixing it
    // into a block with active jobs must leave both its own output and
    // its neighbours' outputs bit-identical to the oracle.
    let params = shaped_params(1, 512, 2);
    let bsk = real_key(&params, 0xBEEF);
    let lut = Lut::sign(512, encode_fraction(1, 3));
    let mut cts: Vec<LweCiphertext> =
        (0..6u64).map(|j| random_ct(0xBEEF + j, TEST_LWE_DIM)).collect();
    cts[1] = LweCiphertext::trivial(TEST_LWE_DIM, encode_fraction(1, 3));
    cts[4] = LweCiphertext::trivial(TEST_LWE_DIM, 0);
    let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();
    assert_eq!(bsk.bootstrap_batch(&jobs).unwrap(), oracle_outputs(&bsk, &jobs));
}

#[test]
fn forced_portable_backend_is_bit_identical_to_the_detected_backend() {
    // The SIMD backends promise bit-identity with the portable scalar
    // kernels; the strongest end-to-end statement is two keys over the
    // same parameters — one forced portable, one on the auto-detected
    // tier — producing byte-equal PBS outputs. On hosts where auto
    // resolves to portable this degenerates to a self-comparison,
    // which is fine: it then costs one extra keygen, not coverage.
    for n in [1024usize, 2048] {
        let params = shaped_params(1, n, 2);
        let portable_key =
            real_key(&params.clone().with_fft_backend(StrixFftBackend::Portable), n as u64);
        let auto_key = real_key(&params, n as u64);
        let lut = Lut::sign(n, encode_fraction(1, 3));
        let cts: Vec<LweCiphertext> =
            (0..4u64).map(|j| random_ct(0xF0CA + j + n as u64, TEST_LWE_DIM)).collect();
        let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();
        assert_eq!(
            portable_key.bootstrap_batch(&jobs).unwrap(),
            auto_key.bootstrap_batch(&jobs).unwrap(),
            "n={n}: auto backend ({}) diverged from portable",
            auto_key.fft().backend()
        );
    }
}

/// Shared fixture for the proptest cases (keygen once, not per case).
fn fixture() -> &'static (TfheParameters, ClassicalBootstrapKey, Lut, Lut) {
    static FIXTURE: OnceLock<(TfheParameters, ClassicalBootstrapKey, Lut, Lut)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = shaped_params(1, 512, 3);
        let bsk = real_key(&params, 0x5EED);
        let lut_sign = Lut::sign(512, encode_fraction(1, 3));
        let lut_id = Lut::from_function(512, 2, |m| m).unwrap();
        (params, bsk, lut_sign, lut_id)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random job counts (including counts ≠ 0 mod CMUX_JOB_BLOCK),
    /// random masks, mixed LUTs: blocked batch == per-job reference,
    /// bit for bit, and the parallel sharded path agrees too.
    #[test]
    fn blocked_batch_matches_oracle_for_uneven_job_counts(
        job_count in 1usize..=2 * CMUX_JOB_BLOCK + 3,
        seed in any::<u64>(),
        threads in 1usize..=5,
    ) {
        let (_, bsk, lut_sign, lut_id) = fixture();
        let cts: Vec<LweCiphertext> =
            (0..job_count as u64).map(|j| random_ct(seed ^ j, TEST_LWE_DIM)).collect();
        let jobs: Vec<PbsJob<'_>> = cts
            .iter()
            .enumerate()
            .map(|(i, ct)| PbsJob { ct, lut: if i % 2 == 0 { lut_sign } else { lut_id } })
            .collect();
        let oracle = oracle_outputs(bsk, &jobs);
        prop_assert_eq!(&bsk.bootstrap_batch(&jobs).unwrap(), &oracle);
        prop_assert_eq!(&bsk.bootstrap_batch_parallel(&jobs, threads).unwrap(), &oracle);
    }
}

#[test]
fn profiled_batch_is_bit_identical_and_records_all_cmux_stages() {
    use strix_tfhe::profiler::{PbsStage, StageTimings};
    let (_, bsk, lut_sign, _) = fixture();
    let cts: Vec<LweCiphertext> = (0..5u64).map(|j| random_ct(0xCAFE + j, TEST_LWE_DIM)).collect();
    let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: lut_sign }).collect();
    let mut timings = StageTimings::new();
    let profiled = bsk.bootstrap_batch_profiled(&jobs, &mut timings).unwrap();
    assert_eq!(profiled, bsk.bootstrap_batch(&jobs).unwrap());
    for stage in [
        PbsStage::ModSwitch,
        PbsStage::Rotate,
        PbsStage::Decompose,
        PbsStage::Fft,
        PbsStage::VectorMultiply,
        PbsStage::IfftAccumulate,
        PbsStage::SampleExtract,
    ] {
        assert!(timings.total_for(stage) > std::time::Duration::ZERO, "{stage:?} not recorded");
    }
}
