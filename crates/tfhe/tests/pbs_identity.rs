//! One table-driven identity suite for the blind-rotation engine, on
//! real encrypted keys, over kernel ∈ {classical, multi-bit g=2, g=3,
//! g=4} × batch ∈ {1, 3, 4, 5, 9} × threads ∈ {1, 2, 3}:
//!
//! * a batch equals its jobs run as concatenated batches of one
//!   (`bootstrap`) and equals the parallel sharded path, bit for bit;
//! * the classical kernel equals the per-job reference
//!   (`blind_rotate_reference`), so a single PBS — a batch of one
//!   through the blocked engine — is pinned on real keys;
//! * shape mismatches are rejected with a typed error, validated before
//!   any thread spawns;
//! * a scratch sized for another key shape panics.
//!
//! Batch sizes straddle the CMUX job block of 4 (partial and multiple
//! blocks), one job is a trivial ciphertext whose every rotation is
//! zero (the skip path inside a block), and the g = 4 key runs at
//! n = 14, so its last group is a width-2 remainder.
//!
//! A server holds one blind-rotation key, so the classical key comes
//! from its own server, built from the g = 2 server's seed: the two
//! share their secret keys, and the classical kernel runs on the g = 2
//! server's ciphertexts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use strix_tfhe::bootstrap::{BootstrapKey, ClassicalBootstrapKey, Lut, PbsJob};
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::prelude::*;
use strix_tfhe::scratch::PbsScratch;

const BATCHES: [usize; 5] = [1, 3, 4, 5, 9];
const THREADS: [usize; 3] = [1, 2, 3];

/// Server keys for g = 2 and g = 3 at the base parameters and for g = 4
/// at n = 14, nine inputs encrypted under each, a classical server over
/// the g = 2 server's secret keys, and two LUTs the jobs alternate.
struct Fixture {
    params: TfheParameters,
    keys: Vec<(ServerKey, Vec<LweCiphertext>)>,
    classical: ServerKey,
    luts: [Lut; 2],
}

impl Fixture {
    fn jobs(&self, key: usize) -> Vec<PbsJob<'_>> {
        let cts = &self.keys[key].1;
        cts.iter().enumerate().map(|(i, ct)| PbsJob { ct, lut: &self.luts[i % 2] }).collect()
    }
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = TfheParameters::testing_fast();
        let keys = [(2usize, params.lwe_dimension), (3, params.lwe_dimension), (4, 14)]
            .into_iter()
            .map(|(g, n)| {
                let mut keyed =
                    params.clone().with_kernel(PbsKernel::MultiBit { grouping_factor: g });
                keyed.lwe_dimension = n;
                let (mut client, server) = generate_keys(&keyed, seed(g));
                let mut cts: Vec<LweCiphertext> = (0..9u64)
                    .map(|m| client.encrypt_shortint(m % 4, 2).unwrap().as_lwe().clone())
                    .collect();
                cts[2] = LweCiphertext::trivial(n, 1 << 61);
                (server, cts)
            })
            .collect();
        let classical = ClientKey::generate(&params, seed(2)).server_key();
        let n = params.polynomial_size;
        let luts = [Lut::from_function(n, 2, |m| (3 * m + 1) % 4).unwrap(), Lut::sign(n, 1 << 61)];
        Fixture { params, keys, classical, luts }
    })
}

/// The key seed of the g-grouped server.
fn seed(g: usize) -> u64 {
    90 + g as u64
}

fn batch_identity(kernel: &str, key: &BootstrapKey, jobs: &[PbsJob<'_>]) {
    let singles: Vec<LweCiphertext> =
        jobs.iter().map(|job| key.bootstrap(job.ct, job.lut).unwrap()).collect();
    for batch in BATCHES {
        let batched = key.bootstrap_batch(&jobs[..batch]).unwrap();
        assert_eq!(batched, singles[..batch], "{kernel}: batch {batch} vs batches of one");
        for threads in THREADS {
            let parallel = key.bootstrap_batch_parallel(&jobs[..batch], threads).unwrap();
            assert_eq!(parallel, batched, "{kernel}: batch {batch} on {threads} threads");
        }
    }
}

#[test]
fn batch_equals_batches_of_one_equals_parallel() {
    let fx = fixture();
    let (g2, g3, g4) = (&fx.keys[0].0, &fx.keys[1].0, &fx.keys[2].0);
    batch_identity("classical", fx.classical.bootstrap_key(), &fx.jobs(0));
    batch_identity("multi-bit g=2", g2.bootstrap_key(), &fx.jobs(0));
    batch_identity("multi-bit g=3", g3.bootstrap_key(), &fx.jobs(1));
    batch_identity("multi-bit g=4", g4.bootstrap_key(), &fx.jobs(2));
}

#[test]
fn classical_kernel_equals_the_reference() {
    let fx = fixture();
    let BootstrapKey::Classical(bsk) = fx.classical.bootstrap_key() else {
        panic!("a classical server holds the classical key");
    };
    let jobs = fx.jobs(0);
    let batched = bsk.bootstrap_batch(&jobs).unwrap();
    for (i, job) in jobs.iter().enumerate() {
        let reference = bsk.blind_rotate_reference(job.ct, job.lut).unwrap().sample_extract();
        assert_eq!(bsk.bootstrap(job.ct, job.lut).unwrap(), reference, "job {i}: single PBS");
        assert_eq!(batched[i], reference, "job {i}: batch of {}", jobs.len());
    }
}

fn rejects_shape_mismatch(kernel: &str, key: &BootstrapKey, fx: &Fixture) {
    let good = LweCiphertext::trivial(key.input_dimension(), 0);
    let long = LweCiphertext::trivial(key.input_dimension() + 1, 0);
    let wide = Lut::sign(2 * fx.params.polynomial_size, 1);
    for (ct, lut, what) in
        [(&long, &fx.luts[0], "lwe dimension"), (&good, &wide, "polynomial size")]
    {
        // The bad job comes last, behind enough good jobs to fill every shard.
        let mut jobs = vec![PbsJob { ct: &good, lut: &fx.luts[0] }; 4];
        jobs.push(PbsJob { ct, lut });
        for threads in THREADS {
            let err = key.bootstrap_batch_parallel(&jobs, threads).unwrap_err();
            assert!(
                matches!(err, TfheError::ParameterMismatch { what: w, .. } if w == what),
                "{kernel}, {threads} threads: {err:?}"
            );
        }
        assert!(key.bootstrap(ct, lut).is_err(), "{kernel}: single {what}");
    }
}

#[test]
fn shape_mismatch_is_rejected_before_any_thread_spawns() {
    let fx = fixture();
    let (g2, g3, g4) = (&fx.keys[0].0, &fx.keys[1].0, &fx.keys[2].0);
    rejects_shape_mismatch("classical", fx.classical.bootstrap_key(), fx);
    rejects_shape_mismatch("multi-bit g=2", g2.bootstrap_key(), fx);
    rejects_shape_mismatch("multi-bit g=3", g3.bootstrap_key(), fx);
    rejects_shape_mismatch("multi-bit g=4", g4.bootstrap_key(), fx);
}

fn assert_scratch_panics(key: &BootstrapKey, mut scratch: PbsScratch, what: &str) {
    let fx = fixture();
    let job = fx.jobs(0)[0];
    let result =
        catch_unwind(AssertUnwindSafe(|| key.blind_rotate_with(job.ct, job.lut, &mut scratch)));
    let payload = result.expect_err("a wrong-shape scratch must panic");
    let message = payload.downcast_ref::<String>().map_or("", String::as_str);
    assert!(message.contains(what), "expected `{what}`, got `{message}`");
}

#[test]
fn wrong_shape_scratch_panics() {
    let fx = fixture();
    let (classical, mb2, mb3) =
        (fx.classical.bootstrap_key(), fx.keys[0].0.bootstrap_key(), fx.keys[1].0.bootstrap_key());
    let mut wide = fx.params.clone();
    wide.polynomial_size *= 2;
    let wide_scratch = ClassicalBootstrapKey::generate_for_benchmark(&wide).scratch();
    assert_scratch_panics(classical, wide_scratch, "scratch polynomial size mismatch");
    assert_scratch_panics(classical, mb2.scratch(), "scratch grouping factor mismatch");
    assert_scratch_panics(mb2, mb3.scratch(), "scratch grouping factor mismatch");
    assert_scratch_panics(mb3, classical.scratch(), "scratch grouping factor mismatch");
}
