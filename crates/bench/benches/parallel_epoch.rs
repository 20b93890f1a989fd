//! Parallel-epoch PBS scaling: one epoch of key-major batched
//! bootstraps sharded across 1/2/4/8 scoped threads via
//! `BootstrapKey::bootstrap_batch_parallel`, reporting achieved PBS/s
//! per thread count and the speedup over the sequential path.
//!
//! Every shard shares the one bootstrapping key and runs on its own
//! allocation-free `PbsScratch`, so the measured scaling is the
//! software ceiling of the paper's two-level batching: core-level
//! batching inside each shard, device-level parallelism across shards.
//!
//! ```sh
//! cargo bench -p strix-bench --bench parallel_epoch
//! ```

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use strix_bench::{banner, markdown_table};
use strix_tfhe::bootstrap::{ClassicalBootstrapKey, Lut, PbsJob};
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::prelude::*;
use strix_tfhe::rng::NoiseSampler;
use strix_tfhe::torus::encode_fraction;

/// Jobs per epoch — the paper-default core batch (32).
const EPOCH: usize = 32;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct EpochFixture {
    bsk: ClassicalBootstrapKey,
    cts: Vec<LweCiphertext>,
    lut: Lut,
}

impl EpochFixture {
    /// Timing-equivalent fixture: a benchmark key (same arithmetic
    /// shape as a real one) and uniformly random ciphertexts, so every
    /// CMUX iteration does full rotate/decompose/FFT/VMA work.
    fn new(params: &TfheParameters) -> Self {
        let bsk = ClassicalBootstrapKey::generate_for_benchmark(params);
        let mut rng = NoiseSampler::from_seed(0x5712);
        let cts = (0..EPOCH)
            .map(|_| {
                let mut raw = vec![0u64; params.lwe_dimension + 1];
                rng.fill_uniform(&mut raw);
                LweCiphertext::from_raw(raw)
            })
            .collect();
        let lut = Lut::sign(params.polynomial_size, encode_fraction(1, 3));
        Self { bsk, cts, lut }
    }

    fn jobs(&self) -> Vec<PbsJob<'_>> {
        self.cts.iter().map(|ct| PbsJob { ct, lut: &self.lut }).collect()
    }
}

fn parallel_epoch(c: &mut Criterion) {
    println!("{}", banner("Parallel epoch: PBS/s vs intra-epoch threads"));
    let params = TfheParameters::testing_fast();
    let fixture = EpochFixture::new(&params);
    let jobs = fixture.jobs();
    println!(
        "epoch of {} PBS at {} (n={}, N={}, l={}), host parallelism {}",
        EPOCH,
        params.name,
        params.lwe_dimension,
        params.polynomial_size,
        params.pbs_level,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );

    let mut group = c.benchmark_group("parallel_epoch");
    group.throughput(Throughput::Elements(EPOCH as u64));
    for threads in THREAD_COUNTS {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| black_box(fixture.bsk.bootstrap_batch_parallel(&jobs, t).unwrap()));
        });
    }
    group.finish();

    // Scaling table: a fixed-repetition measurement per thread count so
    // the speedup column compares like against like.
    let reps = 3;
    let measure = |threads: usize| -> f64 {
        let t0 = Instant::now();
        for _ in 0..reps {
            black_box(fixture.bsk.bootstrap_batch_parallel(&jobs, threads).unwrap());
        }
        (reps * EPOCH) as f64 / t0.elapsed().as_secs_f64()
    };
    // Warm-up, then baseline.
    let _ = measure(1);
    let base = measure(1);
    let rows: Vec<Vec<String>> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let pbs_per_s = if threads == 1 { base } else { measure(threads) };
            vec![
                threads.to_string(),
                format!("{pbs_per_s:.1}"),
                format!("{:.2}x", pbs_per_s / base),
            ]
        })
        .collect();
    println!();
    println!("{}", markdown_table(&["threads", "PBS/s", "speedup vs 1 thread"], &rows));
}

criterion_group!(benches, parallel_epoch);
criterion_main!(benches);
