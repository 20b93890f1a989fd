//! Per-layer probes of the traced run: direct calls into one layer's
//! public functions, wrapped in spans, priced next to the end-to-end
//! number they are supposed to move. Operation counts and bytes are
//! computed from shapes and labelled so; nothing here claims to have
//! measured cache misses.

use std::hint::black_box;
use std::time::Instant;

use strix_core::{StrixConfig, StrixSimulator};
use strix_fft::{Complex64, NegacyclicFft, SoaSpectrum};
use strix_tfhe::bootstrap::{BootstrapKey, Lut, MultiBitBootstrapKey, PbsJob};
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::profiler::{PbsStage, StageTimings};
use strix_tfhe::{PbsKernel, ServerKey, TfheError, TfheParameters};

use crate::provenance;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{Outcome, EPOCH};

/// Transforms per batched FFT call, the width the CMUX path uses.
const FFT_BATCH: usize = 8;

/// Median seconds per call over `samples` samples of `reps` calls.
pub fn time_per_call(samples: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let per_sample: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&per_sample)
}

/// `fft`: the batched negacyclic transforms and one VMA key row at the
/// workload's polynomial size.
pub fn fft(out: &mut Outcome, rec: &mut Recorder) {
    let span = rec.enter("fft.probe");
    let n = out.params.polynomial_size;
    let fft = NegacyclicFft::new(n).expect("shipped polynomial sizes are powers of two");
    let polys: Vec<i64> = (0..(n * FFT_BATCH) as i64).map(|i| (i * 31 % 1024) - 512).collect();
    let mut spectra = SoaSpectrum::new(FFT_BATCH, n / 2);
    let mut time = vec![0.0f64; n * FFT_BATCH];

    let forward =
        time_per_call(15, 200, || fft.forward_i64_many(&polys, &mut spectra).expect("shapes"));
    // The inverse consumes its input, so each call transforms a fresh
    // copy and the copy is priced separately.
    let mut scratch = SoaSpectrum::new(FFT_BATCH, n / 2);
    let inverse = time_per_call(15, 200, || {
        scratch.copy_from(&spectra);
        fft.backward_f64_many(&mut scratch, &mut time).expect("shapes");
    });
    let copy = time_per_call(15, 200, || {
        scratch.copy_from(&spectra);
        black_box(&scratch);
    });
    black_box(&time);

    // One key row of the VMA: (k+1)·N/2 points, interleaved
    // accumulator and digit spectrum against split key planes.
    let row = (out.params.glwe_dimension + 1) * n / 2;
    let digit: Vec<Complex64> =
        (0..row).map(|i| Complex64::new(i as f64 * 0.5, 1.0 - i as f64)).collect();
    let (key_re, key_im): (Vec<f64>, Vec<f64>) =
        (0..row).map(|i| (1.0 / (1.0 + i as f64), 0.25 * i as f64)).unzip();
    let mut acc = vec![Complex64::ZERO; row];
    let vma = time_per_call(15, 400, || {
        fft.pointwise_mul_add_key(&mut acc, &digit, &key_re, &key_im);
    });
    black_box(&acc);
    rec.exit(span);

    let per_transform_us = 1e6 / FFT_BATCH as f64;
    out.set("fft.forward_us", forward * per_transform_us);
    out.set("fft.inverse_us", (inverse - copy).max(0.0) * per_transform_us);
    out.set("fft.vma_row_us", vma * 1e6);
    out.set("fft.forward_flops", fft_flops(n));
    // i64 coefficients in, split f64 spectrum out, one twist table.
    out.set("fft.bytes_per_transform", (n * 8 + n / 2 * 16 + n / 2 * 16) as f64);
}

/// Computed: a radix-2 complex FFT of `N/2` points costs
/// `5·(N/2)·log2(N/2)` flops and the twist `6·(N/2)`.
fn fft_flops(n: usize) -> f64 {
    let half = (n / 2) as f64;
    5.0 * half * half.log2() + 6.0 * half
}

/// The two bootstrapping-key types behind one set of calls.
enum Bsk<'a> {
    Classical(&'a BootstrapKey),
    MultiBit(&'a MultiBitBootstrapKey),
}

impl Bsk<'_> {
    fn of(server: &ServerKey) -> Bsk<'_> {
        match server.multi_bit_bootstrap_key() {
            Some(key) => Bsk::MultiBit(key),
            None => Bsk::Classical(server.bootstrap_key()),
        }
    }

    fn batch(&self, jobs: &[PbsJob<'_>]) -> Result<Vec<LweCiphertext>, TfheError> {
        match self {
            Bsk::Classical(k) => k.bootstrap_batch(jobs),
            Bsk::MultiBit(k) => k.bootstrap_batch(jobs),
        }
    }

    fn batch_parallel(
        &self,
        jobs: &[PbsJob<'_>],
        threads: usize,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        match self {
            Bsk::Classical(k) => k.bootstrap_batch_parallel(jobs, threads),
            Bsk::MultiBit(k) => k.bootstrap_batch_parallel(jobs, threads),
        }
    }

    fn batch_profiled(
        &self,
        jobs: &[PbsJob<'_>],
        timings: &mut StageTimings,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        match self {
            Bsk::Classical(k) => k.bootstrap_batch_profiled(jobs, timings),
            Bsk::MultiBit(k) => k.bootstrap_batch_profiled(jobs, timings),
        }
    }

    fn single(&self, ct: &LweCiphertext, lut: &Lut) -> Result<LweCiphertext, TfheError> {
        match self {
            Bsk::Classical(k) => k.bootstrap(ct, lut),
            Bsk::MultiBit(k) => k.bootstrap(ct, lut),
        }
    }

    fn byte_size(&self) -> usize {
        match self {
            Bsk::Classical(k) => k.byte_size(),
            Bsk::MultiBit(k) => k.byte_size(),
        }
    }
}

/// What the runtime probes need from the kernel probe.
pub struct KernelCost {
    pub pbs_ms: f64,
    pub keyswitch_us: f64,
}

const STAGES: [(&str, PbsStage); 7] = [
    ("modswitch", PbsStage::ModSwitch),
    ("rotate", PbsStage::Rotate),
    ("decompose", PbsStage::Decompose),
    ("forward_fft", PbsStage::Fft),
    ("vma", PbsStage::VectorMultiply),
    ("inverse_fft", PbsStage::IfftAccumulate),
    ("sample_extract", PbsStage::SampleExtract),
];

/// `tfhe`: the kernel the workload's key selects, at batch 8 and batch
/// 1, with the public profiled entry point's stage split, the keyswitch
/// and the computed bytes and flops of one PBS. With `two_threads` the
/// 2-thread leg runs too, alone on the machine.
pub fn tfhe_kernel(
    out: &mut Outcome,
    rec: &mut Recorder,
    server: &ServerKey,
    inputs: &[LweCiphertext],
    lut: &Lut,
    two_threads: bool,
) -> KernelCost {
    let params = out.params.clone();
    let label = match params.pbs_kernel {
        PbsKernel::Classical => "classical",
        PbsKernel::MultiBit { .. } => "multibit",
    };
    let bsk = Bsk::of(server);
    let jobs: Vec<PbsJob<'_>> = inputs.iter().take(EPOCH).map(|ct| PbsJob { ct, lut }).collect();
    let batch = jobs.len() as f64;

    let span = rec.enter("tfhe.probe.bootstrap_batch");
    let per_epoch = time_per_call(7, 1, || {
        black_box(bsk.batch(&jobs).expect("probe shapes match the key"));
    });
    rec.exit(span);
    let pbs_ms = per_epoch * 1e3 / batch;
    out.set(format!("tfhe.{label}.pbs_ms"), pbs_ms);

    let span = rec.enter("tfhe.probe.bootstrap");
    let single = time_per_call(15, 1, || {
        black_box(bsk.single(jobs[0].ct, lut).expect("probe shapes match the key"));
    });
    rec.exit(span);
    if label == "classical" {
        out.set("tfhe.classical.pbs1_ms", single * 1e3);
    }

    let span = rec.enter("tfhe.probe.bootstrap_batch_profiled");
    let mut timings = StageTimings::new();
    let profiled_epochs = 4;
    for _ in 0..profiled_epochs {
        black_box(bsk.batch_profiled(&jobs, &mut timings).expect("probe shapes match the key"));
    }
    rec.exit(span);
    let mut stage_sum_us = 0.0;
    for (name, stage) in STAGES {
        let us = timings.total_for(stage).as_secs_f64() * 1e6 / (profiled_epochs as f64 * batch);
        stage_sum_us += us;
        out.set(format!("tfhe.{label}.stage.{name}_us"), us);
    }
    out.set(format!("tfhe.{label}.stage_sum_ratio"), stage_sum_us / (pbs_ms * 1e3));

    let extracted = bsk.batch(&jobs).expect("probe shapes match the key");
    let ksk = server.keyswitch_key();
    let span = rec.enter("tfhe.probe.keyswitch_batch");
    let ks_epoch = time_per_call(15, 2, || {
        black_box(ksk.keyswitch_batch(&extracted).expect("extracted dimension"));
    });
    rec.exit(span);
    let keyswitch_us = ks_epoch * 1e6 / batch;
    out.set("tfhe.keyswitch_us", keyswitch_us);

    out.set("tfhe.server_key_mb", server.key_bytes() as f64 / 1e6);
    out.set("tfhe.key_bytes_per_pbs", (bsk.byte_size() + ksk.byte_size()) as f64);
    out.set("tfhe.flops_per_pbs", flops_per_pbs(&params));

    if two_threads {
        let span = rec.enter("tfhe.probe.bootstrap_batch_parallel");
        let two = time_per_call(5, 1, || {
            black_box(bsk.batch_parallel(&jobs, 2).expect("probe shapes match the key"));
        });
        rec.exit(span);
        // Rate on two threads over twice the one-thread rate.
        out.set("tfhe.parallel_eff_2t", per_epoch / two / 2.0);
    }
    KernelCost { pbs_ms, keyswitch_us }
}

/// Computed floating-point operations of one blind rotation: per
/// external product `(k+1)·l` forward and `k+1` inverse transforms and
/// a `(k+1)·l x (k+1)` VMA of `N/2` complex multiply-adds (8 flops
/// each); the classical kernel runs `n` of them, the multi-bit kernel
/// `ceil(n/g)` plus `2^g - 1` monomial multiply-adds over a whole GGSW
/// to assemble each group's entry.
fn flops_per_pbs(params: &TfheParameters) -> f64 {
    let (k1, l) = ((params.glwe_dimension + 1) as f64, params.pbs_level as f64);
    let half = (params.polynomial_size / 2) as f64;
    let ggsw_macs = k1 * l * k1 * half * 8.0;
    let external_product = (k1 * l + k1) * fft_flops(params.polynomial_size) + ggsw_macs;
    match params.pbs_kernel {
        PbsKernel::Classical => params.lwe_dimension as f64 * external_product,
        PbsKernel::MultiBit { grouping_factor } => {
            let groups = params.lwe_dimension.div_ceil(grouping_factor) as f64;
            let assemble = ((1u64 << grouping_factor) - 1) as f64 * ggsw_macs;
            groups * (external_product + assemble)
        }
    }
}

/// `host`: a STREAM-style triad `a = b + s·c` over arrays of at least
/// four times the last-level cache (or an eighth of free memory, if
/// that is smaller), and how far the key stream of one PBS is from
/// binding at that bandwidth. The unit tests pass `small` to keep the
/// arrays at a few megabytes.
pub fn host(out: &mut Outcome, rec: &mut Recorder, key_bytes_per_pbs: f64, small: bool) {
    let llc = provenance::llc_bytes().unwrap_or(32 << 20);
    let budget = provenance::mem_available_bytes().unwrap_or(8 << 30) / 8;
    let array_bytes = if small { 4 << 20 } else { (4 * llc).min(budget).max(64 << 20) };
    let len = (array_bytes / 8) as usize;
    let span = rec.enter("host.probe.triad");
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let mut a = vec![0.0f64; len];
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                *a = *b + 3.0 * *c;
            }
            black_box(&a);
            t.elapsed().as_secs_f64()
        })
        .collect();
    rec.exit(span);
    // Two arrays read and one written per pass.
    let gb_per_s = 3.0 * array_bytes as f64 / median(&passes) / 1e9;
    out.set("host.triad_gb_per_s", gb_per_s);
    out.set("host.bw_floor_ms_per_pbs", key_bytes_per_pbs / (gb_per_s * 1e9) * 1e3);
    out.notes.push(format!(
        "host.triad: three arrays of {array_bytes} bytes each, last-level cache {llc} bytes"
    ));
}

/// `core`: the analytic accelerator model is off the serving path; it
/// is kept as a guard that must repeat exactly.
pub fn core(out: &mut Outcome, rec: &mut Recorder) {
    let span = rec.enter("core.probe.pbs_report");
    let t = Instant::now();
    let report = StrixSimulator::new(StrixConfig::paper_default(), out.params.clone())
        .map(|sim| sim.pbs_report(4096));
    let host_ms = t.elapsed().as_secs_f64() * 1e3;
    rec.exit(span);
    match report {
        Ok(report) => {
            out.set("core.sim_pbs_per_s", report.throughput_pbs_per_s);
            out.set("core.sim_host_ms", host_ms);
        }
        Err(e) => out.notes.push(format!("core: simulator refused the parameters: {e}")),
    }
}
