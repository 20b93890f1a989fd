//! The four workloads and what they share: the run context, the
//! outcome every run reports and real-key set-up.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use strix_core::BatchGeometry;
use strix_runtime::{ClassLatency, RuntimeConfig, RuntimeReport, TraceConfig};
use strix_tfhe::bootstrap::Lut;
use strix_tfhe::torus::decode_message;
use strix_tfhe::{ClientKey, ServerKey, TfheParameters};

use crate::spans::Recorder;
use crate::stats::{self, Summary};

pub mod pbs_batch;
pub mod program_sessions;
pub mod service_open;
pub mod tenant_skew;

/// Epoch shape of every runtime workload: `tvlp x core_batch`.
pub const GEOMETRY: (usize, usize) = (2, 4);
pub const EPOCH: usize = GEOMETRY.0 * GEOMETRY.1;
/// Fixed absolute offered rates of the open-loop ladder, so a parent
/// commit and a change see identical load. They sit at about 0.48,
/// 0.72, 0.96 and 1.2 times the ~50 PBS/s this host serves at the
/// commit that defined the benchmark.
pub const RUNG_RATES: [f64; 4] = [24.0, 36.0, 48.0, 60.0];
/// A rung meets the service-level objective when its p95 stays under
/// this limit, nothing failed and the backlog at schedule end is at
/// most [`SLO_BACKLOG_EPOCHS`] epochs.
pub const SLO_P95_MS: f64 = 400.0;
pub const SLO_BACKLOG_EPOCHS: usize = 2;
/// Message width of the LUT workloads (one padding bit on top).
pub const MESSAGE_BITS: u32 = 3;
/// Grouping factor of the multi-bit kernel `program_sessions` runs on.
pub const GROUPING: usize = 3;
pub const NAMES: [&str; 4] = ["pbs_batch", "service_open", "tenant_skew", "program_sessions"];

/// The arguments of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// The traced run: spans on, per-layer metrics out.
    pub traced: bool,
    /// `testing_fast` parameters, for the unit tests only.
    pub smoke: bool,
    pub rec: Recorder,
}

impl Ctx {
    /// The workload's parameter set, or `testing_fast` with the same
    /// kernel in the unit tests.
    pub fn params(&self, full: TfheParameters) -> TfheParameters {
        if self.smoke {
            TfheParameters::testing_fast().with_kernel(full.pbs_kernel)
        } else {
            full
        }
    }

    pub fn leg(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// What one run found.
pub struct Outcome {
    pub params: TfheParameters,
    /// Results whose plaintext was checked, and how many were wrong,
    /// failed or refused.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub summaries: Vec<Summary>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(params: TfheParameters) -> Outcome {
        Outcome {
            params,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            summaries: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Counts one checked result.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a timing's median, quartiles and count, warning when the
    /// reported percentile has fewer than ten samples beyond it.
    pub fn timing(&mut self, name: &str, unit: &'static str, samples: &[f64], tail: f64) {
        let summary = Summary::of(name, unit, samples);
        if stats::beyond(summary.count, tail) < stats::MIN_BEYOND {
            self.notes.push(format!(
                "{name}: only {} samples, fewer than {} beyond p{:.0}",
                summary.count,
                stats::MIN_BEYOND,
                tail * 100.0
            ));
        }
        self.summaries.push(summary);
    }

    /// Sets the three end-to-end latency/throughput metrics.
    pub fn end_to_end(&mut self, pbs_per_s: f64, latencies_ms: &[f64], setup_s: f64) {
        self.set("pbs_per_s", pbs_per_s);
        self.set("p50_ms", stats::percentile_of(latencies_ms, 0.5));
        self.set("p95_ms", stats::percentile_of(latencies_ms, 0.95));
        self.set("setup_s", setup_s);
    }
}

pub fn run(name: &str, ctx: &mut Ctx) -> Result<Outcome, String> {
    match name {
        "pbs_batch" => Ok(pbs_batch::run(ctx)),
        "service_open" => Ok(service_open::run(ctx)),
        "tenant_skew" => Ok(tenant_skew::run(ctx)),
        "program_sessions" => Ok(program_sessions::run(ctx)),
        other => Err(format!("unknown workload {other:?}; expected one of {NAMES:?}")),
    }
}

/// Real client and server keys, generated `repeats` times from the same
/// seed; returns the last pair and the seconds each generation took.
pub fn keygen(
    params: &TfheParameters,
    seed: u64,
    repeats: usize,
) -> (ClientKey, ServerKey, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut keys = None;
    for _ in 0..repeats.max(1) {
        drop(keys.take());
        let t = Instant::now();
        let mut client = ClientKey::generate(params, seed);
        let server = client.server_key();
        times.push(t.elapsed().as_secs_f64());
        keys = Some((client, server));
    }
    let (client, server) = keys.expect("at least one generation");
    (client, server, times)
}

/// The 3-bit table every LUT workload evaluates, and its plaintext.
pub fn lut_function(m: u64) -> u64 {
    (m * m + 1) % (1 << MESSAGE_BITS)
}

pub fn message_lut(params: &TfheParameters) -> Lut {
    Lut::from_function(params.polynomial_size, MESSAGE_BITS, lut_function)
        .expect("3-bit messages fit every shipped polynomial size")
}

/// Decrypts a LUT output to its message.
pub fn decrypt_message(client: &ClientKey, ct: &strix_tfhe::lwe::LweCiphertext) -> Option<u64> {
    client.decrypt_phase(ct).ok().map(|phase| decode_message(phase, MESSAGE_BITS + 1))
}

/// One worker, one kernel thread, the shared epoch shape; `telemetry`
/// off means no request tracing and no sampled stage profiling.
pub fn runtime_config(max_delay_ms: u64, telemetry: bool) -> RuntimeConfig {
    let config = RuntimeConfig::new(BatchGeometry::explicit(GEOMETRY.0, GEOMETRY.1))
        .with_workers(1)
        .with_threads_per_worker(1)
        .with_max_delay(Duration::from_millis(max_delay_ms));
    if telemetry {
        config
    } else {
        config.with_trace(TraceConfig::disabled()).with_profile_every(0)
    }
}

/// How much slower `with` is than `without`, in per cent of `without`.
pub fn overhead_pct(without: f64, with: f64) -> f64 {
    (without - with) / without * 100.0
}

/// Mean queue wait, batch wait and execute time over every request
/// class of a report, in ms.
pub fn attribution_ms(report: &RuntimeReport) -> [f64; 3] {
    let total: f64 = report.latency_attribution.iter().map(|c| c.completed as f64).sum();
    let mean = |f: fn(&ClassLatency) -> f64| {
        report.latency_attribution.iter().map(|c| f(c) * c.completed as f64).sum::<f64>()
            / total.max(1.0)
            / 1e3
    };
    [mean(|c| c.mean_queue_wait_us), mean(|c| c.mean_batch_wait_us), mean(|c| c.mean_execute_us)]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;
    use std::collections::BTreeSet;

    /// Every workload once untraced and once traced on `testing_fast`
    /// keys: outputs decrypt correctly, every end-to-end metric is
    /// measured, nothing is printed under a name `BENCHMARK.json` does
    /// not declare, and every declared per-layer metric is produced by
    /// at least one workload's traced run.
    #[test]
    fn smoke_runs_are_correct_and_named_as_benchmark_json_says() {
        let spec = Spec::load();
        assert_eq!(spec.workloads, NAMES);
        let declared = |list: &[crate::spec::MetricSpec]| -> BTreeSet<String> {
            list.iter().map(|m| m.name.clone()).collect()
        };
        let (end_to_end, per_layer) = (declared(&spec.end_to_end), declared(&spec.per_layer));
        let mut produced = BTreeSet::new();
        for name in NAMES {
            for traced in [false, true] {
                let mut ctx =
                    Ctx { seed: 11, seconds: 0.6, traced, smoke: true, rec: Recorder::new(traced) };
                let out = run(name, &mut ctx).unwrap();
                assert!(
                    out.attempted > 0 && out.failed == 0,
                    "{name} traced={traced}: {:?}",
                    out.notes
                );
                let names: BTreeSet<String> = out.metrics.keys().cloned().collect();
                assert!(out.metrics.values().all(|v| v.is_finite()), "{name}: {:?}", out.metrics);
                if traced {
                    assert!(
                        names.is_subset(&per_layer),
                        "{name}: {:?}",
                        names.difference(&per_layer)
                    );
                    assert!(!ctx.rec.spans().is_empty());
                    produced.extend(names);
                } else {
                    // `peak_rss_mb` is read by `main`, once per process.
                    let mut expected = end_to_end.clone();
                    expected.remove("peak_rss_mb");
                    assert_eq!(names, expected, "{name}");
                    assert!(out.metrics.values().all(|&v| v > 0.0), "{name}: {:?}", out.metrics);
                    assert!(ctx.rec.spans().is_empty());
                }
            }
        }
        assert_eq!(produced, per_layer, "missing: {:?}", per_layer.difference(&produced));
    }

    #[test]
    fn unknown_workloads_are_refused() {
        let mut ctx =
            Ctx { seed: 1, seconds: 0.1, traced: false, smoke: true, rec: Recorder::new(false) };
        assert!(run("nonesuch", &mut ctx).is_err());
    }
}
