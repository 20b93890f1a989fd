//! Runtime metrics: per-request latency percentiles, achieved PBS/s,
//! the batch-occupancy histogram, per-class latency attribution,
//! sampled per-stage PBS breakdowns and windowed time series — the
//! production counterpart of the simulator's [`strix_core::PbsReport`]
//! and the data source for the `benchmark/` package's runtime metrics.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use strix_tfhe::profiler::{PbsStage, StageTimings};

use crate::request::RequestClass;
use crate::sync::lock_unpoisoned;

/// Number of buckets in the occupancy histogram (bucket `i` covers
/// `(i/10, (i+1)/10]` of the epoch capacity, with 0 occupancy in
/// bucket 0).
pub const OCCUPANCY_BUCKETS: usize = 10;

/// Reservoir size for latency percentiles. The sink is designed for an
/// indefinitely running server, so per-request state must stay
/// bounded: up to this many samples the percentiles are exact, beyond
/// it they come from a uniform reservoir (algorithm R).
pub const LATENCY_RESERVOIR: usize = 1 << 16;

/// How many time windows the sink retains. Together with the window
/// length this bounds the time-series state regardless of uptime.
pub const WINDOW_RING: usize = 64;

/// Version of the [`RuntimeReport`] JSON schema. Consumers of
/// serialized reports should check this before interpreting fields; it
/// bumps on any breaking/renaming change, not on pure additions.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Everything the worker knows about one completed request, handed to
/// [`MetricsSink::record_request`] in one piece.
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord {
    /// When the client submitted the request.
    pub submitted_at: Instant,
    /// Submit-to-completion latency.
    pub latency: Duration,
    /// Time from submission to admission into the tenant's open batch
    /// — how long `submit` blocked on backpressure.
    pub queue_wait: Duration,
    /// Time from admission until a worker took the batch as an epoch —
    /// the wait for a worker.
    pub batch_wait: Duration,
    /// Time from a worker taking the epoch to completion — execution
    /// alone, with no queueing behind a busy worker.
    pub execute: Duration,
    /// The request's class, for attribution.
    pub class: RequestClass,
    /// Whether a linear preamble was fused ahead of the bootstrap.
    pub fused_linear: bool,
    /// Whether the request succeeded.
    pub ok: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct ClassAccum {
    completed: usize,
    failed: usize,
    queue_wait_ns: u128,
    batch_wait_ns: u128,
    execute_ns: u128,
    latency_ns: u128,
}

/// One live accumulation window (fixed length, ring-bounded).
#[derive(Clone, Copy, Debug, Default)]
struct WindowAccum {
    index: u64,
    completed: usize,
    failed: usize,
    pbs_completed: usize,
    epochs: usize,
    occupancy_sum: f64,
    max_queue_depth: usize,
}

#[derive(Debug, Default)]
struct MetricsInner {
    /// Uniform reservoir of latency samples (bounded).
    latencies_us: Vec<u64>,
    /// Total latency samples offered to the reservoir.
    latency_seen: u64,
    max_latency_us: u64,
    /// xorshift state for reservoir replacement.
    rng_state: u64,
    epochs: usize,
    occupancy_sum: f64,
    occupancy_histogram: [usize; OCCUPANCY_BUCKETS],
    /// Epochs whose execution-thread usage was recorded (workers
    /// record these; the dispatcher records the occupancy above).
    executed_epochs: usize,
    threads_used_sum: u64,
    threads_budget_sum: u64,
    max_threads_used: usize,
    pbs_completed: usize,
    /// PBS jobs executed per kernel, `[classical, multi_bit]`, as
    /// reported by the executors' epoch executions.
    kernel_jobs: [usize; 2],
    fused_linear_completed: usize,
    bootstraps_lowered_away: u64,
    completed: usize,
    failed: usize,
    first_submit: Option<Instant>,
    last_complete: Option<Instant>,
    /// Per-class attribution accumulators, indexed by
    /// [`RequestClass::index`].
    classes: [ClassAccum; 5],
    /// Per-stage nanoseconds from sampled (probed) epochs, indexed in
    /// [`PbsStage::ALL`] order.
    stage_ns: [u128; 9],
    sampled_epochs: usize,
    sampled_pbs: usize,
    /// Ring of recent time windows, oldest first.
    windows: std::collections::VecDeque<WindowAccum>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Advances `last_complete` to `now`, never backwards.
///
/// `now` is sampled by the caller **before** taking the metrics lock,
/// so two workers completing epochs concurrently may apply their
/// timestamps out of order; the max-guard makes the measurement window
/// (`first_submit → last_complete`) monotonically non-shrinking under
/// any interleaving.
#[inline]
fn note_completion(slot: &mut Option<Instant>, now: Instant) {
    match slot {
        Some(last) if *last >= now => {}
        _ => *slot = Some(now),
    }
}

/// Shared sink the dispatcher and workers record into.
#[derive(Debug)]
pub struct MetricsSink {
    inner: Mutex<MetricsInner>,
    /// Time zero of the windowed series.
    origin: Instant,
    /// Length of one accumulation window.
    window: Duration,
}

impl Default for MetricsSink {
    fn default() -> Self {
        Self::with_window(Duration::from_secs(1))
    }
}

impl MetricsSink {
    /// Creates a sink whose time series buckets into windows of the
    /// given length (clamped to ≥ 1 ms). The default is 1 s.
    pub fn with_window(window: Duration) -> Self {
        Self {
            inner: Mutex::new(MetricsInner::default()),
            origin: Instant::now(),
            window: window.max(Duration::from_millis(1)),
        }
    }

    /// The live window for time `now`, advancing (and bounding) the
    /// ring as needed. Events landing behind the newest window are
    /// folded into it — the series is monotone by construction.
    fn window_mut<'a>(&self, inner: &'a mut MetricsInner, now: Instant) -> &'a mut WindowAccum {
        let idx = (now.saturating_duration_since(self.origin).as_nanos()
            / self.window.as_nanos().max(1)) as u64;
        let need_new = match inner.windows.back() {
            Some(back) => back.index < idx,
            None => true,
        };
        if need_new {
            inner.windows.push_back(WindowAccum { index: idx, ..WindowAccum::default() });
            if inner.windows.len() > WINDOW_RING {
                inner.windows.pop_front();
            }
        }
        // lint:allow(panic) the ring is seeded with one window at construction and never fully drained
        inner.windows.back_mut().expect("ring has a live window")
    }

    /// Records one epoch of `len` requests a worker took, against
    /// `capacity`.
    pub fn record_epoch(&self, len: usize, capacity: usize) {
        let now = Instant::now();
        let occ = len.min(capacity) as f64 / capacity.max(1) as f64;
        let mut inner = lock_unpoisoned(&self.inner);
        inner.epochs += 1;
        inner.occupancy_sum += occ;
        let bucket =
            ((occ * OCCUPANCY_BUCKETS as f64).ceil() as usize).clamp(1, OCCUPANCY_BUCKETS) - 1;
        inner.occupancy_histogram[bucket] += 1;
        let w = self.window_mut(&mut inner, now);
        w.epochs += 1;
        w.occupancy_sum += occ;
    }

    /// Records the bootstraps one program run saves by running its
    /// lowered form.
    pub fn record_lowering(&self, removed: usize) {
        lock_unpoisoned(&self.inner).bootstraps_lowered_away += removed as u64;
    }

    /// Records the intra-epoch thread plan of one executed epoch:
    /// `used` threads planned for its PBS jobs against the executor's
    /// configured `budget`. Both clamp to at least 1 (an epoch always
    /// occupies at least its worker thread).
    pub fn record_epoch_threads(&self, used: usize, budget: usize) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.executed_epochs += 1;
        inner.threads_used_sum += used.max(1) as u64;
        inner.threads_budget_sum += budget.max(1) as u64;
        inner.max_threads_used = inner.max_threads_used.max(used.max(1));
    }

    /// Records how many of one executed epoch's PBS jobs ran through
    /// each kernel — the observable of the epoch key's kernel.
    /// Feeds [`RuntimeReport::pbs_jobs_classical`] and
    /// [`RuntimeReport::pbs_jobs_multi_bit`].
    pub fn record_kernel_jobs(&self, classical: usize, multi_bit: usize) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.kernel_jobs[0] += classical;
        inner.kernel_jobs[1] += multi_bit;
    }

    /// Records how many requests are still pending (admitted, not yet
    /// taken by a worker) right after a worker took an epoch, so the
    /// windowed series carries a queue-depth gauge next to the
    /// throughput counters.
    pub fn record_queue_depth(&self, depth: usize) {
        let now = Instant::now();
        let mut inner = lock_unpoisoned(&self.inner);
        let w = self.window_mut(&mut inner, now);
        w.max_queue_depth = w.max_queue_depth.max(depth);
    }

    /// Records the per-stage timings of one **sampled** (probed) epoch
    /// carrying `pbs_jobs` bootstraps, taken over the production
    /// blocked kernel. Feeds [`RuntimeReport::pbs_stage_breakdown`].
    pub fn record_stage_sample(&self, timings: &StageTimings, pbs_jobs: usize) {
        if pbs_jobs == 0 {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        inner.sampled_epochs += 1;
        inner.sampled_pbs += pbs_jobs;
        for (slot, &stage) in inner.stage_ns.iter_mut().zip(PbsStage::ALL.iter()) {
            *slot += timings.total_for(stage).as_nanos();
        }
    }

    /// Records one completed request.
    pub fn record_request(&self, record: RequestRecord) {
        // Taken once, before the lock: see [`note_completion`] for the
        // ordering contract this preserves.
        let now = Instant::now();
        let is_pbs = record.class != RequestClass::Keyswitch;
        let mut inner = lock_unpoisoned(&self.inner);
        let us = record.latency.as_micros().min(u64::MAX as u128) as u64;
        inner.latency_seen += 1;
        inner.max_latency_us = inner.max_latency_us.max(us);
        if inner.latencies_us.len() < LATENCY_RESERVOIR {
            inner.latencies_us.push(us);
        } else {
            // Algorithm R: keep each of the `latency_seen` samples in
            // the reservoir with equal probability.
            let seen = inner.latency_seen;
            let j = splitmix64(&mut inner.rng_state) % seen;
            if (j as usize) < LATENCY_RESERVOIR {
                inner.latencies_us[j as usize] = us;
            }
        }
        let class = &mut inner.classes[record.class.index()];
        if record.ok {
            class.completed += 1;
            class.queue_wait_ns += record.queue_wait.as_nanos();
            class.batch_wait_ns += record.batch_wait.as_nanos();
            class.execute_ns += record.execute.as_nanos();
            class.latency_ns += record.latency.as_nanos();
        } else {
            class.failed += 1;
        }
        if record.ok {
            inner.completed += 1;
            if is_pbs {
                inner.pbs_completed += 1;
            }
            if record.fused_linear {
                inner.fused_linear_completed += 1;
            }
        } else {
            inner.failed += 1;
        }
        let first = inner.first_submit.get_or_insert(record.submitted_at);
        if record.submitted_at < *first {
            *first = record.submitted_at;
        }
        note_completion(&mut inner.last_complete, now);
        let w = self.window_mut(&mut inner, now);
        if record.ok {
            w.completed += 1;
            if is_pbs {
                w.pbs_completed += 1;
            }
        } else {
            w.failed += 1;
        }
    }

    /// Produces a snapshot report. `epoch_capacity` is the configured
    /// `TvLP × core_batch` the occupancy is measured against.
    ///
    /// Percentiles are exact up to [`LATENCY_RESERVOIR`] samples and
    /// reservoir estimates beyond; `max_latency_us` is always exact.
    /// The ingress-queue gauges are zero here — the runtime fills them
    /// from the dispatcher, which owns the pending count and its
    /// high-water mark.
    pub fn report(&self, epoch_capacity: usize) -> RuntimeReport {
        let window_s = self.window.as_secs_f64();
        // Snapshot under the lock, sort outside it: record_request on
        // the workers never waits behind a percentile computation.
        let (mut sorted, snapshot) = {
            let inner = lock_unpoisoned(&self.inner);
            let elapsed_s = match (inner.first_submit, inner.last_complete) {
                (Some(first), Some(last)) if last > first => (last - first).as_secs_f64(),
                _ => 0.0,
            };
            let mean_occ =
                if inner.epochs == 0 { 0.0 } else { inner.occupancy_sum / inner.epochs as f64 };
            let mean_threads = if inner.executed_epochs == 0 {
                0.0
            } else {
                inner.threads_used_sum as f64 / inner.executed_epochs as f64
            };
            let thread_occ = if inner.threads_budget_sum == 0 {
                0.0
            } else {
                inner.threads_used_sum as f64 / inner.threads_budget_sum as f64
            };
            let latency_attribution = RequestClass::ALL
                .iter()
                .map(|&class| {
                    let acc = inner.classes[class.index()];
                    let mean = |ns: u128| {
                        if acc.completed == 0 {
                            0.0
                        } else {
                            ns as f64 / 1e3 / acc.completed as f64
                        }
                    };
                    ClassLatency {
                        class: class.label().to_string(),
                        completed: acc.completed,
                        failed: acc.failed,
                        mean_queue_wait_us: mean(acc.queue_wait_ns),
                        mean_batch_wait_us: mean(acc.batch_wait_ns),
                        mean_execute_us: mean(acc.execute_ns),
                        mean_latency_us: mean(acc.latency_ns),
                    }
                })
                .filter(|c| c.completed + c.failed > 0)
                .collect();
            let pbs_stage_breakdown = if inner.sampled_pbs == 0 {
                None
            } else {
                let us = |stage: PbsStage| {
                    // lint:allow(panic) PbsStage::ALL enumerates every variant by construction
                    let i = PbsStage::ALL.iter().position(|&s| s == stage).expect("stage in ALL");
                    inner.stage_ns[i] as f64 / 1e3 / inner.sampled_pbs as f64
                };
                Some(PbsStageBreakdown {
                    sampled_epochs: inner.sampled_epochs,
                    sampled_pbs: inner.sampled_pbs,
                    modswitch_us: us(PbsStage::ModSwitch),
                    rotate_us: us(PbsStage::Rotate),
                    decompose_us: us(PbsStage::Decompose),
                    forward_fft_us: us(PbsStage::Fft),
                    vma_us: us(PbsStage::VectorMultiply),
                    inverse_fft_us: us(PbsStage::IfftAccumulate),
                    sample_extract_us: us(PbsStage::SampleExtract),
                    keyswitch_us: us(PbsStage::KeySwitch),
                    linear_ops_us: us(PbsStage::LinearOps),
                })
            };
            let windows = inner
                .windows
                .iter()
                .map(|w| MetricsWindow {
                    start_s: w.index as f64 * window_s,
                    duration_s: window_s,
                    completed: w.completed,
                    failed: w.failed,
                    pbs_completed: w.pbs_completed,
                    epochs: w.epochs,
                    pbs_per_s: w.pbs_completed as f64 / window_s,
                    mean_occupancy: if w.epochs == 0 {
                        0.0
                    } else {
                        w.occupancy_sum / w.epochs as f64
                    },
                    max_queue_depth: w.max_queue_depth,
                })
                .collect();
            (
                inner.latencies_us.clone(),
                RuntimeReport {
                    schema_version: REPORT_SCHEMA_VERSION,
                    requests_completed: inner.completed,
                    requests_failed: inner.failed,
                    fused_linear_completed: inner.fused_linear_completed,
                    bootstraps_lowered_away: inner.bootstraps_lowered_away,
                    epochs: inner.epochs,
                    epoch_capacity,
                    p50_latency_us: 0,
                    p90_latency_us: 0,
                    p99_latency_us: 0,
                    max_latency_us: inner.max_latency_us,
                    achieved_pbs_per_s: if elapsed_s > 0.0 {
                        inner.pbs_completed as f64 / elapsed_s
                    } else {
                        0.0
                    },
                    pbs_jobs_classical: inner.kernel_jobs[0],
                    pbs_jobs_multi_bit: inner.kernel_jobs[1],
                    fft_backend: String::new(),
                    mean_batch_occupancy: mean_occ,
                    occupancy_histogram: inner.occupancy_histogram.to_vec(),
                    mean_threads_per_epoch: mean_threads,
                    thread_occupancy: thread_occ,
                    max_threads_per_epoch: inner.max_threads_used,
                    ingress_queue_depth: 0,
                    ingress_queue_high_water: 0,
                    tenants_registered: 0,
                    key_cache_hits: 0,
                    key_cache_misses: 0,
                    key_cache_evictions: 0,
                    key_cache_resident_bytes: 0,
                    key_cache_budget_bytes: 0,
                    latency_attribution,
                    pbs_stage_breakdown,
                    windows,
                    elapsed_s,
                },
            )
        };
        sorted.sort_unstable();
        let pct = |p: f64| -> u64 {
            if sorted.is_empty() {
                return 0;
            }
            let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
            sorted[idx - 1]
        };
        RuntimeReport {
            p50_latency_us: pct(0.50),
            p90_latency_us: pct(0.90),
            p99_latency_us: pct(0.99),
            ..snapshot
        }
    }
}

/// Mean per-request latency attribution for one request class: where
/// the time of an average completed request of this class went.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClassLatency {
    /// Stable class label ([`RequestClass::label`]).
    pub class: String,
    /// Completed requests of this class.
    pub completed: usize,
    /// Failed requests of this class.
    pub failed: usize,
    /// Mean time `submit` blocked on backpressure before the request
    /// joined its tenant's open batch (µs).
    pub mean_queue_wait_us: f64,
    /// Mean time in the open batch until a worker took it — the wait
    /// for a worker (µs).
    pub mean_batch_wait_us: f64,
    /// Mean time from a worker taking the epoch to completion —
    /// execution alone, with no queueing behind a busy worker (µs).
    pub mean_execute_us: f64,
    /// Mean end-to-end latency (µs); the three waits above sum to
    /// within scheduling jitter of this.
    pub mean_latency_us: f64,
}

/// Per-stage µs of one average production PBS, from sampled epochs
/// executed through the timing probe over the production blocked
/// kernel (every `profile_every`-th epoch).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PbsStageBreakdown {
    /// How many epochs were sampled.
    pub sampled_epochs: usize,
    /// Total PBS jobs across the sampled epochs (the normalizer).
    pub sampled_pbs: usize,
    /// Modulus switching (per PBS, µs).
    pub modswitch_us: f64,
    /// Negacyclic rotation (per PBS, µs).
    pub rotate_us: f64,
    /// Gadget decomposition (per PBS, µs).
    pub decompose_us: f64,
    /// Forward FFT (per PBS, µs).
    pub forward_fft_us: f64,
    /// Fourier-domain multiply–accumulate (per PBS, µs).
    pub vma_us: f64,
    /// Inverse FFT + accumulation (per PBS, µs).
    pub inverse_fft_us: f64,
    /// Sample extraction (per PBS, µs).
    pub sample_extract_us: f64,
    /// Keyswitching (per PBS, µs).
    pub keyswitch_us: f64,
    /// Linear preambles and other linear ops (per PBS, µs).
    pub linear_ops_us: f64,
}

/// One fixed-length window of the recent time series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsWindow {
    /// Window start, seconds since the sink was created.
    pub start_s: f64,
    /// Window length in seconds.
    pub duration_s: f64,
    /// Requests completed in this window.
    pub completed: usize,
    /// Requests failed in this window.
    pub failed: usize,
    /// PBS-bearing requests completed in this window.
    pub pbs_completed: usize,
    /// Epochs workers took in this window.
    pub epochs: usize,
    /// Achieved PBS/s over the window.
    pub pbs_per_s: f64,
    /// Mean epoch occupancy over the window's epochs.
    pub mean_occupancy: f64,
    /// Most requests pending (admitted, not yet taken by a worker) seen
    /// when a worker took an epoch in this window.
    pub max_queue_depth: usize,
}

/// A snapshot of the runtime's achieved performance, shaped to sit next
/// to the simulator's `PbsReport` in the bench tables; the `benchmark/`
/// package reads its runtime metrics from it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RuntimeReport {
    /// JSON schema version ([`REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Successfully completed requests.
    pub requests_completed: usize,
    /// Failed requests (shape mismatches etc.).
    pub requests_failed: usize,
    /// Completed requests that fused a linear preamble (boolean gates,
    /// Deep-NN neurons) ahead of their bootstrap — the multi-input ops
    /// streamed by the session/dataflow layer.
    pub fused_linear_completed: usize,
    /// Bootstraps program lowering saved: for every session that ran a
    /// program's lowered form, the live requests of the program as
    /// built minus those of the lowered form. Requests per program are
    /// the builder's gate count minus this over the programs run
    /// (absent in reports from older schema versions).
    #[serde(default)]
    pub bootstraps_lowered_away: u64,
    /// Number of epochs workers took.
    pub epochs: usize,
    /// Configured epoch capacity `TvLP × core_batch`.
    pub epoch_capacity: usize,
    /// Median end-to-end latency in microseconds.
    pub p50_latency_us: u64,
    /// 90th-percentile latency in microseconds.
    pub p90_latency_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_latency_us: u64,
    /// Worst observed latency in microseconds.
    pub max_latency_us: u64,
    /// Achieved programmable bootstraps per second (wall clock, first
    /// submit to last completion).
    pub achieved_pbs_per_s: f64,
    /// PBS jobs executed through the classical kernel, across all
    /// epochs (absent in reports from older schema versions).
    #[serde(default)]
    pub pbs_jobs_classical: usize,
    /// PBS jobs executed through the grouped multi-bit kernel, across
    /// all epochs (absent in reports from older schema versions).
    #[serde(default)]
    pub pbs_jobs_multi_bit: usize,
    /// Resolved SIMD kernel backend label the executor's spectral
    /// transforms ran on (`"portable"` / `"avx2"`; never `"auto"`).
    /// Filled by the runtime at report time; empty for synthetic
    /// executors and reports from older schema versions.
    #[serde(default)]
    pub fft_backend: String,
    /// Mean epoch occupancy in `[0, 1]`.
    pub mean_batch_occupancy: f64,
    /// Epoch count per occupancy decile (`(i/10, (i+1)/10]`).
    pub occupancy_histogram: Vec<usize>,
    /// Mean intra-epoch threads per executed epoch, as planned by the
    /// executor for the epoch's PBS jobs (keyswitch-only epochs run on
    /// the worker thread alone and count as 1).
    pub mean_threads_per_epoch: f64,
    /// Mean planned threads over configured thread budget in `[0, 1]`
    /// — below 1.0 means epochs ran with too few PBS jobs to fill the
    /// pool.
    pub thread_occupancy: f64,
    /// Largest intra-epoch thread count any epoch planned.
    pub max_threads_per_epoch: usize,
    /// Requests admitted but not yet taken by a worker (filled by the
    /// runtime at report time; `submit` blocks once this reaches
    /// `ingress_depth`).
    pub ingress_queue_depth: usize,
    /// The most requests ever admitted but not yet taken by a worker
    /// at once (filled by the runtime at report time).
    pub ingress_queue_high_water: usize,
    /// Tenants registered in the multi-tenant key registry (filled by
    /// the runtime at report time; 0 for single-tenant deployments and
    /// reports from older schema versions).
    #[serde(default)]
    pub tenants_registered: usize,
    /// Key-registry resolves served from an already-resident key.
    #[serde(default)]
    pub key_cache_hits: u64,
    /// Key-registry resolves that had to expand the seeded transport
    /// form into a resident key.
    #[serde(default)]
    pub key_cache_misses: u64,
    /// Resident keys dropped to fit the registry's byte budget.
    #[serde(default)]
    pub key_cache_evictions: u64,
    /// Estimated bytes of resident expanded keys at report time.
    #[serde(default)]
    pub key_cache_resident_bytes: usize,
    /// Configured key-residency budget in bytes (0 when no registry).
    #[serde(default)]
    pub key_cache_budget_bytes: usize,
    /// Mean queue-wait / batch-wait / execute attribution per request
    /// class, for completed requests.
    pub latency_attribution: Vec<ClassLatency>,
    /// Per-stage µs of an average PBS from sampled production epochs;
    /// `None` until the first sampled epoch completes.
    pub pbs_stage_breakdown: Option<PbsStageBreakdown>,
    /// The most recent fixed-length windows of the time series (up to
    /// [`WINDOW_RING`]), oldest first.
    pub windows: Vec<MetricsWindow>,
    /// Wall-clock measurement window in seconds.
    pub elapsed_s: f64,
}

impl RuntimeReport {
    /// A compact human-readable summary block.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "requests: {} ok / {} failed ({} fused-linear) in {:.3} s\n\
             epochs:   {} flushed, capacity {}, mean occupancy {:.1}%\n\
             threads:  {:.1} mean / {} peak per epoch ({:.1}% of budget)\n\
             ingress:  {} queued now, {} high water\n\
             latency:  p50 {:.3} ms | p90 {:.3} ms | p99 {:.3} ms | max {:.3} ms\n\
             rate:     {:.1} PBS/s achieved",
            self.requests_completed,
            self.requests_failed,
            self.fused_linear_completed,
            self.elapsed_s,
            self.epochs,
            self.epoch_capacity,
            self.mean_batch_occupancy * 100.0,
            self.mean_threads_per_epoch,
            self.max_threads_per_epoch,
            self.thread_occupancy * 100.0,
            self.ingress_queue_depth,
            self.ingress_queue_high_water,
            self.p50_latency_us as f64 / 1e3,
            self.p90_latency_us as f64 / 1e3,
            self.p99_latency_us as f64 / 1e3,
            self.max_latency_us as f64 / 1e3,
            self.achieved_pbs_per_s,
        );
        if self.bootstraps_lowered_away > 0 {
            out.push_str(&format!(
                "\nlowering: {} bootstraps removed from gate programs",
                self.bootstraps_lowered_away
            ));
        }
        if !self.fft_backend.is_empty() {
            out.push_str(&format!("\nbackend:  {} fft/vma kernels", self.fft_backend));
        }
        if self.pbs_jobs_multi_bit > 0 {
            out.push_str(&format!(
                "\nkernels:  {} classical / {} multi-bit PBS jobs",
                self.pbs_jobs_classical, self.pbs_jobs_multi_bit,
            ));
        }
        if self.tenants_registered > 0 {
            out.push_str(&format!(
                "\ntenants:  {} registered; key cache {} hits / {} misses / {} evictions, \
                 {:.1} of {:.1} MiB resident",
                self.tenants_registered,
                self.key_cache_hits,
                self.key_cache_misses,
                self.key_cache_evictions,
                self.key_cache_resident_bytes as f64 / (1024.0 * 1024.0),
                self.key_cache_budget_bytes as f64 / (1024.0 * 1024.0),
            ));
        }
        for c in &self.latency_attribution {
            out.push_str(&format!(
                "\nclass {:<10} {:>7} ok: queue {:.3} ms | batch {:.3} ms | execute {:.3} ms",
                c.class,
                c.completed,
                c.mean_queue_wait_us / 1e3,
                c.mean_batch_wait_us / 1e3,
                c.mean_execute_us / 1e3,
            ));
        }
        if let Some(b) = &self.pbs_stage_breakdown {
            out.push_str(&format!(
                "\nstages ({} PBS sampled over {} epochs, µs/PBS): \
                 modswitch {:.1} | rotate {:.1} | decompose {:.1} | fft {:.1} | vma {:.1} | \
                 ifft {:.1} | extract {:.1} | keyswitch {:.1}",
                b.sampled_pbs,
                b.sampled_epochs,
                b.modswitch_us,
                b.rotate_us,
                b.decompose_us,
                b.forward_fft_us,
                b.vma_us,
                b.inverse_fft_us,
                b.sample_extract_us,
                b.keyswitch_us,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A success record with the given latency and class, submitted at
    /// `t0`, with a fixed 40/40/20 wait split for attribution tests.
    fn record(t0: Instant, us: u64, class: RequestClass, ok: bool) -> RequestRecord {
        RequestRecord {
            submitted_at: t0,
            latency: Duration::from_micros(us),
            queue_wait: Duration::from_micros(us * 2 / 5),
            batch_wait: Duration::from_micros(us * 2 / 5),
            execute: Duration::from_micros(us / 5),
            class,
            fused_linear: matches!(class, RequestClass::Gate | RequestClass::LinearLut),
            ok,
        }
    }

    #[test]
    fn empty_sink_reports_zeroes() {
        let sink = MetricsSink::default();
        let r = sink.report(256);
        assert_eq!(r.schema_version, REPORT_SCHEMA_VERSION);
        assert_eq!(r.requests_completed, 0);
        assert_eq!(r.p99_latency_us, 0);
        assert_eq!(r.achieved_pbs_per_s, 0.0);
        assert_eq!(r.occupancy_histogram.len(), OCCUPANCY_BUCKETS);
        assert!(r.latency_attribution.is_empty());
        assert!(r.pbs_stage_breakdown.is_none());
        assert!(r.windows.is_empty());
    }

    #[test]
    fn percentiles_from_known_distribution() {
        let sink = MetricsSink::default();
        let t0 = Instant::now();
        for us in 1..=100u64 {
            sink.record_request(record(t0, us, RequestClass::Lut, true));
        }
        let r = sink.report(4);
        assert_eq!(r.p50_latency_us, 50);
        assert_eq!(r.p90_latency_us, 90);
        assert_eq!(r.p99_latency_us, 99);
        assert_eq!(r.max_latency_us, 100);
        assert_eq!(r.requests_completed, 100);
    }

    #[test]
    fn occupancy_histogram_buckets() {
        let sink = MetricsSink::default();
        sink.record_epoch(4, 4); // 1.00 -> bucket 9
        sink.record_epoch(2, 4); // 0.50 -> bucket 4
        sink.record_epoch(1, 4); // 0.25 -> bucket 2
        let r = sink.report(4);
        assert_eq!(r.epochs, 3);
        assert_eq!(r.occupancy_histogram[9], 1);
        assert_eq!(r.occupancy_histogram[4], 1);
        assert_eq!(r.occupancy_histogram[2], 1);
        assert!((r.mean_batch_occupancy - (1.0 + 0.5 + 0.25) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn latency_storage_is_bounded_but_stats_stay_sane() {
        let sink = MetricsSink::default();
        let t0 = Instant::now();
        let total = LATENCY_RESERVOIR + 4096;
        for i in 0..total {
            sink.record_request(record(t0, i as u64, RequestClass::Lut, true));
        }
        let r = sink.report(1);
        assert_eq!(r.requests_completed, total);
        // Max is exact even when its sample was evicted.
        assert_eq!(r.max_latency_us, (total - 1) as u64);
        // The reservoir keeps the median near the true middle of the
        // uniform 0..total ramp.
        let expected = total as f64 / 2.0;
        let rel = (r.p50_latency_us as f64 - expected).abs() / expected;
        assert!(rel < 0.1, "reservoir p50 {} vs {expected}", r.p50_latency_us);
    }

    #[test]
    fn thread_occupancy_tracks_used_over_budget() {
        let sink = MetricsSink::default();
        sink.record_epoch_threads(4, 4);
        sink.record_epoch_threads(2, 4);
        sink.record_epoch_threads(1, 4);
        let r = sink.report(8);
        assert!((r.mean_threads_per_epoch - 7.0 / 3.0).abs() < 1e-12);
        assert!((r.thread_occupancy - 7.0 / 12.0).abs() < 1e-12);
        assert_eq!(r.max_threads_per_epoch, 4);
        let s = r.summary();
        assert!(s.contains("2.3 mean / 4 peak"), "{s}");
    }

    #[test]
    fn failed_requests_counted_separately() {
        let sink = MetricsSink::default();
        let t0 = Instant::now();
        sink.record_request(record(t0, 5, RequestClass::Lut, true));
        sink.record_request(record(t0, 5, RequestClass::Gate, false));
        let r = sink.report(1);
        assert_eq!(r.requests_completed, 1);
        assert_eq!(r.requests_failed, 1);
        let gate = r.latency_attribution.iter().find(|c| c.class == "gate").unwrap();
        assert_eq!((gate.completed, gate.failed), (0, 1));
    }

    #[test]
    fn summary_mentions_key_figures() {
        let sink = MetricsSink::default();
        sink.record_epoch(3, 4);
        let s = sink.report(4).summary();
        assert!(s.contains("capacity 4"));
        assert!(s.contains("75.0%"));
    }

    #[test]
    fn out_of_order_completions_never_shrink_the_window() {
        // Two workers sample `now` before the lock; the one that
        // acquires the lock second may carry the *earlier* timestamp.
        // The guard must keep the later one.
        let t0 = Instant::now();
        let later = t0 + Duration::from_millis(10);
        let mut slot = None;
        note_completion(&mut slot, later);
        note_completion(&mut slot, t0); // out-of-order arrival
        assert_eq!(slot, Some(later), "earlier completion must not rewind last_complete");
        note_completion(&mut slot, later + Duration::from_millis(1));
        assert_eq!(slot, Some(later + Duration::from_millis(1)));

        // And end to end: the reported window is non-decreasing across
        // interleaved recordings.
        let sink = MetricsSink::default();
        sink.record_request(record(t0, 10, RequestClass::Lut, true));
        let w1 = sink.report(1).elapsed_s;
        sink.record_request(record(t0, 10, RequestClass::Lut, true));
        let w2 = sink.report(1).elapsed_s;
        assert!(w2 >= w1, "window shrank: {w1} -> {w2}");
    }

    #[test]
    fn per_class_attribution_averages_waits() {
        let sink = MetricsSink::default();
        let t0 = Instant::now();
        for _ in 0..4 {
            sink.record_request(record(t0, 100, RequestClass::Gate, true));
        }
        sink.record_request(record(t0, 50, RequestClass::Keyswitch, true));
        let r = sink.report(4);
        assert_eq!(r.latency_attribution.len(), 2);
        let gate = r.latency_attribution.iter().find(|c| c.class == "gate").unwrap();
        assert_eq!(gate.completed, 4);
        assert!((gate.mean_queue_wait_us - 40.0).abs() < 1e-9);
        assert!((gate.mean_batch_wait_us - 40.0).abs() < 1e-9);
        assert!((gate.mean_execute_us - 20.0).abs() < 1e-9);
        assert!((gate.mean_latency_us - 100.0).abs() < 1e-9);
        // Keyswitch-only requests do not count toward PBS throughput.
        assert_eq!(r.requests_completed, 5);
        let s = r.summary();
        assert!(s.contains("class gate"), "{s}");
    }

    #[test]
    fn stage_samples_normalize_to_us_per_pbs() {
        let sink = MetricsSink::default();
        let mut t = StageTimings::new();
        t.add(PbsStage::Fft, Duration::from_micros(600));
        t.add(PbsStage::KeySwitch, Duration::from_micros(200));
        sink.record_stage_sample(&t, 4);
        sink.record_stage_sample(&t, 4);
        let r = sink.report(4);
        let b = r.pbs_stage_breakdown.clone().expect("sampled");
        assert_eq!(b.sampled_epochs, 2);
        assert_eq!(b.sampled_pbs, 8);
        assert!((b.forward_fft_us - 150.0).abs() < 1e-9);
        assert!((b.keyswitch_us - 50.0).abs() < 1e-9);
        assert_eq!(b.rotate_us, 0.0);
        assert!(r.summary().contains("stages (8 PBS sampled"), "{}", r.summary());
        // Zero-job samples are ignored entirely.
        sink.record_stage_sample(&t, 0);
        assert_eq!(sink.report(4).pbs_stage_breakdown.unwrap().sampled_epochs, 2);
    }

    #[test]
    fn windows_bucket_events_by_time_and_stay_bounded() {
        // 1 ms windows so the test can cross window boundaries quickly.
        let sink = MetricsSink::with_window(Duration::from_millis(1));
        let t0 = Instant::now();
        sink.record_request(record(t0, 10, RequestClass::Lut, true));
        sink.record_epoch(2, 4);
        sink.record_queue_depth(7);
        std::thread::sleep(Duration::from_millis(3));
        sink.record_request(record(t0, 10, RequestClass::Lut, true));
        sink.record_queue_depth(3);
        let r = sink.report(4);
        assert!(r.windows.len() >= 2, "expected ≥2 windows, got {}", r.windows.len());
        let first = &r.windows[0];
        assert_eq!(first.completed, 1);
        assert_eq!(first.epochs, 1);
        assert_eq!(first.max_queue_depth, 7);
        assert!((first.mean_occupancy - 0.5).abs() < 1e-12);
        let last = r.windows.last().unwrap();
        assert_eq!(last.completed, 1);
        assert_eq!(last.max_queue_depth, 3);
        assert!(last.start_s > first.start_s);
        // Ring stays bounded over a long stream of distinct windows.
        for w in &r.windows {
            assert!((w.duration_s - 1e-3).abs() < 1e-12);
        }
    }

    #[test]
    fn window_ring_is_bounded() {
        let sink = MetricsSink::with_window(Duration::from_millis(1));
        let t0 = Instant::now();
        // Spread events over more than WINDOW_RING windows by forcing
        // the index forward via sleeps in coarse steps. Sleeping 65+
        // real ms is acceptable for a unit test.
        for _ in 0..(WINDOW_RING + 4) {
            sink.record_request(record(t0, 1, RequestClass::Lut, true));
            std::thread::sleep(Duration::from_micros(1100));
        }
        let r = sink.report(1);
        assert!(r.windows.len() <= WINDOW_RING);
        assert_eq!(r.requests_completed, WINDOW_RING + 4, "totals unaffected by eviction");
    }

    #[test]
    fn report_round_trips_through_serde_json() {
        let sink = MetricsSink::default();
        let t0 = Instant::now();
        sink.record_epoch(3, 4);
        sink.record_request(record(t0, 100, RequestClass::Gate, true));
        let mut t = StageTimings::new();
        t.add(PbsStage::Fft, Duration::from_micros(10));
        sink.record_stage_sample(&t, 1);
        let mut report = sink.report(4);
        report.ingress_queue_depth = 3;
        report.ingress_queue_high_water = 9;
        let json = serde_json::to_string(&report).unwrap();
        let parsed: RuntimeReport = serde_json::from_str(&json).expect("report parses back");
        assert_eq!(parsed.schema_version, REPORT_SCHEMA_VERSION);
        assert_eq!(parsed.requests_completed, report.requests_completed);
        assert_eq!(parsed.ingress_queue_high_water, 9);
        assert_eq!(parsed.latency_attribution, report.latency_attribution);
        assert_eq!(parsed.pbs_stage_breakdown, report.pbs_stage_breakdown);
        assert_eq!(parsed.windows, report.windows);
        // Fixed point: a second serialization is byte-identical.
        assert_eq!(serde_json::to_string(&parsed).unwrap(), json);
    }
}
