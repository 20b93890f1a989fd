//! Closed-loop SLO sweep: open-loop Poisson clients drive the full
//! streaming runtime at a ladder of offered loads bracketing the
//! saturation knee, and the resulting p50/p99-vs-load curve is written
//! to `BENCH_service.json` at the repo root — the committed service
//! baseline successive PRs compare themselves against, complementing
//! `BENCH_pbs.json`'s kernel-level numbers with end-to-end ones.
//!
//! Run from the workspace root (paths are relative to the cwd):
//!
//! ```text
//! cargo run --release -p strix-bench --bin bench_service
//! cargo run --release -p strix-bench --bin bench_service -- --fast --out /tmp/s.json
//! cargo run --release -p strix-bench --bin bench_service -- --baseline BENCH_service.json
//! ```
//!
//! `--fast` switches to the tiny insecure test parameters and a short
//! schedule (CI smoke); the default is the paper's 128-bit set II on
//! the timing-equivalent benchmark server key. The sweep first
//! measures the runtime's fixed-backlog capacity (every epoch full),
//! then places the offered-load points as fractions of it, ending past
//! 1.0× so the last point is provably beyond the knee.
//!
//! **Latency accounting.** Each request's latency is measured from its
//! *scheduled* Poisson arrival, not from when `submit` unblocked: past
//! saturation the ingress backpressure makes submits block and the
//! schedule slip, and charging that slip to the request is what makes
//! the p99 curve bend upward at the knee instead of flattening at the
//! queue depth (the coordinated-omission trap).
//!
//! The sweep runs with tracing and stage sampling at their production
//! defaults; a second capacity measurement with both disabled prices
//! that telemetry, and the measured overhead is recorded in the
//! snapshot (`trace_overhead_percent`).
//!
//! `--backend auto|portable|avx2|avx512` (default `auto`) forces the
//! SIMD kernel backend the runtime's spectral transforms run on; the
//! snapshot's config block records the resolved tier.
//!
//! `--baseline <file>` compares against a previous snapshot, warn-only
//! (exit status stays 0): CI surfaces the report, humans judge it.
//! Comparisons are skipped when the baseline's shape — parameters,
//! geometry, or kernel backend — differs from the measured run.

use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use strix_bench::{
    pretty_json, ServiceBenchConfig, ServiceBenchReport, ServiceLoadPoint, SERVICE_SCHEMA,
};
use strix_core::BatchGeometry;
use strix_runtime::{
    ArrivalProcess, OpenLoopTrafficGen, RequestOp, Runtime, RuntimeConfig, TraceConfig,
};
use strix_tfhe::bootstrap::Lut;
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::torus::encode_fraction;
use strix_tfhe::{ServerKey, StrixFftBackend, TfheParameters};

/// Offered loads as fractions of measured capacity. The last rung sits
/// well past 1.0× so its excess arrivals outrun the system's whole
/// buffer budget (pending requests + in-flight epochs) within the
/// schedule, forcing backpressure to block submits — the committed
/// curve always shows the far side of the knee.
const LOAD_FRACTIONS: [f64; 5] = [0.4, 0.7, 0.9, 1.1, 1.5];

/// Capacity legs per telemetry setting; the best (least-disturbed) run
/// counts, since scheduler interruptions on a small shared box only
/// ever push the number down.
const CAPACITY_REPS: usize = 3;

/// Concurrent client streams (one thread each).
const CLIENTS: usize = 8;

/// A point is saturated when achieved throughput falls measurably
/// short of offered — the runtime, not the schedule, set the pace.
/// Guarded by an actual schedule slip (see `run_load_point`) so the
/// idle lead-in of a lightly loaded schedule can't trip it.
const SATURATION_SHORTFALL: f64 = 0.92;

struct Shape {
    params: TfheParameters,
    geometry: BatchGeometry,
    max_delay: Duration,
    /// Arrival-schedule length per load point.
    duration: Duration,
    /// Full epochs in the timed leg of a capacity measurement.
    capacity_epochs: usize,
}

impl Shape {
    fn new(fast: bool) -> Self {
        if fast {
            Self {
                params: TfheParameters::testing_fast(),
                geometry: BatchGeometry::explicit(2, 4),
                max_delay: Duration::from_millis(5),
                duration: Duration::from_millis(800),
                capacity_epochs: 6,
            }
        } else {
            // An 8-slot epoch keeps single-epoch service time around
            // 200 ms at set II on one core — small enough for an
            // interactive SLO, large enough that occupancy matters.
            Self {
                params: TfheParameters::set_ii(),
                geometry: BatchGeometry::explicit(2, 4),
                max_delay: Duration::from_millis(40),
                duration: Duration::from_secs(6),
                capacity_epochs: 12,
            }
        }
    }

    fn runtime_config(&self, telemetry: bool) -> RuntimeConfig {
        let base = RuntimeConfig::new(self.geometry)
            .with_max_delay(self.max_delay)
            .with_workers(1)
            .with_threads_per_worker(1);
        if telemetry {
            base // production defaults: tracing on, profile_every = 16
        } else {
            base.with_trace(TraceConfig::disabled()).with_profile_every(0)
        }
    }
}

/// Dense pseudo-random LWE masks (splitmix64): a trivial zero-mask
/// ciphertext would modulus-switch to all-zero rotations and skip
/// every CMUX, so the masks must be dense for the timing to be honest.
struct MaskGen(u64);

impl MaskGen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn ciphertext(&mut self, lwe_dimension: usize) -> LweCiphertext {
        LweCiphertext::from_raw((0..=lwe_dimension).map(|_| self.next_u64()).collect())
    }
}

/// Fixed-backlog capacity: one client floods the ingress so every
/// epoch flushes full, and the steady-state PBS/s is measured over
/// `capacity_epochs` epochs after a one-epoch warmup.
fn measure_capacity(
    shape: &Shape,
    server: &Arc<ServerKey>,
    lut: &Arc<Lut>,
    telemetry: bool,
) -> f64 {
    let runtime = Runtime::start_tfhe(shape.runtime_config(telemetry), Arc::clone(server));
    let mut handle = runtime.client();
    let mut masks = MaskGen(0x5eed + telemetry as u64);
    let epoch = shape.geometry.epoch_size();

    for _ in 0..epoch {
        let ct = masks.ciphertext(shape.params.lwe_dimension);
        handle.submit(ct, RequestOp::Lut(Arc::clone(lut))).expect("runtime up");
    }
    for _ in 0..epoch {
        handle.recv().expect("warmup response");
    }

    let total = epoch * shape.capacity_epochs;
    let t0 = Instant::now();
    for _ in 0..total {
        let ct = masks.ciphertext(shape.params.lwe_dimension);
        handle.submit(ct, RequestOp::Lut(Arc::clone(lut))).expect("runtime up");
    }
    for _ in 0..total {
        handle.recv().expect("capacity response");
    }
    let wall = t0.elapsed();
    drop(handle);
    runtime.shutdown();
    total as f64 / wall.as_secs_f64()
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One rung of the sweep: `CLIENTS` threads replay independent Poisson
/// schedules totalling `offered` PBS/s against a fresh runtime, then
/// the runtime's own report supplies throughput/occupancy while the
/// client-side schedule supplies the latency distribution.
fn run_load_point(
    shape: &Shape,
    server: &Arc<ServerKey>,
    lut: &Arc<Lut>,
    offered: f64,
    seed: u64,
) -> ServiceLoadPoint {
    let runtime = Runtime::start_tfhe(shape.runtime_config(true), Arc::clone(server));
    let per_client_rate = offered / CLIENTS as f64;
    let per_client = ((per_client_rate * shape.duration.as_secs_f64()).round() as usize).max(1);
    let traffic =
        OpenLoopTrafficGen::new(ArrivalProcess::Poisson { rate_hz: per_client_rate }, seed);

    let mut slips_ms: Vec<f64> = Vec::new();
    let mut latencies_ms: Vec<f64> = std::thread::scope(|scope| {
        let start = Instant::now();
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|client_idx| {
                let mut handle = runtime.client();
                let lut = Arc::clone(lut);
                let delays = traffic.inter_arrivals(client_idx, per_client);
                let lwe_dimension = shape.params.lwe_dimension;
                scope.spawn(move || {
                    let mut masks = MaskGen(0xC11E47 ^ (client_idx << 32) ^ seed);
                    // Per-seq schedule slip: submit_time - scheduled
                    // arrival, charged to the request on top of the
                    // runtime-measured submit→completion latency.
                    let mut slip = vec![Duration::ZERO; per_client];
                    let mut lat_ms = Vec::with_capacity(per_client);
                    let mut received = 0usize;
                    let mut scheduled = start;
                    for (i, delay) in delays.iter().enumerate() {
                        scheduled += *delay;
                        let now = Instant::now();
                        if now < scheduled {
                            std::thread::sleep(scheduled - now);
                        }
                        let submit_time = Instant::now();
                        slip[i] = submit_time.saturating_duration_since(scheduled);
                        let ct = masks.ciphertext(lwe_dimension);
                        handle.submit(ct, RequestOp::Lut(Arc::clone(&lut))).expect("runtime up");
                        while let Some(response) = handle.try_recv() {
                            let total = slip[response.seq as usize] + response.latency;
                            lat_ms.push(total.as_secs_f64() * 1e3);
                            received += 1;
                        }
                    }
                    while received < per_client {
                        let response = handle.recv().expect("response arrives");
                        let total = slip[response.seq as usize] + response.latency;
                        lat_ms.push(total.as_secs_f64() * 1e3);
                        received += 1;
                    }
                    (lat_ms, slip)
                })
            })
            .collect();
        let mut all = Vec::new();
        for handle in handles {
            let (lat_ms, slip) = handle.join().expect("client thread");
            all.extend(lat_ms);
            slips_ms.extend(slip.iter().map(|d| d.as_secs_f64() * 1e3));
        }
        all
    });
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    let report = runtime.shutdown();
    let achieved = report.achieved_pbs_per_s;
    let mean_slip_ms = slips_ms.iter().sum::<f64>() / slips_ms.len().max(1) as f64;
    // Saturation needs both signals: a throughput shortfall alone can
    // be the schedule's idle lead-in; a slipped schedule alone can be
    // scheduler wakeup jitter. Together they mean the runtime set the
    // pace — the definition of being past the knee.
    let slipped = mean_slip_ms > shape.max_delay.as_secs_f64() * 1e3;
    ServiceLoadPoint {
        offered_pbs_per_s: offered,
        duration_s: shape.duration.as_secs_f64(),
        requests: CLIENTS * per_client,
        completed: report.requests_completed,
        failed: report.requests_failed,
        achieved_pbs_per_s: achieved,
        p50_ms: percentile_ms(&latencies_ms, 50.0),
        p90_ms: percentile_ms(&latencies_ms, 90.0),
        p99_ms: percentile_ms(&latencies_ms, 99.0),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
        mean_occupancy: report.mean_batch_occupancy,
        queue_high_water: report.ingress_queue_high_water,
        mean_slip_ms,
        saturated: achieved < offered * SATURATION_SHORTFALL && slipped,
    }
}

/// Best-effort short git commit hash of the working tree.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Warn-only comparison against a previous snapshot's contents (read
/// *before* the new snapshot is written, so `--baseline` may point at
/// the very file `--out` overwrites). Never fails the process.
fn compare_against_baseline(old: &str, baseline_path: &str, fresh: &ServiceBenchReport) {
    let old: ServiceBenchReport = match serde_json::from_str(old) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bench_service: baseline {baseline_path} does not parse ({e:?}); skipped");
            return;
        }
    };
    if old.schema != fresh.schema || old.config != fresh.config {
        eprintln!(
            "bench_service: baseline shape ({} / {}) differs from measured ({} / {}); \
             comparison skipped",
            old.schema, old.config.params, fresh.schema, fresh.config.params
        );
        return;
    }
    let speedup = fresh.knee_pbs_per_s / old.knee_pbs_per_s.max(1e-9);
    eprintln!(
        "bench_service: baseline knee {:.2} PBS/s -> {:.2} PBS/s ({speedup:.3}x vs {baseline_path})",
        old.knee_pbs_per_s, fresh.knee_pbs_per_s
    );
    if fresh.knee_pbs_per_s < old.knee_pbs_per_s * 0.95 {
        eprintln!(
            "bench_service: WARNING: saturation knee regressed more than 5% vs baseline \
             ({:.2} -> {:.2} PBS/s). Warn-only; not failing.",
            old.knee_pbs_per_s, fresh.knee_pbs_per_s
        );
    }
    for (old_point, new_point) in old.points.iter().zip(&fresh.points) {
        if !old_point.saturated
            && !new_point.saturated
            && new_point.p99_ms > old_point.p99_ms * 1.25
        {
            eprintln!(
                "bench_service: WARNING: p99 at {:.1} PBS/s regressed {:.1} -> {:.1} ms. \
                 Warn-only; not failing.",
                new_point.offered_pbs_per_s, old_point.p99_ms, new_point.p99_ms
            );
        }
    }
}

fn main() {
    let mut fast = false;
    let mut backend = StrixFftBackend::Auto;
    let mut out_path = String::from("BENCH_service.json");
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--backend" => {
                backend = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--backend <auto|portable|avx2|avx512>");
            }
            "--out" => out_path = args.next().expect("--out <path>"),
            "--baseline" => baseline = Some(args.next().expect("--baseline <file>")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    // Capture the baseline *now*, before anything writes `out_path`.
    let baseline_contents = baseline.as_ref().map(|p| (p.clone(), std::fs::read_to_string(p)));

    let mut shape = Shape::new(fast);
    shape.params = shape.params.with_fft_backend(backend);
    let server = Arc::new(ServerKey::generate_for_benchmark(&shape.params, 0xBE7C));
    let kernel_backend = server.fft_backend().label().to_string();
    let lut = Arc::new(Lut::sign(shape.params.polynomial_size, encode_fraction(1, 3)));
    eprintln!(
        "bench_service: params={} epoch={}x{} clients={CLIENTS} duration={:?}/point \
         backend={kernel_backend}",
        shape.params.name, shape.geometry.tvlp, shape.geometry.core_batch, shape.duration
    );

    // Capacity with production telemetry (tracing + every-16th-epoch
    // stage sampling), then with all telemetry off to price it. Legs
    // alternate order rep to rep so warmup state and slow background
    // drift hit both settings equally, and the best leg per setting
    // counts (interruptions only ever push a leg down).
    let mut capacity = 0.0f64;
    let mut capacity_untraced = 0.0f64;
    for rep in 0..CAPACITY_REPS {
        for telemetry in [rep % 2 == 0, rep % 2 != 0] {
            let leg = measure_capacity(&shape, &server, &lut, telemetry);
            eprintln!(
                "bench_service: capacity leg {rep}/{}: {leg:.2} PBS/s",
                if telemetry { "telemetry" } else { "bare" }
            );
            if telemetry {
                capacity = capacity.max(leg);
            } else {
                capacity_untraced = capacity_untraced.max(leg);
            }
        }
    }
    let trace_overhead_percent = (capacity_untraced - capacity) / capacity_untraced * 100.0;
    eprintln!(
        "bench_service: capacity {capacity:.2} PBS/s traced, {capacity_untraced:.2} untraced \
         (telemetry overhead {trace_overhead_percent:.2}%)"
    );

    let points: Vec<ServiceLoadPoint> = LOAD_FRACTIONS
        .iter()
        .enumerate()
        .map(|(i, fraction)| {
            let offered = capacity * fraction;
            let point = run_load_point(&shape, &server, &lut, offered, 0xA11CE + i as u64);
            eprintln!(
                "bench_service: offered {:>7.2} PBS/s -> achieved {:>7.2}, p50 {:>8.1} ms, \
                 p99 {:>8.1} ms, occupancy {:.2}{}",
                point.offered_pbs_per_s,
                point.achieved_pbs_per_s,
                point.p50_ms,
                point.p99_ms,
                point.mean_occupancy,
                if point.saturated { "  [saturated]" } else { "" }
            );
            point
        })
        .collect();
    let knee_pbs_per_s = points.iter().map(|p| p.achieved_pbs_per_s).fold(0.0f64, f64::max);

    let report = ServiceBenchReport {
        schema: SERVICE_SCHEMA.into(),
        unix_time: SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0),
        git_commit: git_commit(),
        config: ServiceBenchConfig {
            params: shape.params.name.clone(),
            lwe_dimension: shape.params.lwe_dimension,
            polynomial_size: shape.params.polynomial_size,
            tvlp: shape.geometry.tvlp,
            core_batch: shape.geometry.core_batch,
            workers: 1,
            threads_per_worker: 1,
            clients: CLIENTS,
            max_delay_ms: shape.max_delay.as_secs_f64() * 1e3,
            profile_every: 16,
            kernel_backend,
        },
        capacity_pbs_per_s: capacity,
        trace_overhead_percent,
        knee_pbs_per_s,
        points,
    };

    let json = pretty_json(&serde_json::to_value(&report));
    std::fs::write(&out_path, &json).expect("write service snapshot");
    println!("{json}");
    eprintln!("bench_service: wrote {out_path}");
    match baseline_contents {
        Some((path, Ok(old))) => compare_against_baseline(&old, &path, &report),
        Some((path, Err(_))) => {
            eprintln!("bench_service: baseline {path} unreadable; comparison skipped");
        }
        None => {}
    }
}
