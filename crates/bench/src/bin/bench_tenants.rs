//! Multi-tenant key-fabric sweep: aggregate throughput versus the
//! number of *hot* tenants sharing a fixed key-cache residency budget,
//! written to `BENCH_tenants.json` at the repo root — the committed
//! baseline for the registry-backed runtime, complementing
//! `BENCH_service.json`'s single-key numbers.
//!
//! Run from the workspace root (paths are relative to the cwd):
//!
//! ```text
//! cargo run --release -p strix-bench --bin bench_tenants
//! cargo run --release -p strix-bench --bin bench_tenants -- --fast --out /tmp/t.json
//! cargo run --release -p strix-bench --bin bench_tenants -- --baseline BENCH_tenants.json
//! ```
//!
//! The default registers 64 tenants (seeded transport form, benchmark
//! keygen) against a budget of 8 resident expanded keys and sweeps hot
//! sets of 1, 8 and 64 tenants. The three points tell the fabric's
//! whole story:
//!
//! * **1 hot** — the single-tenant reference: after one cold miss the
//!   cache is all-hits and throughput is the runtime's capacity.
//! * **8 hot** (= budget) — the design point: the working set exactly
//!   fills the budget, steady state is all-hits, and throughput must
//!   hold near the single-tenant line — this is the committed
//!   acceptance property.
//! * **64 hot** — deliberate thrash: every epoch's resolve misses and
//!   re-expands a seeded key, pricing key churn when the working set
//!   is 8x the budget.
//!
//! Each point floods the ingress from every hot tenant concurrently
//! (closed-loop, full epochs; the dispatcher serves single-key epochs
//! round robin across tenants), after a warmup pass that pays each hot
//! tenant's first-touch expansion outside the timed window. Cache
//! counters are taken as a before/after delta on the registry so
//! warmup does not pollute them.
//!
//! `--fast` switches to the tiny insecure test parameters and small
//! tenant counts (CI smoke). `--baseline <file>` compares warn-only
//! against a previous snapshot, skipping when the shape differs.

use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use strix_bench::{
    pretty_json, TenantsBenchConfig, TenantsBenchReport, TenantsLoadPoint, TENANTS_SCHEMA,
};
use strix_core::BatchGeometry;
use strix_runtime::{KeyRegistry, RequestOp, Runtime, RuntimeConfig, TenantId};
use strix_tfhe::bootstrap::Lut;
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::torus::encode_fraction;
use strix_tfhe::{SeededServerKey, StrixFftBackend, TfheParameters};

struct Shape {
    params: TfheParameters,
    geometry: BatchGeometry,
    max_delay: Duration,
    /// Registered tenants (all seeded).
    tenants: usize,
    /// Residency budget, in whole expanded keys.
    budget_keys: usize,
    /// Hot-tenant counts to sweep, ascending.
    hot_counts: Vec<usize>,
    /// Target full epochs in each point's timed window (split across
    /// the hot tenants; every tenant always runs at least one epoch).
    window_epochs: usize,
}

impl Shape {
    fn new(fast: bool) -> Self {
        if fast {
            Self {
                params: TfheParameters::testing_fast(),
                geometry: BatchGeometry::explicit(2, 4),
                max_delay: Duration::from_millis(5),
                tenants: 8,
                budget_keys: 2,
                hot_counts: vec![1, 2, 8],
                window_epochs: 6,
            }
        } else {
            // Same runtime shape as bench_service (set II, 2x4 epochs,
            // one single-threaded worker) so the single-tenant point is
            // directly comparable to the committed service capacity.
            Self {
                params: TfheParameters::set_ii(),
                geometry: BatchGeometry::explicit(2, 4),
                max_delay: Duration::from_millis(40),
                tenants: 64,
                budget_keys: 8,
                hot_counts: vec![1, 8, 64],
                window_epochs: 48,
            }
        }
    }

    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig::new(self.geometry)
            .with_max_delay(self.max_delay)
            .with_workers(1)
            .with_threads_per_worker(1)
    }
}

/// Dense pseudo-random LWE masks (splitmix64); a zero-mask ciphertext
/// would modulus-switch to all-zero rotations and skip every CMUX, so
/// masks must be dense for the timing to be honest.
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

/// A fresh registry with every tenant registered in seeded form.
fn build_registry(shape: &Shape) -> Arc<KeyRegistry> {
    let registry =
        Arc::new(KeyRegistry::with_resident_keys(shape.params.clone(), shape.budget_keys));
    for t in 0..shape.tenants as u64 {
        registry.register_seeded(
            TenantId(t),
            SeededServerKey::for_benchmark(&shape.params, 0xB0B0 + t),
        );
    }
    registry
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One point of the sweep: `hot` tenants flood a fresh registry-backed
/// runtime concurrently. Warmup runs one epoch per hot tenant (paying
/// first-touch expansions outside the window when the hot set fits the
/// budget; with more hot tenants than budget the thrash is the
/// measurement and warmup cannot hide it), then the timed window runs
/// the per-tenant backlogs to completion.
fn run_point(shape: &Shape, lut: &Arc<Lut>, hot: usize) -> TenantsLoadPoint {
    let registry = build_registry(shape);
    let runtime = Runtime::start_multi_tenant(shape.runtime_config(), Arc::clone(&registry));
    let epoch = shape.geometry.epoch_size();
    let per_tenant = epoch * (shape.window_epochs / hot).max(1);
    let lwe_dimension = shape.params.lwe_dimension;

    // Warmup: one full epoch per hot tenant, concurrently.
    std::thread::scope(|scope| {
        for t in 0..hot as u64 {
            let mut handle = runtime.client_for(TenantId(t));
            let lut = Arc::clone(lut);
            scope.spawn(move || {
                let mut masks = MaskGen(0x3A72 ^ t);
                for _ in 0..epoch {
                    let ct = masks.ciphertext(lwe_dimension);
                    handle.submit(ct, RequestOp::Lut(Arc::clone(&lut))).expect("runtime up");
                }
                for _ in 0..epoch {
                    handle.recv().expect("warmup response");
                }
            });
        }
    });

    let before = registry.stats();
    let t0 = Instant::now();
    let (latencies_ms, completed, failed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..hot as u64)
            .map(|t| {
                let mut handle = runtime.client_for(TenantId(t));
                let lut = Arc::clone(lut);
                scope.spawn(move || {
                    let mut masks = MaskGen(0x7E4A ^ (t << 32));
                    for _ in 0..per_tenant {
                        let ct = masks.ciphertext(lwe_dimension);
                        handle.submit(ct, RequestOp::Lut(Arc::clone(&lut))).expect("runtime up");
                    }
                    let mut lat_ms = Vec::with_capacity(per_tenant);
                    let mut ok = 0usize;
                    let mut err = 0usize;
                    for _ in 0..per_tenant {
                        let response = handle.recv().expect("response arrives");
                        lat_ms.push(response.latency.as_secs_f64() * 1e3);
                        if response.result.is_ok() {
                            ok += 1;
                        } else {
                            err += 1;
                        }
                    }
                    (lat_ms, ok, err)
                })
            })
            .collect();
        let mut all = Vec::new();
        let (mut ok, mut err) = (0usize, 0usize);
        for handle in handles {
            let (lat_ms, o, e) = handle.join().expect("tenant thread");
            all.extend(lat_ms);
            ok += o;
            err += e;
        }
        (all, ok, err)
    });
    let wall = t0.elapsed();
    let after = registry.stats();
    let report = runtime.shutdown();

    let mut sorted = latencies_ms;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    TenantsLoadPoint {
        hot_tenants: hot,
        requests: hot * per_tenant,
        completed,
        failed,
        duration_s: wall.as_secs_f64(),
        aggregate_pbs_per_s: completed as f64 / wall.as_secs_f64(),
        mean_occupancy: report.mean_batch_occupancy,
        key_cache_hits: after.hits - before.hits,
        key_cache_misses: after.misses - before.misses,
        key_cache_evictions: after.evictions - before.evictions,
        p50_ms: percentile_ms(&sorted, 50.0),
        p99_ms: percentile_ms(&sorted, 99.0),
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
fn compare_against_baseline(old: &str, baseline_path: &str, fresh: &TenantsBenchReport) {
    let old: TenantsBenchReport = match serde_json::from_str(old) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bench_tenants: baseline {baseline_path} does not parse ({e:?}); skipped");
            return;
        }
    };
    if old.schema != fresh.schema || old.config != fresh.config {
        eprintln!(
            "bench_tenants: baseline shape ({} / {}) differs from measured ({} / {}); \
             comparison skipped",
            old.schema, old.config.params, fresh.schema, fresh.config.params
        );
        return;
    }
    for new_point in &fresh.points {
        let Some(old_point) = old.points.iter().find(|p| p.hot_tenants == new_point.hot_tenants)
        else {
            continue;
        };
        let speedup = new_point.aggregate_pbs_per_s / old_point.aggregate_pbs_per_s.max(1e-9);
        eprintln!(
            "bench_tenants: {} hot: {:.2} PBS/s -> {:.2} PBS/s ({speedup:.3}x vs {baseline_path})",
            new_point.hot_tenants, old_point.aggregate_pbs_per_s, new_point.aggregate_pbs_per_s
        );
        if new_point.aggregate_pbs_per_s < old_point.aggregate_pbs_per_s * 0.95 {
            eprintln!(
                "bench_tenants: WARNING: aggregate throughput at {} hot tenants regressed \
                 more than 5% vs baseline ({:.2} -> {:.2} PBS/s). Warn-only; not failing.",
                new_point.hot_tenants, old_point.aggregate_pbs_per_s, new_point.aggregate_pbs_per_s
            );
        }
    }
}

fn main() {
    let mut fast = false;
    let mut backend = StrixFftBackend::Auto;
    let mut out_path = String::from("BENCH_tenants.json");
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
    let kernel_backend = shape
        .params
        .fft_backend
        .resolve()
        .map(|b| b.label().to_string())
        .unwrap_or_else(|e| format!("unavailable: {e:?}"));
    let lut = Arc::new(Lut::sign(shape.params.polynomial_size, encode_fraction(1, 3)));
    eprintln!(
        "bench_tenants: params={} epoch={}x{} tenants={} budget={} keys backend={kernel_backend}",
        shape.params.name,
        shape.geometry.tvlp,
        shape.geometry.core_batch,
        shape.tenants,
        shape.budget_keys
    );

    let points: Vec<TenantsLoadPoint> = shape
        .hot_counts
        .iter()
        .map(|&hot| {
            let point = run_point(&shape, &lut, hot);
            eprintln!(
                "bench_tenants: {:>3} hot -> {:>7.2} PBS/s aggregate, {} hits / {} misses / \
                 {} evictions, p50 {:>8.1} ms, p99 {:>8.1} ms",
                point.hot_tenants,
                point.aggregate_pbs_per_s,
                point.key_cache_hits,
                point.key_cache_misses,
                point.key_cache_evictions,
                point.p50_ms,
                point.p99_ms
            );
            point
        })
        .collect();

    let report = TenantsBenchReport {
        schema: TENANTS_SCHEMA.into(),
        unix_time: SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0),
        git_commit: git_commit(),
        config: TenantsBenchConfig {
            params: shape.params.name.clone(),
            lwe_dimension: shape.params.lwe_dimension,
            polynomial_size: shape.params.polynomial_size,
            tvlp: shape.geometry.tvlp,
            core_batch: shape.geometry.core_batch,
            workers: 1,
            threads_per_worker: 1,
            max_delay_ms: shape.max_delay.as_secs_f64() * 1e3,
            tenants_registered: shape.tenants,
            cache_budget_keys: shape.budget_keys,
            seeded_transport_bytes: shape.params.seeded_server_key_bytes(),
            server_key_bytes: shape.params.server_key_bytes(),
            kernel_backend,
        },
        points,
    };

    let json = pretty_json(&serde_json::to_value(&report));
    std::fs::write(&out_path, &json).expect("write tenants snapshot");
    println!("{json}");
    eprintln!("bench_tenants: wrote {out_path}");
    match baseline_contents {
        Some((path, Ok(old))) => compare_against_baseline(&old, &path, &report),
        Some((path, Err(_))) => {
            eprintln!("bench_tenants: baseline {path} unreadable; comparison skipped");
        }
        None => {}
    }
}
