//! What a result file must carry to be compared honestly with another:
//! the host, the build's kernel backend and the benchmark's settings.

use std::fs;

use strix_tfhe::{StrixFftBackend, TfheParameters};

use crate::json::Json;
use crate::workloads::service_open::LIGHT_RATE;
use crate::workloads::{GEOMETRY, RUNG_RATES};

/// Size in bytes of the largest cache `cpu0` reports, if the kernel
/// exposes it.
pub fn llc_bytes() -> Option<u64> {
    (0..8)
        .filter_map(|i| {
            let text =
                fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                    .ok()?;
            let text = text.trim();
            let (digits, scale) = match text.as_bytes().last()? {
                b'K' => (&text[..text.len() - 1], 1024),
                b'M' => (&text[..text.len() - 1], 1024 * 1024),
                _ => (text, 1),
            };
            Some(digits.parse::<u64>().ok()? * scale)
        })
        .max()
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// `MemAvailable` in bytes.
pub fn mem_available_bytes() -> Option<u64> {
    let field = proc_field("/proc/meminfo", "MemAvailable")?;
    Some(field.split_whitespace().next()?.parse::<u64>().ok()? * 1024)
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    Some(field.split_whitespace().next()?.parse::<f64>().ok()? / 1024.0)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The provenance block of one run.
pub fn collect(seed: u64, seconds: f64, params: &TfheParameters) -> Json {
    let backend = StrixFftBackend::Auto
        .resolve()
        .map_or_else(|e| format!("unresolved: {e}"), |b| b.label().to_string());
    let features = strix_fft::detected_cpu_features().into_iter().map(Json::str).collect();
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("git_commit", Json::str(git_commit())),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64))),
        (
            "cpu_model",
            Json::str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("cpu_features", Json::Arr(features)),
        ("fft_backend", Json::str(backend)),
        ("parameter_set", Json::str(params.name.clone())),
        ("pbs_kernel", Json::str(params.pbs_kernel.label())),
        ("open_loop_rate_pbs_per_s", Json::Num(LIGHT_RATE)),
        ("rung_rates_pbs_per_s", Json::Arr(RUNG_RATES.iter().map(|&r| Json::Num(r)).collect())),
        ("epoch_geometry", Json::str(format!("{}x{}", GEOMETRY.0, GEOMETRY.1))),
        ("driver_threads", Json::Num(1.0)),
        ("workers", Json::Num(1.0)),
        ("threads_per_worker", Json::Num(1.0)),
        ("llc_bytes", llc_bytes().map_or(Json::Null, |b| Json::Num(b as f64))),
    ])
}
