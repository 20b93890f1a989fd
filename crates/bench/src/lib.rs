//! Shared helpers for the benchmark harnesses: table formatting and
//! paper-vs-measured comparison rows.
//!
//! Every table and figure of the Strix paper has a matching bench
//! target in this crate (`cargo bench -p strix-bench --bench <name>`);
//! the helpers here keep their printed markdown blocks consistent.
//! The repository's measured performance record is the `benchmark/`
//! package declared by `BENCHMARK.json`, not these targets.

use strix_core::PbsReport;
use strix_runtime::RuntimeReport;

/// Formats a markdown table from a header and rows.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", header.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(header.len())));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Formats an optional value with a unit, printing `–` for `None`
/// (the paper's blank-cell convention).
pub fn opt_cell(v: Option<f64>, precision: usize) -> String {
    match v {
        Some(x) => format!("{x:.precision$}"),
        None => "–".to_string(),
    }
}

/// Ratio of measured to reference, rendered as `×` with one decimal.
pub fn ratio_cell(measured: f64, reference: f64) -> String {
    if reference == 0.0 {
        return "–".into();
    }
    format!("{:.2}x", measured / reference)
}

/// A section banner for bench output.
pub fn banner(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// The header matching [`runtime_vs_simulator_rows`].
pub const RUNTIME_COMPARISON_HEADER: [&str; 6] =
    ["source", "epoch", "occupancy", "p50 latency", "p99 latency", "PBS/s"];

/// Renders the software runtime's measured report next to the
/// simulator's model of the same batching policy, as rows for
/// [`markdown_table`] under [`RUNTIME_COMPARISON_HEADER`]. This is how
/// measured software throughput sits beside the accelerator estimate
/// in the streaming bench output.
pub fn runtime_vs_simulator_rows(
    measured: &RuntimeReport,
    simulated: &PbsReport,
) -> Vec<Vec<String>> {
    vec![
        vec![
            "strix-runtime (measured)".into(),
            measured.epoch_capacity.to_string(),
            format!("{:.1}%", measured.mean_batch_occupancy * 100.0),
            format!("{:.3} ms", measured.p50_latency_us as f64 / 1e3),
            format!("{:.3} ms", measured.p99_latency_us as f64 / 1e3),
            format!("{:.1}", measured.achieved_pbs_per_s),
        ],
        vec![
            "strix-core (simulated)".into(),
            simulated.epoch_size.to_string(),
            "100.0%".into(),
            format!("{:.3} ms", simulated.latency_s * 1e3),
            format!("{:.3} ms", simulated.latency_s * 1e3),
            format!("{:.1}", simulated.throughput_pbs_per_s),
        ],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("|---|---|"));
        assert!(t.contains("| 1 | 2 |"));
    }

    #[test]
    fn optional_cells() {
        assert_eq!(opt_cell(Some(1.234), 2), "1.23");
        assert_eq!(opt_cell(None, 2), "–");
    }

    #[test]
    fn ratios() {
        assert_eq!(ratio_cell(74696.0, 10000.0), "7.47x");
        assert_eq!(ratio_cell(1.0, 0.0), "–");
    }

    #[test]
    fn banner_contains_title() {
        assert!(banner("Table V").contains("Table V"));
    }

    #[test]
    fn runtime_rows_render_into_the_table() {
        use strix_core::{StrixConfig, StrixSimulator};
        use strix_runtime::MetricsSink;
        use strix_tfhe::TfheParameters;

        let sink = MetricsSink::default();
        sink.record_epoch(32, 32);
        let measured = sink.report(32);
        let sim =
            StrixSimulator::new(StrixConfig::paper_default(), TfheParameters::set_i()).unwrap();
        let rows = runtime_vs_simulator_rows(&measured, &sim.pbs_report(4096));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), RUNTIME_COMPARISON_HEADER.len());
        let table = markdown_table(&RUNTIME_COMPARISON_HEADER, &rows);
        assert!(table.contains("strix-runtime (measured)"));
        assert!(table.contains("strix-core (simulated)"));
        assert!(table.contains("100.0%"));
    }
}
