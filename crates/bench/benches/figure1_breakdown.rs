//! Figure 1 — workload breakdown for a TFHE gate operation on CPU.
//!
//! Runs instrumented NAND gates with this repository's TFHE
//! implementation and prints the three panels of the paper's figure:
//! gate-level (PBS / KS / other), PBS-level (blind rotation share) and
//! per-stage shares within one blind-rotation iteration.
//!
//! Paper reference values (set I on a Xeon): PBS ≈ 65%, KS ≈ 30%,
//! other ≈ 5%; blind rotation ≈ 98% of PBS.

use strix_baselines::breakdown;
use strix_bench::{banner, markdown_table};
use strix_tfhe::TfheParameters;

fn main() {
    println!("{}", banner("Figure 1: TFHE gate workload breakdown (measured on this host)"));

    let params = TfheParameters::set_i();
    let gates = 8;
    println!("parameter set {}, {} instrumented NAND gates\n", params.name, gates);
    let b = breakdown::measure(&params, gates, 11);

    let rows = vec![
        vec![
            "measured".to_string(),
            format!("{:.1}%", b.pbs_fraction * 100.0),
            format!("{:.1}%", b.keyswitch_fraction * 100.0),
            format!("{:.1}%", b.other_fraction * 100.0),
        ],
        vec!["paper (Xeon)".to_string(), "≈65%".into(), "≈30%".into(), "≈5%".into()],
    ];
    println!("{}", markdown_table(&["gate time", "PBS", "KS", "other"], &rows));

    println!(
        "blind rotation share of PBS: measured {:.1}% (paper ≈98%)\n",
        b.blind_rotation_of_pbs * 100.0
    );

    let stage_rows: Vec<Vec<String>> = b
        .iteration_stages
        .iter()
        .map(|(label, f)| vec![label.clone(), format!("{:.1}%", f * 100.0)])
        .collect();
    println!("{}", markdown_table(&["BR iteration stage", "share of iteration"], &stage_rows));

    // Shape checks: the run fails if the breakdown loses Fig. 1's shape.
    assert!(b.pbs_fraction > 0.5, "PBS must dominate the gate");
    assert!(b.blind_rotation_of_pbs > 0.9, "blind rotation must dominate PBS");
    println!("shape checks passed: PBS-dominant gate, blind-rotation-dominant PBS");
}
