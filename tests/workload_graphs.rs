//! Workload-graph construction and execution across crates: the Zama
//! Deep-NN models and gate circuits through the Strix simulator.

use strix::core::{StrixConfig, StrixSimulator, Workload};
use strix::tfhe::TfheParameters;
use strix::workloads::{gates, mnist::SyntheticImage, DeepNn};

#[test]
fn nn_models_have_the_paper_shapes() {
    for (depth, pbs) in [(20, 2588), (50, 5348), (100, 9948)] {
        let nn = DeepNn::new(depth, 1024);
        assert_eq!(nn.total_pbs(), pbs, "NN-{depth}");
        assert_eq!(nn.conv_outputs(), 840); // [1, 2, 21, 20]
        let w = nn.workload();
        assert_eq!(w.total_pbs(), pbs);
    }
}

#[test]
fn deeper_networks_take_longer_on_strix() {
    let sim =
        StrixSimulator::new(StrixConfig::paper_default(), TfheParameters::deep_nn(1024).unwrap())
            .unwrap();
    let mut last = 0.0;
    for depth in [20usize, 50, 100] {
        let t = sim.run_graph(&DeepNn::new(depth, 1024).workload()).total_time_s;
        assert!(t > last, "NN-{depth}");
        last = t;
    }
}

#[test]
fn larger_polynomials_take_longer_on_strix() {
    let mut last = 0.0;
    for n in [1024usize, 2048, 4096] {
        let nn = DeepNn::new(20, n);
        let sim = StrixSimulator::new(StrixConfig::paper_default(), nn.params()).unwrap();
        let t = sim.run_graph(&nn.workload()).total_time_s;
        assert!(t > last, "N={n}");
        last = t;
    }
}

#[test]
fn pbs_dominates_linear_time_in_nn_graphs() {
    // The paper's premise: linear operations are rapid, nonlinear
    // (PBS) dominate.
    let nn = DeepNn::new(20, 1024);
    let sim = StrixSimulator::new(StrixConfig::paper_default(), nn.params()).unwrap();
    let report = sim.run_graph(&nn.workload());
    let (mut pbs_time, mut linear_time) = (0.0f64, 0.0f64);
    for node in &report.nodes {
        if node.pbs_count > 0 {
            pbs_time += node.time_s;
        } else {
            linear_time += node.time_s;
        }
    }
    assert!(pbs_time > 20.0 * linear_time, "pbs {pbs_time} linear {linear_time}");
}

#[test]
fn gate_workloads_count_pbs_correctly() {
    // Derived from the programs the runtime serves: a half adder plus a
    // majority and a parity per full adder once lowered.
    let adder = gates::ripple_carry_adder_program(16);
    assert_eq!(adder.workload().total_pbs(), 2 + 15 * 5);
    assert_eq!(adder.lowered().workload().total_pbs(), 2 + 15 * 2);
    let pbs_per_level = |w: &Workload| w.nodes().iter().map(|n| n.pbs_count()).collect::<Vec<_>>();
    assert_eq!(pbs_per_level(&gates::equality_program(4).workload()), [4, 2, 1]);
    assert_eq!(pbs_per_level(&gates::equality_program(8).workload()), [8, 4, 2, 1]);
}

#[test]
fn image_feeds_the_nn_input_shape() {
    let img = SyntheticImage::generate(5);
    // One ciphertext per pixel: 784 = the paper's maximum TvLP example.
    assert_eq!(img.len(), 28 * 28);
    let q = img.quantize(3);
    assert_eq!(q.len(), 784);
    assert!(q.iter().all(|&v| v < 8));
}

#[test]
fn empty_and_composite_workloads_run() {
    let sim = StrixSimulator::new(StrixConfig::paper_default(), TfheParameters::set_i()).unwrap();
    let empty = Workload::new("empty");
    let r = sim.run_graph(&empty);
    assert_eq!(r.total_time_s, 0.0);
    assert_eq!(r.total_pbs, 0);

    let composite = Workload::new("mixed")
        .linear(10, 10, "prep")
        .pbs(100, "layer")
        .linear(10, 100, "post")
        .pbs(10, "final");
    let r = sim.run_graph(&composite);
    assert_eq!(r.nodes.len(), 4);
    assert_eq!(r.total_pbs, 110);
    assert!(r.total_time_s > 0.0);
}

#[test]
fn graph_times_scale_with_pbs_count() {
    let sim = StrixSimulator::new(StrixConfig::paper_default(), TfheParameters::set_i()).unwrap();
    let small = sim.run_graph(&Workload::new("s").pbs(256, "x")).total_time_s;
    let large = sim.run_graph(&Workload::new("l").pbs(2560, "x")).total_time_s;
    let ratio = large / small;
    assert!((5.0..11.0).contains(&ratio), "ratio {ratio}");
}
