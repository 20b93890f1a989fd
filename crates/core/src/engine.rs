//! The simulation engine: two-level batching over the HSC array.
//!
//! The engine schedules a workload in **epochs** (§IV-C): each epoch
//! carries `TvLP × core_batch` LWEs — the device-level batch across
//! cores times the core-level batch streaming within each core. The
//! per-iteration period is the maximum of the compute initiation
//! interval times the core batch and the bootstrapping-key fetch time;
//! the latter winning is precisely the memory-bound regime of
//! Table VII. Keyswitching of an epoch is hidden behind the next
//! epoch's blind rotation whenever it fits (§IV-C), so a batch of `E`
//! epochs completes in `BR + (E−1)·max(BR, KS) + KS`.

use serde::{Deserialize, Serialize};

use strix_tfhe::TfheParameters;

use crate::config::StrixConfig;
use crate::graph::{Workload, WorkloadNode};
use crate::memory::MemoryModel;
use crate::pipeline::{KsClusterModel, PbsClusterModel};
use crate::trace::PipelineTrace;
use crate::units::UnitKind;
use crate::SimError;

/// Performance report for a batch of programmable bootstraps.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PbsReport {
    /// Number of LWEs in the batch.
    pub num_lwes: usize,
    /// Latency of a single PBS (+ keyswitch), in seconds.
    pub latency_s: f64,
    /// Completion time of the whole batch, in seconds.
    pub total_time_s: f64,
    /// Steady-state throughput in PBS per second.
    pub throughput_pbs_per_s: f64,
    /// Core-level batch size used.
    pub core_batch: usize,
    /// Device-level batch (epoch) size: `TvLP × core_batch`.
    pub epoch_size: usize,
    /// Number of epochs (blind-rotation fragments at the device level).
    pub epochs: usize,
    /// Effective per-iteration period in cycles (after memory stalls).
    pub iteration_cycles: u64,
    /// Compute-only per-iteration period in cycles.
    pub compute_iteration_cycles: u64,
    /// Whether the bootstrapping-key stream limits the iteration period.
    pub memory_bound: bool,
    /// External bandwidth demand at full compute speed, in GB/s
    /// (bsk + ksk + ciphertext I/O) — Table VII's "required bandwidth".
    pub required_bandwidth_gbps: f64,
    /// Per-unit utilisation of the PBS cluster at its own II.
    pub unit_utilization: Vec<(UnitKind, f64)>,
}

/// Per-node timing in a workload-graph run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeReport {
    /// Node label.
    pub label: String,
    /// Execution time in seconds.
    pub time_s: f64,
    /// PBS operations contributed by this node.
    pub pbs_count: usize,
}

/// Report for a full workload-graph run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GraphReport {
    /// Workload name.
    pub workload: String,
    /// End-to-end execution time in seconds.
    pub total_time_s: f64,
    /// Total PBS count.
    pub total_pbs: usize,
    /// Per-node breakdown.
    pub nodes: Vec<NodeReport>,
}

/// Energy-efficiency estimate combining the Table-III-calibrated power
/// model with simulated steady-state throughput.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Chip power draw in watts.
    pub power_w: f64,
    /// Bootstraps per joule at steady state.
    pub pbs_per_joule: f64,
    /// Microjoules per bootstrap.
    pub microjoules_per_pbs: f64,
}

/// The Strix accelerator simulator for one `(config, parameters)` pair.
#[derive(Clone, Debug)]
pub struct StrixSimulator {
    config: StrixConfig,
    params: TfheParameters,
    pbs: PbsClusterModel,
    ks: KsClusterModel,
    mem: MemoryModel,
}

impl StrixSimulator {
    /// Builds a simulator, validating both the accelerator config and
    /// the TFHE parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if either is invalid.
    pub fn new(config: StrixConfig, params: TfheParameters) -> Result<Self, SimError> {
        config.validate()?;
        params.validate().map_err(|e| SimError::InvalidParameters(e.to_string()))?;
        let pbs = PbsClusterModel::new(&params, &config);
        let ks = KsClusterModel::new(&params, &config);
        let mem = MemoryModel::new(&params, &config);
        Ok(Self { config, params, pbs, ks, mem })
    }

    /// The accelerator configuration.
    #[inline]
    pub fn config(&self) -> &StrixConfig {
        &self.config
    }

    /// The TFHE parameters.
    #[inline]
    pub fn params(&self) -> &TfheParameters {
        &self.params
    }

    /// The PBS-cluster timing model.
    #[inline]
    pub fn pbs_cluster(&self) -> &PbsClusterModel {
        &self.pbs
    }

    /// The keyswitch-cluster timing model.
    #[inline]
    pub fn ks_cluster(&self) -> &KsClusterModel {
        &self.ks
    }

    /// The memory-system model.
    #[inline]
    pub fn memory(&self) -> &MemoryModel {
        &self.mem
    }

    /// The two-level batch shape this simulator schedules in — the same
    /// policy the streaming runtime sizes its epochs with.
    #[inline]
    pub fn batch_geometry(&self) -> crate::batch::BatchGeometry {
        crate::batch::BatchGeometry::explicit(self.config.tvlp, self.mem.core_batch)
    }

    /// Bootstrapping-key delivery cycles per iteration: the slower of
    /// the HBM fetch (full-bandwidth burst, §IV-B double buffering) and
    /// the on-chip multicast broadcast.
    fn bsk_fetch_cycles(&self) -> u64 {
        let hbm =
            (self.mem.ggsw_fetch_seconds(&self.config) * self.config.clock_hz()).ceil() as u64;
        let noc = self.config.noc.bsk_broadcast_cycles(self.mem.ggsw_bytes);
        hbm.max(noc)
    }

    /// Effective iteration period for a core streaming `batch` LWEs.
    fn iteration_cycles(&self, batch: usize) -> u64 {
        self.pbs.iteration_cycles(batch).max(self.bsk_fetch_cycles())
    }

    /// Latency of one PBS (+ keyswitch), in seconds: `n` iterations at
    /// the single-LWE period, the keyswitch, and ciphertext I/O.
    pub fn pbs_latency_s(&self) -> f64 {
        let n = self.params.lwe_dimension as u64;
        let br = n * self.iteration_cycles(1);
        let ks = self.ks.cycles_per_lwe();
        let io_s = (self.mem.lwe_in_bytes + self.mem.lwe_out_bytes) as f64
            / self.config.hbm.io_bytes_per_s();
        self.config.cycles_to_seconds((br + ks) as f64) + io_s
    }

    /// Simulates a batch of `num_lwes` independent bootstraps.
    ///
    /// Every epoch but the last is full; the last carries the `r`
    /// leftover LWEs, and its cores each stream only `⌈r / TvLP⌉` of
    /// them, so a lone PBS completes in [`Self::pbs_latency_s`] less
    /// its I/O. Every other field describes the steady state at the
    /// full core batch.
    pub fn pbs_report(&self, num_lwes: usize) -> PbsReport {
        let geometry = self.batch_geometry();
        let cb = geometry.core_batch;
        let epoch_size = geometry.epoch_size();
        let epochs = geometry.epochs_for(num_lwes);
        let n = self.params.lwe_dimension as u64;

        let compute_iter = self.pbs.iteration_cycles(cb);
        let eff_iter = self.iteration_cycles(cb);
        let br_epoch = n * eff_iter;
        let ks_epoch = self.ks.batch_cycles(cb);

        // Two-stage pipeline across epochs: each epoch's KS hides under
        // the next epoch's BR.
        let steady = br_epoch.max(ks_epoch);
        let full = epochs - 1;
        let last_cb = (num_lwes - full * epoch_size).max(1).div_ceil(geometry.tvlp);
        let (br_last, ks_last) =
            (n * self.iteration_cycles(last_cb), self.ks.batch_cycles(last_cb));
        let total_cycles = match full as u64 {
            0 => br_last + ks_last,
            f => br_epoch + steady * (f - 1) + br_last.max(ks_epoch) + ks_last,
        };
        let total_time_s = self.config.cycles_to_seconds(total_cycles as f64);
        let throughput = epoch_size as f64 / self.config.cycles_to_seconds(steady as f64);

        PbsReport {
            num_lwes,
            latency_s: self.pbs_latency_s(),
            total_time_s,
            throughput_pbs_per_s: throughput,
            core_batch: cb,
            epoch_size,
            epochs,
            iteration_cycles: eff_iter,
            compute_iteration_cycles: compute_iter,
            memory_bound: self.bsk_fetch_cycles() > compute_iter,
            required_bandwidth_gbps: self.required_bandwidth_gbps(),
            unit_utilization: self.pbs.utilizations(),
        }
    }

    /// External bandwidth demand at full compute speed (Table VII), in
    /// GB/s ([`crate::config::BANDWIDTH_GB`] bytes): the bsk stream to
    /// keep every iteration fed, the ksk stream to hide keyswitching
    /// under each epoch, and the ciphertext I/O for the epoch.
    pub fn required_bandwidth_gbps(&self) -> f64 {
        let gb = crate::config::BANDWIDTH_GB;
        let cb = self.mem.core_batch;
        let compute_iter_s = self.config.cycles_to_seconds(self.pbs.iteration_cycles(cb) as f64);
        let n = self.params.lwe_dimension as f64;
        let epoch_s = compute_iter_s * n;
        let bsk_rate = self.mem.ggsw_bytes as f64 / compute_iter_s / gb;
        let ksk_rate = self.mem.ksk_bytes as f64 / epoch_s / gb;
        let epoch_lwes = (self.config.tvlp * cb) as f64;
        let io_rate =
            epoch_lwes * (self.mem.lwe_in_bytes + self.mem.lwe_out_bytes) as f64 / epoch_s / gb;
        bsk_rate + ksk_rate + io_rate
    }

    /// Energy efficiency at steady-state throughput: the quantity on
    /// which TFHE ASICs are usually compared against GPUs (a Titan RTX
    /// at its 280 W TDP delivers ≈7 PBS/J at set I; Strix's model gives
    /// three orders of magnitude more).
    pub fn energy_report(&self) -> EnergyReport {
        let power_w = crate::area::AreaModel::new(&self.config).total_power_w();
        let thr = self.pbs_report(1 << 14).throughput_pbs_per_s;
        let pbs_per_joule = thr / power_w;
        EnergyReport { power_w, pbs_per_joule, microjoules_per_pbs: 1e6 / pbs_per_joule }
    }

    /// Runs a workload graph node by node (sequential dependencies).
    pub fn run_graph(&self, workload: &Workload) -> GraphReport {
        let mut nodes = Vec::with_capacity(workload.len());
        let mut total = 0.0f64;
        for node in workload.nodes() {
            let (time_s, pbs_count) = match node {
                WorkloadNode::Pbs { lwes, .. } => (self.pbs_report(*lwes).total_time_s, *lwes),
                WorkloadNode::Linear { outputs, inputs_per_output, .. } => {
                    (self.linear_time_s(*outputs, *inputs_per_output), 0)
                }
            };
            total += time_s;
            nodes.push(NodeReport { label: node.label().to_string(), time_s, pbs_count });
        }
        GraphReport {
            workload: workload.name().to_string(),
            total_time_s: total,
            total_pbs: workload.total_pbs(),
            nodes,
        }
    }

    /// Time for a plaintext-weight linear layer on the integer lanes of
    /// the keyswitch clusters, spread across all cores.
    pub fn linear_time_s(&self, outputs: usize, inputs_per_output: usize) -> f64 {
        let macs =
            outputs as u64 * inputs_per_output as u64 * (self.params.lwe_dimension + 1) as u64;
        let capacity = self.ks.macs_per_cycle() * self.config.tvlp as u64;
        self.config.cycles_to_seconds(macs.div_ceil(capacity) as f64)
    }

    /// Generates the Fig.-8 style pipeline trace for the first
    /// `iterations` blind-rotation iterations with the configured core
    /// batch.
    pub fn trace(&self, iterations: usize) -> PipelineTrace {
        PipelineTrace::generate(
            &self.config,
            self.pbs.units(),
            self.pbs.initiation_interval_cycles(),
            self.iteration_cycles(self.mem.core_batch),
            self.mem.core_batch,
            iterations,
            (self.mem.ggsw_fetch_seconds_static(&self.config) * self.config.clock_hz()).ceil()
                as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(params: TfheParameters) -> StrixSimulator {
        StrixSimulator::new(StrixConfig::paper_default(), params).unwrap()
    }

    #[test]
    fn table_v_set_i_throughput_and_latency() {
        // Paper: 74,696 PBS/s and 0.16 ms.
        let s = sim(TfheParameters::set_i());
        let r = s.pbs_report(4096);
        assert!(
            (70_000.0..80_000.0).contains(&r.throughput_pbs_per_s),
            "throughput {}",
            r.throughput_pbs_per_s
        );
        assert!((0.14e-3..0.18e-3).contains(&r.latency_s), "latency {}", r.latency_s);
    }

    #[test]
    fn table_v_all_sets_throughput_shape() {
        // Paper: 74,696 / 39,600 / 21,104 / 2,368 PBS/s for sets I–IV.
        let expected = [74_696.0, 39_600.0, 21_104.0, 2_368.0];
        for (set, exp) in strix_tfhe::ParameterSet::ALL.iter().zip(expected) {
            let s = sim(set.parameters());
            let thr = s.pbs_report(1 << 14).throughput_pbs_per_s;
            let ratio = thr / exp;
            assert!((0.9..1.1).contains(&ratio), "set {set}: {thr:.0} vs paper {exp:.0}");
        }
    }

    #[test]
    fn folding_doubles_throughput() {
        // Table VI: 74,696 vs 37,472 PBS/s.
        let p = TfheParameters::set_i();
        let folded = sim(p.clone()).pbs_report(4096).throughput_pbs_per_s;
        let plain = StrixSimulator::new(StrixConfig::paper_non_folded(), p)
            .unwrap()
            .pbs_report(4096)
            .throughput_pbs_per_s;
        let ratio = folded / plain;
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn tvlp_clp_sweep_matches_table_vii_shape() {
        // Constant product TvLP·CLP = 32 on set IV: full throughput for
        // CLP ≤ 8, memory-bound halving at CLP = 16, quartering at 32.
        let mut throughputs = Vec::new();
        for (tvlp, clp) in [(16, 2), (8, 4), (4, 8), (2, 16), (1, 32)] {
            let cfg = StrixConfig::paper_default().with_tvlp_clp(tvlp, clp);
            let s = StrixSimulator::new(cfg, TfheParameters::set_iv()).unwrap();
            throughputs.push(s.pbs_report(1 << 12).throughput_pbs_per_s);
        }
        assert!((throughputs[0] - throughputs[1]).abs() / throughputs[1] < 0.02);
        assert!((throughputs[1] - throughputs[2]).abs() / throughputs[1] < 0.02);
        assert!(throughputs[3] < 0.6 * throughputs[1], "{throughputs:?}");
        assert!(throughputs[4] < 0.3 * throughputs[1], "{throughputs:?}");
    }

    #[test]
    fn required_bandwidth_grows_with_clp() {
        let mut prev = 0.0;
        for (tvlp, clp) in [(16, 2), (8, 4), (4, 8), (2, 16), (1, 32)] {
            let cfg = StrixConfig::paper_default().with_tvlp_clp(tvlp, clp);
            let s = StrixSimulator::new(cfg, TfheParameters::set_iv()).unwrap();
            let bw = s.required_bandwidth_gbps();
            assert!(bw > prev, "bw must grow with clp: {bw} after {prev}");
            prev = bw;
        }
        // The design point needs roughly one HBM2e stack (paper: 257).
        let s = sim(TfheParameters::set_iv());
        let bw = s.required_bandwidth_gbps();
        assert!((200.0..320.0).contains(&bw), "{bw}");
    }

    #[test]
    fn memory_bound_flag_tracks_regime() {
        let compute = StrixSimulator::new(
            StrixConfig::paper_default().with_tvlp_clp(16, 2),
            TfheParameters::set_iv(),
        )
        .unwrap();
        assert!(!compute.pbs_report(64).memory_bound);
        let memory = StrixSimulator::new(
            StrixConfig::paper_default().with_tvlp_clp(1, 32),
            TfheParameters::set_iv(),
        )
        .unwrap();
        assert!(memory.pbs_report(64).memory_bound);
    }

    #[test]
    fn throughput_is_monotone_in_cores() {
        let p = TfheParameters::set_i();
        let mut prev = 0.0;
        for tvlp in [1, 2, 4, 8] {
            let cfg = StrixConfig { tvlp, ..StrixConfig::paper_default() };
            let s = StrixSimulator::new(cfg, p.clone()).unwrap();
            let thr = s.pbs_report(4096).throughput_pbs_per_s;
            assert!(thr > prev);
            prev = thr;
        }
    }

    #[test]
    fn batch_time_scales_with_epochs() {
        // Each extra epoch adds exactly one steady-state period
        // (epoch_size / throughput): the two-stage BR/KS pipeline.
        let s = sim(TfheParameters::set_i());
        let r1 = s.pbs_report(256);
        let r10 = s.pbs_report(256 * 10);
        assert_eq!(r1.epochs, 1);
        assert_eq!(r10.epochs, 10);
        let added = r10.total_time_s - r1.total_time_s;
        let steady = r10.epoch_size as f64 / r10.throughput_pbs_per_s;
        assert!((added / (9.0 * steady) - 1.0).abs() < 1e-9, "added {added}");
    }

    #[test]
    fn partial_epoch_runs_at_its_own_core_batch() {
        // One PBS streams one LWE through one core: the single-LWE
        // latency less its ciphertext I/O, not a full core batch.
        let s = sim(TfheParameters::set_i());
        let r = s.pbs_report(1);
        let io_s =
            (s.mem.lwe_in_bytes + s.mem.lwe_out_bytes) as f64 / s.config.hbm.io_bytes_per_s();
        let want = s.pbs_latency_s() - io_s;
        assert!((r.total_time_s / want - 1.0).abs() < 1e-12, "{} vs {want}", r.total_time_s);
        // A partial epoch costs no more than a full one and grows with
        // its per-core share.
        let full = s.pbs_report(r.epoch_size).total_time_s;
        let half = s.pbs_report(r.epoch_size / 2).total_time_s;
        assert!(r.total_time_s < half && half < full, "{} {half} {full}", r.total_time_s);
        // A trailing partial epoch is priced the same way: one LWE past
        // a full epoch costs less than a second full epoch.
        let one_more = s.pbs_report(r.epoch_size + 1).total_time_s;
        let two = s.pbs_report(2 * r.epoch_size).total_time_s;
        assert!(full < one_more && one_more < two, "{full} {one_more} {two}");
    }

    #[test]
    fn graph_run_sums_nodes() {
        let s = sim(TfheParameters::set_i());
        let w = Workload::new("toy").linear(92, 92, "dense").pbs(92, "relu");
        let r = s.run_graph(&w);
        assert_eq!(r.nodes.len(), 2);
        assert_eq!(r.total_pbs, 92);
        let sum: f64 = r.nodes.iter().map(|n| n.time_s).sum();
        assert!((sum - r.total_time_s).abs() < 1e-12);
        // PBS dominates linear ops (the paper's premise).
        assert!(r.nodes[1].time_s > 10.0 * r.nodes[0].time_s);
    }

    #[test]
    fn narrow_noc_bus_hurts_latency_not_batched_throughput() {
        // A single LWE consumes one GGSW per II (256 cycles): the
        // 512-bit bus needs 1024 cycles per GGSW, quadrupling latency.
        // With the full 32-LWE core batch the same broadcast is reused
        // 32×, so steady throughput is untouched — the §IV-C
        // amortisation applies to the NoC exactly as to HBM.
        let mut cfg = StrixConfig::paper_default();
        cfg.noc.bsk_bus_bits = 512;
        let narrow = StrixSimulator::new(cfg, TfheParameters::set_i()).unwrap();
        let full = sim(TfheParameters::set_i());
        // Blind rotation stretches 4× but the (bus-independent)
        // keyswitch tail dilutes the total to ≈3×.
        let lat_ratio = narrow.pbs_latency_s() / full.pbs_latency_s();
        assert!((2.5..3.5).contains(&lat_ratio), "latency ratio {lat_ratio}");
        let thr_ratio = narrow.pbs_report(4096).throughput_pbs_per_s
            / full.pbs_report(4096).throughput_pbs_per_s;
        assert!((thr_ratio - 1.0).abs() < 1e-9, "throughput ratio {thr_ratio}");
    }

    #[test]
    fn energy_report_scales_with_throughput() {
        let s1 = sim(TfheParameters::set_i());
        let s4 = sim(TfheParameters::set_iv());
        let e1 = s1.energy_report();
        let e4 = s4.energy_report();
        // Same chip, same power; heavier parameters burn more energy
        // per bootstrap.
        assert!((e1.power_w - e4.power_w).abs() < 1e-9);
        assert!(e4.microjoules_per_pbs > 10.0 * e1.microjoules_per_pbs);
        // Headline: ≈973 PBS/J at set I (75,000 PBS/s over 77 W) —
        // two orders beyond a 280 W GPU's ≈7 PBS/J.
        assert!((900.0..1050.0).contains(&e1.pbs_per_joule), "{}", e1.pbs_per_joule);
    }

    #[test]
    fn bsk_stream_rate_is_parameter_independent() {
        // ggsw_bytes / II = (k+1)·16·CLP·PLP bytes per cycle for every
        // k=1 parameter set — the invariant that lets one bus width
        // serve all sets.
        for set in strix_tfhe::ParameterSet::ALL {
            let s = sim(set.parameters());
            let ii = s.pbs_cluster().initiation_interval_cycles();
            let rate = s.memory().ggsw_bytes as u64 / ii;
            assert_eq!(rate, 256, "{set}");
        }
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let mut cfg = StrixConfig::paper_default();
        cfg.tvlp = 0;
        assert!(StrixSimulator::new(cfg, TfheParameters::set_i()).is_err());
        let mut p = TfheParameters::set_i();
        p.polynomial_size = 1000;
        assert!(StrixSimulator::new(StrixConfig::paper_default(), p).is_err());
    }
}
