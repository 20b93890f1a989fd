//! Per-stage timing instrumentation for the workload-breakdown analysis.
//!
//! Figure 1 of the paper decomposes a bootstrapped gate into PBS vs
//! keyswitching vs linear operations, then PBS into blind rotation and
//! the rest, then one blind-rotation iteration into rotate, decompose,
//! FFT, vector multiply and IFFT+accumulate. [`StageTimings`] collects
//! exactly those buckets from the instrumented execution paths.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// The stages of a bootstrapped gate, at the granularity of Fig. 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PbsStage {
    /// Negacyclic rotation and subtraction (rotator unit). The blocked
    /// classical kernel folds the per-CMUX rotate-and-subtract into the
    /// decomposer's rounding pass, which accounts to
    /// [`PbsStage::Decompose`]; there this stage is the initial LUT
    /// rotation by the body.
    Rotate,
    /// Gadget decomposition (decomposer unit).
    Decompose,
    /// Forward FFT of digit polynomials (FFT unit).
    Fft,
    /// Pointwise multiply–accumulate in the Fourier domain (VMA unit).
    VectorMultiply,
    /// Inverse FFT and time-domain accumulation (IFFT + accumulator).
    IfftAccumulate,
    /// Modulus switching (Algorithm 1 line 3).
    ModSwitch,
    /// Sample extraction (Algorithm 1 line 13).
    SampleExtract,
    /// Keyswitching (Algorithm 2).
    KeySwitch,
    /// Linear homomorphic operations outside PBS/KS (gate offsets, adds).
    LinearOps,
}

impl PbsStage {
    /// All stages, in pipeline order.
    pub const ALL: [PbsStage; 9] = [
        PbsStage::Rotate,
        PbsStage::Decompose,
        PbsStage::Fft,
        PbsStage::VectorMultiply,
        PbsStage::IfftAccumulate,
        PbsStage::ModSwitch,
        PbsStage::SampleExtract,
        PbsStage::KeySwitch,
        PbsStage::LinearOps,
    ];

    /// Stages that belong to the blind rotation (Fig. 1's "BR iteration
    /// proportion" panel).
    pub const BLIND_ROTATION: [PbsStage; 5] = [
        PbsStage::Rotate,
        PbsStage::Decompose,
        PbsStage::Fft,
        PbsStage::VectorMultiply,
        PbsStage::IfftAccumulate,
    ];

    /// Short display label matching the paper's figure annotations.
    pub fn label(self) -> &'static str {
        match self {
            PbsStage::Rotate => "Rotate",
            PbsStage::Decompose => "Decomp.",
            PbsStage::Fft => "FFT",
            PbsStage::VectorMultiply => "Vec. mult",
            PbsStage::IfftAccumulate => "Accum.+IFFT",
            PbsStage::ModSwitch => "ModSwitch",
            PbsStage::SampleExtract => "SampleExtract",
            PbsStage::KeySwitch => "KS",
            PbsStage::LinearOps => "Other",
        }
    }

    fn index(self) -> usize {
        match self {
            PbsStage::Rotate => 0,
            PbsStage::Decompose => 1,
            PbsStage::Fft => 2,
            PbsStage::VectorMultiply => 3,
            PbsStage::IfftAccumulate => 4,
            PbsStage::ModSwitch => 5,
            PbsStage::SampleExtract => 6,
            PbsStage::KeySwitch => 7,
            PbsStage::LinearOps => 8,
        }
    }
}

/// Accumulated wall-clock time per stage.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StageTimings {
    nanos: [u128; 9],
}

impl StageTimings {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a measured duration to a stage.
    pub fn add(&mut self, stage: PbsStage, d: Duration) {
        self.nanos[stage.index()] += d.as_nanos();
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &StageTimings) {
        for (a, b) in self.nanos.iter_mut().zip(&other.nanos) {
            *a += *b;
        }
    }

    /// Total time recorded for one stage.
    pub fn total_for(&self, stage: PbsStage) -> Duration {
        nanos_to_duration(self.nanos[stage.index()])
    }

    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        nanos_to_duration(self.nanos.iter().sum())
    }

    /// Fraction of total time spent in a stage (0 if nothing recorded).
    pub fn fraction(&self, stage: PbsStage) -> f64 {
        let total: u128 = self.nanos.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.nanos[stage.index()] as f64 / total as f64
    }

    /// Fraction of total time spent inside the blind rotation.
    pub fn blind_rotation_fraction(&self) -> f64 {
        PbsStage::BLIND_ROTATION.iter().map(|&s| self.fraction(s)).sum()
    }

    /// Fraction of total time spent in PBS (everything except
    /// keyswitching and linear operations).
    pub fn pbs_fraction(&self) -> f64 {
        1.0 - self.fraction(PbsStage::KeySwitch) - self.fraction(PbsStage::LinearOps)
    }
}

fn nanos_to_duration(n: u128) -> Duration {
    Duration::from_nanos(u64::try_from(n).unwrap_or(u64::MAX))
}

/// A zero-cost instrumentation point for the PBS execution paths.
///
/// The blind rotation and the external product are each implemented
/// **once**, generic over a probe; the production entry points pass
/// [`NoProbe`] (every `time` call inlines to a plain closure call, so
/// the hot loop carries no timing branches) and the profiled entry
/// points pass [`TimingProbe`], which wraps each region in an
/// [`std::time::Instant`] pair and accumulates into [`StageTimings`].
/// One implementation means the profiled numbers can never drift from
/// what the production kernel actually executes.
pub(crate) trait Probe {
    /// Runs `f`, attributing its wall time to `stage` (or not at all).
    fn time<R>(&mut self, stage: PbsStage, f: impl FnOnce() -> R) -> R;
}

/// The production probe: measures nothing, compiles to nothing.
pub(crate) struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn time<R>(&mut self, _stage: PbsStage, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// The profiling probe: accumulates per-stage wall time.
pub(crate) struct TimingProbe<'a>(pub &'a mut StageTimings);

impl Probe for TimingProbe<'_> {
    #[inline]
    fn time<R>(&mut self, stage: PbsStage, f: impl FnOnce() -> R) -> R {
        let t0 = std::time::Instant::now();
        let r = f();
        self.0.add(stage, t0.elapsed());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let mut t = StageTimings::new();
        t.add(PbsStage::Fft, Duration::from_micros(60));
        t.add(PbsStage::KeySwitch, Duration::from_micros(30));
        t.add(PbsStage::LinearOps, Duration::from_micros(10));
        let sum: f64 = PbsStage::ALL.iter().map(|&s| t.fraction(s)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((t.fraction(PbsStage::Fft) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn pbs_fraction_excludes_ks_and_linear() {
        let mut t = StageTimings::new();
        t.add(PbsStage::Fft, Duration::from_micros(65));
        t.add(PbsStage::KeySwitch, Duration::from_micros(30));
        t.add(PbsStage::LinearOps, Duration::from_micros(5));
        assert!((t.pbs_fraction() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = StageTimings::new();
        a.add(PbsStage::Rotate, Duration::from_nanos(100));
        let mut b = StageTimings::new();
        b.add(PbsStage::Rotate, Duration::from_nanos(50));
        b.add(PbsStage::Fft, Duration::from_nanos(25));
        a.merge(&b);
        assert_eq!(a.total_for(PbsStage::Rotate), Duration::from_nanos(150));
        assert_eq!(a.total(), Duration::from_nanos(175));
    }

    #[test]
    fn empty_timings_have_zero_fractions() {
        let t = StageTimings::new();
        assert_eq!(t.fraction(PbsStage::Fft), 0.0);
        assert_eq!(t.total(), Duration::ZERO);
    }

    #[test]
    fn labels_are_paper_annotations() {
        assert_eq!(PbsStage::IfftAccumulate.label(), "Accum.+IFFT");
        assert_eq!(PbsStage::VectorMultiply.label(), "Vec. mult");
    }

    #[test]
    fn blind_rotation_stage_set() {
        assert_eq!(PbsStage::BLIND_ROTATION.len(), 5);
        assert!(!PbsStage::BLIND_ROTATION.contains(&PbsStage::KeySwitch));
    }
}
