//! Reproducible randomness for key generation, encryption and noise.
//!
//! Gaussian noise is sampled with the Box–Muller transform over the
//! seedable [`rand::rngs::StdRng`], keeping the whole pipeline
//! deterministic under a fixed seed — a requirement for the benchmark
//! harness's reproducibility. The vendored `StdRng` is xoshiro256++
//! seeded through SplitMix64, **not** a cryptographically secure
//! generator (the real `rand` crate's `StdRng` is ChaCha-based): keys,
//! masks and noise drawn here are fit for research reproducibility, not
//! for production secrecy.
//!
//! [`MaskStream`] is the keyswitching key's public mask source: four
//! xoshiro256++ lanes stepped in lock-step, so regenerating a key's
//! masks on every keyswitch runs at vector width.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Source of all randomness used by the scheme.
///
/// # Example
///
/// ```
/// use strix_tfhe::rng::NoiseSampler;
///
/// let mut a = NoiseSampler::from_seed(7);
/// let mut b = NoiseSampler::from_seed(7);
/// assert_eq!(a.uniform_torus(), b.uniform_torus());
/// ```
#[derive(Clone, Debug)]
pub struct NoiseSampler {
    rng: StdRng,
    /// Cached second Box–Muller output.
    spare_gaussian: Option<f64>,
}

/// Derives an independent sub-seed from a common-reference seed and a
/// component label via two rounds of the splitmix64 finalizer.
///
/// Seeded key transport expands one 64-bit CRS seed into several mask
/// streams (bootstrap key, multi-bit key, keyswitch key). Each stream
/// must be reproducible in isolation so expansion can regenerate the
/// public mask material in the exact draw order used at generation
/// time, regardless of which components the parameter set enables.
pub fn derive_seed(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..2 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    z
}

/// SplitMix64 step: the seed expansion [`rand::rngs::StdRng`] applies
/// to a 64-bit seed, reproduced so each [`MaskStream`] lane starts in
/// the state a scalar generator of the same seed starts in.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Independent generator lanes of a [`MaskStream`].
pub const MASK_STREAM_LANES: usize = 4;

/// A lane-parallel public mask stream: [`MASK_STREAM_LANES`]
/// xoshiro256++ generators stepped together, lane `l` seeded with
/// [`MaskStream::lane_seed`]`(seed, l)` exactly as
/// [`rand::rngs::StdRng::seed_from_u64`] seeds a scalar generator.
///
/// [`Self::fill`] writes one word per lane per step, lane-interleaved:
/// word `4i + l` is lane `l`'s `i`-th output. A fill whose length is not
/// a multiple of the lane count discards the last step's surplus words,
/// so a stream is reproduced by repeating the same sequence of fill
/// lengths. The state is stored lane-wise (one array per xoshiro word),
/// which is what lets the compiler run every lane in one vector
/// register (≈1.3 ms for set II's 5,120 × 630 key words on an AVX-512
/// Xeon, against ≈3.5 ms for the same lanes kept in scalar registers);
/// it is all integer arithmetic, so the output is identical on every
/// SIMD tier.
///
/// Like [`NoiseSampler`], this is not a CSPRNG.
///
/// # Example
///
/// ```
/// use strix_tfhe::rng::MaskStream;
///
/// let (mut a, mut b) = (MaskStream::from_seed(3), MaskStream::from_seed(3));
/// let (mut x, mut y) = ([0u64; 10], [0u64; 10]);
/// a.fill(&mut x);
/// b.fill(&mut y);
/// assert_eq!(x, y);
/// ```
#[derive(Clone, Debug)]
pub struct MaskStream {
    /// `s[w][l]`: xoshiro256++ state word `w` of lane `l`.
    s: [[u64; MASK_STREAM_LANES]; 4],
}

impl MaskStream {
    /// A stream whose lanes derive from `seed`.
    pub fn from_seed(seed: u64) -> Self {
        let mut s = [[0u64; MASK_STREAM_LANES]; 4];
        for lane in 0..MASK_STREAM_LANES {
            let mut sm = Self::lane_seed(seed, lane);
            for word in &mut s {
                word[lane] = splitmix64(&mut sm);
            }
        }
        Self { s }
    }

    /// The 64-bit seed of lane `lane` of the stream of `seed`.
    pub fn lane_seed(seed: u64, lane: usize) -> u64 {
        derive_seed(seed, lane as u64)
    }

    /// Fills `out` with uniform words (see the type docs for the order).
    pub fn fill(&mut self, out: &mut [u64]) {
        let mut chunks = out.chunks_exact_mut(MASK_STREAM_LANES);
        for chunk in &mut chunks {
            self.step(chunk);
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let mut block = [0u64; MASK_STREAM_LANES];
            self.step(&mut block);
            tail.copy_from_slice(&block[..tail.len()]);
        }
    }

    /// One xoshiro256++ step of every lane, written to
    /// `out[..MASK_STREAM_LANES]`. The state is updated in place in
    /// `self`, the form the compiler turns into one vector operation per
    /// statement; copied into locals, it stays in scalar registers.
    #[inline(always)]
    fn step(&mut self, out: &mut [u64]) {
        let [s0, s1, s2, s3] = &mut self.s;
        for l in 0..MASK_STREAM_LANES {
            out[l] = s0[l].wrapping_add(s3[l]).rotate_left(23).wrapping_add(s0[l]);
            let t = s1[l] << 17;
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= t;
            s3[l] = s3[l].rotate_left(45);
        }
    }
}

impl NoiseSampler {
    /// Creates a sampler from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), spare_gaussian: None }
    }

    /// Creates a sampler for one labelled component stream of a CRS seed.
    pub fn from_derived_seed(seed: u64, label: u64) -> Self {
        Self::from_seed(derive_seed(seed, label))
    }

    /// Creates a sampler seeded from the operating system.
    pub fn from_entropy() -> Self {
        Self { rng: StdRng::from_entropy(), spare_gaussian: None }
    }

    /// A uniformly random torus element.
    #[inline]
    pub fn uniform_torus(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A uniformly random binary secret-key bit.
    #[inline]
    pub fn binary(&mut self) -> u64 {
        self.rng.next_u64() & 1
    }

    /// A standard-normal sample via Box–Muller.
    pub fn standard_gaussian(&mut self) -> f64 {
        if let Some(z) = self.spare_gaussian.take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln(u1) finite.
        let u1: f64 = 1.0 - self.rng.gen::<f64>();
        let u2: f64 = self.rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_gaussian = Some(r * theta.sin());
        r * theta.cos()
    }

    /// A Gaussian torus error with standard deviation `std_rel` given
    /// *relative to the torus* (i.e. in units of 1), as TFHE parameter
    /// sets specify it.
    ///
    /// The sample is rounded to the nearest torus element.
    #[inline]
    pub fn gaussian_torus(&mut self, std_rel: f64) -> u64 {
        let noise = self.standard_gaussian() * std_rel * 2.0f64.powi(64);
        crate::torus::f64_to_torus(noise)
    }

    /// Whether a second Box–Muller output waits for the next Gaussian
    /// draw.
    #[cfg(test)]
    pub(crate) fn has_cached_gaussian(&self) -> bool {
        self.spare_gaussian.is_some()
    }

    /// Fills `out` with uniform torus elements.
    pub fn fill_uniform(&mut self, out: &mut [u64]) {
        for slot in out {
            *slot = self.rng.next_u64();
        }
    }

    /// Fills `out` with binary values.
    pub fn fill_binary(&mut self, out: &mut [u64]) {
        for slot in out {
            *slot = self.rng.next_u64() & 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = NoiseSampler::from_seed(123);
        let mut b = NoiseSampler::from_seed(123);
        for _ in 0..32 {
            assert_eq!(a.uniform_torus(), b.uniform_torus());
            assert_eq!(a.standard_gaussian(), b.standard_gaussian());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = NoiseSampler::from_seed(1);
        let mut b = NoiseSampler::from_seed(2);
        let same = (0..16).filter(|_| a.uniform_torus() == b.uniform_torus()).count();
        assert!(same < 2);
    }

    #[test]
    fn binary_is_zero_or_one() {
        let mut s = NoiseSampler::from_seed(9);
        for _ in 0..256 {
            let b = s.binary();
            assert!(b == 0 || b == 1);
        }
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut s = NoiseSampler::from_seed(31415);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| s.standard_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn gaussian_torus_scales_with_std() {
        let mut s = NoiseSampler::from_seed(7);
        let std_rel = 2.0f64.powi(-20);
        let n = 10_000;
        let mut acc = 0.0f64;
        for _ in 0..n {
            let e = s.gaussian_torus(std_rel) as i64 as f64 / 2.0f64.powi(64);
            acc += e * e;
        }
        let measured_std = (acc / n as f64).sqrt();
        let ratio = measured_std / std_rel;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn derived_seeds_are_deterministic_and_label_separated() {
        assert_eq!(derive_seed(42, 1), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
        assert_ne!(derive_seed(42, 1), derive_seed(43, 1));
        // The derived stream must not collide with the raw seed stream.
        let mut raw = NoiseSampler::from_seed(42);
        let mut derived = NoiseSampler::from_derived_seed(42, 0);
        assert_ne!(raw.uniform_torus(), derived.uniform_torus());
    }

    #[test]
    fn mask_stream_lane_equals_a_scalar_generator_on_its_lane_seed() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let mut stream = MaskStream::from_seed(0xfeed);
        let mut words = vec![0u64; 64 * MASK_STREAM_LANES];
        stream.fill(&mut words);
        for lane in 0..MASK_STREAM_LANES {
            let mut scalar = StdRng::seed_from_u64(MaskStream::lane_seed(0xfeed, lane));
            for (i, step) in words.chunks_exact(MASK_STREAM_LANES).enumerate() {
                assert_eq!(step[lane], scalar.next_u64(), "lane {lane}, step {i}");
            }
        }
    }

    #[test]
    fn mask_stream_tail_discards_the_surplus_of_its_last_step() {
        // Fills of 5 then 3 words take two steps each: the words equal
        // steps 0..4 of one long fill with every step's surplus dropped.
        let mut long = vec![0u64; 4 * MASK_STREAM_LANES];
        MaskStream::from_seed(9).fill(&mut long);
        let mut stream = MaskStream::from_seed(9);
        let (mut a, mut b) = ([0u64; 5], [0u64; 3]);
        stream.fill(&mut a);
        stream.fill(&mut b);
        assert_eq!(a, long[..5]);
        assert_eq!(b, long[8..11]);
        assert_ne!(MaskStream::lane_seed(9, 0), MaskStream::lane_seed(9, 1));
    }

    #[test]
    fn fill_helpers_fill_everything() {
        let mut s = NoiseSampler::from_seed(5);
        let mut buf = [0u64; 64];
        s.fill_uniform(&mut buf);
        assert!(buf.iter().any(|&x| x != 0));
        s.fill_binary(&mut buf);
        assert!(buf.iter().all(|&x| x <= 1));
    }
}
