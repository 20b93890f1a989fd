//! Programmable bootstrapping (Algorithm 1).
//!
//! PBS refreshes the noise of an LWE ciphertext while evaluating an
//! arbitrary univariate function encoded in a test vector:
//!
//! 1. **Modulus switching** — every ciphertext element is switched from
//!    `q = 2^64` to `2N`, turning it into a rotation amount.
//! 2. **Blind rotation** — `n` sequential CMUX iterations rotate the
//!    test vector by the (encrypted) phase. Each iteration performs a
//!    rotate-and-subtract, a gadget decomposition and an external
//!    product — the six-stage dataflow of the Strix PBS cluster.
//! 3. **Sample extraction** — coefficient 0 of the rotated accumulator
//!    is extracted as an LWE ciphertext of dimension `k·N`.
//!
//! Note on Algorithm 1 as printed: line 6 shows the accumulator update
//! as `tv − Rotate(tv)` feeding the external product directly; the
//! mathematically complete CMUX also re-adds the untouched accumulator,
//! `acc ← acc + bsk_i ⊡ (X^{ã_i}·acc − acc)`, which is what every TFHE
//! library computes and what we implement. The per-iteration workload
//! (one rotation/subtraction, one decomposition, `(k+1)·l_b` FFTs,
//! `(k+1)²·l_b` pointwise multiplies, `k+1` IFFTs) is identical.
//!
//! # One blind-rotation engine, two key layouts
//!
//! Both PBS kernels are one generic [`BlindRotationKey`] over a sealed
//! [`KeyLayout`]:
//!
//! * [`ClassicalBootstrapKey`] stores one Fourier GGSW per secret bit. Its step
//!   stages the CMUX difference `X^ã·acc − acc` in one fused
//!   rotate-subtract-decompose pass, runs the VMA row-major across the
//!   block (one shared key row serves every job) and **adds** the
//!   product into the accumulator.
//! * [`MultiBitBootstrapKey`] stores `2^g` entries per group of `g`
//!   bits as one slot-tile-major buffer. Its step finds the block's
//!   active jobs, derives their monomial degrees, decomposes the
//!   accumulator directly, runs one fused assembly-and-VMA pass per
//!   slot tile and **replaces** the accumulator with the product.
//!
//! # The multi-bit key layout and the fused VMA
//!
//! A group's combined GGSW `G = Σ_b X^{d_b}·K_b` differs per job, so it
//! cannot be shared across the block the way a classical key row is.
//! Built whole, it costs per job and group a `(k+1)·l·(k+1)`-transform
//! write (98 KB at set II) and `2^g − 1` read-modify-write MAC passes,
//! each streaming another 98 KB entry: ≈2.4 MB through L2 at `g = 3`
//! for 0.39 MFLOP. So nothing is built whole. Each group is stored
//! **slot-tile-major**, `[tile][row·col][pattern][re T | im T]` with
//! `T = min(SLOT_TILE, N/2)`: one tile of every `(row, col)` and pattern
//! is contiguous (48 KB at set II, `g = 3`). Per tile, the step writes
//! each active job's monomial tiles `X^{d_b}`, then per `(row, col)`
//! and job forms the combined value over the tile in registers —
//! pattern 0, then `+ K_b × X^{d_b}` for `b = 1 … 2^g − 1` — and
//! multiply-accumulates it straight into the accumulator tile. The key
//! tile is loaded once for the whole block and every other operand is
//! a few KB, so per job and group only ≈0.3 MB crosses L2 (the job's
//! share of the key group, its digit and accumulator spectra and its
//! monomial tiles).
//! Every slot sees the same f64 operations in the same order as the
//! two-pass assembly, so outputs are bit-identical to it.
//!
//! Everything else is written once: shape and scratch checks, the body
//! modulus switch and LUT rotation, the entry-major switched-mask table,
//! the key-major job-blocked loop, the batched forward FFT, the inverse
//! drain, the `Probe` hooks, sample extraction and thread sharding.
//! A single PBS ([`BlindRotationKey::bootstrap`]) is a batch of one
//! through that same loop. The per-job CMUX, with separate rotate,
//! subtract and decompose steps, survives only as
//! [`ClassicalBootstrapKey::blind_rotate_reference`], the bit-identity
//! reference the tests pin the engine against.
//!
//! A server holds exactly one of the two, as a [`BootstrapKey`]: the
//! kernel-erased key whose variant *is* the server's PBS kernel. It
//! forwards every call with one `match` per call, never inside the CMUX
//! loop.
//!
//! # Hot-path execution model
//!
//! The CMUX loop runs entirely on per-thread [`PbsScratch`] buffers —
//! no heap allocation between the initial accumulator setup and sample
//! extraction. All Fourier-domain data (bootstrapping-key rows, digit
//! spectra, accumulator spectra) lives in the transform plan's
//! bit-reversed slot order end to end — the `strix-fft` kernel never
//! runs a permutation pass, and nothing in PBS ever needs natural bin
//! order. Every job's mask is modulus-switched once into a per-epoch
//! table before the key-major loop starts. Epochs scale across cores
//! with [`BlindRotationKey::bootstrap_batch_parallel`]: the job list is
//! split into contiguous shards, each shard walks the shared
//! bootstrapping key in key-major order with its own scratch, and the
//! results come back in job order, bit-identical to the sequential
//! [`BlindRotationKey::bootstrap_batch`].

use std::ops::Range;

use strix_fft::{pointwise_mul_add_soa, MonomialTable, NegacyclicFft, SoaSpectrum};

use crate::decompose::DecompositionParams;
use crate::ggsw::{FourierGgsw, GgswCiphertext};
use crate::glwe::GlweCiphertext;
use crate::lwe::LweCiphertext;
use crate::params::{PbsKernel, TfheParameters};
use crate::poly::TorusPolynomial;
use crate::profiler::{NoProbe, PbsStage, Probe, StageTimings, TimingProbe};
use crate::scratch::{slot_tile, PbsScratch, CMUX_JOB_BLOCK};
use crate::torus::{encode_fraction, f64_to_torus, modulus_switch};
use crate::TfheError;

/// A test vector — the GLWE-encoded look-up table consumed by PBS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lut {
    poly: TorusPolynomial,
    /// Message precision the table was built for (the sign LUT counts
    /// as 1 bit: two half-torus boxes). Drives the static analyzer's
    /// per-node decision distance.
    precision_bits: u32,
}

impl Lut {
    /// The sign LUT used by gate bootstrapping: every output is `+μ` for
    /// phases in the positive half-torus and `−μ` for the negative half
    /// (via negacyclic wrap-around). All `N` coefficients equal `μ`.
    pub fn sign(poly_size: usize, mu: u64) -> Self {
        Self { poly: TorusPolynomial::from_coeffs(vec![mu; poly_size]), precision_bits: 1 }
    }

    /// Builds the LUT for an arbitrary function over a
    /// `precision_bits`-bit message space with one padding bit:
    /// inputs `m ∈ [0, 2^p)` map to `f(m)·Δ` with `Δ = q/2^{p+1}`.
    ///
    /// Each message owns a *box* of `N/2^p` consecutive coefficients;
    /// the final half-box rotation centres the boxes so that phases up
    /// to half a box away from the nominal encoding still decode to the
    /// right entry.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::InvalidParameters`] if `2^p > N` (boxes
    /// would be empty) or `p >= 63`.
    pub fn from_function<F>(poly_size: usize, precision_bits: u32, f: F) -> Result<Self, TfheError>
    where
        F: Fn(u64) -> u64,
    {
        if precision_bits >= 63 {
            return Err(TfheError::InvalidParameters("precision must be below 63 bits"));
        }
        Self::from_function_scaled(poly_size, precision_bits, 64 - precision_bits - 1, f)
    }

    /// As [`Self::from_function`], but with an explicit output scale:
    /// LUT entries are `f(m) · 2^output_shift`. Input decoding still
    /// follows `precision_bits`. Used when the PBS must *re-encode*
    /// messages into a different space — e.g. moving an operand into
    /// the low half of a packed bivariate message.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::InvalidParameters`] if `2^precision_bits`
    /// exceeds the polynomial size or the shift exceeds the torus.
    pub fn from_function_scaled<F>(
        poly_size: usize,
        precision_bits: u32,
        output_shift: u32,
        f: F,
    ) -> Result<Self, TfheError>
    where
        F: Fn(u64) -> u64,
    {
        if output_shift >= 64 {
            return Err(TfheError::InvalidParameters("output shift exceeds the torus"));
        }
        let space = 1usize << precision_bits;
        if space > poly_size {
            return Err(TfheError::InvalidParameters("message space larger than polynomial size"));
        }
        let box_size = poly_size / space;
        let mut coeffs = vec![0u64; poly_size];
        for (j, c) in coeffs.iter_mut().enumerate() {
            let m = (j / box_size) as u64;
            *c = f(m).wrapping_shl(output_shift);
        }
        let poly = TorusPolynomial::from_coeffs(coeffs).rotate_left(box_size / 2);
        Ok(Self { poly, precision_bits })
    }

    /// The underlying test-vector polynomial.
    #[inline]
    pub fn poly(&self) -> &TorusPolynomial {
        &self.poly
    }

    /// Polynomial size `N`.
    #[inline]
    pub fn poly_size(&self) -> usize {
        self.poly.size()
    }

    /// Message precision the table was built for, in bits.
    #[inline]
    pub fn precision_bits(&self) -> u32 {
        self.precision_bits
    }

    /// Distance from a nominal encoding to the nearest decision
    /// boundary of this table, in torus units: half a redundancy box,
    /// `2^-(p+2)` for a `p`-bit message space with one padding bit.
    /// The sign LUT (`p = 1`) gives the classic gate margin of `1/8`.
    #[inline]
    pub fn decision_distance(&self) -> f64 {
        crate::noise::lut_decision_distance(self.precision_bits)
    }
}

/// One entry of a batched bootstrap: a ciphertext and the LUT to
/// evaluate on it. Jobs in a batch share the bootstrapping key (that is
/// the point of batching) but may use different LUTs.
#[derive(Clone, Copy, Debug)]
pub struct PbsJob<'a> {
    /// The LWE ciphertext to bootstrap (dimension `n`).
    pub ct: &'a LweCiphertext,
    /// The test vector to evaluate.
    pub lut: &'a Lut,
}

/// The classical bootstrapping key: `n` Fourier-domain GGSW encryptions
/// of the LWE secret-key bits, one CMUX per bit.
pub type ClassicalBootstrapKey = BlindRotationKey<layout::PerBit>;

/// The **multi-bit** bootstrapping key: `⌈n/g⌉` *groups* of
/// Fourier-domain GGSW entries for grouping factor `g` — the software
/// counterpart of tfhe-rs's CUDA `MULTI_BIT` PBS kernel.
///
/// Group `i` covers secret bits `s_{ig} .. s_{ig+g-1}` and stores `2^g`
/// GGSW encryptions, one per bit pattern `b ∈ {0,1}^g`, of the
/// *indicator product* `m_b = ∏_j s^{b_j} · (1−s)^{1−b_j}` — exactly
/// one `m_b` equals 1 (the pattern matching the actual key bits), the
/// rest encrypt 0. The last group covers the `n mod g` remainder bits
/// with `2^{n mod g}` entries.
///
/// Blind rotation then needs only **one external product per group**
/// instead of one CMUX per bit: since
/// `X^{Σ_j ã_j s_j} = Σ_b X^{⟨b, ã⟩} · m_b`, the server multiplies by
/// the *combined* GGSW `G = Σ_b X^{d_b} · GGSW(m_b)` (monomial weighting
/// is a pointwise spectrum multiply, [`MonomialTable`]) and replaces
/// the accumulator with `G ⊡ acc` — a rotation of the accumulator by
/// the whole group's phase contribution in a single decompose → FFT →
/// VMA → IFFT pass. `G` is never materialised: it is formed tile by
/// tile inside the VMA (see the module docs). `⌈n/g⌉` passes replace
/// `n`, trading a `2^g/g ×` larger key (and a `2^g ×` key-noise term,
/// see [`crate::noise::multi_bit_external_product_variance`]) for
/// `g ×` fewer transforms.
///
/// Outputs are **not bit-identical** to [`ClassicalBootstrapKey`] — the
/// arithmetic is genuinely different — but decrypt to the same message:
/// both kernels realise the same blind rotation
/// `X^{b̃ + Σ ã_j s_j} · lut`.
pub type MultiBitBootstrapKey = BlindRotationKey<layout::Grouped>;

/// The key layouts a [`BlindRotationKey`] can hold: one GGSW per secret
/// bit ([`ClassicalBootstrapKey`]) or `2^g` per group of `g` bits
/// ([`MultiBitBootstrapKey`]).
///
/// Sealed: generic code can be written over both kernels, but only this
/// module implements a layout.
pub trait KeyLayout: layout::Entries {}

impl KeyLayout for layout::PerBit {}
impl KeyLayout for layout::Grouped {}
#[cfg(test)]
impl KeyLayout for layout::TwoPass {}

/// A bootstrapping key: Fourier-domain key entries in layout `E`, plus
/// the FFT plan they were transformed under. Use it through its two
/// instances, [`ClassicalBootstrapKey`] and [`MultiBitBootstrapKey`]; everything
/// that does not depend on the layout is implemented once, here.
#[derive(Clone, Debug)]
pub struct BlindRotationKey<E> {
    entries: E,
    fft: NegacyclicFft,
    glwe_dimension: usize,
    poly_size: usize,
    decomp: DecompositionParams,
    input_dimension: usize,
}

/// The two key layouts and the per-step work that differs between them.
mod layout {
    use super::*;

    /// One key step's switched rotation amounts for one block of jobs:
    /// a window onto the entry-major switched-mask table.
    #[derive(Clone, Copy)]
    pub struct StepAmounts<'a> {
        pub(super) rows: &'a [u32],
        pub(super) batch: usize,
        pub(super) job0: usize,
    }

    impl StepAmounts<'_> {
        /// The switched amount of the step's bit `t` for job `j` of the
        /// block.
        #[inline]
        pub fn get(&self, t: usize, j: usize) -> usize {
            self.rows[t * self.batch + self.job0 + j] as usize
        }

        /// Secret bits the step covers.
        #[inline]
        pub fn bits(&self) -> usize {
            self.rows.len() / self.batch
        }
    }

    /// What a key layout contributes to one blocked blind-rotation step;
    /// the engine in [`BlindRotationKey`] does the rest.
    pub trait Entries: Clone + std::fmt::Debug + Send + Sync {
        /// `true` for a CMUX step: stage the difference `X^ã·acc − acc`
        /// (one fused rotate-subtract-decompose pass per column) and add
        /// the product into the accumulator. `false` for a grouped
        /// product: decompose the accumulator directly and replace it
        /// with the product.
        const CMUX: bool;

        /// Key-major steps per blind rotation.
        fn steps(&self) -> usize;

        /// Secret bits covered by step `step`.
        fn bits(&self, step: usize) -> Range<usize>;

        /// Fourier-domain key bytes.
        fn byte_size(&self) -> usize;

        /// The grouping factor the scratch assembly buffers are sized by
        /// (`None`: no assembly).
        fn grouping_factor(&self) -> Option<usize>;

        /// Marks the block's jobs that this step moves (and prepares
        /// whatever per-job state [`Self::vma`] reads); returns whether
        /// any job is active.
        fn activate(
            &self,
            amounts: StepAmounts<'_>,
            active: &mut [bool],
            scratch: &mut PbsScratch,
        ) -> bool;

        /// Multiply-accumulates every active job's digit spectra into its
        /// (zeroed) accumulator spectra.
        fn vma(&self, step: usize, active: &[bool], scratch: &mut PbsScratch);
    }

    /// Classical layout: one stored GGSW per secret bit.
    #[derive(Clone, Debug)]
    pub struct PerBit(pub(super) Vec<FourierGgsw>);

    /// Multi-bit layout: per group of `g` secret bits, `2^g` pattern
    /// entries (fewer for the remainder group) in one slot-tile-major
    /// buffer, plus the monomial table the fused assembly weights them
    /// with.
    #[derive(Clone, Debug)]
    pub struct Grouped {
        /// Per group, `[tile][row·col][pattern][re T | im T]` with
        /// `T = min(SLOT_TILE, N/2)` (see [`write_tiled`]).
        pub(super) groups: Vec<Vec<f64>>,
        pub(super) mono: MonomialTable,
        pub(super) grouping_factor: usize,
        /// Transforms per entry, `(k+1)·l · (k+1)`.
        pub(super) transforms: usize,
        /// Slots per spectrum, `N/2`.
        pub(super) half: usize,
    }

    // lint:hot-path-start — both layouts' step hooks must stay allocation-free
    impl Entries for PerBit {
        const CMUX: bool = true;

        fn steps(&self) -> usize {
            self.0.len()
        }

        fn bits(&self, step: usize) -> Range<usize> {
            step..step + 1
        }

        fn byte_size(&self) -> usize {
            self.0.iter().map(FourierGgsw::byte_size).sum()
        }

        fn grouping_factor(&self) -> Option<usize> {
            None
        }

        /// A job moves when its amount is non-zero: `X^0·acc − acc = 0`.
        fn activate(
            &self,
            amounts: StepAmounts<'_>,
            active: &mut [bool],
            _scratch: &mut PbsScratch,
        ) -> bool {
            for (j, slot) in active.iter_mut().enumerate() {
                *slot = amounts.get(0, j) != 0;
            }
            active.contains(&true)
        }

        /// Row-major across the block: key row `r` is loaded once and
        /// applied to every active job while it sits in L1.
        fn vma(&self, step: usize, active: &[bool], scratch: &mut PbsScratch) {
            let ggsw = &self.0[step];
            let PbsScratch { digit_batch, acc_batch, .. } = scratch;
            for r in 0..ggsw.row_count() {
                for ((digits, spec), _) in
                    digit_batch.iter().zip(acc_batch.iter_mut()).zip(active).filter(|(_, &a)| a)
                {
                    let (d_re, d_im) = digits.transform(r);
                    for col in 0..spec.count() {
                        let (k_re, k_im) = ggsw.row_col(r, col);
                        let (a_re, a_im) = spec.transform_mut(col);
                        pointwise_mul_add_soa(a_re, a_im, d_re, d_im, k_re, k_im);
                    }
                }
            }
        }
    }

    impl Entries for Grouped {
        const CMUX: bool = false;

        fn steps(&self) -> usize {
            self.groups.len()
        }

        fn bits(&self, step: usize) -> Range<usize> {
            let first = step * self.grouping_factor;
            first..first + self.patterns(step).trailing_zeros() as usize
        }

        fn byte_size(&self) -> usize {
            self.groups.iter().map(|g| g.len() * std::mem::size_of::<f64>()).sum()
        }

        fn grouping_factor(&self) -> Option<usize> {
            Some(self.grouping_factor)
        }

        /// A job whose group amounts are all zero would assemble
        /// `G = GGSW(X^0·Σ m_b) = GGSW(1)`, the exact identity the
        /// classical kernel skips on `ã = 0`, so it stays inactive and no
        /// later stage touches it. For active jobs, the `2^m` monomial
        /// degrees `d_b = Σ_{t: b_t=1} ã_t mod 2N` follow by the
        /// binary-counting recurrence `d_{b|bit} = d_b + ã_t`.
        fn activate(
            &self,
            amounts: StepAmounts<'_>,
            active: &mut [bool],
            scratch: &mut PbsScratch,
        ) -> bool {
            let bits = amounts.bits();
            let patterns = 1usize << bits;
            let mask = 2 * scratch.poly_size - 1;
            for (j, slot) in active.iter_mut().enumerate() {
                *slot = (0..bits).any(|t| amounts.get(t, j) != 0);
                if !*slot {
                    continue;
                }
                let d = &mut scratch.degrees[j * patterns..(j + 1) * patterns];
                d[0] = 0;
                for t in 0..bits {
                    let (a, bit) = (amounts.get(t, j), 1usize << t);
                    for b in 0..bit {
                        d[bit | b] = (d[b] + a) & mask;
                    }
                }
            }
            active.contains(&true)
        }

        /// The fused assembly and VMA, one slot tile at a time: build
        /// every active job's monomial tiles, then for each `(row, col)`
        /// apply the key tile to every active job — form the combined
        /// value in registers and multiply-accumulate it into the job's
        /// accumulator tile ([`fused_mac`]). Per accumulator column the
        /// additions still run over `r` in ascending order.
        fn vma(&self, step: usize, active: &[bool], scratch: &mut PbsScratch) {
            let patterns = self.patterns(step);
            let tile = slot_tile(self.half);
            let entry_len = patterns * 2 * tile;
            let PbsScratch { digit_batch, acc_batch, mono_tiles, degrees, .. } = scratch;
            let cols = acc_batch[0].count();
            let key_tiles = self.groups[step].chunks_exact(self.transforms * entry_len);
            for (first, key_tile) in (0..self.half).step_by(tile).zip(key_tiles) {
                let slots = first..first + tile;
                let monos = mono_tiles.chunks_exact_mut(entry_len).zip(active).enumerate();
                for (j, (mono, _)) in monos.filter(|(_, (_, &a))| a) {
                    for (b, m) in mono.chunks_exact_mut(2 * tile).enumerate().skip(1) {
                        let (re, im) = m.split_at_mut(tile);
                        self.mono
                            .tile_into(degrees[j * patterns + b], first, re, im)
                            // lint:allow(panic) shape invariant established at construction
                            .expect("monomial tiles are sized to the key tile");
                    }
                }
                for (t, entry) in key_tile.chunks_exact(entry_len).enumerate() {
                    let (r, col) = (t / cols, t % cols);
                    let jobs = digit_batch.iter().zip(acc_batch.iter_mut()).zip(active);
                    for (j, ((digits, spec), _)) in jobs.enumerate().filter(|(_, (_, &a))| a) {
                        let mono = &mono_tiles[j * entry_len..(j + 1) * entry_len];
                        let (d_re, d_im) = digits.transform(r);
                        let (a_re, a_im) = spec.transform_mut(col);
                        let d = (&d_re[slots.clone()], &d_im[slots.clone()]);
                        let a = (&mut a_re[slots.clone()], &mut a_im[slots.clone()]);
                        match tile {
                            32 => fused_mac::<32>(entry, mono, d, a),
                            16 => fused_mac::<16>(entry, mono, d, a),
                            8 => fused_mac::<8>(entry, mono, d, a),
                            4 => fused_mac::<4>(entry, mono, d, a),
                            2 => fused_mac::<2>(entry, mono, d, a),
                            _ => fused_mac::<1>(entry, mono, d, a),
                        }
                    }
                }
            }
        }
    }

    impl Grouped {
        /// Pattern entries of group `step` (`2^g`, fewer for the
        /// remainder group).
        pub(super) fn patterns(&self, step: usize) -> usize {
            self.groups[step].len() / (2 * self.transforms * self.half)
        }
    }

    /// One `(row, col)` key tile applied to one job. `entry` is the
    /// tile's `[pattern][re T | im T]` run, `mono` the job's monomial
    /// tiles in the same order (pattern 0 unused: `X^0 = 1`), `d` and
    /// `acc` the job's digit and accumulator tiles. Per slot, exactly
    /// the two-pass assembly's operations in its order: `c = K_0`, then
    /// `c += K_b·X^{d_b}` for `b = 1 … 2^g − 1`, then `acc += d·c` —
    /// each complex product as `(ar·br − ai·bi, ar·bi + ai·br)`, added
    /// after rounding, no FMA. The tile width is a constant, so `c`
    /// lives in registers and every loop is straight-line vector code.
    #[inline(never)]
    fn fused_mac<const T: usize>(
        entry: &[f64],
        mono: &[f64],
        (d_re, d_im): (&[f64], &[f64]),
        (a_re, a_im): (&mut [f64], &mut [f64]),
    ) {
        let (d_re, d_im) = (tile::<T>(d_re), tile::<T>(d_im));
        let (k0_re, k0_im) = halves::<T>(entry);
        let (mut c_re, mut c_im) = (*k0_re, *k0_im);
        let patterns = entry.chunks_exact(2 * T).zip(mono.chunks_exact(2 * T)).skip(1);
        for (k, m) in patterns {
            let ((k_re, k_im), (m_re, m_im)) = (halves::<T>(k), halves::<T>(m));
            for s in 0..T {
                let pr = k_re[s] * m_re[s] - k_im[s] * m_im[s];
                let pi = k_re[s] * m_im[s] + k_im[s] * m_re[s];
                c_re[s] += pr;
                c_im[s] += pi;
            }
        }
        let (a_re, a_im) = (&mut a_re[..T], &mut a_im[..T]);
        for s in 0..T {
            let pr = d_re[s] * c_re[s] - d_im[s] * c_im[s];
            let pi = d_re[s] * c_im[s] + d_im[s] * c_re[s];
            a_re[s] += pr;
            a_im[s] += pi;
        }
    }

    /// The first `T` values of `v` as a fixed-size tile.
    #[inline(always)]
    fn tile<const T: usize>(v: &[f64]) -> &[f64; T] {
        // lint:allow(panic) every caller slices whole tiles
        v[..T].try_into().expect("a whole tile")
    }

    /// The `[re T | im T]` halves at the head of `v`.
    #[inline(always)]
    fn halves<const T: usize>(v: &[f64]) -> (&[f64; T], &[f64; T]) {
        (tile(v), tile(&v[T..]))
    }

    /// Scatters one entry's split spectra (`spectra`, transform-major)
    /// into pattern `pattern` of a slot-tile-major group buffer of
    /// `patterns` entries: transform `t`'s slots `[τT, (τ+1)T)` land in
    /// `group[((τ·transforms + t)·patterns + pattern)·2T ..]`, real half
    /// first. Values are copied bit for bit.
    pub(super) fn write_tiled(
        group: &mut [f64],
        patterns: usize,
        pattern: usize,
        spectra: &SoaSpectrum,
    ) {
        let (re, im) = spectra.planes();
        let half = spectra.transform_len();
        let tile = slot_tile(half);
        let entry_len = patterns * 2 * tile;
        let key_tiles = group.chunks_exact_mut(spectra.count() * entry_len);
        for (first, key_tile) in (0..half).step_by(tile).zip(key_tiles) {
            for (t, entries) in key_tile.chunks_exact_mut(entry_len).enumerate() {
                let src = t * half + first..t * half + first + tile;
                let dst = &mut entries[pattern * 2 * tile..(pattern + 1) * 2 * tile];
                let (dst_re, dst_im) = dst.split_at_mut(tile);
                dst_re.copy_from_slice(&re[src.clone()]);
                dst_im.copy_from_slice(&im[src]);
            }
        }
    }
    // lint:hot-path-end

    /// The two-pass multi-bit step the fused kernel replaced, kept as
    /// its bit-identity oracle: assemble each active job's whole
    /// combined GGSW (seed with pattern 0, then MAC `K_b × X^{d_b}`
    /// through the backend VMA kernel), then run the VMA job-major.
    #[cfg(test)]
    #[derive(Clone, Debug)]
    pub struct TwoPass(pub(super) Grouped);

    #[cfg(test)]
    impl Grouped {
        /// `[re, im]` of slot `slot` of transform `t` of entry `pattern`
        /// in group `step`.
        pub(super) fn value(&self, step: usize, pattern: usize, t: usize, slot: usize) -> [f64; 2] {
            let tile = slot_tile(self.half);
            let (ti, o) = (slot / tile, slot % tile);
            let at = ((ti * self.transforms + t) * self.patterns(step) + pattern) * 2 * tile + o;
            [self.groups[step][at], self.groups[step][at + tile]]
        }

        /// Entry `pattern` of group `step` in logical (transform-major)
        /// split planes.
        fn entry(&self, step: usize, pattern: usize) -> SoaSpectrum {
            let mut spectra = SoaSpectrum::new(self.transforms, self.half);
            for t in 0..self.transforms {
                let (re, im) = spectra.transform_mut(t);
                for slot in 0..self.half {
                    [re[slot], im[slot]] = self.value(step, pattern, t, slot);
                }
            }
            spectra
        }
    }

    #[cfg(test)]
    impl Entries for TwoPass {
        const CMUX: bool = false;

        fn steps(&self) -> usize {
            self.0.steps()
        }

        fn bits(&self, step: usize) -> Range<usize> {
            self.0.bits(step)
        }

        fn byte_size(&self) -> usize {
            self.0.byte_size()
        }

        fn grouping_factor(&self) -> Option<usize> {
            self.0.grouping_factor()
        }

        fn activate(
            &self,
            amounts: StepAmounts<'_>,
            active: &mut [bool],
            scratch: &mut PbsScratch,
        ) -> bool {
            self.0.activate(amounts, active, scratch)
        }

        fn vma(&self, step: usize, active: &[bool], scratch: &mut PbsScratch) {
            let g = &self.0;
            let patterns = g.patterns(step);
            let entries: Vec<SoaSpectrum> = (0..patterns).map(|b| g.entry(step, b)).collect();
            let (mut mono_re, mut mono_im) = (vec![0.0f64; g.half], vec![0.0f64; g.half]);
            let PbsScratch { digit_batch, acc_batch, degrees, .. } = scratch;
            let jobs = digit_batch.iter().zip(acc_batch.iter_mut()).zip(active).enumerate();
            for (j, ((digits, spec), _)) in jobs.filter(|(_, (_, &a))| a) {
                let mut comb = entries[0].clone();
                for (b, entry) in entries.iter().enumerate().skip(1) {
                    g.mono
                        .spectrum_into(degrees[j * patterns + b], &mut mono_re, &mut mono_im)
                        .unwrap();
                    for t in 0..comb.count() {
                        let (c_re, c_im) = comb.transform_mut(t);
                        let (e_re, e_im) = entry.transform(t);
                        pointwise_mul_add_soa(c_re, c_im, e_re, e_im, &mono_re, &mono_im);
                    }
                }
                let cols = spec.count();
                for r in 0..digits.count() {
                    let (d_re, d_im) = digits.transform(r);
                    for col in 0..cols {
                        let (k_re, k_im) = comb.transform(r * cols + col);
                        let (a_re, a_im) = spec.transform_mut(col);
                        pointwise_mul_add_soa(a_re, a_im, d_re, d_im, k_re, k_im);
                    }
                }
            }
        }
    }
}

/// Plaintext of multi-bit key entry `pattern` for a group of secret
/// `bits`: the indicator product `∏_t s_t^{b_t}·(1−s_t)^{1−b_t}`, which is
/// 1 exactly when `pattern` spells the group's key bits.
pub(crate) fn pattern_indicator(bits: &[u64], pattern: usize) -> u64 {
    bits.iter().enumerate().map(|(t, &s)| if (pattern >> t) & 1 == 1 { s } else { 1 - s }).product()
}

impl<E: KeyLayout> BlindRotationKey<E> {
    /// The one keygen skeleton: builds the decomposition and FFT plan
    /// from `params`, then the entries under that plan.
    fn from_entries(
        params: &TfheParameters,
        input_dimension: usize,
        entries: impl FnOnce(DecompositionParams, &NegacyclicFft) -> E,
    ) -> Self {
        let decomp = DecompositionParams::new(params.pbs_base_log, params.pbs_level);
        let fft = NegacyclicFft::with_backend(params.polynomial_size, params.fft_backend)
            // lint:allow(panic) parameters were validated at construction
            .expect("validated parameters have power-of-two N and an available backend");
        Self {
            entries: entries(decomp, &fft),
            fft,
            glwe_dimension: params.glwe_dimension,
            poly_size: params.polynomial_size,
            decomp,
            input_dimension,
        }
    }

    /// Input LWE dimension `n`.
    #[inline]
    pub fn input_dimension(&self) -> usize {
        self.input_dimension
    }

    /// Output LWE dimension `k·N` after sample extraction.
    #[inline]
    pub fn output_dimension(&self) -> usize {
        self.glwe_dimension * self.poly_size
    }

    /// Polynomial size `N`.
    #[inline]
    pub fn poly_size(&self) -> usize {
        self.poly_size
    }

    /// The decomposition used by the external products.
    #[inline]
    pub fn decomposition(&self) -> DecompositionParams {
        self.decomp
    }

    /// The FFT plan shared by all external products.
    #[inline]
    pub fn fft(&self) -> &NegacyclicFft {
        &self.fft
    }

    /// Allocates a [`PbsScratch`] sized to this key — one per thread,
    /// reused across every bootstrap that thread performs.
    pub fn scratch(&self) -> PbsScratch {
        PbsScratch::new(
            self.glwe_dimension,
            self.poly_size,
            self.decomp,
            self.entries.grouping_factor(),
        )
    }

    /// Total Fourier-domain key size in bytes (HBM traffic per full
    /// PBS); `2^g/g ×` the classical key for the multi-bit layout.
    pub fn byte_size(&self) -> usize {
        self.entries.byte_size()
    }

    /// Checks that a `(ciphertext, LUT)` pair matches this key's shape
    /// — the single validation every bootstrap path applies, exposed so
    /// schedulers can pre-validate jobs before committing them to a
    /// shared batch.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] naming the mismatch.
    pub fn check_shape(&self, ct: &LweCiphertext, lut: &Lut) -> Result<(), TfheError> {
        if ct.dimension() != self.input_dimension {
            return Err(TfheError::ParameterMismatch {
                what: "lwe dimension",
                left: ct.dimension(),
                right: self.input_dimension,
            });
        }
        if lut.poly_size() != self.poly_size {
            return Err(TfheError::ParameterMismatch {
                what: "polynomial size",
                left: lut.poly_size(),
                right: self.poly_size,
            });
        }
        Ok(())
    }

    /// Blind rotation (Algorithm 1 lines 2–12): rotates `lut` by the
    /// encrypted phase of `ct`, returning the GLWE accumulator.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if the ciphertext
    /// dimension or LUT size disagrees with the key.
    pub fn blind_rotate(&self, ct: &LweCiphertext, lut: &Lut) -> Result<GlweCiphertext, TfheError> {
        self.blind_rotate_with(ct, lut, &mut self.scratch())
    }

    /// As [`Self::blind_rotate`] with caller-provided scratch: a batch of
    /// one through the blocked engine, so the single and batched paths
    /// are bit-identical by construction.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was sized for a different key shape.
    pub fn blind_rotate_with(
        &self,
        ct: &LweCiphertext,
        lut: &Lut,
        scratch: &mut PbsScratch,
    ) -> Result<GlweCiphertext, TfheError> {
        Ok(only(self.blind_rotate_core(&[PbsJob { ct, lut }], scratch, &mut NoProbe)?))
    }

    /// The single blind-rotation implementation, generic over a
    /// [`Probe`] (production: [`NoProbe`]; profiling: [`TimingProbe`]).
    ///
    /// Iteration is **key-major**, the software analogue of the paper's
    /// core-level batching (§IV-C): the outer loop walks the key steps
    /// and the inner loop applies each to every accumulator in the
    /// batch, so one key fetch is reused `batch` times — exactly how an
    /// HSC amortises its per-iteration bsk stream. Jobs may carry
    /// different LUTs; only the key material is shared. One scratch
    /// serves the whole epoch, so the loop performs no heap allocation
    /// beyond the output accumulators and one switched-mask table.
    fn blind_rotate_core<P: Probe>(
        &self,
        jobs: &[PbsJob<'_>],
        scratch: &mut PbsScratch,
        probe: &mut P,
    ) -> Result<Vec<GlweCiphertext>, TfheError> {
        for job in jobs {
            self.check_shape(job.ct, job.lut)?;
        }
        scratch.check_shape(
            self.glwe_dimension,
            self.poly_size,
            self.decomp.level,
            self.entries.grouping_factor(),
        );
        let log2_two_n = self.poly_size.trailing_zeros() + 1;

        // Initial rotation by each body (Algorithm 1 lines 3–4).
        let mut accs: Vec<GlweCiphertext> = jobs
            .iter()
            .map(|job| {
                let b_tilde =
                    probe.time(PbsStage::ModSwitch, || modulus_switch(job.ct.body(), log2_two_n));
                probe.time(PbsStage::Rotate, || {
                    let rotated = job.lut.poly().rotate_left(b_tilde as usize);
                    GlweCiphertext::trivial(self.glwe_dimension, rotated)
                })
            })
            .collect();

        // Epoch-wide hoisting: switch every mask element of every job
        // once, up front. The table is **entry-major**
        // (`switched[i·batch + j]`), so a key step reads its bits'
        // amounts for a block as contiguous slices; the switched values
        // live in `[0, 2N)`, so `u32` keeps it a quarter the size of the
        // masks. `modulus_switch` is a pure rounding shift, so hoisting
        // is bit-identical to switching in-loop.
        let batch = jobs.len();
        let mut switched = vec![0u32; batch * self.input_dimension];
        probe.time(PbsStage::ModSwitch, || {
            for (j, job) in jobs.iter().enumerate() {
                for (i, &a) in job.ct.mask().iter().enumerate() {
                    switched[i * batch + j] = modulus_switch(a, log2_two_n) as u32;
                }
            }
        });
        self.rotate_blocks(&mut accs, &switched, scratch, probe);
        Ok(accs)
    }

    // lint:hot-path-start — the one blind-rotation loop must stay allocation-free
    /// Key-major, job-blocked blind rotation: fetch key step `i` once and
    /// apply it to the whole batch, [`CMUX_JOB_BLOCK`] jobs at a time.
    fn rotate_blocks<P: Probe>(
        &self,
        accs: &mut [GlweCiphertext],
        switched: &[u32],
        scratch: &mut PbsScratch,
        probe: &mut P,
    ) {
        let batch = accs.len();
        for step in 0..self.entries.steps() {
            let bits = self.entries.bits(step);
            let rows = &switched[bits.start * batch..bits.end * batch];
            for (bi, block) in accs.chunks_mut(CMUX_JOB_BLOCK).enumerate() {
                let amounts = layout::StepAmounts { rows, batch, job0: bi * CMUX_JOB_BLOCK };
                self.cmux_block(step, amounts, block, scratch, probe);
            }
        }
    }

    /// One blocked step: applies key step `step` to every accumulator of
    /// the block that it moves, bit-identically to one job at a time but
    /// scheduled for locality:
    ///
    /// 1. **Activate** (layout) — pick the jobs the step moves (the
    ///    multi-bit layout also derives their monomial degrees). A block
    ///    with no active job returns here.
    /// 2. **Stage** — per active job, one decomposition pass per column
    ///    — of the CMUX difference `X^ã·acc − acc`, folded into the
    ///    decomposer's rounding step
    ///    ([`DecompositionParams::decompose_rotated_difference_levels`]),
    ///    or of the accumulator itself for the multi-bit layout — then
    ///    all `(k+1)·l` forward FFTs as one batched split-complex
    ///    transform.
    /// 3. **VMA** (layout) — into freshly zeroed accumulator spectra;
    ///    the multi-bit layout first assembles each job's combined GGSW.
    /// 4. **Drain** — per active job: one batched inverse transform of
    ///    the `k+1` accumulator spectra, then one packed pass per column
    ///    that converts to the torus ([`f64_to_torus`] is integer bit
    ///    arithmetic, so the loop vectorises) and adds into
    ///    (`acc += …`, CMUX) or replaces (`acc = …`) the accumulator.
    ///
    /// Per job, every floating-point and torus operation is the same as
    /// in a batch of one; only the loop nesting across *independent*
    /// jobs differs, which cannot change a bit of any output.
    fn cmux_block<P: Probe>(
        &self,
        step: usize,
        amounts: layout::StepAmounts<'_>,
        accs: &mut [GlweCiphertext],
        scratch: &mut PbsScratch,
        probe: &mut P,
    ) {
        debug_assert!(accs.len() <= CMUX_JOB_BLOCK);
        let n = self.poly_size;
        let level = self.decomp.level;
        let mut active = [false; CMUX_JOB_BLOCK];
        let active = &mut active[..accs.len()];
        if !probe.time(PbsStage::ModSwitch, || self.entries.activate(amounts, active, scratch)) {
            return;
        }

        let PbsScratch { decomp_state, all_digits, digit_batch, .. } = scratch;
        for (j, (acc, digits)) in accs.iter().zip(digit_batch.iter_mut()).enumerate() {
            if !active[j] {
                continue;
            }
            probe.time(PbsStage::Decompose, || {
                for (p, poly) in acc.polys().enumerate() {
                    let levels = &mut all_digits[p * level * n..(p + 1) * level * n];
                    if E::CMUX {
                        let amount = amounts.get(0, j);
                        self.decomp.decompose_rotated_difference_levels(
                            poly,
                            amount,
                            levels,
                            decomp_state,
                        );
                    } else {
                        self.decomp.decompose_polynomial_levels(poly, levels, decomp_state);
                    }
                }
            });
            probe.time(PbsStage::Fft, || {
                self.fft
                    .forward_i64_many(all_digits, digits)
                    // lint:allow(panic) shape invariant established at construction
                    .expect("digit batch matches the fft plan");
            });
        }

        probe.time(PbsStage::VectorMultiply, || {
            for (spec, _) in scratch.acc_batch.iter_mut().zip(&*active).filter(|(_, &a)| a) {
                spec.fill_zero();
            }
            self.entries.vma(step, active, scratch);
        });

        let PbsScratch { acc_batch, time_batch, .. } = scratch;
        for ((acc, spec), _) in accs.iter_mut().zip(acc_batch).zip(&*active).filter(|(_, &a)| a) {
            probe.time(PbsStage::IfftAccumulate, || {
                self.fft
                    .backward_f64_many(spec, time_batch)
                    // lint:allow(panic) shape invariant established at construction
                    .expect("accumulator batch matches the fft plan");
                for (col, time) in time_batch.chunks_exact(n).enumerate() {
                    // lint:allow(panic) shape invariant established at construction
                    let poly = acc.poly_mut(col).expect("column within GLWE dimension");
                    let coeffs = poly.coeffs_mut().iter_mut().zip(time);
                    if E::CMUX {
                        coeffs.for_each(|(o, &v)| *o = o.wrapping_add(f64_to_torus(v)));
                    } else {
                        coeffs.for_each(|(o, &v)| *o = f64_to_torus(v));
                    }
                }
            });
        }
    }
    // lint:hot-path-end

    /// Full programmable bootstrap: blind rotation followed by sample
    /// extraction. The output is an LWE ciphertext of dimension `k·N`
    /// encrypting `lut[phase]` with *fresh* noise, still under the
    /// extracted key — keyswitching back to the original key is a
    /// separate step (Algorithm 2, [`crate::keyswitch`]).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn bootstrap(&self, ct: &LweCiphertext, lut: &Lut) -> Result<LweCiphertext, TfheError> {
        Ok(self.blind_rotate(ct, lut)?.sample_extract())
    }

    /// As [`Self::bootstrap`] with per-stage timing instrumentation (the
    /// Figure-1 harness): a batch of one through
    /// [`Self::bootstrap_batch_profiled`].
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn bootstrap_profiled(
        &self,
        ct: &LweCiphertext,
        lut: &Lut,
        timings: &mut StageTimings,
    ) -> Result<LweCiphertext, TfheError> {
        Ok(only(self.bootstrap_batch_profiled(&[PbsJob { ct, lut }], timings)?))
    }

    /// Batched programmable bootstrap: key-major blind rotation of the
    /// whole batch followed by per-job sample extraction. Outputs are in
    /// job order and still under the extracted (`k·N`) key.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if any job's ciphertext
    /// dimension or LUT size disagrees with the key.
    pub fn bootstrap_batch(&self, jobs: &[PbsJob<'_>]) -> Result<Vec<LweCiphertext>, TfheError> {
        self.bootstrap_core(jobs, &mut NoProbe)
    }

    /// As [`Self::bootstrap_batch`] with per-stage timing
    /// instrumentation over the production kernel, observed through a
    /// timing probe, so the per-stage breakdown reflects exactly what
    /// production executes.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on any shape mismatch.
    pub fn bootstrap_batch_profiled(
        &self,
        jobs: &[PbsJob<'_>],
        timings: &mut StageTimings,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        self.bootstrap_core(jobs, &mut TimingProbe(timings))
    }

    fn bootstrap_core<P: Probe>(
        &self,
        jobs: &[PbsJob<'_>],
        probe: &mut P,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        let accs = self.blind_rotate_core(jobs, &mut self.scratch(), probe)?;
        Ok(probe.time(PbsStage::SampleExtract, || {
            accs.iter().map(GlweCiphertext::sample_extract).collect()
        }))
    }

    /// Parallel epoch execution: splits `jobs` into `threads` contiguous
    /// shards and runs each through the key-major
    /// [`Self::bootstrap_batch`] on its own [`std::thread::scope`] worker
    /// with its own [`PbsScratch`], all sharing this key — core-level
    /// batching (key-major reuse) *within* each shard, device-level
    /// parallelism *across* shards.
    ///
    /// Results come back **in job order** and are **bit-identical** to
    /// the sequential path — each job's CMUX sequence depends only on
    /// its own ciphertext, so sharding cannot change a single
    /// floating-point operation.
    ///
    /// `threads` is clamped to `[1, jobs.len()]`; `threads <= 1` runs
    /// sequentially on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if any job's shape
    /// disagrees with the key (validated up front, before any thread
    /// is spawned).
    pub fn bootstrap_batch_parallel(
        &self,
        jobs: &[PbsJob<'_>],
        threads: usize,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        for job in jobs {
            self.check_shape(job.ct, job.lut)?;
        }
        let threads = threads.max(1).min(jobs.len());
        if threads <= 1 {
            return self.bootstrap_batch(jobs);
        }
        // Balanced contiguous shards: the first `jobs % threads` shards
        // take one extra job, so exactly `threads` workers spawn and no
        // worker trails the rest by more than one PBS.
        let base = jobs.len() / threads;
        let extra = jobs.len() % threads;
        let shards: Vec<Result<Vec<LweCiphertext>, TfheError>> = std::thread::scope(|scope| {
            let mut start = 0;
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let len = base + usize::from(i < extra);
                    let shard = &jobs[start..start + len];
                    start += len;
                    scope.spawn(move || self.bootstrap_batch(shard))
                })
                .collect();
            // lint:allow(panic) a worker panic is propagated, not swallowed
            handles.into_iter().map(|h| h.join().expect("PBS shard worker panicked")).collect()
        });
        let mut out = Vec::with_capacity(jobs.len());
        for shard in shards {
            out.extend(shard?);
        }
        Ok(out)
    }
}

/// The one result of a batch of one.
fn only<T>(mut results: Vec<T>) -> T {
    // lint:allow(panic) a batch of one job yields one result
    results.pop().expect("one job in, one result out")
}

impl ClassicalBootstrapKey {
    /// The per-bit layout's one Fourier builder: `next` writes each
    /// entry's signed coefficients in secret-bit order — key generation
    /// from [`crate::ggsw::KeyEntries::next_coefficients`], expansion
    /// from [`FourierGgsw::seeded_coefficients_into`] — and each entry
    /// is transformed in one batched call as soon as it is written.
    pub(crate) fn build(params: &TfheParameters, mut next: impl FnMut(&mut Vec<i64>)) -> Self {
        Self::from_entries(params, params.lwe_dimension, |decomp, fft| {
            let mut coeffs = Vec::new();
            let mut entry = || {
                next(&mut coeffs);
                FourierGgsw::from_coefficients(&coeffs, decomp, params.glwe_dimension, fft)
            };
            layout::PerBit((0..params.lwe_dimension).map(|_| entry()).collect())
        })
    }

    /// Generates a *timing-equivalent* bootstrapping key without real
    /// encryption: every GGSW row is a trivial (zero-mask) encryption
    /// carrying only the gadget term for secret bit 0.
    ///
    /// Running PBS with this key performs exactly the same arithmetic
    /// (same decompositions, FFTs, multiplies) as with a real key, so
    /// it is suitable for the CPU-baseline *performance* measurements
    /// at large parameter sets, where real key generation via the exact
    /// schoolbook path would be prohibitive. It is cryptographically
    /// meaningless — outputs decrypt to the unrotated test vector.
    pub fn generate_for_benchmark(params: &TfheParameters) -> Self {
        Self::from_entries(params, params.lwe_dimension, |decomp, fft| {
            layout::PerBit(vec![trivial_entry(params, decomp, fft); params.lwe_dimension])
        })
    }

    /// The classical **reference** blind rotation: the per-job CMUX
    /// loop (rotate → subtract → [`FourierGgsw::external_product`] →
    /// add), one job at a time, on buffers it allocates itself. No
    /// production path runs it; it is the oracle the blocked engine is
    /// pinned against bit for bit — job blocking, key-major order, the
    /// fused rotate-subtract-decompose staging, the mask-switch table
    /// and thread sharding all have to reproduce these separate steps.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    pub fn blind_rotate_reference(
        &self,
        ct: &LweCiphertext,
        lut: &Lut,
    ) -> Result<GlweCiphertext, TfheError> {
        self.check_shape(ct, lut)?;
        let (k, n) = (self.glwe_dimension, self.poly_size);
        let log2_two_n = n.trailing_zeros() + 1;
        let b_tilde = modulus_switch(ct.body(), log2_two_n) as usize;
        let mut acc = GlweCiphertext::trivial(k, lut.poly().rotate_left(b_tilde));
        let mut diff = GlweCiphertext::zero(k, n);
        for (ggsw, &a) in self.entries.0.iter().zip(ct.mask()) {
            let a_tilde = modulus_switch(a, log2_two_n) as usize;
            if a_tilde == 0 {
                continue;
            }
            acc.rotate_right_into(a_tilde, &mut diff);
            diff.sub_assign(&acc)?;
            acc.add_assign(&ggsw.external_product(&diff, &self.fft))?;
        }
        Ok(acc)
    }
}

impl MultiBitBootstrapKey {
    /// The grouped layout's one Fourier builder at `grouping_factor`
    /// bits per group: `next` writes each entry's signed coefficients,
    /// group-major then pattern (as [`ClassicalBootstrapKey::build`]),
    /// and each entry is transformed and scattered into its group's
    /// tiled buffer as soon as it is written.
    ///
    /// Every one of a group's `2^g` pattern entries is a *real* GGSW
    /// encryption (including the `2^g − 1` encryptions of zero): which
    /// single pattern holds the 1 is exactly the key material.
    ///
    /// # Panics
    ///
    /// Panics if `grouping_factor` is 0, exceeds
    /// [`PbsKernel::MAX_GROUPING_FACTOR`] or exceeds the LWE dimension
    /// (all rejected earlier by [`TfheParameters::validate`]).
    pub(crate) fn build(
        params: &TfheParameters,
        grouping_factor: usize,
        mut next: impl FnMut(&mut Vec<i64>),
    ) -> Self {
        check_grouping(grouping_factor, params.lwe_dimension);
        Self::grouped(params, grouping_factor, |_, fft, staging| {
            let mut coeffs = Vec::new();
            group_widths(params.lwe_dimension, grouping_factor)
                .map(|bits| {
                    tiled_group(1 << bits, staging, |spectra| {
                        next(&mut coeffs);
                        transform_entry(fft, &coeffs, spectra);
                    })
                })
                .collect()
        })
    }

    /// Generates a *timing-equivalent* multi-bit key without real
    /// encryption: every pattern entry is a trivial GGSW of 1 (same
    /// convention as [`ClassicalBootstrapKey::generate_for_benchmark`]). The
    /// grouped rotation performs exactly the same arithmetic as with a
    /// real key; outputs are cryptographically meaningless.
    ///
    /// # Panics
    ///
    /// Panics if `grouping_factor` is out of range (see
    /// [`Self::build`]).
    pub fn generate_for_benchmark(params: &TfheParameters, grouping_factor: usize) -> Self {
        check_grouping(grouping_factor, params.lwe_dimension);
        Self::grouped(params, grouping_factor, |decomp, fft, staging| {
            staging.copy_from(trivial_entry(params, decomp, fft).spectra());
            group_widths(params.lwe_dimension, grouping_factor)
                .map(|bits| tiled_group(1 << bits, staging, |_| {}))
                .collect()
        })
    }

    /// The grouped keygen skeleton: `groups` builds every group buffer
    /// ([`tiled_group`]) through one staging spectrum of entry shape.
    fn grouped(
        params: &TfheParameters,
        grouping_factor: usize,
        groups: impl FnOnce(DecompositionParams, &NegacyclicFft, &mut SoaSpectrum) -> Vec<Vec<f64>>,
    ) -> Self {
        Self::from_entries(params, params.lwe_dimension, |decomp, fft| {
            let transforms = (params.glwe_dimension + 1).pow(2) * decomp.level;
            let mut staging = SoaSpectrum::new(transforms, fft.fourier_size());
            layout::Grouped {
                groups: groups(decomp, fft, &mut staging),
                mono: MonomialTable::for_plan(fft),
                grouping_factor,
                transforms,
                half: fft.fourier_size(),
            }
        })
    }

    /// Secret bits collapsed per key entry.
    #[inline]
    pub fn grouping_factor(&self) -> usize {
        self.entries.grouping_factor
    }

    /// Number of blind-rotation groups `⌈n/g⌉` (= external products per
    /// bootstrap).
    #[inline]
    pub fn group_count(&self) -> usize {
        self.entries.groups.len()
    }
}

/// A server's one blind-rotation key, classical or grouped: the variant
/// is the PBS kernel every bootstrap on this key runs (the software
/// counterpart of tfhe-rs's `PBS_TYPE` switch over one key buffer).
///
/// Every method forwards to the held key with one `match` per call; the
/// CMUX loop itself is monomorphised per layout.
#[derive(Clone, Debug)]
pub enum BootstrapKey {
    /// One GGSW per secret bit ([`PbsKernel::Classical`]).
    Classical(ClassicalBootstrapKey),
    /// `2^g` GGSWs per group of `g` bits ([`PbsKernel::MultiBit`]).
    MultiBit(MultiBitBootstrapKey),
}

/// Defines each listed method on [`BootstrapKey`] as one `match` that
/// calls the same-named [`BlindRotationKey`] method on the held key.
macro_rules! forward {
    ($($(#[$doc:meta])* fn $name:ident(&self $(, $arg:ident: $ty:ty)*) -> $ret:ty;)*) => {
        impl BootstrapKey {
            $(
                $(#[$doc])*
                #[inline]
                pub fn $name(&self $(, $arg: $ty)*) -> $ret {
                    match self {
                        Self::Classical(k) => k.$name($($arg),*),
                        Self::MultiBit(k) => k.$name($($arg),*),
                    }
                }
            )*
        }
    };
}

forward! {
    /// Input LWE dimension `n`.
    fn input_dimension(&self) -> usize;
    /// Output LWE dimension `k·N` after sample extraction.
    fn output_dimension(&self) -> usize;
    /// Polynomial size `N`.
    fn poly_size(&self) -> usize;
    /// The decomposition used by the external products.
    fn decomposition(&self) -> DecompositionParams;
    /// The FFT plan shared by all external products.
    fn fft(&self) -> &NegacyclicFft;
    /// See [`BlindRotationKey::scratch`].
    fn scratch(&self) -> PbsScratch;
    /// See [`BlindRotationKey::byte_size`].
    fn byte_size(&self) -> usize;
    /// See [`BlindRotationKey::check_shape`].
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] naming the mismatch.
    fn check_shape(&self, ct: &LweCiphertext, lut: &Lut) -> Result<(), TfheError>;
    /// See [`BlindRotationKey::blind_rotate`].
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    fn blind_rotate(&self, ct: &LweCiphertext, lut: &Lut) -> Result<GlweCiphertext, TfheError>;
    /// See [`BlindRotationKey::blind_rotate_with`].
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was sized for a different key shape.
    fn blind_rotate_with(
        &self,
        ct: &LweCiphertext,
        lut: &Lut,
        scratch: &mut PbsScratch
    ) -> Result<GlweCiphertext, TfheError>;
    /// See [`BlindRotationKey::bootstrap`].
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    fn bootstrap(&self, ct: &LweCiphertext, lut: &Lut) -> Result<LweCiphertext, TfheError>;
    /// See [`BlindRotationKey::bootstrap_profiled`].
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on shape mismatch.
    fn bootstrap_profiled(
        &self,
        ct: &LweCiphertext,
        lut: &Lut,
        timings: &mut StageTimings
    ) -> Result<LweCiphertext, TfheError>;
    /// See [`BlindRotationKey::bootstrap_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on any shape mismatch.
    fn bootstrap_batch(&self, jobs: &[PbsJob<'_>]) -> Result<Vec<LweCiphertext>, TfheError>;
    /// See [`BlindRotationKey::bootstrap_batch_profiled`].
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on any shape mismatch.
    fn bootstrap_batch_profiled(
        &self,
        jobs: &[PbsJob<'_>],
        timings: &mut StageTimings
    ) -> Result<Vec<LweCiphertext>, TfheError>;
    /// See [`BlindRotationKey::bootstrap_batch_parallel`].
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on any shape mismatch.
    fn bootstrap_batch_parallel(
        &self,
        jobs: &[PbsJob<'_>],
        threads: usize
    ) -> Result<Vec<LweCiphertext>, TfheError>;
}

impl BootstrapKey {
    /// Builds the key of `params`' kernel from `next`, which writes each
    /// entry's signed coefficients in key order (see
    /// [`ClassicalBootstrapKey::build`] and [`MultiBitBootstrapKey::build`]).
    pub(crate) fn build(params: &TfheParameters, next: impl FnMut(&mut Vec<i64>)) -> Self {
        match params.pbs_kernel {
            PbsKernel::Classical => Self::Classical(ClassicalBootstrapKey::build(params, next)),
            PbsKernel::MultiBit { grouping_factor } => {
                Self::MultiBit(MultiBitBootstrapKey::build(params, grouping_factor, next))
            }
        }
    }

    /// The PBS kernel this key runs.
    pub fn kernel(&self) -> PbsKernel {
        match self {
            Self::Classical(_) => PbsKernel::Classical,
            Self::MultiBit(k) => PbsKernel::MultiBit { grouping_factor: k.grouping_factor() },
        }
    }
}

/// The secret bits each group of an `n`-bit key covers at grouping
/// factor `g`: `g` per full group, then the `n mod g` remainder.
fn group_widths(n: usize, g: usize) -> impl Iterator<Item = usize> + Clone {
    (0..n.div_ceil(g)).map(move |gi| g.min(n - gi * g))
}

/// Lays out one group of `patterns` entries slot-tile-major: `entry`
/// writes the next pattern's spectra into `staging`, which is scattered
/// into the group buffer before the next pattern reuses it, so no
/// entry's logical form outlives its scatter.
fn tiled_group(
    patterns: usize,
    staging: &mut SoaSpectrum,
    mut entry: impl FnMut(&mut SoaSpectrum),
) -> Vec<f64> {
    let (re, im) = staging.planes();
    let mut group = vec![0.0f64; patterns * (re.len() + im.len())];
    for pattern in 0..patterns {
        entry(staging);
        layout::write_tiled(&mut group, patterns, pattern, staging);
    }
    group
}

/// One entry's batched forward transform into the staging spectrum:
/// the same call [`GgswCiphertext::to_fourier`] makes, so the spectra
/// are bit-identical to a standalone [`FourierGgsw`]'s.
fn transform_entry(fft: &NegacyclicFft, coeffs: &[i64], spectra: &mut SoaSpectrum) {
    fft.forward_i64_many(coeffs, spectra)
        // lint:allow(panic) the staging spectrum is sized from the same plan
        .expect("entry coefficients must match the fft plan");
}

#[cfg(test)]
impl ClassicalBootstrapKey {
    /// Every key entry in secret-bit order, each as its real plane then
    /// its imaginary plane (key-material digests).
    pub(crate) fn fourier_entries(&self) -> impl Iterator<Item = impl Iterator<Item = f64> + '_> {
        self.entries.0.iter().map(|e| {
            let (re, im) = e.spectra().planes();
            re.iter().chain(im).copied()
        })
    }
}

#[cfg(test)]
impl MultiBitBootstrapKey {
    /// Every key entry, group-major then pattern, each as its real plane
    /// then its imaginary plane: a logical-order view over the tiled
    /// buffers (key-material digests).
    pub(crate) fn fourier_entries(&self) -> impl Iterator<Item = impl Iterator<Item = f64> + '_> {
        let e = &self.entries;
        (0..e.groups.len())
            .flat_map(move |step| (0..e.patterns(step)).map(move |pattern| (step, pattern)))
            .map(move |(step, pattern)| {
                (0..2).flat_map(move |part| {
                    (0..e.transforms).flat_map(move |t| {
                        (0..e.half).map(move |slot| e.value(step, pattern, t, slot)[part])
                    })
                })
            })
    }

    /// The same key behind the two-pass oracle layout.
    pub(crate) fn two_pass_oracle(&self) -> BlindRotationKey<layout::TwoPass> {
        BlindRotationKey {
            entries: layout::TwoPass(self.entries.clone()),
            fft: self.fft.clone(),
            glwe_dimension: self.glwe_dimension,
            poly_size: self.poly_size,
            decomp: self.decomp,
            input_dimension: self.input_dimension,
        }
    }
}

fn check_grouping(grouping_factor: usize, lwe_dimension: usize) {
    assert!(grouping_factor >= 1, "grouping factor must be positive");
    assert!(
        grouping_factor <= PbsKernel::MAX_GROUPING_FACTOR,
        "grouping factor exceeds the supported maximum"
    );
    assert!(grouping_factor <= lwe_dimension, "grouping factor exceeds the lwe dimension");
}

/// A trivial GGSW of message 1: its gadget terms give the spectra
/// non-trivial values, so benchmark keys time honestly.
fn trivial_entry(
    params: &TfheParameters,
    decomp: DecompositionParams,
    fft: &NegacyclicFft,
) -> FourierGgsw {
    GgswCiphertext::trivial(1, params.glwe_dimension, params.polynomial_size, decomp)
        .to_fourier(fft)
}

/// Encodes a boolean as `±1/8` on the torus (gate-bootstrapping
/// convention): `true ↦ +1/8`, `false ↦ −1/8`.
///
/// The call `encode_fraction(±1, 3)` reads as "±1 over 2³" — the
/// second argument is the **log2 of the denominator**, so this is
/// exactly the `±1/8` the convention asks for (not `±1/3`).
///
/// ```
/// use strix_tfhe::bootstrap::{decode_bool, encode_bool};
/// use strix_tfhe::torus::encode_fraction;
///
/// // +1/8 of the torus is 2^64/8 = 2^61; −1/8 is its wrapping negation.
/// assert_eq!(encode_bool(true), 1u64 << 61);
/// assert_eq!(encode_bool(true), encode_fraction(1, 3));
/// assert_eq!(encode_bool(false), (1u64 << 61).wrapping_neg());
/// assert!(decode_bool(encode_bool(true)));
/// assert!(!decode_bool(encode_bool(false)));
/// ```
#[inline]
pub fn encode_bool(b: bool) -> u64 {
    if b {
        encode_fraction(1, 3)
    } else {
        encode_fraction(-1, 3)
    }
}

/// Decodes a phase to a boolean by its torus sign.
#[inline]
pub fn decode_bool(phase: u64) -> bool {
    (phase as i64) > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glwe::GlweSecretKey;
    use crate::lwe::LweSecretKey;
    use crate::rng::NoiseSampler;
    use crate::torus::decode_message;
    use crate::ClientKey;

    struct Fixture {
        params: TfheParameters,
        lwe_sk: LweSecretKey,
        glwe_sk: GlweSecretKey,
        extracted: LweSecretKey,
        bsk: ClassicalBootstrapKey,
        rng: NoiseSampler,
    }

    /// Keys of a client of `seed` at `params`: its secrets, and the
    /// blind-rotation key its server key carries.
    fn client_keys(params: &TfheParameters, seed: u64) -> (ClientKey, BootstrapKey) {
        let mut client = ClientKey::generate(params, seed);
        let bsk = client.server_key().bsk;
        (client, bsk)
    }

    fn fixture(params: TfheParameters) -> Fixture {
        let (client, BootstrapKey::Classical(bsk)) = client_keys(&params, 4242) else {
            panic!("a classical client's server carries a classical key");
        };
        Fixture {
            lwe_sk: client.lwe_secret_key().clone(),
            glwe_sk: client.glwe_secret_key().clone(),
            extracted: client.extracted_secret_key().clone(),
            bsk,
            rng: NoiseSampler::from_seed(4243),
            params,
        }
    }

    #[test]
    fn lut_sign_shape() {
        let lut = Lut::sign(64, encode_fraction(1, 3));
        assert!(lut.poly().coeffs().iter().all(|&c| c == encode_fraction(1, 3)));
    }

    #[test]
    fn lut_from_function_rejects_oversized_space() {
        assert!(Lut::from_function(64, 7, |m| m).is_err());
        assert!(Lut::from_function(64, 6, |m| m).is_ok());
    }

    #[test]
    fn bootstrap_refreshes_sign_encoding() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        for b in [true, false] {
            let ct = fx.lwe_sk.encrypt(encode_bool(b), fx.params.lwe_noise_std, &mut fx.rng);
            let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
            let out = fx.bsk.bootstrap(&ct, &lut).unwrap();
            assert_eq!(out.dimension(), fx.bsk.output_dimension());
            let phase = fx.extracted.decrypt_phase(&out).unwrap();
            assert_eq!(decode_bool(phase), b, "b={b}");
        }
    }

    #[test]
    fn bootstrap_evaluates_identity_lut() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let p = 2u32; // 2-bit messages
        let lut = Lut::from_function(fx.params.polynomial_size, p, |m| m).unwrap();
        for m in 0..4u64 {
            let pt = m << (64 - p - 1);
            let ct = fx.lwe_sk.encrypt(pt, fx.params.lwe_noise_std, &mut fx.rng);
            let out = fx.bsk.bootstrap(&ct, &lut).unwrap();
            let phase = fx.extracted.decrypt_phase(&out).unwrap();
            assert_eq!(decode_message(phase, p + 1), m, "m={m}");
        }
    }

    #[test]
    fn bootstrap_evaluates_nontrivial_lut() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let p = 2u32;
        let f = |m: u64| (3 * m + 1) % 4;
        let lut = Lut::from_function(fx.params.polynomial_size, p, f).unwrap();
        for m in 0..4u64 {
            let pt = m << (64 - p - 1);
            let ct = fx.lwe_sk.encrypt(pt, fx.params.lwe_noise_std, &mut fx.rng);
            let out = fx.bsk.bootstrap(&ct, &lut).unwrap();
            let phase = fx.extracted.decrypt_phase(&out).unwrap();
            assert_eq!(decode_message(phase, p + 1), f(m), "m={m}");
        }
    }

    #[test]
    fn bootstrap_works_with_k2_parameters() {
        let fx = &mut fixture(TfheParameters::testing_k2());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        for b in [true, false] {
            let ct = fx.lwe_sk.encrypt(encode_bool(b), fx.params.lwe_noise_std, &mut fx.rng);
            let out = fx.bsk.bootstrap(&ct, &lut).unwrap();
            assert_eq!(out.dimension(), 2 * fx.params.polynomial_size);
            let phase = fx.extracted.decrypt_phase(&out).unwrap();
            assert_eq!(decode_bool(phase), b);
        }
    }

    #[test]
    fn blind_rotate_output_decrypts_under_glwe_key() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let ct = fx.lwe_sk.encrypt(encode_bool(true), fx.params.lwe_noise_std, &mut fx.rng);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let acc = fx.bsk.blind_rotate(&ct, &lut).unwrap();
        let phase = fx.glwe_sk.decrypt_phase(&acc).unwrap();
        assert!(decode_bool(phase[0]));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let wrong = LweCiphertext::trivial(10, 0);
        assert!(fx.bsk.blind_rotate(&wrong, &lut).is_err());
        let wrong_lut = Lut::sign(fx.params.polynomial_size * 2, 1);
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        assert!(fx.bsk.blind_rotate(&ct, &wrong_lut).is_err());
    }

    #[test]
    fn profiled_bootstrap_accounts_blind_rotation_dominant() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let ct = fx.lwe_sk.encrypt(encode_bool(true), fx.params.lwe_noise_std, &mut fx.rng);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let mut t = StageTimings::new();
        let _ = fx.bsk.bootstrap_profiled(&ct, &lut, &mut t).unwrap();
        // The paper reports ~98% of PBS inside the blind rotation; even
        // at toy sizes it must clearly dominate.
        assert!(t.blind_rotation_fraction() > 0.8, "{}", t.blind_rotation_fraction());
    }

    #[test]
    fn key_size_matches_parameter_formula() {
        let params = TfheParameters::testing_fast();
        let fx = fixture(params.clone());
        assert_eq!(fx.bsk.byte_size(), params.bootstrap_key_bytes());
    }

    #[test]
    fn bool_encoding_round_trip() {
        assert!(decode_bool(encode_bool(true)));
        assert!(!decode_bool(encode_bool(false)));
    }

    #[test]
    fn batched_bootstrap_matches_single_per_job() {
        // Key-major iteration must be arithmetically identical to the
        // ciphertext-major single path — same products, same order of
        // additions per accumulator.
        let fx = &mut fixture(TfheParameters::testing_fast());
        let p = 2u32;
        let lut_id = Lut::from_function(fx.params.polynomial_size, p, |m| m).unwrap();
        let lut_sq = Lut::from_function(fx.params.polynomial_size, p, |m| (m * m) % 4).unwrap();
        let cts: Vec<LweCiphertext> = (0..4u64)
            .map(|m| fx.lwe_sk.encrypt(m << (64 - p - 1), fx.params.lwe_noise_std, &mut fx.rng))
            .collect();
        let jobs: Vec<PbsJob<'_>> = cts
            .iter()
            .enumerate()
            .map(|(i, ct)| PbsJob { ct, lut: if i % 2 == 0 { &lut_id } else { &lut_sq } })
            .collect();
        let batched = fx.bsk.bootstrap_batch(&jobs).unwrap();
        for (job, out) in jobs.iter().zip(&batched) {
            let single = fx.bsk.bootstrap(job.ct, job.lut).unwrap();
            assert_eq!(out, &single);
        }
        // And the results are still correct.
        for (m, out) in batched.iter().enumerate() {
            let phase = fx.extracted.decrypt_phase(out).unwrap();
            let expected = if m % 2 == 0 { m as u64 } else { ((m * m) % 4) as u64 };
            assert_eq!(decode_message(phase, p + 1), expected, "m={m}");
        }
    }

    #[test]
    fn parallel_bootstrap_is_bit_identical_to_sequential() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let p = 2u32;
        let lut_id = Lut::from_function(fx.params.polynomial_size, p, |m| m).unwrap();
        let lut_sq = Lut::from_function(fx.params.polynomial_size, p, |m| (m * m) % 4).unwrap();
        // 7 jobs: does not divide evenly by 2, 3, 4, 5 or 6 threads.
        let cts: Vec<LweCiphertext> = (0..7u64)
            .map(|m| {
                fx.lwe_sk.encrypt((m % 4) << (64 - p - 1), fx.params.lwe_noise_std, &mut fx.rng)
            })
            .collect();
        let jobs: Vec<PbsJob<'_>> = cts
            .iter()
            .enumerate()
            .map(|(i, ct)| PbsJob { ct, lut: if i % 2 == 0 { &lut_id } else { &lut_sq } })
            .collect();
        let sequential = fx.bsk.bootstrap_batch(&jobs).unwrap();
        for threads in 1..=8 {
            let parallel = fx.bsk.bootstrap_batch_parallel(&jobs, threads).unwrap();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        // Degenerate thread counts are clamped, not errors.
        assert_eq!(fx.bsk.bootstrap_batch_parallel(&jobs, 0).unwrap(), sequential);
        assert_eq!(fx.bsk.bootstrap_batch_parallel(&jobs, 100).unwrap(), sequential);
        assert!(fx.bsk.bootstrap_batch_parallel(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn parallel_bootstrap_rejects_shape_mismatch_before_spawning() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let good = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let bad = LweCiphertext::trivial(10, 0);
        let jobs = [PbsJob { ct: &good, lut: &lut }, PbsJob { ct: &bad, lut: &lut }];
        assert!(fx.bsk.bootstrap_batch_parallel(&jobs, 2).is_err());
    }

    #[test]
    fn scratch_reuse_across_bootstraps_is_bit_identical() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let mut scratch = fx.bsk.scratch();
        for b in [true, false, true] {
            let ct = fx.lwe_sk.encrypt(encode_bool(b), fx.params.lwe_noise_std, &mut fx.rng);
            let fresh = fx.bsk.blind_rotate(&ct, &lut).unwrap();
            let reused = fx.bsk.blind_rotate_with(&ct, &lut, &mut scratch).unwrap();
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    #[should_panic(expected = "scratch polynomial size mismatch")]
    fn wrong_scratch_shape_panics() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let mut wrong = PbsScratch::new(
            fx.params.glwe_dimension,
            fx.params.polynomial_size * 2,
            fx.bsk.decomposition(),
            None,
        );
        let _ = fx.bsk.blind_rotate_with(&ct, &lut, &mut wrong);
    }

    #[test]
    fn batched_bootstrap_rejects_shape_mismatch() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let good = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let bad = LweCiphertext::trivial(10, 0);
        let jobs = [PbsJob { ct: &good, lut: &lut }, PbsJob { ct: &bad, lut: &lut }];
        assert!(fx.bsk.bootstrap_batch(&jobs).is_err());
        assert!(fx.bsk.bootstrap_batch(&[]).unwrap().is_empty());
    }

    /// The g-bit grouped key over `fx`'s secrets: a client of the
    /// fixture's seed draws the same secrets under every kernel.
    fn multi_bit_key(fx: &mut Fixture, g: usize) -> MultiBitBootstrapKey {
        multi_bit_client_key(&fx.params, g, 4242)
    }

    fn multi_bit_client_key(params: &TfheParameters, g: usize, seed: u64) -> MultiBitBootstrapKey {
        let params = params.clone().with_kernel(PbsKernel::MultiBit { grouping_factor: g });
        let (_, BootstrapKey::MultiBit(key)) = client_keys(&params, seed) else {
            panic!("a multi-bit client's server carries a grouped key");
        };
        key
    }

    #[test]
    fn multi_bit_key_size_matches_parameter_formula() {
        let params = TfheParameters::testing_fast();
        let fx = &mut fixture(params.clone());
        for g in [2usize, 3] {
            let mbsk = multi_bit_key(fx, g);
            assert_eq!(mbsk.grouping_factor(), g);
            assert_eq!(mbsk.group_count(), params.multi_bit_group_count(g));
            assert_eq!(mbsk.byte_size(), params.multi_bit_bootstrap_key_bytes(g), "g={g}");
            assert_eq!(mbsk.input_dimension(), params.lwe_dimension);
            assert_eq!(mbsk.output_dimension(), params.extracted_lwe_dimension());
        }
    }

    #[test]
    fn multi_bit_bootstrap_decrypts_like_classical() {
        // Not bit-identical — a genuinely different kernel — but the
        // decoded messages must agree with the classical path on every
        // input of the message space.
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let p = 2u32;
        let f = |m: u64| (3 * m + 1) % 4;
        let lut = Lut::from_function(fx.params.polynomial_size, p, f).unwrap();
        for m in 0..4u64 {
            let pt = m << (64 - p - 1);
            let ct = fx.lwe_sk.encrypt(pt, fx.params.lwe_noise_std, &mut fx.rng);
            let classical = fx.bsk.bootstrap(&ct, &lut).unwrap();
            let multi_bit = mbsk.bootstrap(&ct, &lut).unwrap();
            let pc = fx.extracted.decrypt_phase(&classical).unwrap();
            let pm = fx.extracted.decrypt_phase(&multi_bit).unwrap();
            assert_eq!(decode_message(pm, p + 1), decode_message(pc, p + 1), "m={m}");
            assert_eq!(decode_message(pm, p + 1), f(m), "m={m}");
        }
    }

    #[test]
    fn multi_bit_zero_rotation_job_is_exact_passthrough() {
        // A trivial ciphertext with all-zero mask and body skips every
        // group: the accumulator must come back exactly as initialised,
        // bit-identical to what the classical kernel produces.
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let grouped = mbsk.blind_rotate(&ct, &lut).unwrap();
        let classical = fx.bsk.blind_rotate(&ct, &lut).unwrap();
        assert_eq!(grouped, classical);
    }

    #[test]
    fn multi_bit_batch_matches_single_per_job() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let p = 2u32;
        let lut = Lut::from_function(fx.params.polynomial_size, p, |m| m).unwrap();
        let cts: Vec<LweCiphertext> = (0..5u64)
            .map(|m| {
                fx.lwe_sk.encrypt((m % 4) << (64 - p - 1), fx.params.lwe_noise_std, &mut fx.rng)
            })
            .collect();
        let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();
        let batched = mbsk.bootstrap_batch(&jobs).unwrap();
        for (job, out) in jobs.iter().zip(&batched) {
            assert_eq!(out, &mbsk.bootstrap(job.ct, job.lut).unwrap());
        }
    }

    #[test]
    fn multi_bit_shape_mismatch_is_reported() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let wrong = LweCiphertext::trivial(10, 0);
        assert!(mbsk.blind_rotate(&wrong, &lut).is_err());
        let wrong_lut = Lut::sign(fx.params.polynomial_size * 2, 1);
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        assert!(mbsk.blind_rotate(&ct, &wrong_lut).is_err());
    }

    /// A ciphertext with a pseudorandom mask (splitmix64 of `seed`),
    /// zeroed below `zero_prefix`: groups inside the prefix leave the job
    /// inactive, the rest move it.
    fn masked_ct(n: usize, seed: u64, zero_prefix: usize) -> LweCiphertext {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let raw = (0..=n).map(|i| if i < zero_prefix { 0 } else { next() }).collect();
        LweCiphertext::from_raw(raw)
    }

    #[test]
    fn fused_multi_bit_kernel_matches_the_two_pass_oracle() {
        use strix_fft::StrixFftBackend;
        // (g, N, n): every grouping factor, remainder groups (n mod g ≠
        // 0), N/2 above, at and below the 32-slot tile (N = 8: 4 slots).
        for (g, poly, n) in [(1, 64, 5), (2, 512, 7), (3, 1024, 8), (4, 64, 14), (2, 8, 5)] {
            let mut params = TfheParameters::testing_fast();
            params.polynomial_size = poly;
            params.lwe_dimension = n;
            let key = |backend| {
                multi_bit_client_key(&params.clone().with_fft_backend(backend), g, 77 + g as u64)
            };
            let (auto, portable) = (key(StrixFftBackend::Auto), key(StrixFftBackend::Portable));
            let luts = [Lut::from_function(poly, 2, |m| (m + 1) % 4).unwrap(), Lut::sign(poly, 1)];
            // Block 0 holds a zero-rotation job and one whose first
            // group never moves; block 1 is all zero rotations.
            let cts: Vec<LweCiphertext> = (0..9)
                .map(|i| match i {
                    2 | 4..=7 => LweCiphertext::trivial(n, 1 << 61),
                    3 => masked_ct(n, i, g),
                    _ => masked_ct(n, i, 0),
                })
                .collect();
            let jobs: Vec<PbsJob<'_>> =
                cts.iter().enumerate().map(|(i, ct)| PbsJob { ct, lut: &luts[i % 2] }).collect();
            let oracles = [auto.two_pass_oracle(), portable.two_pass_oracle()];
            for batch in 1..=9 {
                let jobs = &jobs[..batch];
                let fused = auto.bootstrap_batch(jobs).unwrap();
                let shape = format!("g={g} N={poly} n={n} batch={batch}");
                assert_eq!(fused, oracles[0].bootstrap_batch(jobs).unwrap(), "{shape}");
                assert_eq!(fused, oracles[1].bootstrap_batch(jobs).unwrap(), "portable {shape}");
                assert_eq!(fused, portable.bootstrap_batch(jobs).unwrap(), "portable {shape}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "scratch grouping factor mismatch")]
    fn multi_bit_wrong_scratch_grouping_panics() {
        let fx = &mut fixture(TfheParameters::testing_fast());
        let mbsk = multi_bit_key(fx, 2);
        let lut = Lut::sign(fx.params.polynomial_size, encode_fraction(1, 3));
        let ct = LweCiphertext::trivial(fx.params.lwe_dimension, 0);
        let mut wrong = PbsScratch::new(
            fx.params.glwe_dimension,
            fx.params.polynomial_size,
            mbsk.decomposition(),
            Some(3),
        );
        let _ = mbsk.blind_rotate_with(&ct, &lut, &mut wrong);
    }
}
