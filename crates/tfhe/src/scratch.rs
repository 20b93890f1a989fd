//! Reusable per-thread working memory for the PBS hot path.
//!
//! FPT and BTS (and Strix itself) make the same observation about the
//! blind-rotation inner loop: the win comes from keeping its working
//! set *resident* — streamed key material flows past a fixed set of
//! on-chip buffers — rather than re-materialising state per operation.
//! The software analogue is [`PbsScratch`]: one allocation up front,
//! zero heap traffic afterwards. Every blocked blind-rotation step of
//! either kernel ([`crate::bootstrap::BlindRotationKey`]) then reuses
//!
//! * an extraction-state buffer and a packed digit buffer for the
//!   lane-parallel gadget decomposition (decomposer unit),
//! * per-job split-complex digit and accumulator spectra for one block
//!   of [`CMUX_JOB_BLOCK`] jobs (FFT + VMA units),
//! * a batched inverse-transform buffer (IFFT unit),
//! * for the multi-bit kernel only, the per-(job, pattern) monomial
//!   degrees and one slot tile of each job's monomial spectra, in the
//!   tile order the fused assembly reads them. These are sized by the
//!   grouping factor and empty for the classical kernel; the combined
//!   GGSW itself never touches memory.
//!
//! Scratch is deliberately **not** shared between threads: a parallel
//! epoch ([`crate::bootstrap::BlindRotationKey::bootstrap_batch_parallel`])
//! gives each worker its own `PbsScratch` while all workers share one
//! key.

use strix_fft::SoaSpectrum;

use crate::decompose::DecompositionParams;

/// Number of accumulators the blocked CMUX processes per bootstrapping
/// key entry before moving to the next block (the job-blocking factor
/// of the batched blind rotation).
///
/// Rationale: within a block, the VMA loop reuses every key load
/// across the block's jobs — the classical kernel row-major (one
/// `(k+1)·N/2`-point key row applied to every job before the next
/// streams in), the multi-bit kernel tile-major (one 32-slot key tile
/// applied to every job) — so key data stays in L1 across
/// `CMUX_JOB_BLOCK` uses instead of being re-fetched per job. The
/// block size bounds the staging footprint: each job stages
/// `(k+1)·l + (k+1)` split spectra, 256 KiB per block at set II
/// (`k = 1`, `l = 3`, `N = 1024`) and 512 KiB at set III — resident in
/// a server core's L2 — while already amortising the key stream 4×. The multi-bit
/// kernel adds only its monomial tiles (16 KiB per block at `g = 3`).
/// Results are bit-identical for every block size, so this is purely a
/// locality knob.
pub const CMUX_JOB_BLOCK: usize = 4;

/// Spectrum slots per tile of the multi-bit kernel's slot-tile-major
/// key layout (capped at `N/2`): one tile of one key entry is
/// `2·SLOT_TILE` doubles (512 bytes), so a group's tile of every
/// `(row, col)` and pattern — what the fused assembly consumes while
/// the tile is hot — stays a few dozen KiB at set II.
pub(crate) const SLOT_TILE: usize = 32;

/// The slot tile for spectra of `half` points: [`SLOT_TILE`], or the
/// whole spectrum below it.
pub(crate) fn slot_tile(half: usize) -> usize {
    SLOT_TILE.min(half)
}

/// Per-thread reusable working memory for programmable bootstrapping,
/// for either kernel.
///
/// Build one with [`crate::bootstrap::BlindRotationKey::scratch`], keep
/// it alive for as many bootstraps as you like, and never share it
/// across threads. With a scratch in hand the whole blind rotation
/// performs no heap allocation inside the CMUX loop.
#[derive(Clone, Debug)]
pub struct PbsScratch {
    /// Lane-parallel decomposition state (`N` extraction words).
    pub(crate) decomp_state: Vec<u64>,
    /// One job's full digit decomposition, poly-major then level-major
    /// within each polynomial (`(k+1)·l · N` digits) — the packed
    /// input of the batched forward transform.
    pub(crate) all_digits: Vec<i64>,
    /// Per-job split digit spectra for one block:
    /// [`CMUX_JOB_BLOCK`] batches of `(k+1)·l` transforms of `N/2`
    /// points (the FFT-unit output staging of the blocked CMUX).
    pub(crate) digit_batch: Vec<SoaSpectrum>,
    /// Per-job split accumulator spectra for one block:
    /// [`CMUX_JOB_BLOCK`] batches of `k+1` transforms of `N/2` points
    /// (the VMA accumulation staging).
    pub(crate) acc_batch: Vec<SoaSpectrum>,
    /// Batched inverse-transform output (`(k+1) · N` reals), reused by
    /// every job of every block.
    pub(crate) time_batch: Vec<f64>,
    /// Multi-bit only: one slot tile of every job's monomial spectra
    /// `X^{d_b}`, tile order `[job][pattern][re T | im T]` with
    /// `T = min(SLOT_TILE, N/2)` ([`CMUX_JOB_BLOCK`] · `2^g` · `2T`
    /// doubles), rebuilt per tile and read by the fused assembly.
    pub(crate) mono_tiles: Vec<f64>,
    /// Multi-bit only: per-(job, pattern) monomial degrees for one
    /// block ([`CMUX_JOB_BLOCK`] · `2^g` entries, pattern-minor).
    pub(crate) degrees: Vec<usize>,
    glwe_dimension: usize,
    pub(crate) poly_size: usize,
    level: usize,
    grouping_factor: Option<usize>,
}

impl PbsScratch {
    /// Allocates scratch for bootstraps of shape `(k, N, l)`; the
    /// multi-bit assembly buffers are sized by `grouping_factor` and
    /// left empty when it is `None` (classical kernel).
    pub(crate) fn new(
        glwe_dimension: usize,
        poly_size: usize,
        decomp: DecompositionParams,
        grouping_factor: Option<usize>,
    ) -> Self {
        let half = poly_size / 2;
        let cols = glwe_dimension + 1;
        let rows = cols * decomp.level;
        let block = |count: usize| -> Vec<SoaSpectrum> {
            (0..CMUX_JOB_BLOCK).map(|_| SoaSpectrum::new(count, half)).collect()
        };
        let patterns = grouping_factor.map_or(0, |g| CMUX_JOB_BLOCK << g);
        Self {
            decomp_state: vec![0u64; poly_size],
            all_digits: vec![0i64; rows * poly_size],
            digit_batch: block(rows),
            acc_batch: block(cols),
            time_batch: vec![0.0f64; cols * poly_size],
            mono_tiles: vec![0.0f64; patterns * 2 * slot_tile(half)],
            degrees: vec![0usize; patterns],
            glwe_dimension,
            poly_size,
            level: decomp.level,
            grouping_factor,
        }
    }

    /// Asserts this scratch matches the `(k, N, l, g)` shape of the key
    /// about to use it.
    ///
    /// # Panics
    ///
    /// Panics on any mismatch.
    pub(crate) fn check_shape(
        &self,
        glwe_dimension: usize,
        poly_size: usize,
        level: usize,
        grouping_factor: Option<usize>,
    ) {
        assert_eq!(self.glwe_dimension, glwe_dimension, "scratch glwe dimension mismatch");
        assert_eq!(self.poly_size, poly_size, "scratch polynomial size mismatch");
        assert_eq!(self.level, level, "scratch decomposition level mismatch");
        assert_eq!(self.grouping_factor, grouping_factor, "scratch grouping factor mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_sized_to_the_shape() {
        let decomp = DecompositionParams::new(8, 3);
        let s = PbsScratch::new(2, 64, decomp, None);
        assert_eq!(s.decomp_state.len(), 64);
        // Blocked-CMUX staging: one digit buffer per job of a block,
        // (k+1)·l transforms each, plus k+1 accumulator spectra.
        assert_eq!(s.all_digits.len(), 3 * 3 * 64);
        assert_eq!(s.digit_batch.len(), CMUX_JOB_BLOCK);
        assert_eq!(s.digit_batch[0].count(), 3 * 3);
        assert_eq!(s.digit_batch[0].transform_len(), 32);
        assert_eq!(s.acc_batch.len(), CMUX_JOB_BLOCK);
        assert_eq!(s.acc_batch[0].count(), 3);
        assert_eq!(s.time_batch.len(), 3 * 64);
        // No assembly buffers for the classical kernel.
        assert!(s.mono_tiles.is_empty() && s.degrees.is_empty());
        s.check_shape(2, 64, 3, None);
    }

    #[test]
    #[should_panic(expected = "scratch polynomial size mismatch")]
    fn shape_mismatch_panics() {
        let decomp = DecompositionParams::new(8, 3);
        PbsScratch::new(1, 64, decomp, None).check_shape(1, 128, 3, None);
    }

    #[test]
    fn multi_bit_buffers_are_sized_to_the_shape() {
        let decomp = DecompositionParams::new(8, 3);
        let s = PbsScratch::new(1, 64, decomp, Some(2));
        assert_eq!(s.all_digits.len(), 2 * 3 * 64);
        assert_eq!(s.digit_batch[0].count(), 2 * 3);
        assert_eq!(s.acc_batch[0].count(), 2);
        // No combined key entry: one monomial tile per (job, pattern),
        // re and im halves of T = min(32, N/2) slots each.
        assert_eq!(s.mono_tiles.len(), (CMUX_JOB_BLOCK << 2) * 2 * 32);
        assert_eq!(s.degrees.len(), CMUX_JOB_BLOCK << 2);
        s.check_shape(1, 64, 3, Some(2));
        // Below N/2 = 32 slots the tile is the whole spectrum.
        let small = PbsScratch::new(1, 16, decomp, Some(3));
        assert_eq!(small.mono_tiles.len(), (CMUX_JOB_BLOCK << 3) * 2 * 8);
    }

    #[test]
    #[should_panic(expected = "scratch grouping factor mismatch")]
    fn multi_bit_grouping_mismatch_panics() {
        let decomp = DecompositionParams::new(8, 3);
        PbsScratch::new(1, 64, decomp, Some(2)).check_shape(1, 64, 3, Some(3));
    }
}
