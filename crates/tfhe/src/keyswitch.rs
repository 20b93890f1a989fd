//! Keyswitching (Algorithm 2).
//!
//! After PBS the ciphertext lives under the extracted key of dimension
//! `k·N`. Keyswitching converts it back to the original `n`-dimension
//! key: each mask element is gadget-decomposed and the digits are
//! multiplied against the keyswitching key — a `k·N·l_k × (n+1)`
//! matrix–vector product over scalars, which is why the Strix keyswitch
//! cluster needs only the decomposer, VMA and accumulator units.
//!
//! The key is held **seeded**: a [`MaskStream`] seed plus one body word
//! per row. Its `n`-word row masks are public uniform words, so every
//! keyswitch regenerates them instead of reading them from memory — 41 KB
//! of key at set II where the masked matrix is 25.8 MB.
//!
//! One **key-major, bucketed** core serves every entry point. It
//! decomposes each input's mask once, then walks the rows once,
//! generating a row's mask into one `n`-word buffer and adding it, with
//! the sign of the input's digit `d`, into that input's bucket `|d|`.
//! Balanced digits lie in `[−B/2, B/2)`, so there are `B/2` buckets per
//! input (four at set II's base 2³), and the output is
//! `(−Σ_m m·S_m, b − Σ d·body)`: a handful of row multiplies instead of
//! one per digit. Wrapping `u64` arithmetic is a ring, so this equals the
//! per-row sum `b − Σ d·row` bit for bit. A batch shares one walk, the
//! per-epoch streaming of the key the Strix keyswitch cluster performs.

use crate::decompose::DecompositionParams;
use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::params::TfheParameters;
use crate::profiler::{PbsStage, StageTimings};
use crate::rng::{MaskStream, NoiseSampler};
use crate::TfheError;

/// The keyswitching key: for every input-key bit `s'_j` and level
/// `lvl`, an LWE encryption of `s'_j · q/B_ks^{lvl+1}` under the output
/// key, held as the seed of its masks' [`MaskStream`] and its bodies.
/// Row `j * l_k + lvl`'s mask is the stream's `(j * l_k + lvl)`-th fill
/// of `n` words.
#[derive(Clone, Debug)]
pub struct KeySwitchKey {
    mask_seed: u64,
    /// `bodies[j * l_k + lvl]`.
    bodies: Vec<u64>,
    decomp: DecompositionParams,
    input_dimension: usize,
    output_dimension: usize,
}

impl KeySwitchKey {
    /// Generates a keyswitching key from `from_key` (dimension `k·N`)
    /// to `to_key` (dimension `n`). One draw from `rng` seeds the
    /// public mask stream; the noise comes from `rng` after it.
    pub fn generate(
        from_key: &LweSecretKey,
        to_key: &LweSecretKey,
        params: &TfheParameters,
        rng: &mut NoiseSampler,
    ) -> Self {
        let mask_seed = rng.uniform_torus();
        Self::with_mask_seed(from_key, to_key, params, mask_seed, rng)
    }

    /// As [`Self::generate`], with the mask stream's seed given — seeded
    /// transport derives it from the CRS seed, so the payload ships only
    /// [`Self::into_bodies`].
    pub(crate) fn with_mask_seed(
        from_key: &LweSecretKey,
        to_key: &LweSecretKey,
        params: &TfheParameters,
        mask_seed: u64,
        noise_rng: &mut NoiseSampler,
    ) -> Self {
        let decomp = DecompositionParams::new(params.ks_base_log, params.ks_level);
        let mut masks = MaskStream::from_seed(mask_seed);
        let mut mask = vec![0u64; to_key.dimension()];
        let mut bodies = Vec::with_capacity(from_key.dimension() * decomp.level);
        for &bit in from_key.bits() {
            for lvl in 1..=decomp.level {
                let pt = bit.wrapping_mul(decomp.gadget_scale(lvl));
                masks.fill(&mut mask);
                bodies.push(to_key.body_for_mask(&mask, pt, params.lwe_noise_std, noise_rng));
            }
        }
        Self {
            mask_seed,
            bodies,
            decomp,
            input_dimension: from_key.dimension(),
            output_dimension: to_key.dimension(),
        }
    }

    /// The key's bodies, `bodies[j * l_k + lvl]`: with the mask seed,
    /// the whole key.
    pub(crate) fn into_bodies(self) -> Vec<u64> {
        self.bodies
    }

    /// Rebuilds a key from its mask seed and bodies (seeded expansion).
    ///
    /// # Panics
    ///
    /// Panics if the body count is not `k·N · l_k` (transport payload
    /// invariant).
    pub(crate) fn from_bodies(bodies: Vec<u64>, mask_seed: u64, params: &TfheParameters) -> Self {
        let decomp = DecompositionParams::new(params.ks_base_log, params.ks_level);
        let input_dimension = params.extracted_lwe_dimension();
        assert_eq!(bodies.len(), input_dimension * decomp.level, "seeded ksk row count");
        Self { mask_seed, bodies, decomp, input_dimension, output_dimension: params.lwe_dimension }
    }

    /// Input dimension (`k·N`).
    #[inline]
    pub fn input_dimension(&self) -> usize {
        self.input_dimension
    }

    /// Output dimension (`n`).
    #[inline]
    pub fn output_dimension(&self) -> usize {
        self.output_dimension
    }

    /// The decomposition used on input mask elements.
    #[inline]
    pub fn decomposition(&self) -> DecompositionParams {
        self.decomp
    }

    /// Bytes the key holds: one body word per row plus the 8-byte mask
    /// seed. The masked matrix it stands for, which an accelerator
    /// streams, is [`TfheParameters::keyswitch_key_bytes`].
    pub fn byte_size(&self) -> usize {
        (self.bodies.len() + 1) * 8
    }

    /// Switches `ct` (dimension `k·N`) to the output key (dimension `n`).
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if `ct`'s dimension is
    /// not the key's input dimension.
    pub fn keyswitch(&self, ct: &LweCiphertext) -> Result<LweCiphertext, TfheError> {
        self.keyswitch_one(ct, None)
    }

    /// Switches a whole batch in one walk of the key — the batched
    /// counterpart the runtime executor pairs with
    /// [`crate::bootstrap::BootstrapKey::bootstrap_batch`] when an
    /// epoch's PBS outputs all return to the original key: each row's
    /// mask is generated once and added into every input's buckets.
    /// Outputs are in input order and bit-identical to
    /// [`Self::keyswitch`] per input. Accepts owned or borrowed inputs
    /// (`&[LweCiphertext]` or `&[&LweCiphertext]`), so callers holding
    /// ciphertexts inside request structures can batch without cloning.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if any input's
    /// dimension is not the key's input dimension.
    pub fn keyswitch_batch<C: AsRef<LweCiphertext>>(
        &self,
        cts: &[C],
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        self.keyswitch_core(cts, None)
    }

    /// Parallel batched keyswitch: splits `cts` into `threads`
    /// contiguous shards and runs each through
    /// [`Self::keyswitch_batch`] on its own [`std::thread::scope`]
    /// worker (each shard walks the key once), all sharing this key.
    /// The Algorithm-2 tail of an epoch thereby scales with the same
    /// thread budget as the blind rotation
    /// ([`crate::bootstrap::BootstrapKey::bootstrap_batch_parallel`]).
    ///
    /// Results come back **in input order** and are **bit-identical**
    /// to the sequential path — each keyswitch depends only on its own
    /// ciphertext, so sharding cannot change a single output word.
    ///
    /// `threads` is clamped to `[1, cts.len()]`; `threads <= 1` runs
    /// sequentially on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] if any input's
    /// dimension is not the key's input dimension (validated up front,
    /// before any thread is spawned).
    pub fn keyswitch_batch_parallel<C: AsRef<LweCiphertext> + Sync>(
        &self,
        cts: &[C],
        threads: usize,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        self.check_dimensions(cts)?;
        let threads = threads.max(1).min(cts.len());
        if threads <= 1 {
            return self.keyswitch_batch(cts);
        }
        // Balanced contiguous shards, mirroring the PBS sharding: the
        // first `cts % threads` shards take one extra ciphertext, and
        // contiguity preserves input order across the concatenation.
        let base = cts.len() / threads;
        let extra = cts.len() % threads;
        let shards: Vec<Result<Vec<LweCiphertext>, TfheError>> = std::thread::scope(|scope| {
            let mut start = 0;
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let len = base + usize::from(i < extra);
                    let shard = &cts[start..start + len];
                    start += len;
                    scope.spawn(move || self.keyswitch_batch(shard))
                })
                .collect();
            handles
                .into_iter()
                // lint:allow(panic) a worker panic is propagated, not swallowed
                .map(|h| h.join().expect("keyswitch shard worker panicked"))
                .collect()
        });
        let mut out = Vec::with_capacity(cts.len());
        for shard in shards {
            out.extend(shard?);
        }
        Ok(out)
    }

    /// Profiled variant of [`Self::keyswitch`].
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::ParameterMismatch`] on dimension mismatch.
    pub fn keyswitch_profiled(
        &self,
        ct: &LweCiphertext,
        timings: &mut StageTimings,
    ) -> Result<LweCiphertext, TfheError> {
        self.keyswitch_one(ct, Some(timings))
    }

    fn keyswitch_one(
        &self,
        ct: &LweCiphertext,
        timings: Option<&mut StageTimings>,
    ) -> Result<LweCiphertext, TfheError> {
        let mut out = self.keyswitch_core(std::slice::from_ref(ct), timings)?;
        // lint:allow(panic) the core returns one output per input
        Ok(out.pop().expect("one input, one output"))
    }

    fn check_dimensions<C: AsRef<LweCiphertext>>(&self, cts: &[C]) -> Result<(), TfheError> {
        match cts.iter().find(|ct| ct.as_ref().dimension() != self.input_dimension) {
            Some(ct) => Err(TfheError::ParameterMismatch {
                what: "lwe dimension",
                left: ct.as_ref().dimension(),
                right: self.input_dimension,
            }),
            None => Ok(()),
        }
    }

    /// The one key-major, bucketed keyswitch (see the module docs).
    fn keyswitch_core<C: AsRef<LweCiphertext>>(
        &self,
        cts: &[C],
        timings: Option<&mut StageTimings>,
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        self.check_dimensions(cts)?;
        if cts.is_empty() {
            return Ok(Vec::new());
        }
        let t0 = std::time::Instant::now();
        let (n, level, batch) = (self.output_dimension, self.decomp.level, cts.len());
        // Balanced digits lie in [−B/2, B/2): bucket |d| − 1 of B/2.
        let buckets_per_ct = 1usize << (self.decomp.base_log - 1);
        let stride = buckets_per_ct * n;
        // Scratch for the whole walk, reused across every row and input:
        // every input's digits, row-major (`digits[row * batch + c]`), so
        // a row reads its batch's digits contiguously.
        let mut digits = vec![0i64; self.bodies.len() * batch];
        let mut element_digits = vec![0i64; level];
        let decomposer = self.decomp.decomposer();
        for (c, ct) in cts.iter().enumerate() {
            for (j, &a) in ct.as_ref().mask().iter().enumerate() {
                decomposer.decompose_into(a, &mut element_digits);
                for (lvl, &d) in element_digits.iter().enumerate() {
                    digits[(j * level + lvl) * batch + c] = d;
                }
            }
        }
        let mut buckets = vec![0u64; batch * stride];
        let mut body_sums = vec![0u64; batch];
        let mut mask = vec![0u64; n];
        let mut stream = MaskStream::from_seed(self.mask_seed);
        // lint:hot-path-start
        for (&body, row_digits) in self.bodies.iter().zip(digits.chunks_exact(batch)) {
            // Every row advances the stream, whether or not a digit uses it.
            stream.fill(&mut mask);
            for ((&d, sum), ct_buckets) in
                row_digits.iter().zip(&mut body_sums).zip(buckets.chunks_exact_mut(stride))
            {
                if d == 0 {
                    continue;
                }
                *sum = sum.wrapping_add((d as u64).wrapping_mul(body));
                let bucket = &mut ct_buckets[(d.unsigned_abs() as usize - 1) * n..][..n];
                if d > 0 {
                    for (s, &m) in bucket.iter_mut().zip(&mask) {
                        *s = s.wrapping_add(m);
                    }
                } else {
                    for (s, &m) in bucket.iter_mut().zip(&mask) {
                        *s = s.wrapping_sub(m);
                    }
                }
            }
        }
        // lint:hot-path-end
        let out = cts
            .iter()
            .zip(buckets.chunks_exact(stride))
            .zip(&body_sums)
            .map(|((ct, ct_buckets), &sum)| {
                // o = (−Σ_m m·S_m, b − Σ d·body)
                let mut data = vec![0u64; n + 1];
                for (m, bucket) in (1u64..).zip(ct_buckets.chunks_exact(n)) {
                    for (o, &s) in data.iter_mut().zip(bucket) {
                        *o = o.wrapping_sub(m.wrapping_mul(s));
                    }
                }
                data[n] = ct.as_ref().body().wrapping_sub(sum);
                LweCiphertext::from_raw(data)
            })
            .collect();
        if let Some(t) = timings {
            t.add(PbsStage::KeySwitch, t0.elapsed());
        }
        Ok(out)
    }

    /// The key rows `rows[j * l_k + lvl]`, masks regenerated from the
    /// stream (key-material digests and the row oracle).
    #[cfg(test)]
    pub(crate) fn rows(&self) -> Vec<LweCiphertext> {
        let n = self.output_dimension;
        let mut stream = MaskStream::from_seed(self.mask_seed);
        self.bodies
            .iter()
            .map(|&body| {
                let mut data = vec![0u64; n + 1];
                stream.fill(&mut data[..n]);
                data[n] = body;
                LweCiphertext::from_raw(data)
            })
            .collect()
    }

    /// The row-by-row oracle the bucketed core must equal bit for bit:
    /// materialises the rows and runs `o −= d·row` for every digit.
    #[cfg(test)]
    pub(crate) fn keyswitch_reference(
        &self,
        ct: &LweCiphertext,
    ) -> Result<LweCiphertext, TfheError> {
        self.check_dimensions(std::slice::from_ref(ct))?;
        let rows = self.rows();
        let mut digits = vec![0i64; self.decomp.level];
        let mut out = vec![0u64; self.output_dimension + 1];
        out[self.output_dimension] = ct.body();
        for (rows_j, &a) in rows.chunks_exact(self.decomp.level).zip(ct.mask()) {
            self.decomp.decompose_into(a, &mut digits);
            for (&d, row) in digits.iter().zip(rows_j) {
                let d = d as u64;
                for (o, &r) in out.iter_mut().zip(row.as_raw()) {
                    *o = o.wrapping_sub(d.wrapping_mul(r));
                }
            }
        }
        Ok(LweCiphertext::from_raw(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::{decode_message, encode_fraction};

    fn fixture() -> (LweSecretKey, LweSecretKey, KeySwitchKey, NoiseSampler, TfheParameters) {
        let mut params = TfheParameters::testing_fast();
        params.ks_base_log = 4;
        params.ks_level = 8;
        let mut rng = NoiseSampler::from_seed(31337);
        let big = LweSecretKey::generate(256, &mut rng);
        let small = LweSecretKey::generate(params.lwe_dimension, &mut rng);
        let ksk = KeySwitchKey::generate(&big, &small, &params, &mut rng);
        (big, small, ksk, rng, params)
    }

    #[test]
    fn keyswitch_preserves_message() {
        let (big, small, ksk, mut rng, params) = fixture();
        for m in 0..8u64 {
            let pt = encode_fraction(m as i64, 3);
            let ct = big.encrypt(pt, params.lwe_noise_std, &mut rng);
            let switched = ksk.keyswitch(&ct).unwrap();
            assert_eq!(switched.dimension(), small.dimension());
            let phase = small.decrypt_phase(&switched).unwrap();
            assert_eq!(decode_message(phase, 3), m, "m={m}");
        }
    }

    #[test]
    fn keyswitch_is_linear() {
        let (big, small, ksk, mut rng, params) = fixture();
        let c1 = big.encrypt(encode_fraction(1, 3), params.lwe_noise_std, &mut rng);
        let c2 = big.encrypt(encode_fraction(2, 3), params.lwe_noise_std, &mut rng);
        let mut sum = c1.clone();
        sum.add_assign(&c2).unwrap();
        let switched_sum = ksk.keyswitch(&sum).unwrap();
        let phase = small.decrypt_phase(&switched_sum).unwrap();
        assert_eq!(decode_message(phase, 3), 3);
    }

    #[test]
    fn batched_keyswitch_matches_single_per_input() {
        let (big, _, ksk, mut rng, params) = fixture();
        let cts: Vec<LweCiphertext> = (0..5i64)
            .map(|m| big.encrypt(encode_fraction(m, 3), params.lwe_noise_std, &mut rng))
            .collect();
        let batched = ksk.keyswitch_batch(&cts).unwrap();
        for (ct, out) in cts.iter().zip(&batched) {
            assert_eq!(out, &ksk.keyswitch(ct).unwrap());
        }
        assert!(ksk.keyswitch_batch(&[] as &[LweCiphertext]).unwrap().is_empty());
        let bad = LweCiphertext::trivial(3, 0);
        assert!(ksk.keyswitch_batch(&[bad]).is_err());
    }

    #[test]
    fn parallel_keyswitch_is_bit_identical_to_sequential() {
        let (big, _, ksk, mut rng, params) = fixture();
        // 7 inputs: does not divide evenly by 2..6 threads.
        let cts: Vec<LweCiphertext> = (0..7i64)
            .map(|m| big.encrypt(encode_fraction(m % 8, 3), params.lwe_noise_std, &mut rng))
            .collect();
        let sequential = ksk.keyswitch_batch(&cts).unwrap();
        for threads in 1..=8 {
            let parallel = ksk.keyswitch_batch_parallel(&cts, threads).unwrap();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        // Degenerate thread counts are clamped, not errors.
        assert_eq!(ksk.keyswitch_batch_parallel(&cts, 0).unwrap(), sequential);
        assert_eq!(ksk.keyswitch_batch_parallel(&cts, 100).unwrap(), sequential);
        assert!(ksk.keyswitch_batch_parallel(&[] as &[LweCiphertext], 4).unwrap().is_empty());
        // Borrowed inputs batch without cloning and agree with owned.
        let refs: Vec<&LweCiphertext> = cts.iter().collect();
        assert_eq!(ksk.keyswitch_batch_parallel(&refs, 3).unwrap(), sequential);
    }

    #[test]
    fn parallel_keyswitch_rejects_mismatch_before_spawning() {
        let (big, _, ksk, mut rng, params) = fixture();
        let good = big.encrypt(0, params.lwe_noise_std, &mut rng);
        let bad = LweCiphertext::trivial(3, 0);
        assert!(ksk.keyswitch_batch_parallel(&[good, bad], 2).is_err());
    }

    #[test]
    fn dimensions_and_size() {
        let (_, _, ksk, _, params) = fixture();
        assert_eq!(ksk.input_dimension(), 256);
        assert_eq!(ksk.output_dimension(), params.lwe_dimension);
        assert_eq!(ksk.byte_size(), (256 * params.ks_level + 1) * 8);
    }

    #[test]
    fn wrong_dimension_is_an_error() {
        let (_, _, ksk, _, _) = fixture();
        let ct = LweCiphertext::trivial(100, 0);
        assert!(matches!(
            ksk.keyswitch(&ct),
            Err(TfheError::ParameterMismatch { what: "lwe dimension", .. })
        ));
    }

    #[test]
    fn trivial_input_switches_exactly() {
        // A trivial ciphertext has zero mask: keyswitching must return
        // the body untouched (no decomposition work at all).
        let (_, small, ksk, _, _) = fixture();
        let pt = encode_fraction(5, 3);
        let ct = LweCiphertext::trivial(256, pt);
        let switched = ksk.keyswitch(&ct).unwrap();
        assert_eq!(small.decrypt_phase(&switched).unwrap(), pt);
    }

    #[test]
    fn profiled_keyswitch_records_time() {
        let (big, _, ksk, mut rng, params) = fixture();
        let ct = big.encrypt(0, params.lwe_noise_std, &mut rng);
        let mut t = StageTimings::new();
        let _ = ksk.keyswitch_profiled(&ct, &mut t).unwrap();
        assert!(t.total_for(PbsStage::KeySwitch) > std::time::Duration::ZERO);
    }

    /// A key at set II's keyswitch base, 2³ × 5 levels: balanced digits
    /// in [−4, 3], four buckets per input.
    fn base8_key() -> KeySwitchKey {
        let mut params = TfheParameters::testing_fast();
        params.ks_base_log = 3;
        params.ks_level = 5;
        let mut rng = NoiseSampler::from_seed(4242);
        let big = LweSecretKey::generate(256, &mut rng);
        let small = LweSecretKey::generate(params.lwe_dimension, &mut rng);
        KeySwitchKey::generate(&big, &small, &params, &mut rng)
    }

    #[test]
    fn edge_digits_reach_both_ends_of_the_balanced_range() {
        // 3 · q/8 decomposes to a top digit of 3; 4 · q/8 to −4 (its
        // carry out of the top level vanishes on the torus).
        let ksk = base8_key();
        let decomp = ksk.decomposition();
        assert_eq!(decomp.decompose(3 << 61)[0], 3);
        assert_eq!(decomp.decompose(4 << 61)[0], -4);
        // Every level at 3: 0b011 in each 3-bit digit. Every level at
        // −4: 0b100 in the lowest digit, whose carry turns each 0b011
        // above it into 0b100 in turn.
        let all_three = (0..5).fold(0u64, |w, lvl| w | 3 << (61 - 3 * lvl));
        let all_minus4 = all_three + (1 << 49);
        assert!(decomp.decompose(all_three).iter().all(|&d| d == 3));
        assert!(decomp.decompose(all_minus4).iter().all(|&d| d == -4));
        let mut mask = vec![0u64; 256];
        for (i, a) in mask.iter_mut().enumerate() {
            *a = [all_minus4, all_three, 3 << 61, 4 << 61][i % 4];
        }
        mask.push(0x1234_5678);
        let ct = LweCiphertext::from_raw(mask);
        assert_eq!(ksk.keyswitch(&ct).unwrap(), ksk.keyswitch_reference(&ct).unwrap());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// The bucketed, key-major core equals the row-by-row oracle bit
        /// for bit, on every entry point: a trivial input (every digit
        /// zero), edge-digit words, random words, batches that do and do
        /// not fill a block of 8, and 1–3 parallel shards.
        #[test]
        fn bucketed_core_equals_row_reference(
            words in proptest::prop::collection::vec(proptest::any::<u64>(), 257 * 17),
            batch in proptest::prop::sample::select(vec![1usize, 2, 7, 8, 9, 17]),
        ) {
            let ksk = base8_key();
            let mut cts: Vec<LweCiphertext> = words
                .chunks_exact(257)
                .take(batch)
                .enumerate()
                .map(|(c, w)| {
                    let mut w = w.to_vec();
                    if c == 1 {
                        w[..4].copy_from_slice(&[3 << 61, 4 << 61, u64::MAX, 1 << 63]);
                    }
                    LweCiphertext::from_raw(w)
                })
                .collect();
            cts[0] = LweCiphertext::trivial(256, words[0]);
            let reference: Vec<LweCiphertext> =
                cts.iter().map(|ct| ksk.keyswitch_reference(ct).unwrap()).collect();
            proptest::prop_assert_eq!(&ksk.keyswitch_batch(&cts).unwrap(), &reference);
            for threads in 1..=3 {
                proptest::prop_assert_eq!(
                    &ksk.keyswitch_batch_parallel(&cts, threads).unwrap(),
                    &reference,
                    "threads={}",
                    threads
                );
            }
            let single = ksk.keyswitch(&cts[batch - 1]).unwrap();
            proptest::prop_assert_eq!(&single, &reference[batch - 1]);
            let mut t = StageTimings::new();
            let profiled = ksk.keyswitch_profiled(&cts[0], &mut t).unwrap();
            proptest::prop_assert_eq!(&profiled, &reference[0]);
        }
    }
}
