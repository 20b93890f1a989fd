//! Batch independence of the split-complex (SoA) batched transforms,
//! and bit-exactness of the split VMA.
//!
//! Batching changes the *loop schedule only*: every butterfly stage
//! runs across the whole batch before the next starts, but each
//! transform computes the same IEEE expressions in the same order as
//! in a batch of one. A transform must therefore give the same bits
//! alone and at any position of any batch, not just agree within
//! rounding tolerance — the blocked PBS engine, which transforms a
//! whole job's digits at once, and the per-job classical reference,
//! which is pinned to it bit for bit, rely on that.

use strix_fft::{
    pointwise_mul_add_key, pointwise_mul_add_soa, Complex64, NegacyclicFft, SoaSpectrum,
    SpectralPlan,
};

/// Deterministic pseudo-random f64 stream (splitmix64 → [-1, 1) keeps
/// the values un-round, so equality failures can't hide in zeros).
fn noise(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect()
}

fn noise_complex(seed: u64, len: usize) -> Vec<Complex64> {
    let re = noise(seed, len);
    let im = noise(seed ^ 0xdead_beef, len);
    re.into_iter().zip(im).map(|(r, i)| Complex64::new(r, i)).collect()
}

fn noise_i64(seed: u64, len: usize) -> Vec<i64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            ((state >> 17) as i64 % 1024) - 512
        })
        .collect()
}

/// The bits of one transform's planes, so `-0.0` and `0.0` differ.
fn bits((re, im): (&[f64], &[f64])) -> Vec<u64> {
    re.iter().chain(im).map(|x| x.to_bits()).collect()
}

/// A batch holding `planes[t]` at position `t`.
fn batch_of(planes: &[(Vec<f64>, Vec<f64>)]) -> SoaSpectrum {
    let mut batch = SoaSpectrum::new(planes.len(), planes[0].0.len());
    for (t, (re, im)) in planes.iter().enumerate() {
        let (r, i) = batch.transform_mut(t);
        r.copy_from_slice(re);
        i.copy_from_slice(im);
    }
    batch
}

/// `count` transforms of length `n` with un-round planes.
fn planes_of(seed: u64, count: usize, n: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
    (0..count as u64).map(|t| (noise(seed + t, n), noise(!(seed + t), n))).collect()
}

/// Runs `transform` on the whole batch of `planes` and on each of
/// them alone (a batch of one), and asserts the bits agree at every
/// position. A transform that read a neighbour's planes, or a stage
/// loop that depended on the batch, shows up here.
fn assert_batch_matches_looped_singles(
    planes: &[(Vec<f64>, Vec<f64>)],
    at: &str,
    transform: impl Fn(&mut SoaSpectrum),
) {
    let mut batch = batch_of(planes);
    transform(&mut batch);
    for (t, one) in planes.chunks(1).enumerate() {
        let mut single = batch_of(one);
        transform(&mut single);
        assert_eq!(bits(single.transform(0)), bits(batch.transform(t)), "{at} t={t}");
    }
}

/// Complex sizes `n = 2^0 … 2^11` cover both first-stage radices and
/// the stage-less `n = 1`.
#[test]
fn forward_many_is_bit_exact_vs_looped_single_transforms() {
    for log_n in 0..=11 {
        let n = 1usize << log_n;
        let plan = SpectralPlan::new(n).unwrap();
        for count in [1usize, 2, 3, 6] {
            let planes = planes_of(7 + (n + count) as u64, count, n);
            assert_batch_matches_looped_singles(&planes, &format!("n={n} count={count}"), |b| {
                plan.forward_many(b).unwrap()
            });
        }
    }
}

#[test]
fn inverse_many_is_bit_exact_vs_looped_single_transforms() {
    for log_n in 0..=11 {
        let n = 1usize << log_n;
        let plan = SpectralPlan::new(n).unwrap();
        for count in [2usize, 3, 6] {
            let planes = planes_of(31 + (n + count) as u64, count, n);
            let at = format!("n={n} count={count}");
            assert_batch_matches_looped_singles(&planes, &format!("unnormalized {at}"), |b| {
                plan.inverse_many_unnormalized(b).unwrap()
            });
            assert_batch_matches_looped_singles(&planes, &format!("normalized {at}"), |b| {
                plan.inverse_many(b).unwrap()
            });
        }
    }
}

#[test]
fn negacyclic_forward_many_is_bit_exact_vs_looped_forward_i64() {
    // Covers both first-stage radices (log2(N/2) even and odd) and the
    // digit-batch shapes of the CMUX: (k+1)·l ∈ {4, 6, 9}.
    for n in [2usize, 4, 8, 64, 256, 512, 1024, 2048] {
        let fft = NegacyclicFft::new(n).unwrap();
        let half = fft.fourier_size();
        for count in [1usize, 4, 6, 9] {
            let polys = noise_i64(n as u64 * 1001 + count as u64, n * count);
            let mut batch = SoaSpectrum::new(count, half);
            fft.forward_i64_many(&polys, &mut batch).unwrap();

            let mut single = SoaSpectrum::new(1, half);
            for (t, poly) in polys.chunks_exact(n).enumerate() {
                fft.forward_i64_many(poly, &mut single).unwrap();
                assert_eq!(
                    bits(single.transform(0)),
                    bits(batch.transform(t)),
                    "n={n} count={count} t={t}"
                );
            }
        }
    }
}

#[test]
fn negacyclic_backward_many_is_bit_exact_vs_looped_backward_f64() {
    for n in [2usize, 8, 256, 512, 1024, 2048] {
        let fft = NegacyclicFft::new(n).unwrap();
        let half = fft.fourier_size();
        for count in [2usize, 3, 6] {
            let planes = planes_of(n as u64 * 7 + count as u64, count, half);
            let mut out = vec![0.0f64; n * count];
            fft.backward_f64_many(&mut batch_of(&planes), &mut out).unwrap();

            let mut single = vec![0.0f64; n];
            for (t, one) in planes.chunks(1).enumerate() {
                fft.backward_f64_many(&mut batch_of(one), &mut single).unwrap();
                let want = &out[t * n..(t + 1) * n];
                assert_eq!(bits((&single, &[])), bits((want, &[])), "n={n} count={count} t={t}");
            }
        }
    }
}

#[test]
fn soa_round_trip_recovers_polynomials() {
    let n = 512;
    let fft = NegacyclicFft::new(n).unwrap();
    let count = 5;
    let polys = noise_i64(99, n * count);
    let mut batch = SoaSpectrum::new(count, fft.fourier_size());
    fft.forward_i64_many(&polys, &mut batch).unwrap();
    let mut out = vec![0.0f64; n * count];
    fft.backward_f64_many(&mut batch, &mut out).unwrap();
    for (o, &p) in out.iter().zip(&polys) {
        assert!((o - p as f64).abs() < 1e-6, "{o} vs {p}");
    }
}

#[test]
fn split_vma_kernels_are_bit_exact_vs_interleaved() {
    let n = 512;
    let a = noise_complex(1, n);
    let b = noise_complex(2, n);
    let acc0 = noise_complex(3, n);

    // Interleaved scalar oracle: `Complex64` multiply, then add.
    let mut acc = acc0.clone();
    for ((s, x), y) in acc.iter_mut().zip(&a).zip(&b) {
        *s += *x * *y;
    }

    // Mixed layout: interleaved accumulator/digits, split key.
    let b_re: Vec<f64> = b.iter().map(|z| z.re).collect();
    let b_im: Vec<f64> = b.iter().map(|z| z.im).collect();
    let mut acc_key = acc0.clone();
    pointwise_mul_add_key(&mut acc_key, &a, &b_re, &b_im);
    assert_eq!(acc_key, acc);

    // Fully split four-array kernel.
    let a_re: Vec<f64> = a.iter().map(|z| z.re).collect();
    let a_im: Vec<f64> = a.iter().map(|z| z.im).collect();
    let mut acc_re: Vec<f64> = acc0.iter().map(|z| z.re).collect();
    let mut acc_im: Vec<f64> = acc0.iter().map(|z| z.im).collect();
    pointwise_mul_add_soa(&mut acc_re, &mut acc_im, &a_re, &a_im, &b_re, &b_im);
    for j in 0..n {
        assert_eq!(acc_re[j], acc[j].re, "re j={j}");
        assert_eq!(acc_im[j], acc[j].im, "im j={j}");
    }
}

#[test]
fn batched_entry_points_report_length_mismatches() {
    let plan = SpectralPlan::new(8).unwrap();
    let mut wrong = SoaSpectrum::new(2, 4);
    assert!(plan.forward_many(&mut wrong).is_err());
    assert!(plan.inverse_many(&mut wrong).is_err());

    let fft = NegacyclicFft::new(8).unwrap();
    let mut batch = SoaSpectrum::new(2, 4);
    // Wrong time-domain length for the batch count.
    assert!(fft.forward_i64_many(&[0i64; 8], &mut batch).is_err());
    assert!(fft.backward_f64_many(&mut batch, &mut [0.0; 8]).is_err());
    // Wrong transform length.
    let mut wrong = SoaSpectrum::new(2, 8);
    assert!(fft.forward_i64_many(&[0i64; 16], &mut wrong).is_err());
}
