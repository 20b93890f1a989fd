//! `pbs_batch`: the paper's headline (PBS/s and ms/PBS) with the
//! runtime bypassed. Closed loop, one thread, real set-II classical
//! keys, a 3-bit LUT on dense-mask ciphertexts: batches of eight through
//! `bootstrap_batch` + `keyswitch_batch` and single `bootstrap` +
//! `keyswitch` calls, turn and turn about. FFT is about 64 % of the
//! work here and VMA about 21 %, so kernel work shows and runtime work
//! must not; batch-of-8 and batch-of-1 use the same kernel differently,
//! so a batching trick that costs single-PBS latency shows too.

use std::time::{Duration, Instant};

use strix_tfhe::bootstrap::{Lut, PbsJob};
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::{ClientKey, ServerKey, TfheParameters};

use super::{
    decrypt_message, keygen, lut_function, message_lut, ms, overhead_pct, Ctx, Outcome, EPOCH,
};
use crate::gen::{derive, messages, Rng};
use crate::probes;
use crate::spans::Recorder;
use crate::stats::median;

/// Distinct input ciphertexts the legs cycle through.
const POOL: usize = 64;
/// Single calls after each batch of eight: about as long as the batch,
/// so a 20-second run holds about sixty batches behind the rate's
/// median and about 370 single calls behind their p95.
const SINGLES_PER_BATCH: usize = 6;

struct Fixture {
    client: ClientKey,
    server: ServerKey,
    lut: Lut,
    messages: Vec<u64>,
    inputs: Vec<LweCiphertext>,
}

struct Legs {
    pbs_per_s: f64,
    epoch_ms: Vec<f64>,
    single_ms: Vec<f64>,
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let params = ctx.params(TfheParameters::set_ii());
    let mut out = Outcome::new(params.clone());

    let repeats = if ctx.traced { 1 } else { 3 };
    let (mut client, server, keygen_s) =
        keygen(&params, derive(ctx.seed, "pbs_batch.key"), repeats);
    let lut = message_lut(&params);
    let messages = messages(&mut Rng::new(ctx.seed, "pbs_batch.inputs"), POOL, super::MESSAGE_BITS);
    let inputs = messages
        .iter()
        .map(|&m| {
            let ct = client.encrypt_shortint(m, super::MESSAGE_BITS).expect("message in range");
            ct.as_lwe().clone()
        })
        .collect();
    let fx = Fixture { client, server, lut, messages, inputs };

    // Warm-up: one checked epoch, so caches and lazy set-up are paid
    // before anything is timed.
    let mut off = Recorder::new(false);
    let warm_s: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            epoch(&fx, 0, &mut out, &mut off);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let setup_s = median(&keygen_s) + median(&warm_s);

    if !ctx.traced {
        let legs = legs(&fx, ctx.leg(1.0), &mut out, &mut ctx.rec);
        out.end_to_end(legs.pbs_per_s, &legs.single_ms, setup_s);
        out.timing("pbs_batch.single_ms", "ms", &legs.single_ms, 0.95);
        out.timing("pbs_batch.epoch_ms", "ms", &legs.epoch_ms, 0.5);
        return out;
    }

    out.set("tfhe.keygen_s", median(&keygen_s));
    probes::fft(&mut out, &mut ctx.rec);
    let cost = probes::tfhe_kernel(&mut out, &mut ctx.rec, &fx.server, &fx.inputs, &fx.lut, true);
    let key_bytes = out.metrics["tfhe.key_bytes_per_pbs"];
    probes::host(&mut out, &mut ctx.rec, key_bytes, ctx.smoke);
    probes::core(&mut out, &mut ctx.rec);
    out.notes.push(format!(
        "tfhe probe: {:.3} ms/PBS at batch {EPOCH}, keyswitch {:.1} us",
        cost.pbs_ms, cost.keyswitch_us
    ));

    // The workload itself at one-third length with spans on, then once
    // more with spans off: the difference is what tracing costs.
    let traced = legs(&fx, ctx.leg(1.0 / 3.0), &mut out, &mut ctx.rec);
    ctx.rec.set_enabled(false);
    let untraced = legs(&fx, ctx.leg(1.0 / 3.0), &mut out, &mut ctx.rec);
    ctx.rec.set_enabled(true);
    out.set("bench.trace_overhead_pct", overhead_pct(untraced.pbs_per_s, traced.pbs_per_s));
    out.timing("pbs_batch.single_ms", "ms", &traced.single_ms, 0.5);
    out
}

/// One batch of eight through PBS and keyswitch; returns the seconds
/// the two calls took. Outputs are decrypted and checked outside the
/// timed interval.
fn epoch(fx: &Fixture, cursor: usize, out: &mut Outcome, rec: &mut Recorder) -> Duration {
    let picks: Vec<usize> = (0..EPOCH).map(|i| (cursor + i) % POOL).collect();
    let jobs: Vec<PbsJob<'_>> =
        picks.iter().map(|&i| PbsJob { ct: &fx.inputs[i], lut: &fx.lut }).collect();
    let span = rec.enter("pbs_batch.epoch");
    let t = Instant::now();
    let inner = rec.enter("tfhe.bootstrap_batch");
    let extracted = fx.server.bootstrap_key().bootstrap_batch(&jobs);
    rec.exit(inner);
    let inner = rec.enter("tfhe.keyswitch_batch");
    let switched = extracted.and_then(|big| fx.server.keyswitch_key().keyswitch_batch(&big));
    rec.exit(inner);
    let took = t.elapsed();
    rec.exit(span);
    rec.count("tfhe.pbs", EPOCH as u64);
    match switched {
        Ok(results) => {
            for (&i, ct) in picks.iter().zip(&results) {
                out.check(decrypt_message(&fx.client, ct) == Some(lut_function(fx.messages[i])));
            }
        }
        Err(_) => (0..EPOCH).for_each(|_| out.check(false)),
    }
    took
}

fn single(fx: &Fixture, i: usize, out: &mut Outcome, rec: &mut Recorder) -> Duration {
    let span = rec.enter("pbs_batch.single");
    let t = Instant::now();
    let inner = rec.enter("tfhe.bootstrap");
    let extracted = fx.server.bootstrap_key().bootstrap(&fx.inputs[i], &fx.lut);
    rec.exit(inner);
    let inner = rec.enter("tfhe.keyswitch");
    let switched = extracted.and_then(|big| fx.server.keyswitch_key().keyswitch(&big));
    rec.exit(inner);
    let took = t.elapsed();
    rec.exit(span);
    rec.count("tfhe.pbs", 1);
    let ok = switched
        .is_ok_and(|ct| decrypt_message(&fx.client, &ct) == Some(lut_function(fx.messages[i])));
    out.check(ok);
    took
}

/// Batches of eight and single calls turn and turn about for
/// `duration`, so that both see the whole of it.
fn legs(fx: &Fixture, duration: Duration, out: &mut Outcome, rec: &mut Recorder) -> Legs {
    let root = rec.enter("pbs_batch.legs");
    let start = Instant::now();
    let (mut epoch_ms, mut single_ms) = (Vec::new(), Vec::new());
    while start.elapsed() < duration {
        epoch_ms.push(ms(epoch(fx, epoch_ms.len() * EPOCH, out, rec)));
        for _ in 0..SINGLES_PER_BATCH {
            single_ms.push(ms(single(fx, single_ms.len() % POOL, out, rec)));
        }
    }
    rec.exit(root);
    // The median epoch, not the mean: a burst of host noise inside the
    // run slows a few epochs and must not move the rate.
    Legs { pbs_per_s: EPOCH as f64 * 1e3 / median(&epoch_ms), epoch_ms, single_ms }
}
