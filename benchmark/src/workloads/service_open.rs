//! `service_open`: independent users, so an open loop. A closed flood
//! leg measures capacity through the runtime (full epochs); Poisson
//! arrivals at fixed absolute rates measure latency from each request's
//! *due* time (deadline-flushed partial epochs at the low rates, a
//! growing queue at the top one). The untraced run offers 16 PBS/s; the
//! traced run climbs the ladder 24 / 36 / 48 / 60. Every open-loop leg
//! replays one fixed arrival trace from where the seed says; keys,
//! messages and encryption noise come from the seed. Set-II classical,
//! real keys, `Runtime::start_tfhe`, geometry 2x4, `max_delay` 40 ms,
//! production telemetry defaults, `RequestOp::Lut(sign)`. The registry
//! is bypassed entirely.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use strix_runtime::request::{ClientId, Request};
use strix_runtime::{
    BatchExecutor, RequestOp, Runtime, RuntimeError, RuntimeReport, SpanId, TfheExecutor,
};
use strix_tfhe::bootstrap::{decode_bool, Lut};
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::torus::encode_fraction;
use strix_tfhe::{ClientKey, ServerKey, TfheParameters};

use super::{
    attribution_ms, keygen, ms, overhead_pct, runtime_config, Ctx, Outcome, EPOCH, RUNG_RATES,
    SLO_BACKLOG_EPOCHS, SLO_P95_MS,
};
use crate::gen::{derive, replay_schedule, Rng};
use crate::probes::{self, time_per_call};
use crate::spans::Recorder;
use crate::stats::{mean, median, percentile_of};

const MAX_DELAY_MS: u64 = 40;
/// Requests the flood leg keeps outstanding: three epochs, so the
/// batcher always has a full one to flush.
const FLOOD_WINDOW: u64 = 3 * EPOCH as u64;
/// Share of the untraced run spent on the flood leg; the rest is the
/// open loop at [`LIGHT_RATE`].
const FLOOD_SHARE: f64 = 0.2;
/// Offered rate of the untraced run's open loop, about 0.31 of
/// capacity. A batch's service time grows with what arrived during the
/// batch before it, so a host that runs x % slower moves the latencies
/// by about x / (1 - load)^2 %: four times x at 24 PBS/s, twice x here.
/// This host's speed drifts by a few per cent from run to run; the p95
/// of one program on one schedule spread 12 % over ten runs at 24 PBS/s
/// and 6 % at 16, run turn and turn about. The ladder of the traced run
/// starts at 24.
pub const LIGHT_RATE: f64 = 16.0;

struct Fixture {
    client: ClientKey,
    server: Arc<ServerKey>,
    sign: Arc<Lut>,
}

impl Fixture {
    fn start(&self, telemetry: bool) -> Runtime {
        Runtime::start_tfhe(runtime_config(MAX_DELAY_MS, telemetry), Arc::clone(&self.server))
    }

    fn encrypt(&mut self, bit: bool) -> LweCiphertext {
        self.client.encrypt_bool(bit).into_lwe()
    }

    fn check(&self, result: Result<LweCiphertext, RuntimeError>, bit: bool) -> bool {
        result.is_ok_and(|ct| self.client.decrypt_phase(&ct).is_ok_and(|p| decode_bool(p) == bit))
    }
}

/// A fresh runtime that has served one checked epoch.
fn start_warm(fx: &mut Fixture, telemetry: bool, out: &mut Outcome) -> Runtime {
    let rt = fx.start(telemetry);
    let mut handle = rt.client();
    let bits: Vec<bool> = (0..EPOCH).map(|i| i % 3 == 0).collect();
    for &bit in &bits {
        let ct = fx.encrypt(bit);
        if handle.submit(ct, RequestOp::Lut(Arc::clone(&fx.sign))).is_err() {
            out.check(false);
        }
    }
    for &bit in &bits {
        let ok = handle.recv().is_ok_and(|r| fx.check(r.result, bit));
        out.check(ok);
    }
    drop(handle);
    rt
}

struct Flood {
    pbs_per_s: f64,
    report: RuntimeReport,
}

/// Closed flood: keep [`FLOOD_WINDOW`] requests outstanding for
/// `duration`, then drain. Every epoch is full, so each eighth response
/// closes one; the rate is one epoch over the median gap between epoch
/// ends, which a burst of host noise inside the leg does not move.
fn flood(
    fx: &mut Fixture,
    rt: Runtime,
    seed: u64,
    duration: Duration,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> Flood {
    let root = rec.enter("service_open.flood");
    let mut rng = Rng::new(seed, "service_open.flood");
    let mut handle = rt.client();
    let mut expected = VecDeque::new();
    let mut received_at = Vec::new();
    let start = Instant::now();
    loop {
        while handle.outstanding() < FLOOD_WINDOW && start.elapsed() < duration {
            let bit = rng.below(2) == 1;
            let ct = fx.encrypt(bit);
            let span = rec.enter("runtime.submit");
            let sent = handle.submit(ct, RequestOp::Lut(Arc::clone(&fx.sign)));
            rec.exit(span);
            match sent {
                Ok(_) => expected.push_back(bit),
                Err(_) => out.check(false),
            }
        }
        let Some(bit) = expected.pop_front() else { break };
        let span = rec.enter("runtime.recv");
        let response = handle.recv();
        rec.exit(span);
        received_at.push(Instant::now());
        out.check(response.is_ok_and(|r| fx.check(r.result, bit)));
    }
    rec.exit(root);
    drop(handle);
    let report = rt.shutdown();
    let epoch_ends: Vec<Instant> =
        received_at.iter().skip(EPOCH - 1).step_by(EPOCH).copied().collect();
    let gaps_s: Vec<f64> = epoch_ends.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
    let pbs_per_s = if gaps_s.is_empty() { 0.0 } else { EPOCH as f64 / median(&gaps_s) };
    Flood { pbs_per_s, report }
}

/// What one open-loop rung measured.
struct Rung {
    rate: f64,
    latencies_ms: Vec<f64>,
    /// How late each request was sent, and how much of that it spent
    /// waiting for room in the ingress window.
    slips_ms: Vec<f64>,
    block_ms: Vec<f64>,
    /// Responses that arrived inside the offered window, per second.
    achieved_pbs_per_s: f64,
    /// Requests due but unanswered when the schedule ended.
    backlog: usize,
    failed: u64,
    report: RuntimeReport,
}

impl Rung {
    fn p95(&self) -> f64 {
        percentile_of(&self.latencies_ms, 0.95)
    }

    fn meets_slo(&self) -> bool {
        self.failed == 0 && self.p95() <= SLO_P95_MS && self.backlog <= SLO_BACKLOG_EPOCHS * EPOCH
    }

    /// Share of requests answered correctly within the latency limit.
    fn slo_met_share(&self) -> f64 {
        let attempted = self.latencies_ms.len() as f64 + self.failed as f64;
        self.latencies_ms.iter().filter(|&&l| l <= SLO_P95_MS).count() as f64 / attempted.max(1.0)
    }
}

/// The highest rate that meets the objective with every lower rung
/// meeting it too; 0 when the lowest rung already misses.
pub fn slo_rate(rungs: &[(f64, bool)]) -> f64 {
    rungs.iter().take_while(|(_, met)| *met).map(|(rate, _)| *rate).fold(0.0, f64::max)
}

/// Open loop: one driver thread submits each request at its due time
/// and receives in between. Latency runs from the due time, so a stall
/// charges every request it delays.
fn rung(
    fx: &mut Fixture,
    rt: Runtime,
    seed: u64,
    rate: f64,
    duration: Duration,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> Rung {
    let label = format!("service_open.r{rate:.0}");
    let mut rng = Rng::new(seed, &label);
    let due: Vec<Duration> = replay_schedule(&mut rng, rate, duration.as_secs_f64())
        .into_iter()
        .map(Duration::from_secs_f64)
        .collect();
    let bits: Vec<bool> = due.iter().map(|_| rng.below(2) == 1).collect();
    let mut inputs: VecDeque<LweCiphertext> = bits.iter().map(|&b| fx.encrypt(b)).collect();

    // The driver never has more requests outstanding than the ingress
    // queue holds, so `submit` cannot block it and every response is
    // stamped when it arrives. A request that is due while that window
    // is full waits at the door: the wait is part of its latency, which
    // runs from the due time, and is what `block_ms` records.
    let window = runtime_config(MAX_DELAY_MS, true).ingress_depth as u64;
    let root = rec.enter("service_open.rung");
    let mut handle = rt.client();
    let mut latencies_ms = Vec::with_capacity(due.len());
    let mut slips_ms = Vec::with_capacity(due.len());
    let mut block_ms = Vec::with_capacity(due.len());
    let (mut sent, mut received, mut in_window, mut failed) = (0usize, 0usize, 0usize, 0u64);
    let mut backlog = None;
    let mut blocked_since = None;
    let start = Instant::now();
    while received < due.len() {
        let now = start.elapsed();
        if backlog.is_none() && now >= duration {
            // Every due time lies inside the schedule.
            backlog = Some(due.len() - received);
        }
        let is_due = sent < due.len() && now >= due[sent];
        let response = if is_due && handle.outstanding() < window {
            let ct = inputs.pop_front().expect("one input per due time");
            let span = rec.enter_for("runtime.submit", Some(sent as u64));
            let result = handle.submit(ct, RequestOp::Lut(Arc::clone(&fx.sign)));
            rec.exit(span);
            slips_ms.push(ms(now.saturating_sub(due[sent])));
            block_ms.push(blocked_since.take().map_or(0.0, |since| ms(now - since)));
            sent += 1;
            if result.is_err() {
                // Refused: it will never be answered.
                received += 1;
                failed += 1;
                out.check(false);
            }
            // Look for a response between two sends, so that a clump of
            // due requests does not delay the stamps of finished ones.
            handle.try_recv()
        } else {
            // Sleep until the next thing the driver must do itself:
            // send the next request, or look at the backlog when the
            // schedule ends. A request waiting at the door, or nothing
            // left to send, leaves only responses to wait for.
            let next_event = if is_due {
                blocked_since.get_or_insert(now);
                None
            } else {
                due.get(sent).copied()
            };
            let next_event = next_event.or(backlog.is_none().then_some(duration));
            let wait = next_event.map_or(Duration::from_secs(30), |at| at.saturating_sub(now));
            let span = rec.enter("runtime.recv");
            let response = handle.recv_timeout(wait);
            rec.exit(span);
            match response {
                Ok(response) => Some(response),
                Err(RuntimeError::Lost) if next_event.is_some() => None,
                Err(_) => {
                    // The runtime stopped or went silent: everything
                    // still outstanding counts as failed.
                    for _ in received..due.len() {
                        out.check(false);
                        failed += 1;
                    }
                    break;
                }
            }
        };
        if let Some(response) = response {
            let at = Instant::now();
            let index = response.seq as usize;
            let ok = fx.check(response.result, bits[index]);
            out.check(ok);
            if ok {
                let done = at.duration_since(start);
                latencies_ms.push(ms(done.saturating_sub(due[index])));
                in_window += usize::from(done <= duration);
                rec.record("service_open.request", start + due[index], at, index as u64);
            } else {
                failed += 1;
            }
            received += 1;
        }
    }
    rec.exit(root);
    drop(handle);
    let report = rt.shutdown();
    Rung {
        rate,
        latencies_ms,
        slips_ms,
        block_ms,
        achieved_pbs_per_s: in_window as f64 / duration.as_secs_f64(),
        backlog: backlog.unwrap_or(0),
        failed,
        report,
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let params = ctx.params(TfheParameters::set_ii());
    let mut out = Outcome::new(params.clone());

    let repeats = if ctx.traced { 1 } else { 3 };
    let (client, server, keygen_s) = keygen(&params, derive(ctx.seed, "service_open.key"), repeats);
    let sign = Arc::new(Lut::sign(params.polynomial_size, encode_fraction(1, 3)));
    let mut fx = Fixture { client, server: Arc::new(server), sign };
    let mut start_s = Vec::with_capacity(repeats);
    let mut warm: Option<Runtime> = None;
    for _ in 0..repeats {
        if let Some(previous) = warm.take() {
            previous.shutdown();
        }
        let t = Instant::now();
        warm = Some(start_warm(&mut fx, true, &mut out));
        start_s.push(t.elapsed().as_secs_f64());
    }
    let warm = warm.expect("set up at least once");
    let setup_s = median(&keygen_s) + median(&start_s);

    if !ctx.traced {
        let flooded = flood(&mut fx, warm, ctx.seed, ctx.leg(FLOOD_SHARE), &mut out, &mut ctx.rec);
        let fresh = start_warm(&mut fx, true, &mut out);
        let low = rung(
            &mut fx,
            fresh,
            ctx.seed,
            LIGHT_RATE,
            ctx.leg(1.0 - FLOOD_SHARE),
            &mut out,
            &mut ctx.rec,
        );
        out.end_to_end(flooded.pbs_per_s, &low.latencies_ms, setup_s);
        let label = format!("service_open.r{LIGHT_RATE:.0}");
        out.timing(&format!("{label}.latency_ms"), "ms", &low.latencies_ms, 0.95);
        out.timing(&format!("{label}.slip_ms"), "ms", &low.slips_ms, 0.5);
        out.notes.push(format!(
            "flood leg: {} epochs at mean occupancy {:.3}; rung {:.0}: {} requests, achieved {:.2} PBS/s, backlog {}",
            flooded.report.epochs,
            flooded.report.mean_batch_occupancy,
            low.rate,
            low.latencies_ms.len(),
            low.achieved_pbs_per_s,
            low.backlog
        ));
        return out;
    }

    out.set("tfhe.keygen_s", median(&keygen_s));
    probes::fft(&mut out, &mut ctx.rec);
    let inputs: Vec<LweCiphertext> = (0..EPOCH).map(|i| fx.encrypt(i % 2 == 0)).collect();
    let cost = probes::tfhe_kernel(&mut out, &mut ctx.rec, &fx.server, &inputs, &fx.sign, false);
    let direct_ms_per_pbs = cost.pbs_ms + cost.keyswitch_us / 1e3;

    // `executor`: one full epoch through `TfheExecutor::execute`,
    // against eight times the direct kernel cost.
    let executor = TfheExecutor::new(Arc::clone(&fx.server));
    let batch: Vec<Request> = inputs
        .iter()
        .enumerate()
        .map(|(i, ct)| {
            let op = RequestOp::Lut(Arc::clone(&fx.sign));
            Request::new(ClientId(0), i as u64, SpanId(0), ct.clone(), op)
        })
        .collect();
    let span = ctx.rec.enter("runtime.probe.executor_execute");
    let epoch_s = time_per_call(7, 1, || {
        std::hint::black_box(executor.execute(&batch));
    });
    ctx.rec.exit(span);
    out.set("runtime.executor.epoch_ms", epoch_s * 1e3);
    out.set("runtime.executor.overhead_ratio", epoch_s * 1e3 / (EPOCH as f64 * direct_ms_per_pbs));

    // Flood with production telemetry, then with all of it off, then
    // with the span recorder off: capacity against the direct kernel,
    // what telemetry costs, and what this benchmark's tracing costs.
    let leg = ctx.leg(FLOOD_SHARE);
    let with = flood(&mut fx, warm, ctx.seed, leg, &mut out, &mut ctx.rec);
    let bare = start_warm(&mut fx, false, &mut out);
    let without = flood(&mut fx, bare, ctx.seed, leg, &mut out, &mut ctx.rec);
    ctx.rec.set_enabled(false);
    let fresh = start_warm(&mut fx, true, &mut out);
    let untraced = flood(&mut fx, fresh, ctx.seed, leg, &mut out, &mut ctx.rec);
    ctx.rec.set_enabled(true);
    out.set("runtime.capacity_ratio", with.pbs_per_s * direct_ms_per_pbs / 1e3);
    out.set("runtime.telemetry_overhead_pct", overhead_pct(without.pbs_per_s, with.pbs_per_s));
    out.set("bench.trace_overhead_pct", overhead_pct(untraced.pbs_per_s, with.pbs_per_s));

    // The ladder: a fresh runtime per rung, half the run length each.
    let mut verdicts = Vec::new();
    let mut slips_ms = Vec::new();
    for rate in RUNG_RATES {
        let fresh = start_warm(&mut fx, true, &mut out);
        let r = rung(&mut fx, fresh, ctx.seed, rate, ctx.leg(0.5), &mut out, &mut ctx.rec);
        let prefix = format!("runtime.service.r{rate:.0}");
        out.set(format!("{prefix}.p95_ms"), r.p95());
        out.set(format!("{prefix}.achieved_pbs_per_s"), r.achieved_pbs_per_s);
        out.set(format!("{prefix}.occupancy"), r.report.mean_batch_occupancy);
        out.set(format!("{prefix}.slo_met_share"), r.slo_met_share());
        out.timing(&format!("service_open.r{rate:.0}.latency_ms"), "ms", &r.latencies_ms, 0.95);
        verdicts.push((rate, r.meets_slo()));
        if rate == RUNG_RATES[0] {
            let [queue, batch, execute] = attribution_ms(&r.report);
            out.set("runtime.queue_wait_ms", queue);
            out.set("runtime.batch_wait_ms", batch);
            out.set("runtime.execute_ms", execute);
            out.set("runtime.queue.high_water", r.report.ingress_queue_high_water as f64);
        }
        if rate == RUNG_RATES[RUNG_RATES.len() - 1] {
            // Only the overload rung fills the window.
            out.set("runtime.submit_block_ms", mean(&r.block_ms));
        }
        if rate <= RUNG_RATES[1] {
            slips_ms.extend(r.slips_ms);
        }
    }
    // How late the generator ran on the two rungs below capacity.
    out.set("bench.loadgen_slip_mean_ms", mean(&slips_ms));
    out.set("bench.loadgen_slip_max_ms", slips_ms.iter().copied().fold(0.0, f64::max));
    out.set("runtime.slo_rate_pbs_per_s", slo_rate(&verdicts));
    out
}

#[cfg(test)]
mod tests {
    use super::slo_rate;

    #[test]
    fn slo_rate_is_the_highest_rung_below_the_first_miss() {
        assert_eq!(slo_rate(&[(24.0, true), (36.0, true), (48.0, false), (60.0, false)]), 36.0);
        assert_eq!(slo_rate(&[(24.0, true), (36.0, true), (48.0, true), (60.0, true)]), 60.0);
        // A failing lower rung caps the rate even if a higher one passed.
        assert_eq!(slo_rate(&[(24.0, true), (36.0, false), (48.0, true), (60.0, false)]), 24.0);
        assert_eq!(slo_rate(&[(24.0, false), (36.0, true), (48.0, true), (60.0, true)]), 0.0);
        assert_eq!(slo_rate(&[]), 0.0);
    }
}
