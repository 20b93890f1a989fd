//! `program_sessions`: six concurrent sessions stream 4-bit
//! ripple-carry adders (deep and narrow: 17 requests, depth 7) and
//! 4-bit equality tests (shallow and wide: 7 requests, depth 3)
//! through one runtime, multiplexed by one driver thread over
//! `ProgramSession::submit_ready` / `absorb` on one shared client
//! handle. (8-bit programs take about six seconds each under six
//! sessions; too few finish in a run for a median.) The session
//! frontier and epoch occupancy decide the result, and on the multi-bit
//! kernel VMA is about 68 % of the work and FFT about 24 % — the mirror
//! image of `pbs_batch`. It is also the only workload where *not
//! executing* a PBS can show: throughput counts the gate evaluations a
//! program asks for, not the bootstraps the runtime chose to run for
//! them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use strix_runtime::{ClientHandle, KernelPolicy, Program, ProgramSession, Runtime};
use strix_tfhe::bootstrap::decode_bool;
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::{ClientKey, PbsKernel, ServerKey, TfheParameters};
use strix_workloads::gates::{equality_program, ripple_carry_adder_program};

use super::{attribution_ms, keygen, ms, overhead_pct, runtime_config, Ctx, Outcome, GROUPING};
use crate::gen::{derive, Rng};
use crate::probes::{self, time_per_call};
use crate::spans::Recorder;
use crate::stats::{mean, median, percentile_of};

const SESSIONS: usize = 6;
const BITS: usize = 4;
const MAX_DELAY_MS: u64 = 10;
/// Gate evaluations a 4-bit adder and a 4-bit equality test ask for,
/// as `strix-workloads` builds them at the commit that defined the
/// benchmark. Throughput credits these per verified program, so a later
/// change that answers a program with fewer bootstraps gains.
const NOMINAL_PBS: [f64; 2] = [17.0, 7.0];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Adder = 0,
    Equality = 1,
}

impl Kind {
    fn expected(self, a: u64, b: u64) -> u64 {
        match self {
            Kind::Adder => a + b,
            Kind::Equality => u64::from(a == b),
        }
    }
}

struct Fixture {
    client: ClientKey,
    server: Arc<ServerKey>,
}

/// The adder and the equality test, indexed by [`Kind`].
type Programs = [Program; 2];

impl Fixture {
    fn start(&self) -> Runtime {
        let kernel = PbsKernel::MultiBit { grouping_factor: GROUPING };
        let config =
            runtime_config(MAX_DELAY_MS, true).with_kernel_policy(KernelPolicy::uniform(kernel));
        Runtime::start_tfhe(config, Arc::clone(&self.server))
    }

    /// Encrypts `a` then `b`, least significant bit first.
    fn encrypt(&mut self, a: u64, b: u64) -> Vec<LweCiphertext> {
        let bit = |v: u64, i: usize| (v >> i) & 1 == 1;
        (0..2 * BITS)
            .map(|i| if i < BITS { bit(a, i) } else { bit(b, i - BITS) })
            .map(|b| self.client.encrypt_bool(b).into_lwe())
            .collect()
    }

    /// Decrypts output bits, least significant first, into a number.
    fn decrypt(&self, outputs: &[LweCiphertext]) -> Option<u64> {
        outputs.iter().enumerate().try_fold(0u64, |acc, (i, ct)| {
            let phase = self.client.decrypt_phase(ct).ok()?;
            Some(acc | (u64::from(decode_bool(phase)) << i))
        })
    }
}

/// One session slot: programs run in it back to back.
struct Slot<'p> {
    rng: Rng,
    next_kind: Kind,
    running: Option<Running<'p>>,
    /// Verified programs, their nominal gate evaluations, and when the
    /// last one finished.
    programs: usize,
    nominal: f64,
    last_done: Instant,
}

struct Running<'p> {
    session: ProgramSession<'p>,
    /// Distinguishes this program from its predecessors in the slot.
    serial: u64,
    kind: Kind,
    operands: (u64, u64),
    started: Instant,
    responses: u64,
}

#[derive(Default)]
struct Body {
    pbs_per_s: f64,
    results_per_s: f64,
    program_ms: [Vec<f64>; 2],
    request_ms: Vec<f64>,
    submit_ready_us: Vec<f64>,
    absorb_us: Vec<f64>,
    frontier: Vec<f64>,
    /// Responses absorbed per verified program, by kind.
    responses: [Vec<f64>; 2],
    occupancy: f64,
    attribution_ms: [f64; 3],
    high_water: f64,
}

/// The six sessions share one client handle, so the single driver
/// thread can block on it instead of polling six. Sequence numbers are
/// consecutive per handle; `owner` and `submitted_at` say which slot and
/// program each belongs to and when it was sent.
struct Mux<'p> {
    handle: ClientHandle,
    slots: Vec<Slot<'p>>,
    owner: Vec<(usize, u64)>,
    submitted_at: Vec<Instant>,
    received: u64,
    serial: u64,
}

impl<'p> Mux<'p> {
    /// Starts the slot's next program and submits its first frontier.
    fn start(
        &mut self,
        i: usize,
        fx: &mut Fixture,
        programs: &'p Programs,
        body: &mut Body,
        out: &mut Outcome,
        rec: &mut Recorder,
    ) {
        let slot = &mut self.slots[i];
        let kind = slot.next_kind;
        slot.next_kind = if kind == Kind::Adder { Kind::Equality } else { Kind::Adder };
        // Equal operands half the time, or equality would almost always
        // answer "no".
        let a = slot.rng.below(1 << BITS);
        let b = if slot.rng.below(2) == 0 { a } else { slot.rng.below(1 << BITS) };
        match ProgramSession::new(&programs[kind as usize], fx.encrypt(a, b)) {
            Ok(session) => {
                self.serial += 1;
                slot.running = Some(Running {
                    session,
                    serial: self.serial,
                    kind,
                    operands: (a, b),
                    started: Instant::now(),
                    responses: 0,
                });
                self.submit_ready(i, body, out, rec);
            }
            Err(_) => out.check(false),
        }
    }

    /// Submits the session's ready frontier and records who owns the
    /// sequence numbers it took.
    fn submit_ready(&mut self, i: usize, body: &mut Body, out: &mut Outcome, rec: &mut Recorder) {
        let Some(running) = &mut self.slots[i].running else { return };
        let span = rec.enter("runtime.session.submit_ready");
        let t = Instant::now();
        let result = running.session.submit_ready(&mut self.handle);
        body.submit_ready_us.push(t.elapsed().as_secs_f64() * 1e6);
        rec.exit(span);
        let submitted = (self.received + self.handle.outstanding()) as usize;
        self.owner.resize(submitted, (i, running.serial));
        self.submitted_at.resize(submitted, t);
        body.frontier.push(running.session.in_flight() as f64);
        if result.is_err() {
            // Refused (noise budget) or shut down: the program fails.
            out.check(false);
            self.slots[i].running = None;
        }
    }
}

/// Runs the sessions for `duration`; programs still in flight then are
/// abandoned, neither checked nor counted.
fn body(
    fx: &mut Fixture,
    programs: &Programs,
    rt: Runtime,
    seed: u64,
    duration: Duration,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> Body {
    let root = rec.enter("program_sessions.body");
    let mut body = Body::default();
    let start = Instant::now();
    let slots = (0..SESSIONS)
        .map(|i| Slot {
            rng: Rng::new(seed, &format!("session{i}.operands")),
            next_kind: if i % 2 == 0 { Kind::Adder } else { Kind::Equality },
            running: None,
            programs: 0,
            nominal: 0.0,
            last_done: start,
        })
        .collect();
    let mut mux = Mux {
        handle: rt.client(),
        slots,
        owner: Vec::new(),
        submitted_at: Vec::new(),
        received: 0,
        serial: 0,
    };
    for i in 0..SESSIONS {
        mux.start(i, fx, programs, &mut body, out, rec);
    }
    loop {
        let left = duration.saturating_sub(start.elapsed());
        let span = rec.enter("runtime.recv");
        let response = mux.handle.recv_timeout(left);
        rec.exit(span);
        let Ok(response) = response else { break }; // the run is over, or the runtime is gone
        let at = Instant::now();
        mux.received += 1;
        let seq = response.seq as usize;
        body.request_ms.push(ms(at - mux.submitted_at[seq]));
        let (i, serial) = mux.owner[seq];
        let Some(running) = mux.slots[i].running.as_mut().filter(|r| r.serial == serial) else {
            continue; // a straggler of a program that already failed
        };
        running.responses += 1;
        let span = rec.enter("runtime.session.absorb");
        let t = Instant::now();
        let absorbed = running.session.absorb(response);
        body.absorb_us.push(t.elapsed().as_secs_f64() * 1e6);
        rec.exit(span);
        if absorbed.is_err() {
            out.check(false);
            mux.slots[i].running = None;
        } else {
            mux.submit_ready(i, &mut body, out, rec);
        }
        if mux.slots[i].running.as_ref().is_some_and(|r| r.session.is_complete()) {
            let done = mux.slots[i].running.take().expect("checked above");
            let finished = Instant::now();
            // A complete session has nothing left to submit; `run` only
            // collects its outputs.
            let outputs = done.session.run(&mut mux.handle);
            let (a, b) = done.operands;
            let ok = outputs.is_ok_and(|o| fx.decrypt(&o) == Some(done.kind.expected(a, b)));
            out.check(ok);
            if ok {
                let slot = &mut mux.slots[i];
                slot.programs += 1;
                slot.nominal += NOMINAL_PBS[done.kind as usize];
                slot.last_done = finished;
                body.program_ms[done.kind as usize].push(ms(finished - done.started));
                body.responses[done.kind as usize].push(done.responses as f64);
                rec.record("program_sessions.program", done.started, finished, done.serial);
            }
        }
        if mux.slots[i].running.is_none() {
            mux.start(i, fx, programs, &mut body, out, rec);
        }
    }
    rec.exit(root);
    // Each session's rate is taken over a whole number of programs:
    // from the start to its last verified result.
    for slot in &mux.slots {
        let span = (slot.last_done - start).as_secs_f64();
        if slot.programs > 0 && span > 0.0 {
            body.pbs_per_s += slot.nominal / span;
            body.results_per_s += slot.programs as f64 / span;
        }
    }
    drop(mux);
    let report = rt.shutdown();
    body.occupancy = report.mean_batch_occupancy;
    body.attribution_ms = attribution_ms(&report);
    body.high_water = report.ingress_queue_high_water as f64;
    body
}

/// One checked equality program through a fresh runtime.
fn warm_up(fx: &mut Fixture, programs: &Programs, rt: &Runtime, out: &mut Outcome) {
    let inputs = fx.encrypt(0x5, 0x5);
    let mut handle = rt.client();
    let outputs = ProgramSession::new(&programs[Kind::Equality as usize], inputs)
        .and_then(|session| session.run(&mut handle));
    out.check(outputs.is_ok_and(|o| fx.decrypt(&o) == Some(1)));
}

/// One program of each kind against `Program::run_sync`, the
/// synchronous reference, on fresh inputs.
fn check_against_run_sync(fx: &mut Fixture, programs: &Programs, seed: u64, out: &mut Outcome) {
    let mut rng = Rng::new(seed, "program_sessions.run_sync");
    for kind in [Kind::Adder, Kind::Equality] {
        let (a, b) = (rng.below(1 << BITS), rng.below(1 << BITS));
        let inputs = fx.encrypt(a, b);
        let outputs = programs[kind as usize].run_sync(&fx.server, &inputs);
        out.check(outputs.is_ok_and(|o| fx.decrypt(&o) == Some(kind.expected(a, b))));
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let kernel = PbsKernel::MultiBit { grouping_factor: GROUPING };
    let params = ctx.params(TfheParameters::set_ii().with_kernel(kernel));
    let mut out = Outcome::new(params.clone());

    let repeats = if ctx.traced { 1 } else { 2 };
    let (client, server, keygen_s) =
        keygen(&params, derive(ctx.seed, "program_sessions.key"), repeats);
    let programs = [ripple_carry_adder_program(BITS), equality_program(BITS)];
    let mut fx = Fixture { client, server: Arc::new(server) };
    let mut start_s = Vec::with_capacity(3);
    let mut warm: Option<Runtime> = None;
    for _ in 0..if ctx.traced { 1 } else { 3 } {
        if let Some(previous) = warm.take() {
            previous.shutdown();
        }
        let t = Instant::now();
        let rt = fx.start();
        warm_up(&mut fx, &programs, &rt, &mut out);
        start_s.push(t.elapsed().as_secs_f64());
        warm = Some(rt);
    }
    let warm = warm.expect("set up at least once");
    let setup_s = median(&keygen_s) + median(&start_s);

    if !ctx.traced {
        let measured =
            body(&mut fx, &programs, warm, ctx.seed, ctx.leg(1.0), &mut out, &mut ctx.rec);
        check_against_run_sync(&mut fx, &programs, ctx.seed, &mut out);
        out.set("pbs_per_s", measured.pbs_per_s);
        out.set("p50_ms", median(&measured.program_ms[Kind::Adder as usize]));
        out.set("p95_ms", percentile_of(&measured.request_ms, 0.95));
        out.set("setup_s", setup_s);
        out.timing("program_sessions.adder_ms", "ms", &measured.program_ms[0], 0.5);
        out.timing("program_sessions.equality_ms", "ms", &measured.program_ms[1], 0.5);
        out.timing("program_sessions.request_ms", "ms", &measured.request_ms, 0.95);
        out.notes.push(format!(
            "{:.3} verified programs/s at mean epoch occupancy {:.3}",
            measured.results_per_s, measured.occupancy
        ));
        return out;
    }

    out.set("tfhe.keygen_s", median(&keygen_s));
    probes::fft(&mut out, &mut ctx.rec);
    let inputs = fx.encrypt(0x3, 0xc);
    let sign = strix_tfhe::boolean::gate_sign_lut(params.polynomial_size);
    probes::tfhe_kernel(&mut out, &mut ctx.rec, &fx.server, &inputs, &sign, false);

    let span = ctx.rec.enter("workloads.probe.program_build");
    let build_s = time_per_call(15, 200, || {
        std::hint::black_box(ripple_carry_adder_program(BITS));
    });
    ctx.rec.exit(span);
    out.set("workloads.program_build_us", build_s * 1e6);
    let handle = warm.client();
    if let Some(policy) = handle.admission() {
        let span = ctx.rec.enter("runtime.probe.analyzer_admit");
        let admit_s = time_per_call(15, 50, || {
            std::hint::black_box(policy.admit(&programs[Kind::Adder as usize]).is_ok());
        });
        ctx.rec.exit(span);
        out.set("runtime.analyzer.admit_us", admit_s * 1e6);
    }
    drop(handle);

    let traced =
        body(&mut fx, &programs, warm, ctx.seed, ctx.leg(1.0 / 3.0), &mut out, &mut ctx.rec);
    out.set("runtime.session.occupancy", traced.occupancy);
    out.set("runtime.session.frontier_mean", mean(&traced.frontier));
    out.set("runtime.session.submit_ready_us", median(&traced.submit_ready_us));
    out.set("runtime.session.absorb_us", median(&traced.absorb_us));
    out.set("runtime.session.equality_p50_ms", median(&traced.program_ms[Kind::Equality as usize]));
    out.set("runtime.session.results_per_s", traced.results_per_s);
    // Bootstraps the runtime ran per verified program, the two kinds
    // weighted equally so the ratio does not depend on the mix a run
    // happened to finish.
    out.set(
        "runtime.session.pbs_per_result",
        (mean(&traced.responses[0]) + mean(&traced.responses[1])) / 2.0,
    );
    let [queue, batch, execute] = traced.attribution_ms;
    out.set("runtime.queue_wait_ms", queue);
    out.set("runtime.batch_wait_ms", batch);
    out.set("runtime.execute_ms", execute);
    out.set("runtime.queue.high_water", traced.high_water);
    out.timing("program_sessions.adder_ms", "ms", &traced.program_ms[0], 0.5);
    out.timing("program_sessions.request_ms", "ms", &traced.request_ms, 0.95);

    ctx.rec.set_enabled(false);
    let rt = fx.start();
    warm_up(&mut fx, &programs, &rt, &mut out);
    let untraced =
        body(&mut fx, &programs, rt, ctx.seed, ctx.leg(1.0 / 3.0), &mut out, &mut ctx.rec);
    ctx.rec.set_enabled(true);
    out.set("bench.trace_overhead_pct", overhead_pct(untraced.pbs_per_s, traced.pbs_per_s));
    check_against_run_sync(&mut fx, &programs, ctx.seed, &mut out);
    out
}
