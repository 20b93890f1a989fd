//! `tenant_skew`: the only workload where the key registry and
//! `SeededServerKey::expand` do real work. Six tenants with real seeded
//! keys, a registry that holds three expanded keys, one multi-tenant
//! runtime. Two hot tenants keep eight requests outstanding and stay
//! resident; four cold tenants take turns to send two requests, one
//! turn for every 64 responses the hot tenants got, and cycle through
//! the one remaining slot, so they miss. (If the cold tenants ran flat
//! out too, the six would be served in strict rotation and an LRU of
//! three would thrash on every epoch; arrivals at random make two cold
//! tenants collide now and then and evict a hot key, which moves every
//! number by several per cent from seed to seed; turns on a clock make
//! a slower host see more of them per hot cycle, so a spell in which
//! the host is 8 % slower moved the median latency by 14 %.) Closed
//! loop throughout; hot and cold latency are reported apart so that
//! helping one at the other's cost shows.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use strix_runtime::{
    ClientHandle, KeyRegistry, RequestOp, Runtime, RuntimeError, RuntimeReport, TenantId,
};
use strix_tfhe::bootstrap::Lut;
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::{ClientKey, SeededServerKey, TfheParameters};

use super::{
    attribution_ms, decrypt_message, lut_function, message_lut, ms, overhead_pct, runtime_config,
    Ctx, Outcome, EPOCH, MESSAGE_BITS,
};
use crate::gen::{derive, Rng};
use crate::probes::{self, time_per_call};
use crate::spans::Recorder;
use crate::stats::{median, percentile_of};

const TENANTS: usize = 6;
const HOT_TENANTS: usize = 2;
const HOT_WINDOW: u64 = EPOCH as u64;
const COLD_WINDOW: u64 = 2;
/// Expanded keys the registry may hold: the hot pair plus one slot the
/// cold tenants fight over (working set larger than the cache).
const RESIDENT_KEYS: usize = 3;
const MAX_DELAY_MS: u64 = 20;
/// How often the driver looks at its handles when none had a
/// response. An epoch takes 40 ms or more, so 2 ms costs under
/// one per cent of any latency; polling every 100 us instead slowed the
/// worker by a fifth whenever the host had been idle for a while (the
/// two vCPUs then seem to share a core, and ten thousand timer wake-ups
/// a second are not free in a guest).
const POLL: Duration = Duration::from_millis(2);
/// Hot responses between two cold turns. One hot cycle is two full
/// epochs, sixteen responses, about 320 ms here and 430 ms with a cold
/// epoch in it; a turn every four cycles puts a quarter of the hot
/// requests in a cycle that pays for a miss, so the median request sees
/// none and the p95 request sees one, on a fast host and on a slow one.
/// (With half the cycles carrying one the median flipped between the
/// two kinds from run to run.) Two cold epochs inside one cycle would
/// evict a hot key; a turn comes due four cycles after the one before
/// it, long after that one was answered.
const COLD_TURN: usize = 4 * HOT_TENANTS * EPOCH;

struct Tenant {
    client: ClientKey,
    rng: Rng,
    window: u64,
    /// How many hot responses the body must have seen for a cold
    /// tenant's next turn; hot tenants are always due.
    next_due: Option<usize>,
    /// Send time and message of every outstanding request, oldest first.
    pending: VecDeque<(Instant, u64)>,
    latencies_ms: Vec<f64>,
}

impl Tenant {
    /// Whether a response decrypts to the table's value at `message`.
    fn check(&self, result: Result<LweCiphertext, RuntimeError>, message: u64) -> bool {
        result.is_ok_and(|ct| decrypt_message(&self.client, &ct) == Some(lut_function(message)))
    }
}

struct Fixture {
    params: TfheParameters,
    tenants: Vec<Tenant>,
    seeded: Vec<SeededServerKey>,
    lut: Arc<Lut>,
}

impl Fixture {
    fn registry(&self) -> Arc<KeyRegistry> {
        let registry = KeyRegistry::with_resident_keys(self.params.clone(), RESIDENT_KEYS);
        for (i, key) in self.seeded.iter().enumerate() {
            registry.register_seeded(TenantId(i as u64), key.clone());
        }
        Arc::new(registry)
    }
}

struct Body {
    pbs_per_s: f64,
    report: RuntimeReport,
    /// Completed inside the window, per tenant.
    completed: Vec<usize>,
}

/// Closed loop over every tenant's handle for `duration`, then drain.
fn body(
    fx: &mut Fixture,
    rt: Runtime,
    duration: Duration,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> Body {
    let root = rec.enter("tenant_skew.body");
    let mut handles: Vec<ClientHandle> =
        (0..TENANTS).map(|i| rt.client_for(TenantId(i as u64))).collect();
    for (i, tenant) in fx.tenants.iter_mut().enumerate() {
        tenant.latencies_ms.clear();
        let cold = i.checked_sub(HOT_TENANTS);
        tenant.next_due = cold.map(|c| c * COLD_TURN);
    }
    let mut completed = vec![0usize; TENANTS];
    let mut hot_responses = 0usize;
    let mut request_id = 0u64;
    let start = Instant::now();
    let mut last_in_window = start;
    loop {
        let open = start.elapsed() < duration;
        let mut progress = false;
        for (i, (tenant, handle)) in fx.tenants.iter_mut().zip(&mut handles).enumerate() {
            while let Some(response) = handle.try_recv() {
                let at = Instant::now();
                let (sent_at, message) = tenant.pending.pop_front().expect("one per response");
                let ok = tenant.check(response.result, message);
                out.check(ok);
                hot_responses += usize::from(i < HOT_TENANTS);
                if ok && at.duration_since(start) <= duration {
                    tenant.latencies_ms.push(ms(at - sent_at));
                    completed[i] += 1;
                    last_in_window = at;
                }
                progress = true;
            }
            let due = match tenant.next_due {
                None => true,
                Some(at) if handle.outstanding() == 0 && hot_responses >= at => {
                    tenant.next_due = Some(at + (TENANTS - HOT_TENANTS) * COLD_TURN);
                    true
                }
                Some(_) => false,
            };
            while open && due && handle.outstanding() < tenant.window {
                let message = tenant.rng.below(1 << MESSAGE_BITS);
                let ct = tenant.client.encrypt_shortint(message, MESSAGE_BITS).expect("in range");
                let span = rec.enter_for("runtime.submit", Some(request_id));
                let sent_at = Instant::now();
                let sent = handle.submit(ct.as_lwe().clone(), RequestOp::Lut(Arc::clone(&fx.lut)));
                rec.exit(span);
                request_id += 1;
                match sent {
                    Ok(_) => tenant.pending.push_back((sent_at, message)),
                    Err(_) => out.check(false),
                }
                progress = true;
            }
        }
        if !open && handles.iter().all(|h| h.outstanding() == 0) {
            break;
        }
        if !progress {
            std::thread::sleep(POLL);
        }
    }
    rec.exit(root);
    drop(handles);
    let report = rt.shutdown();
    // From the start to the last response inside the window: whole
    // epochs over exactly the time they took.
    let total: usize = completed.iter().sum();
    let span = (last_in_window - start).as_secs_f64();
    Body { pbs_per_s: if span > 0.0 { total as f64 / span } else { 0.0 }, report, completed }
}

fn pooled(tenants: &[Tenant]) -> Vec<f64> {
    tenants.iter().flat_map(|t| t.latencies_ms.iter().copied()).collect()
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let params = ctx.params(TfheParameters::set_ii());
    let mut out = Outcome::new(params.clone());

    // Per-tenant key generation happens six times by itself; the
    // set-up time charges six times its median.
    let mut keygen_s = Vec::with_capacity(TENANTS);
    let mut tenants = Vec::with_capacity(TENANTS);
    let mut seeded = Vec::with_capacity(TENANTS);
    for i in 0..TENANTS {
        let t = Instant::now();
        let mut client = ClientKey::generate(&params, derive(ctx.seed, &format!("tenant{i}.key")));
        seeded.push(client.seeded_server_key(derive(ctx.seed, &format!("tenant{i}.crs"))));
        keygen_s.push(t.elapsed().as_secs_f64());
        tenants.push(Tenant {
            client,
            rng: Rng::new(ctx.seed, &format!("tenant{i}.inputs")),
            window: if i < HOT_TENANTS { HOT_WINDOW } else { COLD_WINDOW },
            next_due: None,
            pending: VecDeque::new(),
            latencies_ms: Vec::new(),
        });
    }
    let mut fx = Fixture { lut: Arc::new(message_lut(&params)), params, tenants, seeded };

    // Registration, runtime start and a warm-up of one checked request
    // per tenant (which expands every key once).
    let t = Instant::now();
    let registry = fx.registry();
    let rt = Runtime::start_multi_tenant(runtime_config(MAX_DELAY_MS, true), Arc::clone(&registry));
    warm_up(&mut fx, &rt, &mut out);
    let start_s = t.elapsed().as_secs_f64();
    let setup_s = TENANTS as f64 * median(&keygen_s) + start_s;

    if !ctx.traced {
        let measured = body(&mut fx, rt, ctx.leg(1.0), &mut out, &mut ctx.rec);
        let all = pooled(&fx.tenants);
        out.end_to_end(measured.pbs_per_s, &all, setup_s);
        out.timing("tenant_skew.latency_ms", "ms", &all, 0.95);
        out.timing("tenant_skew.hot_latency_ms", "ms", &pooled(&fx.tenants[..HOT_TENANTS]), 0.95);
        out.timing("tenant_skew.cold_latency_ms", "ms", &pooled(&fx.tenants[HOT_TENANTS..]), 0.95);
        out.notes.push(format!(
            "completed per tenant {:?}; key cache {} hits / {} misses / {} evictions",
            measured.completed,
            measured.report.key_cache_hits,
            measured.report.key_cache_misses,
            measured.report.key_cache_evictions
        ));
        return out;
    }

    out.set("tfhe.seeded_keygen_s", median(&keygen_s));
    out.set("tfhe.seeded_key_mb", fx.seeded[0].transport_bytes() as f64 / 1e6);
    probes::fft(&mut out, &mut ctx.rec);
    let span = ctx.rec.enter("tfhe.probe.seeded_expand");
    let expand_s = time_per_call(5, 1, || {
        std::hint::black_box(fx.seeded[0].expand());
    });
    ctx.rec.exit(span);
    out.set("tfhe.key_expand_ms", expand_s * 1e3);
    resolve_probe(&fx, &mut out, &mut ctx.rec);

    let before = registry.stats();
    let traced = body(&mut fx, rt, ctx.leg(1.0 / 3.0), &mut out, &mut ctx.rec);
    let after = registry.stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.set("runtime.registry.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    out.set("runtime.registry.misses", misses as f64);
    out.set("runtime.registry.evictions", (after.evictions - before.evictions) as f64);
    out.set("runtime.tenant.occupancy", traced.report.mean_batch_occupancy);
    let [queue, batch, execute] = attribution_ms(&traced.report);
    out.set("runtime.queue_wait_ms", queue);
    out.set("runtime.batch_wait_ms", batch);
    out.set("runtime.execute_ms", execute);
    out.set("runtime.queue.high_water", traced.report.ingress_queue_high_water as f64);
    out.set("runtime.tenant.hot_p95_ms", percentile_of(&pooled(&fx.tenants[..HOT_TENANTS]), 0.95));
    out.set("runtime.tenant.cold_p95_ms", percentile_of(&pooled(&fx.tenants[HOT_TENANTS..]), 0.95));
    // A tenant's share of completions over its share of the
    // outstanding-request windows; the minimum over tenants.
    let total: usize = traced.completed.iter().sum();
    let windows: u64 = fx.tenants.iter().map(|t| t.window).sum();
    let fairness = traced
        .completed
        .iter()
        .zip(&fx.tenants)
        .map(|(&done, t)| (done as f64 / total.max(1) as f64) / (t.window as f64 / windows as f64))
        .fold(f64::INFINITY, f64::min);
    out.set("runtime.tenant.fairness_min_share", fairness);
    out.timing("tenant_skew.latency_ms", "ms", &pooled(&fx.tenants), 0.95);

    ctx.rec.set_enabled(false);
    let rt = Runtime::start_multi_tenant(runtime_config(MAX_DELAY_MS, true), fx.registry());
    warm_up(&mut fx, &rt, &mut out);
    let untraced = body(&mut fx, rt, ctx.leg(1.0 / 3.0), &mut out, &mut ctx.rec);
    ctx.rec.set_enabled(true);
    out.set("bench.trace_overhead_pct", overhead_pct(untraced.pbs_per_s, traced.pbs_per_s));
    out
}

/// One checked request per tenant.
fn warm_up(fx: &mut Fixture, rt: &Runtime, out: &mut Outcome) {
    for (i, tenant) in fx.tenants.iter_mut().enumerate() {
        let mut handle = rt.client_for(TenantId(i as u64));
        let message = i as u64 % (1 << MESSAGE_BITS);
        let ct = tenant.client.encrypt_shortint(message, MESSAGE_BITS).expect("in range");
        let ok = handle.submit(ct.as_lwe().clone(), RequestOp::Lut(Arc::clone(&fx.lut))).is_ok()
            && handle.recv().is_ok_and(|r| tenant.check(r.result, message));
        out.check(ok);
    }
}

/// `registry`: direct `KeyRegistry::resolve` calls on a registry with
/// one slot and two tenants, so alternating tenants always misses and
/// repeating one always hits.
fn resolve_probe(fx: &Fixture, out: &mut Outcome, rec: &mut Recorder) {
    let registry = KeyRegistry::with_resident_keys(fx.params.clone(), 1);
    for (i, key) in fx.seeded.iter().take(2).enumerate() {
        registry.register_seeded(TenantId(i as u64), key.clone());
    }
    let span = rec.enter("runtime.probe.registry_resolve_miss");
    let mut next = 0u64;
    let miss_s = time_per_call(5, 1, || {
        std::hint::black_box(registry.resolve(TenantId(next % 2)));
        next += 1;
    });
    rec.exit(span);
    let resident = TenantId((next + 1) % 2);
    let span = rec.enter("runtime.probe.registry_resolve_hit");
    let hit_s = time_per_call(15, 1000, || {
        std::hint::black_box(registry.resolve(resident));
    });
    rec.exit(span);
    let stats = registry.stats();
    out.set("runtime.registry.resolve_miss_ms", miss_s * 1e3);
    out.set("runtime.registry.resolve_hit_us", hit_s * 1e6);
    out.notes.push(format!(
        "registry probe: {} misses and {} hits on a one-slot registry",
        stats.misses, stats.hits
    ));
}
