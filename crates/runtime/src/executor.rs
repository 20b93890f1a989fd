//! Batch execution back-ends.
//!
//! The scheduler is execution-agnostic: workers hand each flushed
//! epoch to a [`BatchExecutor`]. The production back-end is
//! [`TfheExecutor`], which drives `strix-tfhe`'s key-major batched
//! bootstrap so one pass over the bootstrapping key serves the whole
//! epoch — the software realisation of core-level batching. Tests use
//! lightweight synthetic executors to exercise scheduling behaviour in
//! isolation.

use std::sync::Arc;
use std::time::Instant;

use strix_tfhe::boolean::gate_sign_lut;
use strix_tfhe::bootstrap::{Lut, PbsJob};
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::profiler::{PbsStage, StageTimings};
use strix_tfhe::{PbsKernel, ServerKey, TfheError, TfheParameters};

use crate::analyzer::AdmissionPolicy;
use crate::registry::KeyRegistry;
use crate::request::{Request, RequestOp, TenantId};

/// A PBS kernel, named the way GPU TFHE back-ends name their
/// CLASSICAL-vs-MULTI_BIT choice.
///
/// **Read by nothing.** A server holds one blind-rotation key and the
/// key decides the kernel
/// ([`strix_tfhe::bootstrap::BootstrapKey::kernel`]); an
/// [`AdmissionPolicy`] takes that [`PbsKernel`] directly. The type
/// survives only as the argument of the no-op
/// [`RuntimeConfig::with_kernel_policy`](crate::RuntimeConfig::with_kernel_policy),
/// for callers that still name a kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelPolicy {
    kernel: PbsKernel,
}

impl KernelPolicy {
    /// A policy asking for `kernel` on every request.
    pub fn uniform(kernel: PbsKernel) -> Self {
        Self { kernel }
    }

    /// The kernel this policy asks for.
    pub fn kernel(&self) -> PbsKernel {
        self.kernel
    }
}

/// Computes the linear preamble
/// `weights[0]·ct + Σ weights[i+1]·extra[i] + offset` shared by gate
/// and [`RequestOp::LinearLut`] requests (and by the synchronous
/// reference path in
/// [`Program::run_sync`](crate::session::Program::run_sync), so the
/// two executions stay bit-identical).
///
/// # Errors
///
/// Returns [`TfheError::ParameterMismatch`] if the weight count does
/// not match the input count or the input dimensions disagree.
pub(crate) fn linear_preamble(
    ct: &LweCiphertext,
    weights: &[i64],
    extra: &[LweCiphertext],
    offset: u64,
) -> Result<LweCiphertext, TfheError> {
    if weights.len() != extra.len() + 1 {
        return Err(TfheError::ParameterMismatch {
            what: "linear weights vs inputs",
            left: weights.len(),
            right: extra.len() + 1,
        });
    }
    let mut acc = ct.clone();
    acc.scalar_mul_assign(weights[0]);
    for (w, x) in weights[1..].iter().zip(extra) {
        acc.add_scaled_assign(x, *w)?;
    }
    acc.plaintext_add_assign(offset);
    Ok(acc)
}

/// What one epoch's execution produced, beyond the results themselves:
/// the coarse execution timeline the tracer turns into `pbs` /
/// `keyswitch` slices, and — on sampled epochs — the per-stage timing
/// breakdown from the probed production kernel.
pub struct EpochExecution {
    /// One result per request, in request order.
    pub results: Vec<Result<LweCiphertext, TfheError>>,
    /// When the epoch's batched blind rotation started and ended
    /// (absent if the epoch carried no PBS jobs).
    pub pbs_span: Option<(Instant, Instant)>,
    /// When the epoch's post-PBS batched keyswitch tail started and
    /// ended (absent if nothing needed switching back).
    pub ks_span: Option<(Instant, Instant)>,
    /// Per-stage timings and the PBS job count they cover, present only
    /// when the epoch was executed through the probed kernel.
    pub stage_sample: Option<(StageTimings, usize)>,
    /// How many of the epoch's PBS jobs ran through each kernel, as
    /// `[classical, multi_bit]` — the observable of the resolved
    /// kernel, recorded into the metrics by the worker.
    pub kernel_jobs: [usize; 2],
}

impl EpochExecution {
    /// Wraps bare results with no timeline — what synthetic executors
    /// and the default trait impl produce.
    pub fn from_results(results: Vec<Result<LweCiphertext, TfheError>>) -> Self {
        Self { results, pbs_span: None, ks_span: None, stage_sample: None, kernel_jobs: [0, 0] }
    }
}

/// Executes one epoch of requests.
pub trait BatchExecutor: Send + Sync + 'static {
    /// Runs every request, returning one result per request **in the
    /// same order**.
    fn execute(&self, batch: &[Request]) -> Vec<Result<LweCiphertext, TfheError>>;

    /// Runs one epoch and reports its execution timeline; when
    /// `profiled` is set the back-end should execute through its
    /// instrumented path and attach a per-stage sample. The default
    /// delegates to [`Self::execute`] with no timeline, so synthetic
    /// test executors need not care.
    fn execute_epoch(&self, batch: &[Request], profiled: bool) -> EpochExecution {
        let _ = profiled;
        EpochExecution::from_results(self.execute(batch))
    }

    /// How many threads [`Self::execute`] will use for a batch
    /// carrying `batch_len` PBS jobs (workers pass the PBS-bearing
    /// request count, since keyswitch-only requests never shard).
    /// Recorded into the metrics so the report can show per-epoch
    /// thread occupancy.
    fn planned_threads(&self, batch_len: usize) -> usize {
        let _ = batch_len;
        1
    }

    /// The thread budget this executor was configured with (the
    /// denominator of the thread-occupancy metric).
    fn max_threads(&self) -> usize {
        1
    }

    /// The static noise-budget admission policy programs submitted
    /// through this executor must satisfy, if it enforces one. The
    /// runtime captures it at start-up and every
    /// [`ProgramSession`](crate::session::ProgramSession) checks its
    /// program against it before the first request is enqueued.
    /// Synthetic executors (no key material, no noise model) return
    /// `None`: nothing is checked.
    fn admission(&self) -> Option<AdmissionPolicy> {
        None
    }

    /// The resolved SIMD kernel backend this executor's spectral
    /// transforms run on (a [`strix_tfhe::StrixFftBackend`] label,
    /// never `"auto"`). Captured once at runtime start-up and surfaced
    /// in [`RuntimeReport`](crate::metrics::RuntimeReport) next to the
    /// kernel job counters. Synthetic executors perform no transforms
    /// and return `None`.
    fn fft_backend(&self) -> Option<String> {
        None
    }
}

/// Where a [`TfheExecutor`]'s epochs take their server key from.
enum KeySource {
    /// One key for the executor's lifetime.
    Pinned(Arc<ServerKey>),
    /// The epoch tenant's key, resolved from a shared registry. Epochs
    /// are single-tenant by construction (the dispatcher keeps one open
    /// batch per tenant), so one [`resolve`](KeyRegistry::resolve) pins
    /// the epoch's key — as an `Arc`, safe against concurrent eviction
    /// — for the whole PBS+KS run: the third batching level, grouping
    /// by *key* above the TvLP × core_batch grouping by ciphertext.
    Registry(Arc<KeyRegistry>),
}

impl KeySource {
    /// The parameter set every key from this source was generated for.
    fn params(&self) -> &TfheParameters {
        match self {
            KeySource::Pinned(server) => server.params(),
            KeySource::Registry(registry) => registry.params(),
        }
    }
}

/// The TFHE back-end: batched PBS with amortised bootstrapping-key
/// access — optionally split across an intra-epoch thread pool
/// ([`strix_tfhe::bootstrap::BootstrapKey::bootstrap_batch_parallel`]),
/// on the server's one blind-rotation key, whose kernel it runs
/// — plus batched keyswitching where the operation asks for it. Both
/// tails of Algorithm 2 run batched: the post-PBS keyswitches are
/// sharded across the same thread budget as the blind rotation
/// ([`strix_tfhe::keyswitch::KeySwitchKey::keyswitch_batch_parallel`]),
/// and keyswitch-only requests form one batch per epoch (one digit
/// buffer, no per-request allocation), borrowed straight from the
/// request structures.
///
/// The server key is either pinned for the executor's lifetime
/// ([`Self::new`]) or resolved per epoch from a tenant
/// [`KeyRegistry`] ([`Self::multi_tenant`]); the epoch body is the
/// same either way.
pub struct TfheExecutor {
    keys: KeySource,
    threads: usize,
    /// The kernel every epoch runs, resolved once at construction.
    kernel: PbsKernel,
    /// The sign LUT shared by every gate request, built once per
    /// executor instead of once per gate.
    gate_lut: Lut,
    /// Minimum predicted decision margin (in sigmas) the admission
    /// analyzer requires of every submitted program.
    admission_threshold_sigmas: f64,
}

impl TfheExecutor {
    /// Wraps a server key; epochs execute on the calling worker thread
    /// alone.
    pub fn new(server: Arc<ServerKey>) -> Self {
        Self::with_threads(server, 1)
    }

    /// Wraps a server key with an intra-epoch thread budget: each
    /// epoch's PBS jobs are sharded across up to `threads` scoped
    /// threads sharing the bootstrapping key, bit-identically to the
    /// sequential path. `threads` is clamped to at least 1. The kernel
    /// follows the server key's parameter set.
    pub fn with_threads(server: Arc<ServerKey>, threads: usize) -> Self {
        Self::from_source(KeySource::Pinned(server), threads)
    }

    /// Wraps a tenant key registry: each epoch runs under its tenant's
    /// key, resolved (and expanded on first use) from `registry`, on
    /// the kernel of the registry's shared parameter set.
    pub fn multi_tenant(registry: Arc<KeyRegistry>, threads: usize) -> Self {
        Self::from_source(KeySource::Registry(registry), threads)
    }

    /// The builder body every constructor above shares. The kernel is a
    /// property of the key: the pinned key's own, or the registry's
    /// parameter set's (every registry key is generated under it).
    fn from_source(keys: KeySource, threads: usize) -> Self {
        let kernel = match &keys {
            KeySource::Pinned(server) => server.bootstrap_key().kernel(),
            KeySource::Registry(registry) => registry.params().pbs_kernel,
        };
        Self {
            kernel,
            gate_lut: gate_sign_lut(keys.params().polynomial_size),
            keys,
            threads: threads.max(1),
            admission_threshold_sigmas: crate::analyzer::DEFAULT_THRESHOLD_SIGMAS,
        }
    }

    /// Overrides the admission threshold: the minimum predicted
    /// decision margin, in standard deviations of the accumulated
    /// noise, the static analyzer requires of every program node. A
    /// non-positive threshold admits everything.
    pub fn with_admission_threshold(mut self, sigmas: f64) -> Self {
        self.admission_threshold_sigmas = sigmas;
        self
    }

    /// The kernel every epoch runs: the key's own.
    pub fn kernel(&self) -> PbsKernel {
        self.kernel
    }

    /// Runs one epoch against `server`, bootstrapping every PBS job
    /// on its one blind-rotation key. With a `tenant`, requests of any
    /// other tenant fail alone.
    fn run_epoch(
        &self,
        server: &ServerKey,
        tenant: Option<TenantId>,
        batch: &[Request],
        profiled: bool,
    ) -> EpochExecution {
        let bsk = server.bootstrap_key();
        let mut timings = StageTimings::new();
        let mut pbs_span = None;
        let mut ks_span = None;
        let mut results: Vec<Option<Result<LweCiphertext, TfheError>>> =
            batch.iter().map(|_| None).collect();
        // Fused linear preambles are materialised first so the borrowed
        // PBS jobs below can reference them alongside the plain request
        // ciphertexts. A failed preamble fails its request alone, and
        // so does a request of a tenant other than the key's.
        let preamble_t0 = Instant::now();
        let mut preambles: Vec<Option<LweCiphertext>> = batch.iter().map(|_| None).collect();
        for (i, req) in batch.iter().enumerate() {
            if tenant.is_some_and(|t| t != req.tenant) {
                let foreign = "request tenant differs from the epoch key's tenant";
                results[i] = Some(Err(TfheError::InvalidParameters(foreign)));
                continue;
            }
            let combined = match &req.op {
                RequestOp::Gate { recipe, extra } => {
                    Some(linear_preamble(&req.ct, recipe.weights(), extra, recipe.offset()))
                }
                RequestOp::LinearLut { weights, extra, offset, .. } => {
                    Some(linear_preamble(&req.ct, weights, extra, *offset))
                }
                _ => None,
            };
            match combined {
                Some(Ok(ct)) => preambles[i] = Some(ct),
                Some(Err(e)) => results[i] = Some(Err(e)),
                None => {}
            }
        }
        if profiled {
            timings.add(PbsStage::LinearOps, preamble_t0.elapsed());
        }

        // Every PBS-bearing request joins one key-major batch.
        // Keyswitch-only requests are collected and run as ONE batch
        // (one digit buffer per epoch) instead of one allocating
        // `keyswitch` call per request. Shapes and dimensions are
        // validated here, per request, so a malformed input fails alone
        // instead of poisoning (or serialising) a shared batch call.
        let ksk = server.keyswitch_key();
        let mut pbs_indices = Vec::new();
        let mut jobs: Vec<PbsJob<'_>> = Vec::new();
        let mut ks_only_slots = Vec::new();
        let mut ks_only_inputs: Vec<&LweCiphertext> = Vec::new();
        for (i, req) in batch.iter().enumerate() {
            if results[i].is_some() {
                continue; // already failed above
            }
            let job = match &req.op {
                RequestOp::Lut(lut) | RequestOp::Bootstrap(lut) => Some((&req.ct, lut.as_ref())),
                RequestOp::Gate { .. } => preambles[i].as_ref().map(|ct| (ct, &self.gate_lut)),
                RequestOp::LinearLut { lut, .. } => {
                    preambles[i].as_ref().map(|ct| (ct, lut.as_ref()))
                }
                RequestOp::Keyswitch => {
                    if req.ct.dimension() == ksk.input_dimension() {
                        ks_only_slots.push(i);
                        ks_only_inputs.push(&req.ct);
                    } else {
                        results[i] = Some(Err(TfheError::ParameterMismatch {
                            what: "lwe dimension",
                            left: req.ct.dimension(),
                            right: ksk.input_dimension(),
                        }));
                    }
                    None
                }
            };
            if let Some((ct, lut)) = job {
                match bsk.check_shape(ct, lut) {
                    Ok(()) => {
                        pbs_indices.push(i);
                        jobs.push(PbsJob { ct, lut });
                    }
                    Err(e) => results[i] = Some(Err(e)),
                }
            }
        }

        // With dimensions pre-validated the batch call cannot fail;
        // an unexpected error still fails only its own requests.
        // Keyswitching has no job blocking, so it shards with the
        // plain thread budget, not the block-aware PBS plan.
        if !ks_only_inputs.is_empty() {
            let threads = self.threads.min(ks_only_inputs.len());
            let switched = ksk.keyswitch_batch_parallel(&ks_only_inputs, threads);
            fill(&mut results, &ks_only_slots, switched);
        }

        // With shapes pre-validated the batch call cannot mismatch;
        // still, an unexpected error fails its jobs rather than
        // panicking the worker thread.
        //
        // A profiled (sampled) epoch runs the probed production kernel
        // instead — same blocked CMUX loop, single-threaded, with each
        // stage bracketed by `TimingProbe`. Bit-identical output; the
        // sampling cost is losing intra-epoch parallelism for this one
        // epoch, which is why it's every Nth epoch, not all of them.
        let pbs_t0 = Instant::now();
        let booted = if profiled {
            bsk.bootstrap_batch_profiled(&jobs, &mut timings)
        } else {
            bsk.bootstrap_batch_parallel(&jobs, plan_threads(self.threads, jobs.len()))
        };
        if !jobs.is_empty() {
            pbs_span = Some((pbs_t0, Instant::now()));
        }
        // Keyswitch the Lut/Gate/LinearLut outputs as one batch (they
        // all carry the extracted dimension the key expects);
        // Bootstrap-op outputs pass through raw.
        let mut ks_slots = Vec::new();
        let mut ks_inputs = Vec::new();
        match booted {
            Ok(booted) => {
                for (&i, out) in pbs_indices.iter().zip(booted) {
                    match &batch[i].op {
                        RequestOp::Lut(_)
                        | RequestOp::Gate { .. }
                        | RequestOp::LinearLut { .. } => {
                            ks_slots.push(i);
                            ks_inputs.push(out);
                        }
                        _ => results[i] = Some(Ok(out)),
                    }
                }
            }
            Err(e) => {
                for &i in &pbs_indices {
                    results[i] = Some(Err(e.clone()));
                }
            }
        }
        // The Algorithm-2 tail shares the epoch's thread
        // budget: sharded like the blind rotation, bit-identical
        // to the sequential batch. On sampled epochs its wall
        // time lands in the KeySwitch stage bucket.
        let ks_t0 = Instant::now();
        let switched_result =
            ksk.keyswitch_batch_parallel(&ks_inputs, self.threads.min(ks_inputs.len()).max(1));
        if !ks_inputs.is_empty() {
            let ks_t1 = Instant::now();
            ks_span = Some((ks_t0, ks_t1));
            if profiled {
                timings.add(PbsStage::KeySwitch, ks_t1 - ks_t0);
            }
        }
        // An error is unreachable with pre-validated shapes (PBS always
        // emits the extracted dimension), but it must fail its
        // requests, not the worker.
        fill(&mut results, &ks_slots, switched_result);

        let mut kernel_jobs = [0, 0];
        kernel_jobs[usize::from(bsk.kernel() != PbsKernel::Classical)] = jobs.len();
        let results = results
            .into_iter()
            // lint:allow(panic) every request is routed to exactly one of the fill paths above
            .map(|r| r.expect("every request receives a result"))
            .collect();
        let stage_sample = (profiled && !jobs.is_empty()).then_some((timings, jobs.len()));
        EpochExecution { results, pbs_span, ks_span, stage_sample, kernel_jobs }
    }
}

/// Stores one batch call's outputs in their requests' result slots; an
/// error fails every request of the batch.
fn fill(
    results: &mut [Option<Result<LweCiphertext, TfheError>>],
    slots: &[usize],
    outputs: Result<Vec<LweCiphertext>, TfheError>,
) {
    match outputs {
        Ok(outputs) => {
            for (&i, out) in slots.iter().zip(outputs) {
                results[i] = Some(Ok(out));
            }
        }
        Err(e) => {
            for &i in slots {
                results[i] = Some(Err(e.clone()));
            }
        }
    }
}

/// Block-aware intra-epoch thread plan: the blocked CMUX amortises each
/// key row over up to `CMUX_JOB_BLOCK` accumulators, so a shard smaller
/// than one block trades that locality for thread count. Cap the shard
/// count at one block per thread (the keyswitch tail, which has no
/// blocking, shards with the plain thread budget instead). Bit-identity
/// holds for any split.
fn plan_threads(threads: usize, batch_len: usize) -> usize {
    let max_useful = batch_len.div_ceil(strix_tfhe::scratch::CMUX_JOB_BLOCK);
    threads.min(max_useful).max(1)
}

impl BatchExecutor for TfheExecutor {
    fn execute(&self, batch: &[Request]) -> Vec<Result<LweCiphertext, TfheError>> {
        self.execute_epoch(batch, false).results
    }

    fn execute_epoch(&self, batch: &[Request], profiled: bool) -> EpochExecution {
        let (server, tenant) = match &self.keys {
            KeySource::Pinned(server) => (Arc::clone(server), None),
            KeySource::Registry(registry) => {
                let Some(tenant) = batch.first().map(|r| r.tenant) else {
                    return EpochExecution::from_results(Vec::new());
                };
                // The Arc pins the key for the whole epoch: a concurrent
                // eviction drops residency, not the material under us.
                let Some(server) = registry.resolve(tenant) else {
                    let missing =
                        TfheError::InvalidParameters("no key registered for the request's tenant");
                    return EpochExecution::from_results(vec![Err(missing); batch.len()]);
                };
                (server, Some(tenant))
            }
        };
        self.run_epoch(&server, tenant, batch, profiled)
    }

    fn planned_threads(&self, batch_len: usize) -> usize {
        plan_threads(self.threads, batch_len)
    }

    fn max_threads(&self) -> usize {
        self.threads
    }

    fn admission(&self) -> Option<AdmissionPolicy> {
        // The analyzer predicts the kernel the epochs run.
        Some(
            AdmissionPolicy::new(self.keys.params().clone(), self.kernel)
                .with_threshold(self.admission_threshold_sigmas),
        )
    }

    fn fft_backend(&self) -> Option<String> {
        // Resolved from the parameter set's backend selection (the
        // same dispatch every key's FFT plan goes through), so the
        // label is available before any registry key is resident.
        self.keys.params().fft_backend.resolve().ok().map(|b| b.label().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strix_tfhe::bootstrap::Lut;
    use strix_tfhe::prelude::*;

    use crate::request::ClientId;
    use crate::trace::SpanId;

    fn request(client: u64, seq: u64, ct: LweCiphertext, op: RequestOp) -> Request {
        Request::new(ClientId(client), seq, SpanId(seq), ct, op)
    }

    #[test]
    fn mixed_epoch_executes_all_op_kinds() {
        let params = TfheParameters::testing_fast();
        let (mut client, server) = generate_keys(&params, 42);
        let server = Arc::new(server);
        let exec = TfheExecutor::new(Arc::clone(&server));
        let p = 2u32;
        let lut = Arc::new(Lut::from_function(params.polynomial_size, p, |m| (m + 1) % 4).unwrap());

        let ct0 = client.encrypt_shortint(1, p).unwrap().as_lwe().clone();
        let ct1 = client.encrypt_shortint(2, p).unwrap().as_lwe().clone();
        // A keyswitch-only request needs an extracted-dimension input.
        let big = server
            .bootstrap_key()
            .bootstrap(
                client.encrypt_shortint(3, p).unwrap().as_lwe(),
                &Lut::from_function(params.polynomial_size, p, |m| m).unwrap(),
            )
            .unwrap();

        let batch = vec![
            request(0, 0, ct0, RequestOp::Lut(Arc::clone(&lut))),
            request(1, 0, big, RequestOp::Keyswitch),
            request(0, 1, ct1, RequestOp::Bootstrap(Arc::clone(&lut))),
        ];
        let results = exec.execute(&batch);
        assert_eq!(results.len(), 3);

        let decode = |ct: &LweCiphertext, bits: u32| {
            let phase = client.decrypt_phase(ct).unwrap();
            strix_tfhe::torus::decode_message(phase, bits + 1)
        };
        // Lut(+1) on 1 -> 2, keyswitched to dimension n.
        let out0 = results[0].as_ref().unwrap();
        assert_eq!(out0.dimension(), params.lwe_dimension);
        assert_eq!(decode(out0, p), 2);
        // Keyswitch of identity(3) -> 3.
        let out1 = results[1].as_ref().unwrap();
        assert_eq!(out1.dimension(), params.lwe_dimension);
        assert_eq!(decode(out1, p), 3);
        // Raw bootstrap stays at the extracted dimension; (2+1)=3.
        let out2 = results[2].as_ref().unwrap();
        assert_eq!(out2.dimension(), params.extracted_lwe_dimension());
        assert_eq!(decode(out2, p), 3);
    }

    #[test]
    fn threaded_executor_matches_single_threaded_bitwise() {
        let params = TfheParameters::testing_fast();
        let (mut client, server) = generate_keys(&params, 44);
        let server = Arc::new(server);
        let p = 2u32;
        let lut = Arc::new(Lut::from_function(params.polynomial_size, p, |m| (3 * m) % 4).unwrap());
        // 5 requests: uneven across 2 threads.
        let batch: Vec<Request> = (0..5u64)
            .map(|i| {
                let ct = client.encrypt_shortint(i % 4, p).unwrap().as_lwe().clone();
                request(i, 0, ct, RequestOp::Lut(Arc::clone(&lut)))
            })
            .collect();
        let sequential = TfheExecutor::new(Arc::clone(&server)).execute(&batch);
        let threaded = TfheExecutor::with_threads(Arc::clone(&server), 2);
        assert_eq!(threaded.planned_threads(batch.len()), 2);
        assert_eq!(threaded.planned_threads(1), 1);
        assert_eq!(threaded.max_threads(), 2);
        let parallel = threaded.execute(&batch);
        for (s, t) in sequential.iter().zip(&parallel) {
            assert_eq!(s.as_ref().unwrap(), t.as_ref().unwrap());
        }
    }

    #[test]
    fn profiled_epoch_matches_plain_epoch_and_carries_a_stage_sample() {
        let params = TfheParameters::testing_fast();
        let (mut client, server) = generate_keys(&params, 45);
        let server = Arc::new(server);
        let exec = TfheExecutor::new(Arc::clone(&server));
        let p = 2u32;
        let lut = Arc::new(Lut::from_function(params.polynomial_size, p, |m| (m + 1) % 4).unwrap());
        let batch: Vec<Request> = (0..3u64)
            .map(|i| {
                let ct = client.encrypt_shortint(i % 4, p).unwrap().as_lwe().clone();
                request(i, 0, ct, RequestOp::Lut(Arc::clone(&lut)))
            })
            .collect();

        let plain = exec.execute_epoch(&batch, false);
        let profiled = exec.execute_epoch(&batch, true);
        // Same blocked kernel either way: outputs are bit-identical.
        for (a, b) in plain.results.iter().zip(&profiled.results) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
        assert!(plain.stage_sample.is_none(), "unsampled epochs carry no stage data");
        let (timings, pbs) =
            profiled.stage_sample.as_ref().expect("profiled epoch carries stage data");
        let pbs = *pbs;
        assert_eq!(pbs, 3);
        assert!(timings.total_for(PbsStage::Fft) > std::time::Duration::ZERO);
        assert!(timings.total_for(PbsStage::KeySwitch) > std::time::Duration::ZERO);
        // Both executions report a coherent timeline: PBS before KS.
        for exec_out in [&plain, &profiled] {
            let (p0, p1) = exec_out.pbs_span.expect("PBS span");
            let (k0, k1) = exec_out.ks_span.expect("KS span");
            assert!(p0 <= p1 && p1 <= k0 && k0 <= k1);
        }
    }

    #[test]
    fn keyswitch_only_epoch_has_no_pbs_span() {
        let params = TfheParameters::testing_fast();
        let (mut client, server) = generate_keys(&params, 46);
        let server = Arc::new(server);
        let exec = TfheExecutor::new(Arc::clone(&server));
        let p = 2u32;
        let big = server
            .bootstrap_key()
            .bootstrap(
                client.encrypt_shortint(1, p).unwrap().as_lwe(),
                &Lut::from_function(params.polynomial_size, p, |m| m).unwrap(),
            )
            .unwrap();
        let out = exec.execute_epoch(&[request(0, 0, big, RequestOp::Keyswitch)], true);
        assert!(out.results[0].is_ok());
        assert!(out.pbs_span.is_none());
        assert!(out.stage_sample.is_none(), "no PBS jobs, nothing to normalise against");
    }

    #[test]
    fn gate_requests_match_server_key_gates_bitwise() {
        use strix_tfhe::boolean::BinaryGate;
        let params = TfheParameters::testing_fast();
        let (mut client, server) = generate_keys(&params, 77);
        let server = Arc::new(server);
        let exec = TfheExecutor::new(Arc::clone(&server));
        for gate in BinaryGate::ALL {
            for bits in 0..4u8 {
                let (x, y) = (bits & 1 != 0, bits & 2 != 0);
                let cx = client.encrypt_bool(x);
                let cy = client.encrypt_bool(y);
                let batch = vec![request(
                    0,
                    0,
                    cx.as_lwe().clone(),
                    RequestOp::Gate { recipe: gate.recipe(), extra: vec![cy.as_lwe().clone()] },
                )];
                let streamed = exec.execute(&batch).pop().unwrap().unwrap();
                let reference = server.binary_gate(gate, &cx, &cy).unwrap();
                // Same linear preamble, same deterministic PBS+KS: the
                // batched gate is bit-identical to the synchronous one.
                assert_eq!(&streamed, reference.as_lwe(), "{gate}({x}, {y})");
            }
        }
    }

    #[test]
    fn linear_lut_request_fuses_weighted_sum_and_lut() {
        let params = TfheParameters::testing_fast();
        let (mut client, server) = generate_keys(&params, 78);
        let exec = TfheExecutor::new(Arc::new(server));
        let p = 3u32;
        // A toy neuron: 2·m0 + m1 + 1, clamped by an identity LUT over
        // the 3-bit space (sum stays below 8, no wrap).
        let lut = Arc::new(Lut::from_function(params.polynomial_size, p, |m| m).unwrap());
        let m0 = 2u64;
        let m1 = 1u64;
        let ct0 = client.encrypt_shortint(m0, p).unwrap().as_lwe().clone();
        let ct1 = client.encrypt_shortint(m1, p).unwrap().as_lwe().clone();
        let offset = strix_tfhe::torus::encode_fraction(1, p + 1); // +1 message
        let op = RequestOp::LinearLut {
            weights: vec![2, 1],
            extra: vec![ct1],
            offset,
            lut: Arc::clone(&lut),
        };
        let out = exec.execute(&[request(0, 0, ct0, op)]).pop().unwrap().unwrap();
        assert_eq!(out.dimension(), params.lwe_dimension, "keyswitched back to n");
        let phase = client.decrypt_phase(&out).unwrap();
        assert_eq!(strix_tfhe::torus::decode_message(phase, p + 1), 2 * m0 + m1 + 1);
    }

    #[test]
    fn linear_preamble_arity_mismatch_fails_the_request_alone() {
        let params = TfheParameters::testing_fast();
        let (mut client, server) = generate_keys(&params, 79);
        let exec = TfheExecutor::new(Arc::new(server));
        let p = 2u32;
        let lut = Arc::new(Lut::from_function(params.polynomial_size, p, |m| m).unwrap());
        let good_ct = client.encrypt_shortint(1, p).unwrap().as_lwe().clone();
        let bad_op = RequestOp::LinearLut {
            weights: vec![1, 1, 1], // three weights, two inputs
            extra: vec![client.encrypt_shortint(0, p).unwrap().as_lwe().clone()],
            offset: 0,
            lut: Arc::clone(&lut),
        };
        let batch = vec![
            request(0, 0, good_ct.clone(), RequestOp::Lut(Arc::clone(&lut))),
            request(1, 0, good_ct, bad_op),
        ];
        let results = exec.execute(&batch);
        assert!(results[0].is_ok(), "healthy request must survive");
        assert!(
            matches!(results[1], Err(TfheError::ParameterMismatch { .. })),
            "arity mismatch must fail its own request"
        );
    }

    #[test]
    fn multi_bit_policy_dispatches_and_decrypts_like_classical() {
        let params =
            TfheParameters::testing_fast().with_kernel(PbsKernel::MultiBit { grouping_factor: 2 });
        let (mut client, server) = generate_keys(&params, 91);
        let server = Arc::new(server);
        // The classical server comes from the same seed, so it holds the
        // same secret keys: one client decrypts both kernels' outputs.
        let classical_params = params.clone().with_kernel(PbsKernel::Classical);
        let classical_server = Arc::new(ClientKey::generate(&classical_params, 91).server_key());
        let p = 2u32;
        let lut = Arc::new(Lut::from_function(params.polynomial_size, p, |m| (m + 1) % 4).unwrap());
        let batch: Vec<Request> = (0..5u64)
            .map(|i| {
                let ct = client.encrypt_shortint(i % 4, p).unwrap().as_lwe().clone();
                request(i, 0, ct, RequestOp::Lut(Arc::clone(&lut)))
            })
            .collect();

        // The key decides: multi-bit.
        let grouped = TfheExecutor::new(Arc::clone(&server));
        assert_eq!(grouped.kernel(), PbsKernel::MultiBit { grouping_factor: 2 });
        let grouped_exec = grouped.execute_epoch(&batch, false);
        assert_eq!(grouped_exec.kernel_jobs, [0, 5]);
        // The classical server yields the same decoded messages (the
        // kernels are decrypt-identical, not bit-identical).
        let classical = TfheExecutor::new(classical_server);
        let classical_exec = classical.execute_epoch(&batch, false);
        assert_eq!(classical_exec.kernel_jobs, [5, 0]);
        for (i, (g, c)) in grouped_exec.results.iter().zip(&classical_exec.results).enumerate() {
            let decode = |ct: &LweCiphertext| {
                let phase = client.decrypt_phase(ct).unwrap();
                strix_tfhe::torus::decode_message(phase, p + 1)
            };
            let expected = (i as u64 % 4 + 1) % 4;
            assert_eq!(decode(g.as_ref().unwrap()), expected, "multi-bit request {i}");
            assert_eq!(decode(c.as_ref().unwrap()), expected, "classical request {i}");
        }
    }

    #[test]
    fn multi_bit_policy_without_grouped_key_falls_back_to_classical() {
        // A classical server key carries no grouped key material, and
        // no executor takes a kernel policy: its epochs run classically.
        let params = TfheParameters::testing_fast();
        let (mut client, server) = generate_keys(&params, 93);
        let server = Arc::new(server);
        assert!(server.multi_bit_bootstrap_key().is_none());
        let p = 2u32;
        let lut = Arc::new(Lut::from_function(params.polynomial_size, p, |m| m).unwrap());
        let exec = TfheExecutor::new(Arc::clone(&server));
        assert_eq!(exec.kernel(), PbsKernel::Classical);
        let ct = client.encrypt_shortint(2, p).unwrap().as_lwe().clone();
        let epoch = exec.execute_epoch(&[request(0, 0, ct, RequestOp::Lut(lut))], false);
        assert_eq!(epoch.kernel_jobs, [1, 0], "the classical key runs classically");
        let phase = client.decrypt_phase(epoch.results[0].as_ref().unwrap()).unwrap();
        assert_eq!(strix_tfhe::torus::decode_message(phase, p + 1), 2);
    }

    #[test]
    fn registry_epoch_fails_other_tenants_requests_alone() {
        // Epochs are single-tenant by construction, but the public
        // `execute_epoch` accepts any batch: a request of another
        // tenant must fail with a typed error instead of running under
        // the first request's key, and the rest of the epoch must run.
        let params = TfheParameters::testing_fast();
        let registry = Arc::new(KeyRegistry::with_resident_keys(params.clone(), 2));
        let mut client = ClientKey::generate(&params, 94);
        registry.register_seeded(TenantId(1), client.seeded_server_key(0xA1));
        let mut other = ClientKey::generate(&params, 95);
        registry.register_seeded(TenantId(2), other.seeded_server_key(0xA2));
        let exec = TfheExecutor::multi_tenant(registry, 1);
        let p = 2u32;
        let lut = Arc::new(Lut::from_function(params.polynomial_size, p, |m| (m + 1) % 4).unwrap());
        let lut_request = |tenant: u64, seq: u64, key: &mut ClientKey, m: u64| {
            let ct = key.encrypt_shortint(m, p).unwrap().as_lwe().clone();
            request(tenant, seq, ct, RequestOp::Lut(Arc::clone(&lut))).with_tenant(TenantId(tenant))
        };
        let batch = vec![
            lut_request(1, 0, &mut client, 1),
            lut_request(2, 0, &mut other, 2),
            lut_request(1, 1, &mut client, 2),
        ];
        let epoch = exec.execute_epoch(&batch, false);
        assert_eq!(epoch.kernel_jobs, [2, 0], "only the key tenant's requests bootstrap");
        assert_eq!(
            epoch.results[1],
            Err(TfheError::InvalidParameters("request tenant differs from the epoch key's tenant"))
        );
        for (i, want) in [(0, 2), (2, 3)] {
            let phase = client.decrypt_phase(epoch.results[i].as_ref().unwrap()).unwrap();
            assert_eq!(strix_tfhe::torus::decode_message(phase, p + 1), want, "request {i}");
        }
    }

    #[test]
    fn malformed_request_fails_alone_not_the_epoch() {
        let params = TfheParameters::testing_fast();
        let (mut client, server) = generate_keys(&params, 43);
        let exec = TfheExecutor::new(Arc::new(server));
        let p = 2u32;
        let lut = Arc::new(Lut::from_function(params.polynomial_size, p, |m| m).unwrap());

        let good = client.encrypt_shortint(2, p).unwrap().as_lwe().clone();
        let bad = LweCiphertext::trivial(7, 0); // wrong dimension
        let batch = vec![
            request(0, 0, good, RequestOp::Lut(Arc::clone(&lut))),
            request(1, 0, bad, RequestOp::Lut(lut)),
        ];
        let results = exec.execute(&batch);
        assert!(results[0].is_ok(), "healthy request must survive");
        assert!(results[1].is_err(), "malformed request must fail");
        let phase = client.decrypt_phase(results[0].as_ref().unwrap()).unwrap();
        assert_eq!(strix_tfhe::torus::decode_message(phase, p + 1), 2);
    }
}
