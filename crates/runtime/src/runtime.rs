//! The runtime orchestrator: the dispatcher, the worker pool, client
//! handles and drain-on-shutdown.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use strix_core::BatchGeometry;
use strix_tfhe::lwe::LweCiphertext;

use crate::analyzer::AdmissionPolicy;
use crate::dispatch::Dispatcher;
use crate::error::RuntimeError;
use crate::executor::{BatchExecutor, KernelPolicy, TfheExecutor};
use crate::metrics::{MetricsSink, RuntimeReport};
use crate::policy::FlushPolicy;
use crate::registry::KeyRegistry;
use crate::request::{ClientId, Request, RequestOp, Response, TenantId};
use crate::trace::{TraceConfig, TraceStage, Tracer};
use crate::worker::{self, ClientRegistry};

/// Configuration of a [`Runtime`].
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// The two-level batch shape (epoch = `tvlp × core_batch`).
    pub geometry: BatchGeometry,
    /// Staleness bound: a tenant whose oldest request was submitted
    /// this long ago is served before every fresher batch. An idle
    /// worker never waits for it — it takes what is open at once.
    pub max_delay: Duration,
    /// Worker threads executing epochs.
    pub workers: usize,
    /// Intra-epoch threads each worker's executor may use: an epoch's
    /// PBS jobs are sharded across up to this many scoped threads
    /// (bit-identical to sequential execution). Honoured by
    /// [`Runtime::start_tfhe`] and [`Runtime::start_multi_tenant`];
    /// custom executors receive it via
    /// [`TfheExecutor::with_threads`](crate::executor::TfheExecutor::with_threads)-style
    /// constructors.
    pub threads_per_worker: usize,
    /// Requests admitted but not yet taken by a worker at which
    /// `submit` blocks (backpressure bound).
    pub ingress_depth: usize,
    /// Request tracing configuration (ring capacity, sampling).
    pub trace: TraceConfig,
    /// Execute every Nth epoch through the probed (instrumented)
    /// production kernel to populate the report's per-stage PBS
    /// breakdown; 0 disables sampling. A sampled epoch runs
    /// single-threaded, so with `threads_per_worker > 1` this trades a
    /// sliver of throughput for attribution.
    pub profile_every: u64,
}

impl RuntimeConfig {
    /// A config mirroring an accelerator batch geometry, with a 10 ms
    /// staleness bound, two single-threaded workers and room for four
    /// epochs of pending requests.
    pub fn new(geometry: BatchGeometry) -> Self {
        Self {
            geometry,
            max_delay: Duration::from_millis(10),
            workers: 2,
            threads_per_worker: 1,
            ingress_depth: geometry.epoch_size() * 4,
            trace: TraceConfig::default(),
            profile_every: 16,
        }
    }

    /// Overrides the staleness bound.
    pub fn with_max_delay(self, max_delay: Duration) -> Self {
        Self { max_delay, ..self }
    }

    /// Overrides the worker count.
    pub fn with_workers(self, workers: usize) -> Self {
        Self { workers: workers.max(1), ..self }
    }

    /// Overrides the intra-epoch thread budget per worker.
    pub fn with_threads_per_worker(self, threads_per_worker: usize) -> Self {
        Self { threads_per_worker: threads_per_worker.max(1), ..self }
    }

    /// Overrides the tracing configuration.
    pub fn with_trace(self, trace: TraceConfig) -> Self {
        Self { trace, ..self }
    }

    /// Overrides the stage-profiling sampling period (0 disables).
    pub fn with_profile_every(self, profile_every: u64) -> Self {
        Self { profile_every, ..self }
    }

    /// Returns the config unchanged: a no-op kept for callers that
    /// still name a kernel. A server holds one blind-rotation key and
    /// the key decides the kernel (see [`KernelPolicy`]), so there is
    /// no kernel left for the runtime to choose.
    pub fn with_kernel_policy(self, _kernel_policy: KernelPolicy) -> Self {
        self
    }
}

/// The streaming runtime: accepts tagged requests from many concurrent
/// clients into per-tenant open batches, and lets every free worker
/// take what is open as an epoch of up to `TvLP × core_batch` requests
/// (see [`FlushPolicy`]).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use strix_core::BatchGeometry;
/// use strix_runtime::{Runtime, RuntimeConfig, RequestOp, TfheExecutor};
/// use strix_tfhe::bootstrap::Lut;
/// use strix_tfhe::prelude::*;
///
/// let params = TfheParameters::testing_fast();
/// let (mut client_key, server_key) = generate_keys(&params, 7);
/// let runtime = Runtime::start(
///     RuntimeConfig::new(BatchGeometry::explicit(2, 4)),
///     TfheExecutor::new(Arc::new(server_key)),
/// );
///
/// let lut = Arc::new(Lut::from_function(params.polynomial_size, 2, |m| (m + 1) % 4).unwrap());
/// let mut handle = runtime.client();
/// let ct = client_key.encrypt_shortint(1, 2).unwrap().as_lwe().clone();
/// handle.submit(ct, RequestOp::Lut(lut)).unwrap();
/// let response = handle.recv().unwrap();
/// let phase = client_key.decrypt_phase(&response.result.unwrap()).unwrap();
/// assert_eq!(strix_tfhe::torus::decode_message(phase, 3), 2);
/// let report = runtime.shutdown();
/// assert_eq!(report.requests_completed, 1);
/// ```
pub struct Runtime {
    dispatcher: Arc<Dispatcher>,
    registry: Arc<ClientRegistry>,
    metrics: Arc<MetricsSink>,
    tracer: Arc<Tracer>,
    /// The executor's noise-budget admission policy, captured once at
    /// start-up and shared by every client handle; `None` for
    /// executors that enforce none.
    admission: Option<Arc<AdmissionPolicy>>,
    /// The executor's resolved SIMD kernel backend label, captured once
    /// at start-up; empty for synthetic executors.
    fft_backend: String,
    /// The multi-tenant key registry, when this runtime was started
    /// through [`Self::start_multi_tenant`]: its cache counters are
    /// folded into every report.
    key_registry: Option<Arc<KeyRegistry>>,
    next_client: AtomicU64,
    workers: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Starts the worker threads.
    pub fn start(config: RuntimeConfig, executor: impl BatchExecutor) -> Self {
        Self::start_dyn(config, Arc::new(executor))
    }

    /// Starts a runtime over the TFHE back-end, honouring the config's
    /// `threads_per_worker`: shorthand for [`Self::start`] with
    /// [`TfheExecutor::with_threads`](crate::executor::TfheExecutor::with_threads).
    /// The key's kernel runs.
    pub fn start_tfhe(config: RuntimeConfig, server: Arc<strix_tfhe::ServerKey>) -> Self {
        let executor = TfheExecutor::with_threads(server, config.threads_per_worker);
        Self::start(config, executor)
    }

    /// Starts a multi-tenant runtime over a shared [`KeyRegistry`],
    /// honouring the config's `threads_per_worker` exactly like
    /// [`Self::start_tfhe`]. Open batches are kept per
    /// tenant — epochs never mix key domains — and each
    /// worker resolves the epoch tenant's server key from the registry
    /// (expanding the seeded transport form on first use, under the
    /// registry's LRU residency budget) and pins it for the epoch's
    /// whole PBS+KS run. Open per-tenant streams with
    /// [`Self::client_for`]; the registry's cache counters appear in
    /// every [`RuntimeReport`].
    pub fn start_multi_tenant(config: RuntimeConfig, registry: Arc<KeyRegistry>) -> Self {
        let executor = TfheExecutor::multi_tenant(Arc::clone(&registry), config.threads_per_worker);
        let mut runtime = Self::start(config, executor);
        runtime.key_registry = Some(registry);
        runtime
    }

    /// As [`Self::start`], for an already-shared executor.
    pub fn start_dyn(config: RuntimeConfig, executor: Arc<dyn BatchExecutor>) -> Self {
        let registry = Arc::new(ClientRegistry::default());
        let metrics = Arc::new(MetricsSink::default());
        let tracer = Arc::new(Tracer::new(config.trace));
        let dispatcher = Arc::new(Dispatcher::new(
            FlushPolicy::from_geometry(config.geometry, config.max_delay),
            config.ingress_depth,
            Arc::clone(&metrics),
            Arc::clone(&tracer),
        ));
        let admission = executor.admission().map(Arc::new);
        let fft_backend = executor.fft_backend().unwrap_or_default();

        let profile_every = config.profile_every;
        let workers = (0..config.workers.max(1))
            .map(|idx| {
                let (d, x, r, m, t) = (
                    Arc::clone(&dispatcher),
                    Arc::clone(&executor),
                    Arc::clone(&registry),
                    Arc::clone(&metrics),
                    Arc::clone(&tracer),
                );
                let epochs = std::iter::from_fn(move || d.next_epoch());
                std::thread::Builder::new()
                    .name(format!("strix-worker-{idx}"))
                    .spawn(move || worker::run(epochs, x, r, m, t, profile_every))
                    // lint:allow(panic) thread spawn fails only on resource exhaustion at startup
                    .expect("spawn worker")
            })
            .collect();

        Self {
            dispatcher,
            registry,
            metrics,
            tracer,
            admission,
            fft_backend,
            key_registry: None,
            next_client: AtomicU64::new(0),
            workers,
        }
    }

    /// Opens a new client stream under the default (single-tenant) key
    /// domain. Handles are independent and may move to their own
    /// threads.
    pub fn client(&self) -> ClientHandle {
        self.client_for(TenantId::default())
    }

    /// Opens a new client stream whose every request routes to
    /// `tenant`'s key domain. On a multi-tenant runtime the tenant must
    /// have key material registered before its first epoch executes;
    /// unregistered tenants fail their requests, they never stall the
    /// pipeline.
    pub fn client_for(&self, tenant: TenantId) -> ClientHandle {
        let id = ClientId(self.next_client.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = mpsc::channel();
        self.registry.register(id, tx);
        ClientHandle {
            id,
            tenant,
            dispatcher: Arc::clone(&self.dispatcher),
            registry: Arc::clone(&self.registry),
            tracer: Arc::clone(&self.tracer),
            metrics: Arc::clone(&self.metrics),
            admission: self.admission.clone(),
            rx,
            next_submit: 0,
            next_recv: 0,
            reorder: BTreeMap::new(),
        }
    }

    /// The runtime's tracer — export [`Tracer::chrome_trace_json`]
    /// after (or during) a run to open the request timeline in
    /// Perfetto / `chrome://tracing`.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// A live snapshot of the metrics without shutting down.
    pub fn report(&self) -> RuntimeReport {
        let mut report = self.metrics.report(self.dispatcher.max_epoch());
        report.ingress_queue_depth = self.dispatcher.pending();
        report.ingress_queue_high_water = self.dispatcher.high_water();
        report.fft_backend = self.fft_backend.clone();
        self.fill_key_cache_stats(&mut report);
        report
    }

    /// Folds the key registry's cache counters into a report (a no-op
    /// on single-tenant runtimes, whose reports keep the zero
    /// defaults).
    fn fill_key_cache_stats(&self, report: &mut RuntimeReport) {
        if let Some(registry) = &self.key_registry {
            let stats = registry.stats();
            report.tenants_registered = stats.tenants_registered;
            report.key_cache_hits = stats.hits;
            report.key_cache_misses = stats.misses;
            report.key_cache_evictions = stats.evictions;
            report.key_cache_resident_bytes = stats.resident_bytes;
            report.key_cache_budget_bytes = stats.budget_bytes;
        }
    }

    /// Drains and stops the runtime: further `submit`s fail, every
    /// already-admitted request still executes, and all threads are
    /// joined. Returns the final report.
    pub fn shutdown(mut self) -> RuntimeReport {
        self.drain_and_join();
        self.report()
    }

    fn drain_and_join(&mut self) {
        self.dispatcher.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Every response is now delivered; dropping the senders lets
        // client handles see disconnection after draining their
        // buffers instead of blocking forever.
        self.registry.clear();
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // A dropped runtime still drains: close and join.
        self.drain_and_join();
    }
}

/// One client's submit/receive endpoint.
///
/// `recv` returns responses **in submission order** regardless of how
/// epochs interleave across workers: a small reorder buffer holds any
/// response that completes ahead of its predecessors.
pub struct ClientHandle {
    id: ClientId,
    /// The key domain every request submitted through this handle
    /// routes to.
    tenant: TenantId,
    dispatcher: Arc<Dispatcher>,
    registry: Arc<ClientRegistry>,
    tracer: Arc<Tracer>,
    metrics: Arc<MetricsSink>,
    admission: Option<Arc<AdmissionPolicy>>,
    rx: Receiver<Response>,
    next_submit: u64,
    next_recv: u64,
    reorder: BTreeMap<u64, Response>,
}

impl ClientHandle {
    /// This stream's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The key domain this handle submits into.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The runtime's noise-budget admission policy, when its executor
    /// enforces one. [`ProgramSession`](crate::session::ProgramSession)
    /// checks every program against it before submitting anything.
    pub fn admission(&self) -> Option<&AdmissionPolicy> {
        self.admission.as_deref()
    }

    /// Counts the bootstraps a program session saves by running its
    /// lowered form into the runtime report.
    pub(crate) fn record_lowering(&self, removed: usize) {
        self.metrics.record_lowering(removed);
    }

    /// Submits a request into its tenant's open batch, blocking while
    /// `ingress_depth` admitted requests wait for a worker
    /// (backpressure). Returns the request's sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Shutdown`] after the runtime shut down,
    /// including to a submit that was blocked when it did.
    pub fn submit(&mut self, ct: LweCiphertext, op: RequestOp) -> Result<u64, RuntimeError> {
        let seq = self.next_submit;
        let span = self.tracer.next_span();
        let request = Request::new(self.id, seq, span, ct, op).with_tenant(self.tenant);
        // The Submitted→Enqueued gap is the time admission blocked on
        // backpressure — visible per request in the exported trace.
        self.tracer.record_at(
            span,
            self.id,
            seq,
            None,
            TraceStage::Submitted,
            request.submitted_at,
        );
        self.dispatcher.submit(request)?;
        self.tracer.record(span, self.id, seq, None, TraceStage::Enqueued);
        self.next_submit += 1;
        Ok(seq)
    }

    /// Receives the next response in submission order, blocking until
    /// it is available.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Shutdown`] when the runtime stopped
    /// before producing it.
    pub fn recv(&mut self) -> Result<Response, RuntimeError> {
        loop {
            if let Some(response) = self.reorder.remove(&self.next_recv) {
                self.next_recv += 1;
                return Ok(response);
            }
            match self.rx.recv() {
                Ok(response) => self.buffer(response),
                Err(_) => return Err(RuntimeError::Shutdown),
            }
        }
    }

    /// As [`Self::recv`] with a time limit.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Lost`] on timeout, [`RuntimeError::Shutdown`]
    /// when the runtime stopped.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Response, RuntimeError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(response) = self.reorder.remove(&self.next_recv) {
                self.next_recv += 1;
                return Ok(response);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RuntimeError::Lost);
            }
            match self.rx.recv_timeout(deadline - now) {
                Ok(response) => self.buffer(response),
                Err(RecvTimeoutError::Timeout) => return Err(RuntimeError::Lost),
                Err(RecvTimeoutError::Disconnected) => return Err(RuntimeError::Shutdown),
            }
        }
    }

    /// Non-blocking receive of the next in-order response, if ready.
    pub fn try_recv(&mut self) -> Option<Response> {
        loop {
            if let Some(response) = self.reorder.remove(&self.next_recv) {
                self.next_recv += 1;
                return Some(response);
            }
            match self.rx.try_recv() {
                Ok(response) => self.buffer(response),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => return None,
            }
        }
    }

    /// Number of submitted requests not yet returned by `recv`.
    /// Responses sitting in the reorder buffer still count as
    /// outstanding — they have not reached the caller.
    pub fn outstanding(&self) -> u64 {
        self.next_submit - self.next_recv
    }

    fn buffer(&mut self, response: Response) {
        // A stale response (already returned to the caller) is dropped
        // explicitly rather than debug-asserted: in release it must not
        // silently shadow a live entry in the reorder buffer.
        if response.seq < self.next_recv {
            return;
        }
        let evicted = self.reorder.insert(response.seq, response);
        // Two in-flight responses for one sequence number can't happen:
        // each submit allocates a fresh seq and workers answer each
        // request exactly once.
        debug_assert!(evicted.is_none(), "duplicate in-flight response");
    }
}

impl Drop for ClientHandle {
    fn drop(&mut self) {
        self.registry.deregister(self.id);
    }
}
