//! **strix-runtime** — a streaming two-level batch scheduler serving
//! concurrent PBS request streams end-to-end.
//!
//! The Strix paper's headline is an *end-to-end streaming
//! architecture*: requests arrive continuously and the accelerator
//! stays saturated by forming device-level (`TvLP`) and core-level
//! batches from the live stream (§IV-C). `strix-core` models that
//! analytically; this crate is the software subsystem that actually
//! does it against the functional TFHE stack:
//!
//! 1. a **dispatcher** into which [`ClientHandle::submit`] admits
//!    tagged PBS / keyswitch requests from many concurrent clients
//!    straight into per-tenant open batches, with backpressure
//!    (`ingress_depth` pending requests) and per-client ordering,
//! 2. **worker-pull two-level batching**: an idle worker takes what is
//!    open at that moment as one epoch of at most `TvLP × core_batch`
//!    requests ([`strix_core::BatchGeometry`]) — a batch of one if need
//!    be — picked by the [`FlushPolicy`]: stale batches first
//!    (`max_delay` is a staleness priority, not a flush trigger), then
//!    full batches round robin, then the oldest. A busy worker leaves
//!    the batches open to fill, so epochs are full under load
//!    (fragmentation-free, the Fig. 2 argument) and no request waits
//!    while a worker is idle,
//! 3. a **worker pool** ([`worker`]) executing each epoch through a
//!    [`BatchExecutor`]; the TFHE back-end drives
//!    `BootstrapKey::bootstrap_batch_parallel`, which shards the epoch
//!    across `threads_per_worker` scoped threads — each shard's
//!    key-major loop reuses one bootstrapping-key fetch exactly as an
//!    HSC amortises its bsk stream, and every shard runs on its own
//!    allocation-free `PbsScratch`,
//! 4. a **metrics layer** ([`metrics`]) producing a [`RuntimeReport`]
//!    (latency percentiles, achieved PBS/s, batch-occupancy histogram,
//!    per-epoch thread occupancy, per-class latency attribution, a
//!    sampled per-stage PBS breakdown and a windowed time series) that
//!    sits next to the simulator's `PbsReport` in `strix-bench`,
//!    backed by an end-to-end **tracing layer** ([`trace`]) whose
//!    Chrome trace-event export opens in Perfetto,
//! 5. a **session/dataflow layer** ([`session`]) streaming multi-stage
//!    programs — circuit DAGs and Deep-NN ReLU schedules — through the
//!    same dispatcher: each [`ProgramSession`] keeps its whole ready
//!    frontier in flight, so independent stages from many concurrent
//!    clients interleave into full epochs instead of each client
//!    serialising on its own dependencies. Gate programs run in their
//!    bootstrap-minimised form ([`Program::lowered`]) whenever the
//!    static noise analyzer ([`analyzer`]) admits it.
//!
//! [`OpenLoopTrafficGen`] supplies Poisson / bursty / backlog arrival
//! schedules for the demo (`examples/streaming_server.rs`), the
//! integration tests and the benches.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use strix_core::BatchGeometry;
//! use strix_runtime::{RequestOp, Runtime, RuntimeConfig, TfheExecutor};
//! use strix_tfhe::bootstrap::Lut;
//! use strix_tfhe::prelude::*;
//!
//! let params = TfheParameters::testing_fast();
//! let (mut key, server) = generate_keys(&params, 1);
//! let runtime = Runtime::start(
//!     RuntimeConfig::new(BatchGeometry::explicit(2, 2)),
//!     TfheExecutor::new(Arc::new(server)),
//! );
//! let relu = Arc::new(
//!     Lut::from_function(params.polynomial_size, 3, |m| if m < 4 { m } else { 0 }).unwrap(),
//! );
//! let mut client = runtime.client();
//! for m in [2u64, 6] {
//!     let ct = key.encrypt_shortint(m, 3).unwrap().as_lwe().clone();
//!     client.submit(ct, RequestOp::Lut(Arc::clone(&relu))).unwrap();
//! }
//! let out: Vec<u64> = (0..2)
//!     .map(|_| {
//!         let ct = client.recv().unwrap().result.unwrap();
//!         let phase = key.decrypt_phase(&ct).unwrap();
//!         strix_tfhe::torus::decode_message(phase, 4)
//!     })
//!     .collect();
//! assert_eq!(out, [2, 0]); // ReLU(2), ReLU(-2)
//! runtime.shutdown();
//! ```

pub mod analyzer;
mod dispatch;
mod error;
pub mod executor;
mod lowering;
pub mod metrics;
pub mod policy;
pub mod registry;
pub mod request;
mod runtime;
pub mod session;
mod sync;
pub mod trace;
pub mod traffic;
pub mod worker;

pub use analyzer::{AdmissionPolicy, ProgramAnalysis, WireReport, DEFAULT_THRESHOLD_SIGMAS};
pub use error::RuntimeError;
pub use executor::{BatchExecutor, EpochExecution, KernelPolicy, TfheExecutor};
pub use metrics::{
    ClassLatency, MetricsSink, MetricsWindow, PbsStageBreakdown, RequestRecord, RuntimeReport,
    REPORT_SCHEMA_VERSION,
};
pub use policy::FlushPolicy;
pub use registry::{KeyRegistry, KeyRegistryStats};
pub use request::{ClientId, Epoch, Request, RequestClass, RequestOp, Response, TenantId};
pub use runtime::{ClientHandle, Runtime, RuntimeConfig};
pub use session::{Program, ProgramSession, Wire};
pub use trace::{SpanId, TraceConfig, TraceStage, Tracer};
pub use traffic::{ArrivalProcess, OpenLoopTrafficGen};

// The dispatcher's unit tests: its policy on a virtual clock, and its
// admission, backpressure and shutdown across threads. They keep the
// module paths of the batcher and the ingress queue whose tests they
// carry over, so every carried-over test keeps its name.
#[cfg(test)]
#[path = "dispatch_policy_tests.rs"]
mod batcher;
#[cfg(test)]
#[path = "dispatch_admission_tests.rs"]
mod queue;
