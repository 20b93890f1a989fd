//! Tagged requests and responses flowing through the runtime.

use std::sync::Arc;
use std::time::{Duration, Instant};

use strix_tfhe::boolean::GateRecipe;
use strix_tfhe::bootstrap::Lut;
use strix_tfhe::lwe::LweCiphertext;

use crate::error::RuntimeError;
use crate::trace::SpanId;

/// Identifies one client stream. Per-client request order is preserved
/// end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

/// Identifies one tenant — one key domain. Every request carries a
/// tenant id; an epoch only ever holds requests of a single tenant, so
/// the worker can pin that tenant's server key for the epoch's whole
/// PBS+KS run (the third batching level above TvLP × CLP: group by
/// *key* before grouping by ciphertext).
///
/// Single-tenant deployments never mention tenants: the default id 0
/// routes everything through one key exactly as before.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// The homomorphic operation a request asks for.
///
/// LUTs are shared by `Arc`: many requests typically evaluate the same
/// function, and a batch mixes operations freely — batching shares the
/// *key* material, not the test vectors.
#[derive(Clone, Debug)]
pub enum RequestOp {
    /// Programmable bootstrap with this LUT, then keyswitch back to the
    /// small (`n`) key: the full PBS+KS flow of the paper's workloads.
    Lut(Arc<Lut>),
    /// Raw programmable bootstrap only; the output stays under the
    /// extracted (`k·N`) key.
    Bootstrap(Arc<Lut>),
    /// Keyswitch only; the input must be under the extracted key.
    Keyswitch,
    /// A sign-LUT gate over 1–3 boolean inputs as one request: the
    /// recipe's linear combination of the request ciphertext and
    /// `extra`, then the shared sign-LUT bootstrap, then keyswitch.
    /// Exposes the [`strix_tfhe::boolean`] gate recipes — the two-input
    /// [`BinaryGate`](strix_tfhe::boolean::BinaryGate)s and the wider
    /// ones program lowering matches — through the dispatcher so a
    /// circuit level streams as ordinary epoch slots.
    Gate {
        /// The gate's weights and offset; `recipe.weights()[0]` scales
        /// [`Request::ct`], `recipe.weights()[i + 1]` scales `extra[i]`.
        recipe: GateRecipe,
        /// The gate inputs after the first.
        extra: Vec<LweCiphertext>,
    },
    /// Linear-combination preamble then LUT: computes
    /// `weights[0]·ct + Σ weights[i+1]·extra[i] + offset` on the small
    /// key, bootstraps the sum with `lut`, and keyswitches back — one
    /// request per neuron of a Deep-NN dense layer.
    LinearLut {
        /// Per-input integer weights; `weights[0]` scales
        /// [`Request::ct`], `weights[i + 1]` scales `extra[i]`.
        weights: Vec<i64>,
        /// Additional input ciphertexts beyond [`Request::ct`].
        extra: Vec<LweCiphertext>,
        /// Constant torus offset added after the weighted sum.
        offset: u64,
        /// The LUT applied by the bootstrap.
        lut: Arc<Lut>,
    },
}

impl RequestOp {
    /// Whether this operation contains a programmable bootstrap (and
    /// thus counts toward PBS/s throughput).
    pub fn is_pbs(&self) -> bool {
        !matches!(self, RequestOp::Keyswitch)
    }

    /// Whether this operation carries a fused linear preamble (a gate
    /// recipe or an explicit weighted sum) ahead of its bootstrap.
    pub fn is_fused_linear(&self) -> bool {
        matches!(self, RequestOp::Gate { .. } | RequestOp::LinearLut { .. })
    }

    /// The request class this operation belongs to, for per-class
    /// latency attribution in the metrics.
    pub fn class(&self) -> RequestClass {
        match self {
            RequestOp::Lut(_) => RequestClass::Lut,
            RequestOp::Bootstrap(_) => RequestClass::Bootstrap,
            RequestOp::Keyswitch => RequestClass::Keyswitch,
            RequestOp::Gate { .. } => RequestClass::Gate,
            RequestOp::LinearLut { .. } => RequestClass::LinearLut,
        }
    }
}

/// The request classes the metrics attribute latency to — one per
/// [`RequestOp`] variant, so the report can show where each kind of
/// request spends its time (queue wait vs batch wait vs execution).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// PBS + keyswitch ([`RequestOp::Lut`]).
    Lut,
    /// Raw PBS ([`RequestOp::Bootstrap`]).
    Bootstrap,
    /// Keyswitch only ([`RequestOp::Keyswitch`]).
    Keyswitch,
    /// Boolean gate ([`RequestOp::Gate`]).
    Gate,
    /// Fused linear + LUT ([`RequestOp::LinearLut`]).
    LinearLut,
}

impl RequestClass {
    /// All classes, in a fixed order (the metrics index by position).
    pub const ALL: [RequestClass; 5] = [
        RequestClass::Lut,
        RequestClass::Bootstrap,
        RequestClass::Keyswitch,
        RequestClass::Gate,
        RequestClass::LinearLut,
    ];

    /// Stable label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            RequestClass::Lut => "lut",
            RequestClass::Bootstrap => "bootstrap",
            RequestClass::Keyswitch => "keyswitch",
            RequestClass::Gate => "gate",
            RequestClass::LinearLut => "linear-lut",
        }
    }

    /// Position in [`Self::ALL`].
    pub(crate) fn index(self) -> usize {
        match self {
            RequestClass::Lut => 0,
            RequestClass::Bootstrap => 1,
            RequestClass::Keyswitch => 2,
            RequestClass::Gate => 3,
            RequestClass::LinearLut => 4,
        }
    }
}

/// One in-flight request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Originating client.
    pub client: ClientId,
    /// The tenant (key domain) this request executes under.
    pub tenant: TenantId,
    /// Position in the client's stream (0-based, strictly increasing).
    pub seq: u64,
    /// Trace span carried through every runtime layer.
    pub span: SpanId,
    /// Input ciphertext.
    pub ct: LweCiphertext,
    /// Operation to perform.
    pub op: RequestOp,
    /// Submission timestamp, for end-to-end latency accounting.
    pub submitted_at: Instant,
    /// When the request was admitted into its tenant's open batch
    /// (`submitted_at → batched_at` is the time `submit` blocked on
    /// backpressure).
    pub batched_at: Option<Instant>,
    /// When a worker took the open batch as an epoch
    /// (`batched_at → flushed_at` is the wait for a worker).
    pub flushed_at: Option<Instant>,
}

impl Request {
    /// Builds a fresh request, submitted now, not yet batched, under
    /// the default (single-tenant) key domain.
    pub fn new(client: ClientId, seq: u64, span: SpanId, ct: LweCiphertext, op: RequestOp) -> Self {
        Self {
            client,
            tenant: TenantId::default(),
            seq,
            span,
            ct,
            op,
            submitted_at: Instant::now(),
            batched_at: None,
            flushed_at: None,
        }
    }

    /// Routes this request to a specific tenant's key domain.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }
}

/// The completed counterpart of a [`Request`].
#[derive(Clone, Debug)]
pub struct Response {
    /// Originating client.
    pub client: ClientId,
    /// The request's position in the client's stream.
    pub seq: u64,
    /// The request's trace span, so callers can correlate responses
    /// with exported trace slices.
    pub span: SpanId,
    /// The output ciphertext, or the failure.
    pub result: Result<LweCiphertext, RuntimeError>,
    /// Submit-to-completion latency.
    pub latency: Duration,
    /// The epoch this request was batched into.
    pub epoch: u64,
}

impl Response {
    /// Unwraps the ciphertext.
    ///
    /// # Errors
    ///
    /// Returns the carried [`RuntimeError`] for failed requests.
    pub fn into_ciphertext(self) -> Result<LweCiphertext, RuntimeError> {
        self.result
    }
}

/// A device-level batch a worker took from one tenant's open batch: up
/// to `TvLP × core_batch` requests executed as one unit against shared
/// key material.
#[derive(Clone, Debug)]
pub struct Epoch {
    /// Monotonic epoch number (the order workers took epochs in).
    pub id: u64,
    /// The single tenant whose key this epoch executes under (epochs
    /// never mix tenants — that is the point of key-major batching).
    pub tenant: TenantId,
    /// The batched requests, in arrival order.
    pub requests: Vec<Request>,
}

#[cfg(test)]
mod tests {
    use strix_tfhe::boolean::BinaryGate;

    use super::*;

    #[test]
    fn op_classification() {
        let lut = Arc::new(Lut::sign(64, 1));
        assert!(RequestOp::Lut(Arc::clone(&lut)).is_pbs());
        assert!(RequestOp::Bootstrap(Arc::clone(&lut)).is_pbs());
        assert!(!RequestOp::Keyswitch.is_pbs());
        let gate = RequestOp::Gate {
            recipe: BinaryGate::And.recipe(),
            extra: vec![LweCiphertext::trivial(4, 0)],
        };
        assert!(gate.is_pbs() && gate.is_fused_linear());
        let lin = RequestOp::LinearLut { weights: vec![1], extra: vec![], offset: 0, lut };
        assert!(lin.is_pbs() && lin.is_fused_linear());
        assert!(!RequestOp::Keyswitch.is_fused_linear());
    }

    #[test]
    fn classes_cover_every_op_and_have_stable_labels() {
        let lut = Arc::new(Lut::sign(64, 1));
        assert_eq!(RequestOp::Lut(Arc::clone(&lut)).class(), RequestClass::Lut);
        assert_eq!(RequestOp::Keyswitch.class(), RequestClass::Keyswitch);
        assert_eq!(
            RequestOp::Gate {
                recipe: BinaryGate::Xor.recipe(),
                extra: vec![LweCiphertext::trivial(4, 0)]
            }
            .class(),
            RequestClass::Gate
        );
        for (i, class) in RequestClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
            assert!(!class.label().is_empty());
        }
    }

    #[test]
    fn client_id_display() {
        assert_eq!(ClientId(3).to_string(), "client-3");
    }

    #[test]
    fn requests_default_to_tenant_zero_and_route_explicitly() {
        let lut = Arc::new(Lut::sign(64, 1));
        let req = Request::new(
            ClientId(1),
            0,
            SpanId(0),
            LweCiphertext::trivial(4, 0),
            RequestOp::Lut(lut),
        );
        assert_eq!(req.tenant, TenantId::default());
        assert_eq!(req.tenant, TenantId(0));
        let routed = req.with_tenant(TenantId(9));
        assert_eq!(routed.tenant, TenantId(9));
        assert_eq!(TenantId(9).to_string(), "tenant-9");
    }
}
