//! The Zama Deep-NN models (Fig. 7; Chillotti–Joye–Paillier 2021).
//!
//! "The input consists of 28×28 pixels, where each pixel is encrypted
//! with one cipher. The first layer performs a convolution followed by
//! ReLU activation, producing an output image of dimensions
//! [1, 2, 21, 20]. The remaining layers are dense layers with 92
//! neurons on each layer, followed by ReLU activation between each
//! layer." Every ReLU costs one programmable bootstrap (+ keyswitch).

use std::sync::Arc;

use strix_core::Workload;
use strix_runtime::session::{Program, Wire};
use strix_tfhe::bootstrap::Lut;
use strix_tfhe::torus::encode_fraction;
use strix_tfhe::TfheError;
use strix_tfhe::TfheParameters;

/// Input image side length (MNIST).
pub const IMAGE_SIDE: usize = 28;
/// Convolution output shape `[1, 2, 21, 20]` → 840 activations.
pub const CONV_CHANNELS: usize = 2;
/// Convolution output height.
pub const CONV_OUT_H: usize = 21;
/// Convolution output width.
pub const CONV_OUT_W: usize = 20;
/// Kernel height implied by the output shape (28 − 21 + 1).
pub const KERNEL_H: usize = IMAGE_SIDE - CONV_OUT_H + 1;
/// Kernel width implied by the output shape (28 − 20 + 1).
pub const KERNEL_W: usize = IMAGE_SIDE - CONV_OUT_W + 1;
/// Neurons per dense layer.
pub const DENSE_NEURONS: usize = 92;

/// The model depths evaluated in Fig. 7.
pub const ZAMA_DEPTHS: [usize; 3] = [20, 50, 100];
/// The polynomial sizes evaluated in Fig. 7.
pub const ZAMA_POLY_SIZES: [usize; 3] = [1024, 2048, 4096];

/// A Zama Deep-NN instance: `depth` layers (one convolution plus
/// `depth − 1` dense layers), every activation bootstrapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeepNn {
    /// Total layer count (NN-20, NN-50, NN-100).
    pub depth: usize,
    /// TFHE polynomial size for the activations' PBS.
    pub poly_size: usize,
}

impl DeepNn {
    /// Creates a model description.
    ///
    /// # Panics
    ///
    /// Panics if `depth < 2` (the model needs the convolution plus at
    /// least one dense layer) or if `poly_size` is not a Fig. 7 size;
    /// [`Self::try_new`] is the fallible equivalent for serving paths.
    pub fn new(depth: usize, poly_size: usize) -> Self {
        Self::try_new(depth, poly_size).expect("valid deep-nn description")
    }

    /// As [`Self::new`], but rejecting a bad description as a
    /// [`TfheError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`TfheError::InvalidParameters`] if `depth < 2` or
    /// `poly_size` is not one of the paper's Fig. 7 sizes.
    pub fn try_new(depth: usize, poly_size: usize) -> Result<Self, TfheError> {
        if depth < 2 {
            return Err(TfheError::InvalidParameters("deep-nn needs at least two layers"));
        }
        TfheParameters::deep_nn(poly_size)?;
        Ok(Self { depth, poly_size })
    }

    /// Number of convolution activations: `2 × 21 × 20`.
    pub fn conv_outputs(&self) -> usize {
        CONV_CHANNELS * CONV_OUT_H * CONV_OUT_W
    }

    /// Total programmable bootstraps for one inference.
    pub fn total_pbs(&self) -> usize {
        self.conv_outputs() + (self.depth - 1) * DENSE_NEURONS
    }

    /// The TFHE parameters the paper pairs with this polynomial size.
    ///
    /// # Panics
    ///
    /// Panics if the descriptor was built with a struct literal around
    /// the validating constructors and carries an unsupported
    /// `poly_size`.
    pub fn params(&self) -> TfheParameters {
        TfheParameters::deep_nn(self.poly_size).expect("poly size validated at construction")
    }

    /// Builds the computational graph: alternating linear layers and
    /// ReLU PBS batches, in inference order.
    ///
    /// The one graph built by hand rather than derived with
    /// [`Program::workload`]: an 840-input dense layer overruns the
    /// 3-bit message space of the runnable [`ReluSchedule`] (at most
    /// [`RELU_MAX_WIDTH`] inputs per neuron), so no `Program` of a
    /// paper-scale network exists.
    pub fn workload(&self) -> Workload {
        let mut w = Workload::new(format!("NN-{}-N{}", self.depth, self.poly_size));
        // Convolution: each of the 840 outputs sums a KERNEL_H×KERNEL_W
        // window of pixel ciphertexts.
        w = w
            .linear(self.conv_outputs(), KERNEL_H * KERNEL_W, "conv 8x9")
            .pbs(self.conv_outputs(), "conv ReLU");
        let mut inputs = self.conv_outputs();
        for layer in 1..self.depth {
            w = w
                .linear(DENSE_NEURONS, inputs, format!("dense-{layer} {DENSE_NEURONS}x{inputs}"))
                .pbs(DENSE_NEURONS, format!("dense-{layer} ReLU"));
            inputs = DENSE_NEURONS;
        }
        w
    }
}

impl std::fmt::Display for DeepNn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NN-{} (N={})", self.depth, self.poly_size)
    }
}

/// Message precision of the executable ReLU schedule (3-bit space,
/// one padding bit).
pub const RELU_MESSAGE_BITS: u32 = 3;
/// Quantised activations clamp to `0..=RELU_ACTIVATION_MAX`.
pub const RELU_ACTIVATION_MAX: u64 = 2;
/// Widest supported layer: pre-activations must stay inside the
/// positive half of the 3-bit space
/// (`width · RELU_ACTIVATION_MAX + bias ≤ 7`).
pub const RELU_MAX_WIDTH: usize = 3;

/// An *executable* quantised Deep-NN ReLU schedule — the toy-scale
/// counterpart of the Fig. 7 [`DeepNn`] descriptor, sized so it can
/// actually run on the functional TFHE stack in tests and examples.
///
/// `depth` dense layers of `width` neurons each; every neuron computes
/// `Σ wᵢ·xᵢ + b` (weights in `{0, 1}`, bias in `{0, 1}`, drawn
/// deterministically from `seed`) followed by the quantised ReLU
/// activation — one PBS (+ keyswitch) per neuron, exactly the
/// per-activation cost structure of the real Zama models. Activations
/// live in a `3`-bit message space where `[4, 8)` is the negative
/// (two's-complement) half: ReLU zeroes it, and positive values clamp
/// to [`RELU_ACTIVATION_MAX`] so that every reachable pre-activation
/// stays below the padding boundary regardless of depth.
///
/// Deliberately *not* (de)serialisable: the private weight/bias tables
/// carry the pre-activation bound invariant, which a derived
/// `Deserialize` would bypass. Reconstruct from `(depth, width, seed)`
/// instead — construction is deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReluSchedule {
    depth: usize,
    width: usize,
    /// `weights[layer][neuron][input]`, each in `{0, 1}`.
    weights: Vec<Vec<Vec<i64>>>,
    /// `biases[layer][neuron]`, each in `{0, 1}`.
    biases: Vec<Vec<u64>>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl ReluSchedule {
    /// Builds a schedule with deterministic pseudo-random weights.
    /// Every neuron keeps at least one unit weight so no layer goes
    /// dead.
    ///
    /// # Panics
    ///
    /// Panics if `depth < 2` (the streaming story needs at least one
    /// dependent stage) or `width` is outside `1..=`[`RELU_MAX_WIDTH`].
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        assert!(depth >= 2, "relu schedule needs at least two layers");
        assert!(
            (1..=RELU_MAX_WIDTH).contains(&width),
            "width must be in 1..={RELU_MAX_WIDTH} to bound pre-activations"
        );
        let mut state = seed ^ 0x5eed_5eed_5eed_5eed;
        let weights = (0..depth)
            .map(|_| {
                (0..width)
                    .map(|j| {
                        let mut row: Vec<i64> =
                            (0..width).map(|_| (splitmix64(&mut state) & 1) as i64).collect();
                        row[j % width] = 1;
                        row
                    })
                    .collect()
            })
            .collect();
        let biases =
            (0..depth).map(|_| (0..width).map(|_| splitmix64(&mut state) & 1).collect()).collect();
        Self { depth, width, weights, biases }
    }

    /// The quantised ReLU over the two's-complement 3-bit space:
    /// negative messages (`[4, 8)`) clamp to zero, positive ones to at
    /// most [`RELU_ACTIVATION_MAX`].
    pub fn activation(m: u64) -> u64 {
        let half = 1u64 << (RELU_MESSAGE_BITS - 1);
        if m < half {
            m.min(RELU_ACTIVATION_MAX)
        } else {
            0
        }
    }

    /// The activation LUT for a given polynomial size.
    ///
    /// # Errors
    ///
    /// Propagates [`TfheError::InvalidParameters`] for degenerate
    /// polynomial sizes.
    pub fn lut(poly_size: usize) -> Result<Lut, TfheError> {
        Lut::from_function(poly_size, RELU_MESSAGE_BITS, Self::activation)
    }

    /// Plaintext reference inference over input activations
    /// (`inputs[i] ≤ RELU_ACTIVATION_MAX`), the model both the
    /// synchronous and the streamed execution must reproduce.
    ///
    /// # Panics
    ///
    /// Panics if the input count differs from the layer width, or if
    /// an input exceeds [`RELU_ACTIVATION_MAX`] — larger inputs can
    /// push a pre-activation across the negacyclic boundary, where the
    /// encrypted path returns negated LUT entries this model does not
    /// (and should not) reproduce. Failing fast here keeps the model a
    /// trustworthy oracle.
    pub fn infer_plain(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.width, "one input activation per neuron");
        assert!(
            inputs.iter().all(|&m| m <= RELU_ACTIVATION_MAX),
            "input activations must be <= {RELU_ACTIVATION_MAX}"
        );
        let mut acts = inputs.to_vec();
        for (layer_w, layer_b) in self.weights.iter().zip(&self.biases) {
            acts = layer_w
                .iter()
                .zip(layer_b)
                .map(|(row, b)| {
                    let sum: u64 =
                        row.iter().zip(&acts).map(|(w, x)| (*w as u64) * x).sum::<u64>() + b;
                    // width <= RELU_MAX_WIDTH, weights in {0,1} and
                    // activations <= RELU_ACTIVATION_MAX bound every
                    // pre-activation inside the 3-bit space; no wrap
                    // to model.
                    debug_assert!(sum < 1 << RELU_MESSAGE_BITS, "pre-activation bound violated");
                    Self::activation(sum)
                })
                .collect();
        }
        acts
    }

    /// Compiles the schedule into a dataflow [`Program`]: `width`
    /// encrypted inputs, one [`RequestOp::LinearLut`]
    /// (weighted sum + bias + ReLU LUT) node per neuron, and the last
    /// layer's activations as outputs. Layers are strictly dependent;
    /// neurons within a layer are independent — the interleaving
    /// structure the streaming runtime exploits across concurrent
    /// inference sessions.
    ///
    /// [`RequestOp::LinearLut`]: strix_runtime::RequestOp::LinearLut
    ///
    /// # Errors
    ///
    /// Propagates LUT construction failures.
    pub fn program(&self, poly_size: usize) -> Result<Program, TfheError> {
        let lut = Arc::new(Self::lut(poly_size)?);
        let mut program = Program::new(self.width);
        let mut acts: Vec<Wire> = (0..self.width).map(Wire::Input).collect();
        for (layer_w, layer_b) in self.weights.iter().zip(&self.biases) {
            acts = layer_w
                .iter()
                .zip(layer_b)
                .map(|(row, b)| {
                    let offset = encode_fraction(*b as i64, RELU_MESSAGE_BITS + 1);
                    program.linear_lut(row.clone(), acts.clone(), offset, Arc::clone(&lut))
                })
                .collect();
        }
        for w in acts {
            program.output(w);
        }
        Ok(program)
    }
}

impl std::fmt::Display for ReluSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "relu-nn-{}x{}", self.depth, self.width)
    }
}

#[cfg(test)]
mod tests {
    use strix_core::WorkloadNode;

    use super::*;

    #[test]
    fn conv_shape_matches_paper() {
        let nn = DeepNn::new(20, 1024);
        assert_eq!(nn.conv_outputs(), 840); // [1, 2, 21, 20]
        assert_eq!(KERNEL_H, 8);
        assert_eq!(KERNEL_W, 9);
    }

    #[test]
    fn pbs_counts_for_the_three_models() {
        assert_eq!(DeepNn::new(20, 1024).total_pbs(), 840 + 19 * 92);
        assert_eq!(DeepNn::new(50, 1024).total_pbs(), 840 + 49 * 92);
        assert_eq!(DeepNn::new(100, 1024).total_pbs(), 840 + 99 * 92);
    }

    #[test]
    fn workload_graph_matches_pbs_count() {
        for depth in ZAMA_DEPTHS {
            let nn = DeepNn::new(depth, 2048);
            let w = nn.workload();
            assert_eq!(w.total_pbs(), nn.total_pbs(), "depth {depth}");
            // One linear + one PBS node per layer.
            assert_eq!(w.len(), 2 * depth);
        }
    }

    #[test]
    fn params_follow_polynomial_size() {
        for n in ZAMA_POLY_SIZES {
            let nn = DeepNn::new(20, n);
            assert_eq!(nn.params().polynomial_size, n);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(DeepNn::new(50, 2048).to_string(), "NN-50 (N=2048)");
    }

    #[test]
    #[should_panic(expected = "at least two layers")]
    fn rejects_degenerate_depth() {
        DeepNn::new(1, 1024);
    }

    #[test]
    fn try_new_rejects_bad_descriptions_as_errors() {
        assert!(DeepNn::try_new(1, 1024).is_err());
        assert!(DeepNn::try_new(20, 512).is_err());
        assert!(DeepNn::try_new(20, 1024).is_ok());
    }

    #[test]
    fn relu_schedule_is_deterministic_and_bounded() {
        let a = ReluSchedule::new(6, 3, 42);
        let b = ReluSchedule::new(6, 3, 42);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, ReluSchedule::new(6, 3, 43), "different seed differs");
        assert_eq!(a.to_string(), "relu-nn-6x3");
        // Every reachable pre-activation stays inside the positive
        // half of the 3-bit space: width·act_max + bias ≤ 7.
        assert!(RELU_MAX_WIDTH as u64 * RELU_ACTIVATION_MAX + 1 < 1 << RELU_MESSAGE_BITS);
        let outs = a.infer_plain(&[2, 1, 0]);
        assert_eq!(outs.len(), 3);
        assert!(outs.iter().all(|&m| m <= RELU_ACTIVATION_MAX));
    }

    #[test]
    fn relu_activation_zeroes_the_negative_half_and_clamps() {
        assert_eq!(ReluSchedule::activation(0), 0);
        assert_eq!(ReluSchedule::activation(1), 1);
        assert_eq!(ReluSchedule::activation(2), 2);
        assert_eq!(ReluSchedule::activation(3), 2); // clamp
        for m in 4..8 {
            assert_eq!(ReluSchedule::activation(m), 0, "negative {m}");
        }
    }

    #[test]
    fn relu_program_compiles_one_request_per_neuron() {
        let nn = ReluSchedule::new(5, 2, 7);
        let program = nn.program(256).unwrap();
        assert_eq!(program.input_count(), 2);
        assert_eq!(program.outputs().len(), 2);
        // Its derived graph: per layer, the neurons' weighted sums, then
        // their ReLU bootstraps.
        let workload = program.workload();
        assert_eq!((workload.len(), workload.total_pbs()), (2 * 5, 5 * 2));
        for layer in workload.nodes().chunks(2) {
            let [WorkloadNode::Linear { outputs: 2, inputs_per_output: 1..=2, .. }, WorkloadNode::Pbs { lwes: 2, .. }] =
                layer
            else {
                panic!("not a linear + PBS layer of width 2: {layer:?}");
            };
        }
        assert_eq!(program.request_count(), workload.total_pbs());
    }

    #[test]
    fn relu_program_run_sync_matches_plaintext_model() {
        use strix_tfhe::prelude::*;
        let params = TfheParameters::testing_fast();
        let (mut client, server) = generate_keys(&params, 0xDEEB);
        let nn = ReluSchedule::new(4, 2, 99);
        let inputs_plain = [2u64, 1];
        let inputs: Vec<_> = inputs_plain
            .iter()
            .map(|&m| client.encrypt_shortint(m, RELU_MESSAGE_BITS).unwrap().as_lwe().clone())
            .collect();
        let outs = nn.program(params.polynomial_size).unwrap().run_sync(&server, &inputs).unwrap();
        let expected = nn.infer_plain(&inputs_plain);
        for (ct, want) in outs.iter().zip(&expected) {
            let phase = client.decrypt_phase(ct).unwrap();
            let got = strix_tfhe::torus::decode_message(phase, RELU_MESSAGE_BITS + 1);
            assert_eq!(got, *want);
        }
    }
}
