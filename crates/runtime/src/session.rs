//! The session/dataflow layer: multi-stage homomorphic programs
//! streamed through the runtime.
//!
//! The paper's flagship evaluations — gate-level circuits and the Zama
//! Deep-NN (Fig. 7) — are *multi-stage* programs: every PBS output
//! feeds the next circuit level or dense layer. A single client
//! executing such a program synchronously keeps only its current
//! frontier in flight, so epochs flush undersized (the fragmentation
//! cost of Fig. 2). This module lets many clients hold whole programs
//! open against the runtime at once: each [`ProgramSession`]
//! auto-submits every operation whose inputs have resolved, the
//! dispatcher interleaves *independent* stages from concurrent sessions
//! into full `TvLP × core_batch` epochs, and responses route back into
//! the waiting DAG through the client handle's existing reorder
//! machinery.
//!
//! A [`Program`] is a DAG over [`Wire`]s (program inputs or node
//! outputs) with three node kinds:
//!
//! * a sign-LUT gate ([`RequestOp::Gate`]) over 1–3 boolean inputs —
//!   one epoch slot; the builder emits two-input [`BinaryGate`]s,
//! * a linear-combination preamble plus LUT ([`RequestOp::LinearLut`])
//!   — one epoch slot per Deep-NN neuron,
//! * NOT — a free local negation, no runtime round trip.
//!
//! **Lowering.** Every program also has a bootstrap-minimised form
//! ([`Program::lowered`], built once on first use by the runtime's
//! lowering pass): gate cones with at most three
//! leaves collapse into one sign-LUT gate each, so a full adder runs two
//! bootstraps instead of five. Which form runs is the admission
//! policy's choice ([`AdmissionPolicy::admit`]): the lowered form if its
//! predicted noise margin clears the threshold, the program as built
//! otherwise. The choice is recorded on the program, and a
//! [`ProgramSession`] and [`Program::run_sync`] both run the recorded
//! form; any builder call discards the lowered form and the choice.
//!
//! [`Program::run_sync`] is the synchronous reference execution over a
//! [`ServerKey`]; it performs the same linear-preamble → bootstrap →
//! keyswitch pipeline as the streamed path, on the same PBS kernel, so
//! the two produce bit-identical ciphertexts (the batch bootstrap is
//! bit-identical to the sequential one by construction).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use strix_core::Workload;
use strix_tfhe::boolean::{gate_sign_lut, BinaryGate, GateRecipe};
use strix_tfhe::bootstrap::Lut;
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::ServerKey;

use crate::analyzer::AdmissionPolicy;
use crate::error::RuntimeError;
use crate::executor::linear_preamble;
use crate::lowering::{self, Lowered};
use crate::request::{RequestOp, Response};
use crate::runtime::ClientHandle;

/// A value reference inside a [`Program`]: one of the program's
/// encrypted inputs, or the output of an earlier node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Wire {
    /// The `i`-th program input ciphertext.
    Input(usize),
    /// The output of node `n`.
    Node(usize),
}

impl Wire {
    /// The node this wire reads, `None` for a program input.
    pub(crate) fn node(self) -> Option<usize> {
        match self {
            Wire::Node(n) => Some(n),
            Wire::Input(_) => None,
        }
    }
}

#[derive(Clone, Debug)]
pub(crate) enum NodeOp {
    /// Sign-LUT gate over the node's 1–3 boolean inputs: one runtime
    /// request.
    Gate(GateRecipe),
    /// Local negation: resolved without a runtime round trip.
    Not,
    /// `Σ weights[i]·inputs[i] + offset`, then `lut`, then keyswitch:
    /// one runtime request.
    LinearLut { weights: Vec<i64>, offset: u64, lut: Arc<Lut> },
}

#[derive(Clone, Debug)]
pub(crate) struct Node {
    pub(crate) op: NodeOp,
    pub(crate) inputs: Vec<Wire>,
}

/// `Forms::choice` values beyond the default 0 (nothing admitted yet).
const AS_BUILT: u8 = 1;
const LOWERED: u8 = 2;

/// A program's derived forms: the lowered form, built on first use,
/// and the form admission last chose. Builder calls reset both.
#[derive(Debug, Default)]
struct Forms {
    lowered: OnceLock<Option<Box<Lowered>>>,
    choice: AtomicU8,
}

impl Clone for Forms {
    fn clone(&self) -> Self {
        Self {
            lowered: self.lowered.clone(),
            choice: AtomicU8::new(self.choice.load(Ordering::Relaxed)),
        }
    }
}

/// A dependency-carrying multi-stage homomorphic program: a DAG of
/// gate / linear-LUT / NOT nodes over encrypted inputs.
///
/// Built incrementally — every builder method returns the [`Wire`]
/// carrying the new node's output, and may only reference wires that
/// already exist, so a `Program` is acyclic by construction.
#[derive(Clone, Debug, Default)]
pub struct Program {
    input_count: usize,
    pub(crate) nodes: Vec<Node>,
    outputs: Vec<Wire>,
    forms: Forms,
}

impl Program {
    /// A program over `input_count` encrypted inputs.
    pub fn new(input_count: usize) -> Self {
        Self { input_count, nodes: Vec::new(), outputs: Vec::new(), forms: Forms::default() }
    }

    /// Number of encrypted inputs the program expects.
    #[inline]
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Total node count (including free NOT nodes).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes that cost one runtime request (everything but
    /// NOT) — the program's PBS budget.
    pub fn request_count(&self) -> usize {
        self.nodes.iter().filter(|n| !matches!(n.op, NodeOp::Not)).count()
    }

    /// The declared output wires, in order.
    #[inline]
    pub fn outputs(&self) -> &[Wire] {
        &self.outputs
    }

    fn check_wire(&self, w: Wire) {
        let valid = match w {
            Wire::Input(i) => i < self.input_count,
            Wire::Node(n) => n < self.nodes.len(),
        };
        assert!(valid, "wire {w:?} does not exist yet in this program");
    }

    /// Appends a node over existing wires, discarding the derived
    /// forms (the lowered program and admission's choice).
    pub(crate) fn push_node(&mut self, op: NodeOp, inputs: Vec<Wire>) -> Wire {
        self.forms = Forms::default();
        self.nodes.push(Node { op, inputs });
        Wire::Node(self.nodes.len() - 1)
    }

    /// Appends a two-input boolean gate node.
    ///
    /// # Panics
    ///
    /// Panics if either wire does not exist yet (construction-time
    /// programming error; nothing has been submitted).
    pub fn gate(&mut self, gate: BinaryGate, a: Wire, b: Wire) -> Wire {
        self.check_wire(a);
        self.check_wire(b);
        self.push_node(NodeOp::Gate(gate.recipe()), vec![a, b])
    }

    /// Appends a free NOT node (no runtime request).
    ///
    /// # Panics
    ///
    /// Panics if the wire does not exist yet.
    pub fn not(&mut self, a: Wire) -> Wire {
        self.check_wire(a);
        self.push_node(NodeOp::Not, vec![a])
    }

    /// Appends a linear-combination + LUT node:
    /// `Σ weights[i]·inputs[i] + offset`, bootstrapped through `lut`
    /// and keyswitched back to the small key — the shape of one
    /// Deep-NN neuron (weighted activations, bias, activation LUT).
    ///
    /// # Panics
    ///
    /// Panics if `weights` and `inputs` differ in length, `inputs` is
    /// empty, or any wire does not exist yet.
    pub fn linear_lut(
        &mut self,
        weights: Vec<i64>,
        inputs: Vec<Wire>,
        offset: u64,
        lut: Arc<Lut>,
    ) -> Wire {
        assert!(!inputs.is_empty(), "linear node needs at least one input");
        assert_eq!(weights.len(), inputs.len(), "one weight per input wire");
        for &w in &inputs {
            self.check_wire(w);
        }
        self.push_node(NodeOp::LinearLut { weights, offset, lut }, inputs)
    }

    /// Declares `wire` as the next program output.
    ///
    /// # Panics
    ///
    /// Panics if the wire does not exist yet.
    pub fn output(&mut self, wire: Wire) {
        self.check_wire(wire);
        self.forms = Forms::default();
        self.outputs.push(wire);
    }

    fn lowering(&self) -> Option<&Lowered> {
        self.forms.lowered.get_or_init(|| lowering::lower(self).map(Box::new)).as_deref()
    }

    /// The program's bootstrap-minimised form: the same inputs and
    /// outputs, with every gate cone of at most three leaves that one
    /// sign-LUT recipe computes collapsed into a single gate, and never a
    /// longer bootstrap chain. `self` when lowering improves nothing.
    /// Built once, on first use.
    pub fn lowered(&self) -> &Program {
        self.lowering().map_or(self, |l| &l.program)
    }

    /// Live bootstraps one run of [`Self::lowered`] saves over the
    /// program as built.
    pub fn bootstraps_removed(&self) -> usize {
        self.lowering().map_or(0, |l| l.removed)
    }

    /// Records which form admission chose, for the sessions and
    /// synchronous runs that follow.
    pub(crate) fn record_choice(&self, lowered: bool) {
        self.forms.choice.store(if lowered { LOWERED } else { AS_BUILT }, Ordering::Relaxed);
    }

    /// The form admission last chose, `None` before any admission.
    pub(crate) fn chosen_form(&self) -> Option<&Program> {
        match self.forms.choice.load(Ordering::Relaxed) {
            LOWERED => Some(self.lowered()),
            AS_BUILT => Some(self),
            _ => None,
        }
    }

    /// Plaintext reference evaluation over boolean inputs: every live
    /// gate through its recipe's sign decision, every NOT as negation.
    /// `None` if the input count mismatches or a live node is a linear
    /// LUT (whose messages are not booleans).
    pub fn evaluate_plain(&self, inputs: &[bool]) -> Option<Vec<bool>> {
        if inputs.len() != self.input_count {
            return None;
        }
        let needed = self.needed_nodes();
        let mut values = vec![false; self.nodes.len()];
        let value = |values: &[bool], w: Wire| match w {
            Wire::Input(i) => inputs[i],
            Wire::Node(n) => values[n],
        };
        for (i, node) in self.nodes.iter().enumerate() {
            if !needed[i] {
                continue;
            }
            values[i] = match &node.op {
                NodeOp::Not => !value(&values, node.inputs[0]),
                NodeOp::Gate(recipe) => {
                    let bits: Vec<bool> = node.inputs.iter().map(|&w| value(&values, w)).collect();
                    recipe.eval(&bits)
                }
                NodeOp::LinearLut { .. } => return None,
            };
        }
        Some(self.outputs.iter().map(|&w| value(&values, w)).collect())
    }

    /// Marks the nodes the output set transitively depends on. Both
    /// execution paths schedule exactly this set, so a dead node can
    /// neither cost a bootstrap nor fail a run on either path.
    pub(crate) fn needed_nodes(&self) -> Vec<bool> {
        let mut needed = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = self.outputs.iter().filter_map(|w| w.node()).collect();
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut needed[i], true) {
                continue;
            }
            stack.extend(self.nodes[i].inputs.iter().filter_map(|w| w.node()));
        }
        needed
    }

    /// Per node, the bootstrap depth up to and including it: one more
    /// than its deepest input for a request node, its input's depth for
    /// a NOT, with program inputs at depth 0. The one levelisation both
    /// the analyzer's `pbs_depth` and [`Self::workload`] read.
    pub(crate) fn pbs_depths(&self) -> Vec<usize> {
        let mut depths = vec![0usize; self.nodes.len()];
        for (idx, node) in self.nodes.iter().enumerate() {
            let deepest = node.inputs.iter().filter_map(|w| w.node()).map(|n| depths[n]).max();
            depths[idx] = deepest.unwrap_or(0) + usize::from(!matches!(node.op, NodeOp::Not));
        }
        depths
    }

    /// The simulator's computational graph (§VI-B) of the program as
    /// built: its live request nodes levelised by bootstrap depth into
    /// one `Pbs` node per level. A level holding linear-LUT nodes gets a
    /// `Linear` node first (their count, their widest fan-in); NOTs are
    /// free. `p.lowered().workload()` is the graph of the
    /// bootstrap-minimised form.
    pub fn workload(&self) -> Workload {
        let needed = self.needed_nodes();
        let depths = self.pbs_depths();
        // Per level: (requests, linear-LUT nodes, widest linear fan-in).
        let mut levels: Vec<(usize, usize, usize)> = Vec::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            if !needed[idx] || matches!(node.op, NodeOp::Not) {
                continue;
            }
            levels.resize(levels.len().max(depths[idx]), (0, 0, 0));
            let (requests, linear, fan_in) = &mut levels[depths[idx] - 1];
            *requests += 1;
            if let NodeOp::LinearLut { weights, .. } = &node.op {
                *linear += 1;
                *fan_in = (*fan_in).max(weights.len());
            }
        }
        let mut w = Workload::new("program");
        for (i, &(requests, linear, fan_in)) in levels.iter().enumerate() {
            if linear > 0 {
                w = w.linear(linear, fan_in, format!("level-{} linear", i + 1));
            }
            w = w.pbs(requests, format!("level-{} PBS", i + 1));
        }
        w
    }

    /// Synchronous reference execution over a [`ServerKey`]: every
    /// node runs in submission order through the same linear-preamble
    /// → bootstrap → keyswitch pipeline as the streamed path, on the
    /// key's own PBS kernel (multi-bit for a multi-bit parameter set),
    /// so the outputs are bit-identical to a [`ProgramSession`] run
    /// against a [`TfheExecutor`](crate::executor::TfheExecutor) built
    /// on the same key.
    ///
    /// It runs the form admission chose ([`Self::lowered`] or the
    /// program as built). Before any admission it makes that choice
    /// itself, with the policy a `TfheExecutor` on `server` would admit
    /// with, and records it; a program that policy refuses runs as
    /// built.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Program`] if `inputs` mismatches the program's
    /// input count, [`RuntimeError::Tfhe`] if a node's homomorphic
    /// operation fails.
    pub fn run_sync(
        &self,
        server: &ServerKey,
        inputs: &[LweCiphertext],
    ) -> Result<Vec<LweCiphertext>, RuntimeError> {
        if inputs.len() != self.input_count {
            return Err(RuntimeError::Program("input count mismatch"));
        }
        let form = match self.chosen_form() {
            Some(form) => form,
            None => AdmissionPolicy::for_server(server).choose(self).map_or(self, |(form, _)| form),
        };
        form.execute_sync(server, inputs)
    }

    fn execute_sync(
        &self,
        server: &ServerKey,
        inputs: &[LweCiphertext],
    ) -> Result<Vec<LweCiphertext>, RuntimeError> {
        let bsk = server.bootstrap_key();
        let sign = gate_sign_lut(server.params().polynomial_size);
        let needed = self.needed_nodes();
        let mut values: Vec<Option<LweCiphertext>> = vec![None; self.nodes.len()];
        for (idx, node) in self.nodes.iter().enumerate() {
            if !needed[idx] {
                continue; // same pruning as the streamed session
            }
            let value_of = |w: Wire| -> Result<&LweCiphertext, RuntimeError> {
                match w {
                    Wire::Input(i) => Ok(&inputs[i]),
                    Wire::Node(n) => values[n]
                        .as_ref()
                        .ok_or(RuntimeError::Program("needed node referenced before it resolved")),
                }
            };
            let (weights, offset, lut) = match &node.op {
                NodeOp::Not => {
                    let mut ct = value_of(node.inputs[0])?.clone();
                    ct.negate();
                    values[idx] = Some(ct);
                    continue;
                }
                NodeOp::Gate(recipe) => (recipe.weights(), recipe.offset(), &sign),
                NodeOp::LinearLut { weights, offset, lut } => {
                    (weights.as_slice(), *offset, lut.as_ref())
                }
            };
            let extra: Vec<LweCiphertext> = node.inputs[1..]
                .iter()
                .map(|&w| Ok(value_of(w)?.clone()))
                .collect::<Result<_, RuntimeError>>()?;
            let sum = linear_preamble(value_of(node.inputs[0])?, weights, &extra, offset)?;
            let boot = bsk.bootstrap(&sum, lut)?;
            values[idx] = Some(server.keyswitch_key().keyswitch(&boot)?);
        }
        self.outputs
            .iter()
            .map(|&w| {
                Ok(match w {
                    Wire::Input(i) => inputs[i].clone(),
                    Wire::Node(n) => values[n]
                        .as_ref()
                        .ok_or(RuntimeError::Program("output depends on an unresolved node"))?
                        .clone(),
                })
            })
            .collect()
    }
}

/// One client's in-flight execution of a [`Program`] against the
/// streaming runtime.
///
/// The session holds the DAG plus the resolved values, auto-submits
/// every node whose inputs have resolved (the *frontier* — independent
/// nodes ship together so concurrent sessions fill epochs), routes
/// responses back into pending nodes, and completes when the output
/// set resolves. Only nodes the outputs actually depend on are
/// scheduled.
///
/// The client handle is borrowed per call so callers can multiplex,
/// but the session assumes exclusive use of the handle while it runs:
/// every response received must answer one of its submissions.
///
/// Responses are absorbed in submission order (the handle's in-order
/// contract), so *within one session* a fast later response waits for
/// its slower predecessors before unblocking dependents. Epochs are
/// filled across *concurrent* sessions, where no such coupling exists;
/// per-client order is the price of the existing reorder machinery.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use strix_core::BatchGeometry;
/// use strix_runtime::session::{Program, ProgramSession, Wire};
/// use strix_runtime::{Runtime, RuntimeConfig, TfheExecutor};
/// use strix_tfhe::boolean::BinaryGate;
/// use strix_tfhe::prelude::*;
///
/// let params = TfheParameters::testing_fast();
/// let (mut client_key, server_key) = generate_keys(&params, 11);
/// let runtime = Runtime::start(
///     RuntimeConfig::new(BatchGeometry::explicit(2, 2)),
///     TfheExecutor::new(Arc::new(server_key)),
/// );
///
/// // half adder: sum = a XOR b, carry = a AND b
/// let mut program = Program::new(2);
/// let sum = program.gate(BinaryGate::Xor, Wire::Input(0), Wire::Input(1));
/// let carry = program.gate(BinaryGate::And, Wire::Input(0), Wire::Input(1));
/// program.output(sum);
/// program.output(carry);
///
/// let inputs = vec![
///     client_key.encrypt_bool(true).into_lwe(),
///     client_key.encrypt_bool(true).into_lwe(),
/// ];
/// let mut handle = runtime.client();
/// let session = ProgramSession::new(&program, inputs).unwrap();
/// let outputs = session.run(&mut handle).unwrap();
/// assert!(!strix_tfhe::bootstrap::decode_bool(
///     client_key.decrypt_phase(&outputs[0]).unwrap()
/// )); // 1 XOR 1 = 0
/// assert!(strix_tfhe::bootstrap::decode_bool(
///     client_key.decrypt_phase(&outputs[1]).unwrap()
/// )); // 1 AND 1 = 1
/// runtime.shutdown();
/// ```
pub struct ProgramSession<'p> {
    /// The program as built: what admission vets.
    source: &'p Program,
    /// The form being run: `source` or its lowered form.
    program: &'p Program,
    inputs: Vec<LweCiphertext>,
    node_values: Vec<Option<LweCiphertext>>,
    /// Unresolved node-input references per needed node (multiplicity
    /// counted, so a node consuming the same wire twice waits once per
    /// reference).
    unresolved: Vec<usize>,
    /// Needed nodes waiting on each node's value, one entry per
    /// reference.
    dependents: Vec<Vec<usize>>,
    /// Needed nodes whose inputs are all resolved but which have not
    /// been dispatched yet.
    ready: Vec<usize>,
    /// Submitted sequence numbers awaiting their response.
    in_flight: HashMap<u64, usize>,
    /// Needed nodes not yet resolved.
    outstanding_nodes: usize,
    /// Whether the handle's admission policy has vetted this program
    /// and chosen its form. Checked once, on the first `submit_ready`,
    /// *before* anything is enqueued — a rejected program never reaches
    /// the dispatcher.
    admission_checked: bool,
}

impl<'p> ProgramSession<'p> {
    /// Binds a program to its input ciphertexts. The session starts on
    /// the form admission last chose for the program (as built if
    /// none); the handle's admission policy confirms or switches it on
    /// the first [`Self::submit_ready`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Program`] if `inputs` mismatches the program's
    /// declared input count.
    pub fn new(program: &'p Program, inputs: Vec<LweCiphertext>) -> Result<Self, RuntimeError> {
        if inputs.len() != program.input_count {
            return Err(RuntimeError::Program("input count mismatch"));
        }
        let form = program.chosen_form().unwrap_or(program);
        let mut session = Self {
            source: program,
            program: form,
            inputs,
            node_values: Vec::new(),
            unresolved: Vec::new(),
            dependents: Vec::new(),
            ready: Vec::new(),
            in_flight: HashMap::new(),
            outstanding_nodes: 0,
            admission_checked: false,
        };
        session.bind(form);
        Ok(session)
    }

    /// Builds the dataflow state for running `form`. Only called before
    /// anything is submitted.
    fn bind(&mut self, form: &'p Program) {
        let n = form.nodes.len();
        let needed = form.needed_nodes();
        self.program = form;
        self.node_values = vec![None; n];
        self.unresolved = vec![0usize; n];
        self.dependents = vec![Vec::new(); n];
        self.ready.clear();
        self.outstanding_nodes = 0;
        for (i, node) in form.nodes.iter().enumerate() {
            if !needed[i] {
                continue;
            }
            self.outstanding_nodes += 1;
            for j in node.inputs.iter().filter_map(|w| w.node()) {
                self.unresolved[i] += 1;
                self.dependents[j].push(i);
            }
            if self.unresolved[i] == 0 {
                self.ready.push(i);
            }
        }
    }

    fn wire_value(&self, w: Wire) -> Result<&LweCiphertext, RuntimeError> {
        match w {
            Wire::Input(i) => Ok(&self.inputs[i]),
            Wire::Node(n) => self.node_values[n]
                .as_ref()
                .ok_or(RuntimeError::Program("wire scheduled before it resolved")),
        }
    }

    /// Marks node `n` resolved and promotes newly unblocked dependents
    /// onto the ready frontier.
    fn resolve(&mut self, n: usize, value: LweCiphertext) {
        debug_assert!(self.node_values[n].is_none(), "node resolved twice");
        self.node_values[n] = Some(value);
        self.outstanding_nodes -= 1;
        // A node resolves exactly once; its dependent list is consumed.
        for d in std::mem::take(&mut self.dependents[n]) {
            self.unresolved[d] -= 1;
            if self.unresolved[d] == 0 {
                self.ready.push(d);
            }
        }
    }

    /// Submits every ready node: NOT nodes resolve locally (which can
    /// unblock further nodes within the same call), gate and
    /// linear-LUT nodes become runtime requests.
    ///
    /// On the first call the handle's admission policy (if any) picks
    /// the form to run — lowered if it clears the threshold, else as
    /// built — and a lowered run adds the bootstraps it saves to the
    /// runtime report.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoiseBudgetExceeded`] if the handle carries an
    /// admission policy and neither form's predicted noise margin
    /// clears its threshold (checked once, before anything is enqueued);
    /// [`RuntimeError::Shutdown`] if the runtime stopped accepting
    /// requests.
    pub fn submit_ready(&mut self, handle: &mut ClientHandle) -> Result<(), RuntimeError> {
        if !self.admission_checked {
            let form = match handle.admission() {
                Some(policy) => policy.choose(self.source)?.0,
                None => self.source.chosen_form().unwrap_or(self.source),
            };
            if !std::ptr::eq(form, self.program) {
                self.bind(form);
            }
            if !std::ptr::eq(form, self.source) {
                handle.record_lowering(self.source.bootstraps_removed());
            }
            self.admission_checked = true;
        }
        let program = self.program;
        while let Some(n) = self.ready.pop() {
            let node = &program.nodes[n];
            let ct = self.wire_value(node.inputs[0])?.clone();
            let op = match &node.op {
                NodeOp::Not => {
                    let mut ct = ct;
                    ct.negate();
                    self.resolve(n, ct);
                    continue;
                }
                NodeOp::Gate(recipe) => RequestOp::Gate { recipe: *recipe, extra: self.extra(n)? },
                NodeOp::LinearLut { weights, offset, lut } => RequestOp::LinearLut {
                    weights: weights.clone(),
                    extra: self.extra(n)?,
                    offset: *offset,
                    lut: Arc::clone(lut),
                },
            };
            let seq = handle.submit(ct, op)?;
            self.in_flight.insert(seq, n);
        }
        Ok(())
    }

    /// The values of node `n`'s inputs after the first.
    fn extra(&self, n: usize) -> Result<Vec<LweCiphertext>, RuntimeError> {
        self.program.nodes[n].inputs[1..].iter().map(|&w| Ok(self.wire_value(w)?.clone())).collect()
    }

    /// Routes one response back into its pending node.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Program`] if the response does not answer one of
    /// this session's submissions; the carried error if the node's
    /// request failed.
    pub fn absorb(&mut self, response: Response) -> Result<(), RuntimeError> {
        let node = self
            .in_flight
            .remove(&response.seq)
            .ok_or(RuntimeError::Program("response does not belong to this session"))?;
        let ct = response.result?;
        self.resolve(node, ct);
        Ok(())
    }

    /// Whether every node the output set depends on has resolved.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.outstanding_nodes == 0
    }

    /// Number of submitted requests still awaiting a response.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Drives the session to completion: submits the frontier, blocks
    /// on responses, resubmits as stages unblock, and returns the
    /// program's outputs in declaration order.
    ///
    /// On failure the session first drains its remaining in-flight
    /// responses, so the handle is left clean and can run further
    /// sessions.
    ///
    /// # Errors
    ///
    /// Propagates submission, response and per-node execution errors.
    pub fn run(mut self, handle: &mut ClientHandle) -> Result<Vec<LweCiphertext>, RuntimeError> {
        match self.run_inner(handle) {
            Ok(outputs) => Ok(outputs),
            Err(e) => {
                // Discard the responses of requests already submitted:
                // a leftover would otherwise surface as a foreign
                // sequence number to the handle's next session.
                while !self.in_flight.is_empty() {
                    match handle.recv() {
                        Ok(response) => {
                            self.in_flight.remove(&response.seq);
                        }
                        Err(_) => break,
                    }
                }
                Err(e)
            }
        }
    }

    fn run_inner(&mut self, handle: &mut ClientHandle) -> Result<Vec<LweCiphertext>, RuntimeError> {
        loop {
            self.submit_ready(handle)?;
            if self.is_complete() {
                break;
            }
            let response = handle.recv()?;
            self.absorb(response)?;
        }
        self.program
            .outputs
            .iter()
            .map(|&w| Ok(self.wire_value(w)?.clone()))
            .collect::<Result<Vec<_>, RuntimeError>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_chain(len: usize) -> Program {
        let mut p = Program::new(len + 1);
        let mut acc = Wire::Input(0);
        for i in 0..len {
            acc = p.gate(BinaryGate::Xor, acc, Wire::Input(i + 1));
        }
        p.output(acc);
        p
    }

    #[test]
    fn builder_counts_requests_and_outputs() {
        let mut p = Program::new(2);
        let x = p.gate(BinaryGate::Xor, Wire::Input(0), Wire::Input(1));
        let n = p.not(x);
        p.output(n);
        assert_eq!(p.node_count(), 2);
        assert_eq!(p.request_count(), 1); // NOT is free
        assert_eq!(p.outputs(), &[Wire::Node(1)]);
        assert_eq!(p.input_count(), 2);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn builder_rejects_dangling_wires() {
        let mut p = Program::new(1);
        p.gate(BinaryGate::And, Wire::Input(0), Wire::Node(5));
    }

    #[test]
    fn session_rejects_input_count_mismatch() {
        let p = xor_chain(2);
        let err = ProgramSession::new(&p, vec![]).err().unwrap();
        assert!(matches!(err, RuntimeError::Program(_)));
    }

    #[test]
    fn unneeded_nodes_are_not_scheduled() {
        let mut p = Program::new(2);
        let used = p.gate(BinaryGate::And, Wire::Input(0), Wire::Input(1));
        let _dead = p.gate(BinaryGate::Or, Wire::Input(0), Wire::Input(1));
        p.output(used);
        let inputs = vec![LweCiphertext::trivial(4, 0), LweCiphertext::trivial(4, 0)];
        let session = ProgramSession::new(&p, inputs).unwrap();
        // Only the AND feeding the output is scheduled; the dead OR is
        // pruned from both the outstanding count and the frontier.
        assert_eq!(session.outstanding_nodes, 1);
        assert_eq!(session.ready, vec![0]);
    }

    #[test]
    fn run_sync_skips_dead_nodes_like_the_streamed_path() {
        // A dead node consuming a malformed wire must not fail (or
        // cost a bootstrap in) either execution path: both prune it.
        let mut p = Program::new(2);
        let live = p.not(Wire::Input(0));
        let _dead = p.gate(BinaryGate::And, Wire::Input(0), Wire::Input(1));
        p.output(live);
        let params = strix_tfhe::TfheParameters::testing_fast();
        let (mut client, server) = strix_tfhe::generate_keys(&params, 31);
        let inputs = vec![
            client.encrypt_bool(true).into_lwe(),
            LweCiphertext::trivial(7, 0), // wrong dimension, dead-only
        ];
        let outs = p.run_sync(&server, &inputs).expect("dead node must not execute");
        assert_eq!(outs.len(), 1);
    }

    #[test]
    fn passthrough_output_completes_without_requests() {
        let mut p = Program::new(1);
        p.output(Wire::Input(0));
        let session = ProgramSession::new(&p, vec![LweCiphertext::trivial(4, 9)]).unwrap();
        assert!(session.is_complete());
        assert_eq!(session.in_flight(), 0);
    }
}
