//! Bootstrap-minimising lowering of gate programs.
//!
//! Builders emit one bootstrap per two-input gate, but a programmable
//! bootstrap evaluates any sign-LUT function of a weighted sum of its
//! inputs. A cone of gates whose function over at most three leaf wires
//! is such a function ([`GateRecipe::for_truth_table`]) therefore
//! collapses into a single bootstrap: a full adder's majority carry
//! (weights `(1, 1, 1)`) and three-way parity sum (`(−2, −2, −2)`) turn
//! its five gates into two.
//!
//! The pass, over the live part of a [`Program`]:
//!
//! 1. **Cuts.** For every gate it enumerates the cuts of its fan-in
//!    cone with at most [`MAX_RECIPE_INPUTS`] leaves. NOT nodes are
//!    transparent (they fold into the truth table); program inputs and
//!    linear-LUT outputs are always leaves; a gate is either a leaf or
//!    absorbed into the cone.
//! 2. **Recipes.** Each cut's truth table is simulated, leaves it does
//!    not depend on are dropped, and the table is matched to a sign-LUT
//!    recipe; cuts without one (AND3, OR3, constants) are discarded.
//! 3. **Cover.** Starting from the program as built — every gate its own
//!    bootstrap — it re-implements one gate at a time over one of its
//!    cuts whenever that lowers the live bootstrap count (or, at equal
//!    count, the summed bootstrap depth), never letting the program's
//!    PBS depth exceed the original's. Gates nothing references any
//!    more drop out. It stops when no single change improves the cover.
//! 4. **Rebuild.** The surviving nodes are re-emitted as a new
//!    [`Program`] with the same inputs and outputs; collapsed gates
//!    carry their matched recipe and still travel as ordinary
//!    sign-LUT gate requests.
//!
//! On boolean (±1/8) inputs the lowered program computes the same
//! plaintext as the original; its request count and depth are never
//! higher. It is only a candidate: the admission policy
//! ([`crate::analyzer::AdmissionPolicy`]) runs it when its predicted
//! noise margin clears the threshold and falls back to the program as
//! built otherwise.

use std::collections::HashMap;

use strix_tfhe::boolean::{GateRecipe, MAX_RECIPE_INPUTS};

use crate::session::{NodeOp, Program, Wire};

/// Cuts kept per gate, fewest leaves first. Bounds the enumeration on
/// wide programs; the collapses a three-leaf recipe can express sit
/// among the smallest cuts anyway.
const MAX_CUTS_PER_GATE: usize = 16;

/// A program's bootstrap-minimised form.
#[derive(Clone, Debug)]
pub(crate) struct Lowered {
    /// The rewritten program (same inputs and outputs).
    pub(crate) program: Program,
    /// Live bootstraps the rewrite saves per run.
    pub(crate) removed: usize,
}

/// One way to evaluate a gate with one bootstrap.
#[derive(Clone)]
enum Implementation {
    /// The gate as built, over its own input wires.
    AsBuilt,
    /// A matched recipe over the leaves of one cut of its cone (leaf
    /// ids: see [`Lowering::id`]).
    Cut { leaves: Vec<usize>, recipe: GateRecipe },
}

/// The live part of a candidate cover.
struct Cover {
    /// Nodes that stay: gates that still bootstrap, and every live
    /// linear-LUT node.
    kept: Vec<bool>,
    /// Bootstrapping gates kept.
    gates: usize,
    /// Summed bootstrap depth of the kept gates (the tie-break).
    depth_sum: usize,
    /// Longest bootstrap chain.
    depth: usize,
}

impl Cover {
    fn better_than(&self, other: &Cover) -> bool {
        (self.gates, self.depth_sum) < (other.gates, other.depth_sum)
    }
}

struct Lowering<'a> {
    program: &'a Program,
    /// Per node: the ways it may be evaluated (gates), empty otherwise.
    options: Vec<Vec<Implementation>>,
    /// Per node and option: the bootstrapping nodes (gates and linear
    /// LUTs, NOTs looked through) the option reads. Linear-LUT nodes
    /// carry one entry, their own inputs.
    deps: Vec<Vec<Vec<usize>>>,
    /// Bootstrapping nodes the outputs read, NOTs looked through.
    roots: Vec<usize>,
}

/// Lowers `program`, or returns `None` when no rewrite improves on the
/// program as built.
pub(crate) fn lower(program: &Program) -> Option<Lowered> {
    let lowering = Lowering::new(program);
    let as_built = vec![0usize; program.nodes.len()];
    let original = lowering.cover(&as_built);
    let (choice, cover) = lowering.improve(as_built, original.depth);
    if choice.iter().all(|&c| c == 0) {
        return None;
    }
    let lowered = lowering.rebuild(&choice, &cover)?;
    Some(Lowered { program: lowered, removed: original.gates - cover.gates })
}

impl<'a> Lowering<'a> {
    fn new(program: &'a Program) -> Self {
        let needed = program.needed_nodes();
        let n = program.nodes.len();
        let mut lowering = Self {
            program,
            options: vec![Vec::new(); n],
            deps: vec![Vec::new(); n],
            roots: Vec::new(),
        };
        // Cuts of each gate's cone, as sorted leaf-id sets.
        let mut cuts: Vec<Vec<Vec<usize>>> = vec![Vec::new(); n];
        for (i, node) in program.nodes.iter().enumerate() {
            if !needed[i] {
                continue;
            }
            let bases: Vec<Wire> = node.inputs.iter().map(|&w| lowering.base(w)).collect();
            let base_deps: Vec<usize> = bases.iter().filter_map(|w| w.node()).collect();
            match node.op {
                NodeOp::Not => {}
                NodeOp::LinearLut { .. } => lowering.deps[i].push(base_deps),
                NodeOp::Gate(_) => {
                    cuts[i] = lowering.cone_cuts(&bases, &cuts);
                    let mut trivial: Vec<usize> = bases.iter().map(|&w| lowering.id(w)).collect();
                    trivial.sort_unstable();
                    trivial.dedup();
                    lowering.options[i].push(Implementation::AsBuilt);
                    lowering.deps[i].push(base_deps);
                    for cut in &cuts[i] {
                        let Some((leaves, recipe)) = lowering.match_cut(i, cut) else { continue };
                        if leaves == trivial {
                            continue; // the gate as built already reads exactly these
                        }
                        let deps = leaves.iter().filter_map(|&l| lowering.leaf_node(l)).collect();
                        lowering.options[i].push(Implementation::Cut { leaves, recipe });
                        lowering.deps[i].push(deps);
                    }
                }
            }
        }
        lowering.roots =
            program.outputs().iter().filter_map(|&w| lowering.base(w).node()).collect();
        lowering
    }

    /// Leaf id of a base wire: inputs first, then nodes.
    fn id(&self, w: Wire) -> usize {
        match w {
            Wire::Input(i) => i,
            Wire::Node(n) => self.program.input_count() + n,
        }
    }

    fn leaf_node(&self, id: usize) -> Option<usize> {
        id.checked_sub(self.program.input_count())
    }

    fn leaf_wire(&self, id: usize) -> Wire {
        match self.leaf_node(id) {
            Some(n) => Wire::Node(n),
            None => Wire::Input(id),
        }
    }

    /// `w` with NOT nodes looked through.
    fn base(&self, mut w: Wire) -> Wire {
        while let Wire::Node(n) = w {
            let node = &self.program.nodes[n];
            if !matches!(node.op, NodeOp::Not) {
                break;
            }
            w = node.inputs[0];
        }
        w
    }

    /// Every way to cover a gate reading `bases` with at most
    /// [`MAX_RECIPE_INPUTS`] leaves: each input is either a leaf itself
    /// or, if it is a gate, replaced by one of its own cuts.
    fn cone_cuts(&self, bases: &[Wire], cuts: &[Vec<Vec<usize>>]) -> Vec<Vec<usize>> {
        let mut merged: Vec<Vec<usize>> = vec![Vec::new()];
        for &w in bases {
            let mut choices = vec![vec![self.id(w)]];
            if let Some(n) = w.node() {
                if matches!(self.program.nodes[n].op, NodeOp::Gate(_)) {
                    choices.extend(cuts[n].iter().cloned());
                }
            }
            let mut next = Vec::new();
            for partial in &merged {
                for choice in &choices {
                    let mut cut = partial.clone();
                    cut.extend(choice);
                    cut.sort_unstable();
                    cut.dedup();
                    if cut.len() <= MAX_RECIPE_INPUTS {
                        next.push(cut);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            merged = next;
        }
        merged.sort_by_key(Vec::len);
        merged.truncate(MAX_CUTS_PER_GATE);
        merged
    }

    /// The truth table of gate `root` over `cut`, reduced to the leaves
    /// it depends on, and the recipe matching it — `None` for a constant
    /// or a function no sign-LUT recipe computes.
    fn match_cut(&self, root: usize, cut: &[usize]) -> Option<(Vec<usize>, GateRecipe)> {
        let mut table = 0u8;
        for pattern in 0..1usize << cut.len() {
            let mut memo = HashMap::new();
            if self.value(Wire::Node(root), cut, pattern, &mut memo)? {
                table |= 1 << pattern;
            }
        }
        // Keep the leaves the function depends on.
        let patterns = 1usize << cut.len();
        let kept: Vec<usize> = (0..cut.len())
            .filter(|&j| (0..patterns).any(|p| (table >> p) & 1 != (table >> (p ^ (1 << j))) & 1))
            .collect();
        if kept.is_empty() {
            return None;
        }
        let mut reduced = 0u8;
        for p in 0..1usize << kept.len() {
            let full: usize = kept.iter().enumerate().map(|(i, &j)| ((p >> i) & 1) << j).sum();
            reduced |= ((table >> full) & 1) << p;
        }
        let recipe = GateRecipe::for_truth_table(kept.len(), reduced)?;
        Some((kept.iter().map(|&j| cut[j]).collect(), recipe))
    }

    /// Plaintext value of `w` when leaf `cut[j]` carries bit `j` of
    /// `pattern`; `None` if the cone escapes the cut.
    fn value(
        &self,
        w: Wire,
        cut: &[usize],
        pattern: usize,
        memo: &mut HashMap<usize, bool>,
    ) -> Option<bool> {
        let id = self.id(w);
        if let Some(j) = cut.iter().position(|&l| l == id) {
            return Some((pattern >> j) & 1 == 1);
        }
        if let Some(&v) = memo.get(&id) {
            return Some(v);
        }
        let node = &self.program.nodes[w.node()?];
        let v = match &node.op {
            NodeOp::Not => !self.value(node.inputs[0], cut, pattern, memo)?,
            NodeOp::Gate(recipe) => {
                let inputs = node
                    .inputs
                    .iter()
                    .map(|&i| self.value(i, cut, pattern, memo))
                    .collect::<Option<Vec<bool>>>()?;
                recipe.eval(&inputs)
            }
            NodeOp::LinearLut { .. } => return None,
        };
        memo.insert(id, v);
        Some(v)
    }

    /// Which nodes a choice of implementations keeps, and its cost.
    fn cover(&self, choice: &[usize]) -> Cover {
        let n = self.program.nodes.len();
        let mut kept = vec![false; n];
        let mut stack = self.roots.clone();
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut kept[i], true) {
                continue;
            }
            stack.extend(&self.deps[i][choice[i]]);
        }
        let mut depths = vec![0usize; n];
        let (mut gates, mut depth_sum, mut depth) = (0, 0, 0);
        for i in (0..n).filter(|&i| kept[i]) {
            // Dependencies precede their consumers, so they are final.
            depths[i] = 1 + self.deps[i][choice[i]].iter().map(|&d| depths[d]).max().unwrap_or(0);
            depth = depth.max(depths[i]);
            if !self.options[i].is_empty() {
                gates += 1;
                depth_sum += depths[i];
            }
        }
        Cover { kept, gates, depth_sum, depth }
    }

    /// Greedy descent from `choice`: each round re-implements the kept
    /// gate whose best option most improves the cover within
    /// `depth_limit`, until no gate can.
    fn improve(&self, mut choice: Vec<usize>, depth_limit: usize) -> (Vec<usize>, Cover) {
        let mut current = self.cover(&choice);
        loop {
            let mut improved = false;
            for i in 0..choice.len() {
                if !current.kept[i] || self.options[i].len() < 2 {
                    continue;
                }
                let held = choice[i];
                let mut best: Option<(usize, Cover)> = None;
                for option in (0..self.options[i].len()).filter(|&o| o != held) {
                    choice[i] = option;
                    let trial = self.cover(&choice);
                    let leads = best.as_ref().is_none_or(|(_, b)| trial.better_than(b));
                    if trial.depth <= depth_limit && trial.better_than(&current) && leads {
                        best = Some((option, trial));
                    }
                }
                match best {
                    Some((option, trial)) => {
                        choice[i] = option;
                        current = trial;
                        improved = true;
                    }
                    None => choice[i] = held,
                }
            }
            if !improved {
                return (choice, current);
            }
        }
    }

    /// Re-emits the kept nodes as a new program; NOT nodes are emitted
    /// where a kept node (or an output) still reads them.
    fn rebuild(&self, choice: &[usize], cover: &Cover) -> Option<Program> {
        let mut out = Program::new(self.program.input_count());
        let mut map: Vec<Option<Wire>> = vec![None; self.program.nodes.len()];
        for (i, node) in self.program.nodes.iter().enumerate() {
            if !cover.kept[i] {
                continue;
            }
            let (op, inputs) = match (&node.op, self.options[i].get(choice[i])) {
                (NodeOp::Gate(_), Some(Implementation::Cut { leaves, recipe })) => {
                    let wires = leaves.iter().map(|&l| self.leaf_wire(l)).collect::<Vec<_>>();
                    (NodeOp::Gate(*recipe), wires)
                }
                _ => (node.op.clone(), node.inputs.clone()),
            };
            let inputs =
                inputs.iter().map(|&w| self.emit(w, &mut out, &mut map)).collect::<Option<_>>()?;
            map[i] = Some(out.push_node(op, inputs));
        }
        for &w in self.program.outputs() {
            let wire = self.emit(w, &mut out, &mut map)?;
            out.output(wire);
        }
        Some(out)
    }

    /// The rebuilt program's wire for `w`, emitting NOT nodes on first
    /// use; `None` if `w` reads a node the cover dropped.
    fn emit(&self, w: Wire, out: &mut Program, map: &mut [Option<Wire>]) -> Option<Wire> {
        let Wire::Node(n) = w else { return Some(w) };
        if let Some(mapped) = map[n] {
            return Some(mapped);
        }
        let node = &self.program.nodes[n];
        if !matches!(node.op, NodeOp::Not) {
            return None;
        }
        let inner = self.emit(node.inputs[0], out, map)?;
        let negated = out.not(inner);
        map[n] = Some(negated);
        Some(negated)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use strix_tfhe::boolean::BinaryGate;
    use strix_tfhe::bootstrap::Lut;

    use super::*;

    /// One full adder over inputs `(a, b, cin)`, built gate by gate as
    /// the workload builders do: outputs `(sum, carry)`.
    fn full_adder() -> Program {
        let mut p = Program::new(3);
        let (a, b, cin) = (Wire::Input(0), Wire::Input(1), Wire::Input(2));
        let ab = p.gate(BinaryGate::Xor, a, b);
        let sum = p.gate(BinaryGate::Xor, ab, cin);
        let t1 = p.gate(BinaryGate::And, a, b);
        let t2 = p.gate(BinaryGate::And, ab, cin);
        let carry = p.gate(BinaryGate::Or, t1, t2);
        p.output(sum);
        p.output(carry);
        p
    }

    fn assert_plaintext_equivalent(original: &Program, lowered: &Program) {
        for pattern in 0..1usize << original.input_count() {
            let bits: Vec<bool> =
                (0..original.input_count()).map(|i| (pattern >> i) & 1 == 1).collect();
            assert_eq!(
                original.evaluate_plain(&bits),
                lowered.evaluate_plain(&bits),
                "inputs {bits:?}"
            );
        }
    }

    fn recipes(p: &Program) -> Vec<GateRecipe> {
        p.nodes
            .iter()
            .filter_map(|n| match n.op {
                NodeOp::Gate(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn full_adder_collapses_to_majority_and_parity() {
        let p = full_adder();
        let lowered = lower(&p).expect("a full adder lowers");
        assert_eq!(lowered.removed, 3);
        assert_eq!(lowered.program.request_count(), 2);
        let gains: Vec<i64> = recipes(&lowered.program).iter().map(|r| r.linear_gain()).collect();
        assert_eq!(gains, [12, 3], "parity sum, then majority carry");
        assert_plaintext_equivalent(&p, &lowered.program);
    }

    #[test]
    fn not_nodes_fold_into_the_truth_table() {
        // NOT(a) XOR b, XORed with NOT c: still one three-way parity.
        let mut p = Program::new(3);
        let na = p.not(Wire::Input(0));
        let x = p.gate(BinaryGate::Xor, na, Wire::Input(1));
        let nc = p.not(Wire::Input(2));
        let y = p.gate(BinaryGate::Xor, x, nc);
        let out = p.not(y);
        p.output(out);
        let lowered = lower(&p).expect("a parity chain lowers");
        assert_eq!(lowered.program.request_count(), 1);
        assert_plaintext_equivalent(&p, &lowered.program);
    }

    #[test]
    fn shared_gates_stay_and_equal_count_rewrites_cut_depth() {
        // `ab` feeds an output directly, so it survives; the parity that
        // also reads it still moves onto the inputs, one level shallower
        // at the same bootstrap count.
        let mut p = Program::new(3);
        let ab = p.gate(BinaryGate::Xor, Wire::Input(0), Wire::Input(1));
        let s = p.gate(BinaryGate::Xor, ab, Wire::Input(2));
        p.output(ab);
        p.output(s);
        let lowered = lower(&p).expect("the parity moves onto the inputs");
        assert_eq!(lowered.removed, 0);
        assert_eq!(lowered.program.request_count(), 2);
        assert!(lowered
            .program
            .nodes
            .iter()
            .all(|n| n.inputs.iter().all(|w| matches!(w, Wire::Input(_)))));
        assert_plaintext_equivalent(&p, &lowered.program);
    }

    #[test]
    fn and3_cones_are_left_as_built() {
        let mut p = Program::new(3);
        let ab = p.gate(BinaryGate::And, Wire::Input(0), Wire::Input(1));
        let abc = p.gate(BinaryGate::And, ab, Wire::Input(2));
        p.output(abc);
        assert!(lower(&p).is_none());
    }

    #[test]
    fn linear_lut_nodes_are_leaves_and_dead_nodes_drop() {
        let lut = Arc::new(Lut::from_function(512, 1, |m| m).unwrap());
        let mut p = Program::new(2);
        let l = p.linear_lut(vec![1], vec![Wire::Input(0)], 0, lut);
        let x = p.gate(BinaryGate::Xor, l, Wire::Input(1));
        let y = p.gate(BinaryGate::Xnor, x, Wire::Input(0));
        let _dead = p.gate(BinaryGate::And, Wire::Input(0), Wire::Input(1));
        p.output(y);
        let lowered = lower(&p).expect("the parity over the LUT output lowers");
        // The LUT node stays; the two XORs become one gate reading it.
        assert_eq!(lowered.program.request_count(), 2);
        assert_eq!(lowered.removed, 1, "dead nodes never counted as removed");
        assert!(matches!(lowered.program.nodes[0].op, NodeOp::LinearLut { .. }));
        assert_eq!(lowered.program.nodes[1].inputs.len(), 3);
    }

    #[test]
    fn depth_never_exceeds_the_program_as_built() {
        // A deep XOR chain over four inputs: each three-leaf collapse
        // must keep the chain no deeper than it was.
        let mut p = Program::new(5);
        let mut acc = Wire::Input(0);
        for i in 1..5 {
            acc = p.gate(BinaryGate::Xor, acc, Wire::Input(i));
        }
        p.output(acc);
        let lowering = Lowering::new(&p);
        let as_built = lowering.cover(&vec![0; p.nodes.len()]);
        let lowered = lower(&p).expect("an XOR chain lowers");
        let cover = Lowering::new(&lowered.program);
        let after = cover.cover(&vec![0; lowered.program.nodes.len()]);
        assert!(after.depth <= as_built.depth);
        assert_eq!(lowered.program.request_count(), 2, "five-way parity: two three-leaf gates");
        assert_plaintext_equivalent(&p, &lowered.program);
    }
}
