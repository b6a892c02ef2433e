//! And-Inverter Graph (AIG) with structural hashing.
//!
//! The bit-blaster lowers every bitvector term into a network of two-input
//! and-gates with optional inversion on every edge. Structural hashing plus
//! the local simplification rules below keep the circuit small before CNF
//! generation.

use std::fmt;

use crate::fxhash::FxHashMap;

/// An AIG literal: a node index plus a complement flag.
///
/// Node 0 is the constant node, so [`Aig::fls`] is literal 0 and
/// [`Aig::tru`] is literal 1, matching the AIGER convention.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AigLit(u32);

impl AigLit {
    /// The constant-false literal.
    pub const FALSE: AigLit = AigLit(0);
    /// The constant-true literal.
    pub const TRUE: AigLit = AigLit(1);

    fn new(node: u32, complement: bool) -> AigLit {
        AigLit((node << 1) | u32::from(complement))
    }

    /// The node this literal refers to.
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the literal is complemented.
    pub fn complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented literal.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> AigLit {
        AigLit(self.0 ^ 1)
    }

    /// Whether this is one of the two constant literals.
    pub fn is_const(self) -> bool {
        self.node() == 0
    }
}

impl fmt::Debug for AigLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == AigLit::FALSE {
            write!(f, "F")
        } else if *self == AigLit::TRUE {
            write!(f, "T")
        } else if self.complemented() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

/// A node of the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AigNode {
    /// The unique constant node (index 0).
    Const,
    /// A primary input, tagged with an external identifier.
    Input(u32),
    /// A two-input and-gate.
    And(AigLit, AigLit),
}

/// An and-inverter graph under construction.
///
/// # Example
///
/// ```
/// use symsc_smt::aig::{Aig, AigLit};
/// let mut g = Aig::new();
/// let a = g.input(0);
/// let b = g.input(1);
/// let both = g.and(a, b);
/// assert_eq!(g.and(a, a), a);              // idempotence
/// assert_eq!(g.and(a, a.not()), AigLit::FALSE); // contradiction
/// let _ = both;
/// ```
#[derive(Clone, Debug)]
pub struct Aig {
    nodes: Vec<AigNode>,
    strash: FxHashMap<(AigLit, AigLit), u32>,
    num_inputs: u32,
}

impl Default for Aig {
    fn default() -> Aig {
        Aig::new()
    }
}

impl Aig {
    /// Creates an empty graph containing only the constant node.
    pub fn new() -> Aig {
        Aig {
            nodes: vec![AigNode::Const],
            strash: FxHashMap::default(),
            num_inputs: 0,
        }
    }

    /// The number of nodes, including the constant node.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has only the constant node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of primary inputs created so far.
    pub fn num_inputs(&self) -> u32 {
        self.num_inputs
    }

    /// The node structure at `index`.
    pub fn node(&self, index: u32) -> AigNode {
        self.nodes[index as usize]
    }

    /// The constant-false literal.
    pub fn fls(&self) -> AigLit {
        AigLit::FALSE
    }

    /// The constant-true literal.
    pub fn tru(&self) -> AigLit {
        AigLit::TRUE
    }

    /// Creates a fresh primary input tagged with `tag`.
    pub fn input(&mut self, tag: u32) -> AigLit {
        let idx = self.nodes.len() as u32;
        self.nodes.push(AigNode::Input(tag));
        self.num_inputs += 1;
        AigLit::new(idx, false)
    }

    /// A constant literal from a boolean.
    pub fn constant(&self, value: bool) -> AigLit {
        if value {
            AigLit::TRUE
        } else {
            AigLit::FALSE
        }
    }

    /// And-gate with local simplification and structural hashing.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Constant and trivial cases.
        if a == AigLit::FALSE || b == AigLit::FALSE || a == b.not() {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE {
            return b;
        }
        if b == AigLit::TRUE || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&idx) = self.strash.get(&(a, b)) {
            return AigLit::new(idx, false);
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(AigNode::And(a, b));
        self.strash.insert((a, b), idx);
        AigLit::new(idx, false)
    }

    /// Or-gate, derived via De Morgan.
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.and(a.not(), b.not()).not()
    }

    /// Exclusive-or, built from two and-gates.
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // a ^ b = !(a & b) & !(­!a & !b)
        let nand = self.and(a, b).not();
        let nor = self.and(a.not(), b.not()).not();
        self.and(nand, nor)
    }

    /// Multiplexer: `sel ? t : e`.
    pub fn mux(&mut self, sel: AigLit, t: AigLit, e: AigLit) -> AigLit {
        if t == e {
            return t;
        }
        let pick_t = self.and(sel, t);
        let pick_e = self.and(sel.not(), e);
        self.or(pick_t, pick_e)
    }

    /// Equivalence (xnor).
    pub fn xnor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.xor(a, b).not()
    }

    /// Conjunction over many literals.
    pub fn and_many<I: IntoIterator<Item = AigLit>>(&mut self, lits: I) -> AigLit {
        let mut acc = AigLit::TRUE;
        for l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// Disjunction over many literals.
    pub fn or_many<I: IntoIterator<Item = AigLit>>(&mut self, lits: I) -> AigLit {
        let mut acc = AigLit::FALSE;
        for l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// Evaluates `lit` under concrete input values (`inputs[tag]`).
    ///
    /// Used by tests to check circuits against ground truth.
    pub fn evaluate(&self, lit: AigLit, inputs: &dyn Fn(u32) -> bool) -> bool {
        let mut values: Vec<Option<bool>> = vec![None; self.nodes.len()];
        values[0] = Some(false);
        let mut stack = vec![lit.node()];
        while let Some(&n) = stack.last() {
            if values[n as usize].is_some() {
                stack.pop();
                continue;
            }
            match self.nodes[n as usize] {
                AigNode::Const => {
                    values[n as usize] = Some(false);
                    stack.pop();
                }
                AigNode::Input(tag) => {
                    values[n as usize] = Some(inputs(tag));
                    stack.pop();
                }
                AigNode::And(a, b) => {
                    let va = values[a.node() as usize];
                    let vb = values[b.node() as usize];
                    match (va, vb) {
                        (Some(x), Some(y)) => {
                            let lx = x ^ a.complemented();
                            let ly = y ^ b.complemented();
                            values[n as usize] = Some(lx && ly);
                            stack.pop();
                        }
                        _ => {
                            if va.is_none() {
                                stack.push(a.node());
                            }
                            if vb.is_none() {
                                stack.push(b.node());
                            }
                        }
                    }
                }
            }
        }
        values[lit.node() as usize].expect("evaluated") ^ lit.complemented()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        let g = Aig::new();
        assert_eq!(g.fls(), AigLit::FALSE);
        assert_eq!(g.tru(), AigLit::TRUE);
        assert_eq!(AigLit::FALSE.not(), AigLit::TRUE);
    }

    #[test]
    fn and_simplifications() {
        let mut g = Aig::new();
        let a = g.input(0);
        assert_eq!(g.and(a, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(g.and(a, AigLit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, a.not()), AigLit::FALSE);
    }

    #[test]
    fn structural_hashing_shares_gates() {
        let mut g = Aig::new();
        let a = g.input(0);
        let b = g.input(1);
        let g1 = g.and(a, b);
        let g2 = g.and(b, a);
        assert_eq!(g1, g2);
        let before = g.len();
        let _ = g.and(a, b);
        assert_eq!(g.len(), before);
    }

    #[test]
    fn gate_truth_tables() {
        let mut g = Aig::new();
        let a = g.input(0);
        let b = g.input(1);
        let s = g.input(2);
        let and = g.and(a, b);
        let or = g.or(a, b);
        let xor = g.xor(a, b);
        let xnor = g.xnor(a, b);
        let mux = g.mux(s, a, b);
        for bits in 0u32..8 {
            let f = |tag: u32| bits & (1 << tag) != 0;
            let (va, vb, vs) = (f(0), f(1), f(2));
            assert_eq!(g.evaluate(and, &f), va && vb);
            assert_eq!(g.evaluate(or, &f), va || vb);
            assert_eq!(g.evaluate(xor, &f), va ^ vb);
            assert_eq!(g.evaluate(xnor, &f), !(va ^ vb));
            assert_eq!(g.evaluate(mux, &f), if vs { va } else { vb });
        }
    }

    #[test]
    fn many_input_gates() {
        let mut g = Aig::new();
        let ins: Vec<AigLit> = (0..5).map(|i| g.input(i)).collect();
        let all = g.and_many(ins.iter().copied());
        let any = g.or_many(ins.iter().copied());
        for bits in 0u32..32 {
            let f = |tag: u32| bits & (1 << tag) != 0;
            assert_eq!(g.evaluate(all, &f), bits == 31);
            assert_eq!(g.evaluate(any, &f), bits != 0);
        }
    }
}
