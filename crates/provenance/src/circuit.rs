//! Decision-DNNF circuits and cardinality-resolved model counting.
//!
//! A *decision-DNNF* is a Boolean circuit whose `∧`-nodes are decomposable
//! (children mention disjoint variable sets) and whose `∨`-nodes are decision
//! nodes `(x ∧ hi) ∨ (¬x ∧ lo)` — deterministic by construction. On such
//! circuits, counting satisfying assignments *by the number of true
//! variables* takes polynomial time: polynomial convolution at `∧`-nodes and
//! disjoint sums at decision nodes. That counting primitive is exactly what
//! exact Shapley computation needs (the `k!(n-k-1)!/n!` weights are indexed
//! by coalition size). [`Circuit::marginals_by_size`] differentiates that
//! count in one reverse pass, yielding every variable's marginal counts at
//! once.

use crate::bigint::BigNat;
use ls_relational::FactId;
use std::collections::HashMap;

/// Index of a node in a [`Circuit`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A circuit node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// A positive literal (monotone provenance never needs bare negative
    /// literals; negation only occurs implicitly in decision nodes).
    Leaf(FactId),
    /// Decomposable conjunction: children have pairwise disjoint supports.
    And(Vec<NodeId>),
    /// Decision on `var`: `(var ∧ hi) ∨ (¬var ∧ lo)`.
    Decision {
        /// Decision variable.
        var: FactId,
        /// Branch taken when `var` is true.
        hi: NodeId,
        /// Branch taken when `var` is false.
        lo: NodeId,
    },
    /// Disjunction of children over pairwise-disjoint variable sets.
    ///
    /// Not syntactically deterministic, but exactly countable by
    /// inclusion–exclusion on complements: the *non*-models of the
    /// disjunction are the product of the children's non-models
    /// (`NonSat(z) = Π_j ((1+z)^{n_j} − Sat_j(z))`). This is the standard
    /// closure of d-DNNFs under disjoint `∨` and is what keeps circuits
    /// polynomial on hub-free provenance components.
    DisjointOr(Vec<NodeId>),
}

/// An arena-allocated decision-DNNF with hash-consing and per-node supports.
#[derive(Debug, Default)]
pub struct Circuit {
    nodes: Vec<Node>,
    /// Sorted variable support of each node (vars mentioned at or below it).
    supports: Vec<Vec<FactId>>,
    cons: HashMap<Node, NodeId>,
}

impl Circuit {
    /// An empty circuit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node stored at `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The sorted support of the node at `id`.
    pub fn support(&self, id: NodeId) -> &[FactId] {
        &self.supports[id.index()]
    }

    /// The full arena in allocation order — `NodeId(i)` is `nodes()[i]`.
    /// This is the serialization view: writing nodes in this order and
    /// rebuilding with [`Circuit::from_nodes`] round-trips every `NodeId`.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Rebuild a circuit from an arena-ordered node list, recomputing
    /// supports and the hash-cons table. Unlike the `mk_*` constructors this
    /// performs **no simplification**, so `NodeId`s are preserved exactly —
    /// the property the on-disk circuit format relies on.
    ///
    /// Fails (typed, never panics) on malformed input: forward or
    /// self-referencing child indices, non-decomposable `And`/`DisjointOr`
    /// nodes, or a decision variable occurring in one of its branches.
    pub fn from_nodes(nodes: Vec<Node>) -> Result<Circuit, String> {
        let mut supports: Vec<Vec<FactId>> = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            let child_support = |c: NodeId| -> Result<&[FactId], String> {
                if c.index() >= i {
                    return Err(format!("node {i}: child {:?} is not a prior node", c));
                }
                Ok(&supports[c.index()])
            };
            let support = match node {
                Node::True | Node::False => Vec::new(),
                Node::Leaf(v) => vec![*v],
                Node::And(ch) | Node::DisjointOr(ch) => {
                    let mut union: Vec<FactId> = Vec::new();
                    for &c in ch {
                        union.extend_from_slice(child_support(c)?);
                    }
                    let before = union.len();
                    union.sort_unstable();
                    union.dedup();
                    if union.len() != before {
                        return Err(format!("node {i}: children share variables"));
                    }
                    union
                }
                Node::Decision { var, hi, lo } => {
                    let mut union = vec![*var];
                    let hi_s = child_support(*hi)?;
                    if hi_s.contains(var) {
                        return Err(format!("node {i}: decision variable in hi branch"));
                    }
                    union.extend_from_slice(hi_s);
                    let lo_s = child_support(*lo)?;
                    if lo_s.contains(var) {
                        return Err(format!("node {i}: decision variable in lo branch"));
                    }
                    union.extend_from_slice(lo_s);
                    union.sort_unstable();
                    union.dedup();
                    union
                }
            };
            supports.push(support);
        }
        let cons = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), NodeId(i as u32)))
            .collect();
        Ok(Circuit {
            nodes,
            supports,
            cons,
        })
    }

    fn intern(&mut self, node: Node, support: Vec<FactId>) -> NodeId {
        if let Some(&id) = self.cons.get(&node) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.cons.insert(node.clone(), id);
        self.nodes.push(node);
        self.supports.push(support);
        id
    }

    /// The constant-true node.
    pub fn mk_true(&mut self) -> NodeId {
        self.intern(Node::True, Vec::new())
    }

    /// The constant-false node.
    pub fn mk_false(&mut self) -> NodeId {
        self.intern(Node::False, Vec::new())
    }

    /// A positive literal node.
    pub fn mk_leaf(&mut self, var: FactId) -> NodeId {
        self.intern(Node::Leaf(var), vec![var])
    }

    /// A decomposable conjunction. Constant children are simplified away.
    ///
    /// # Panics
    /// Panics (debug builds) if child supports overlap — that would break the
    /// decomposability invariant counting relies on.
    pub fn mk_and(&mut self, children: Vec<NodeId>) -> NodeId {
        let mut kept = Vec::with_capacity(children.len());
        for c in children {
            match self.node(c) {
                Node::True => {}
                Node::False => return self.mk_false(),
                _ => kept.push(c),
            }
        }
        match kept.len() {
            0 => return self.mk_true(),
            1 => return kept[0],
            _ => {}
        }
        kept.sort_unstable();
        kept.dedup();
        if kept.len() == 1 {
            return kept[0];
        }
        let mut support: Vec<FactId> = Vec::new();
        for &c in &kept {
            support.extend_from_slice(self.support(c));
        }
        let before = support.len();
        support.sort_unstable();
        support.dedup();
        debug_assert_eq!(
            before,
            support.len(),
            "non-decomposable And: children share variables"
        );
        self.intern(Node::And(kept), support)
    }

    /// A decision node `(var ∧ hi) ∨ (¬var ∧ lo)`. If both branches are the
    /// same node the decision is redundant only when `var` does not matter —
    /// we still keep the node (the counting pass accounts for `var` as a free
    /// choice only through the decision), except for the `hi == lo == const`
    /// shortcut.
    ///
    /// # Panics
    /// Panics (debug builds) if either branch already mentions `var`.
    pub fn mk_decision(&mut self, var: FactId, hi: NodeId, lo: NodeId) -> NodeId {
        debug_assert!(
            !self.support(hi).contains(&var) && !self.support(lo).contains(&var),
            "decision variable occurs in a branch"
        );
        if hi == lo {
            if matches!(self.node(hi), Node::True | Node::False) {
                return hi;
            }
            // `var` is irrelevant: both assignments lead to the same
            // sub-function, so the node equals that sub-function.
            return hi;
        }
        let mut support = vec![var];
        support.extend_from_slice(self.support(hi));
        support.extend_from_slice(self.support(lo));
        support.sort_unstable();
        support.dedup();
        self.intern(Node::Decision { var, hi, lo }, support)
    }

    /// A disjunction of sub-functions over pairwise-disjoint variable sets.
    /// Constant children are simplified away.
    ///
    /// # Panics
    /// Panics (debug builds) if child supports overlap.
    pub fn mk_disjoint_or(&mut self, children: Vec<NodeId>) -> NodeId {
        let mut kept = Vec::with_capacity(children.len());
        for c in children {
            match self.node(c) {
                Node::False => {}
                Node::True => return self.mk_true(),
                _ => kept.push(c),
            }
        }
        match kept.len() {
            0 => return self.mk_false(),
            1 => return kept[0],
            _ => {}
        }
        kept.sort_unstable();
        kept.dedup();
        if kept.len() == 1 {
            return kept[0];
        }
        let mut support: Vec<FactId> = Vec::new();
        for &c in &kept {
            support.extend_from_slice(self.support(c));
        }
        let before = support.len();
        support.sort_unstable();
        support.dedup();
        debug_assert_eq!(
            before,
            support.len(),
            "non-disjoint Or: children share variables"
        );
        self.intern(Node::DisjointOr(kept), support)
    }

    /// Evaluate the function at `root` under the assignment given as a sorted
    /// slice of true variables.
    pub fn eval_sorted(&self, root: NodeId, true_vars: &[FactId]) -> bool {
        match self.node(root) {
            Node::True => true,
            Node::False => false,
            Node::Leaf(v) => true_vars.binary_search(v).is_ok(),
            Node::And(ch) => ch.iter().all(|&c| self.eval_sorted(c, true_vars)),
            Node::DisjointOr(ch) => ch.iter().any(|&c| self.eval_sorted(c, true_vars)),
            Node::Decision { var, hi, lo } => {
                if true_vars.binary_search(var).is_ok() {
                    self.eval_sorted(*hi, true_vars)
                } else {
                    self.eval_sorted(*lo, true_vars)
                }
            }
        }
    }

    /// Structural invariant check: every `And` has pairwise disjoint child
    /// supports and every decision variable is absent from its branches.
    pub fn check_invariants(&self, root: NodeId) -> Result<(), String> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            match self.node(id) {
                Node::True | Node::False | Node::Leaf(_) => {}
                Node::And(ch) | Node::DisjointOr(ch) => {
                    let kind = if matches!(self.node(id), Node::And(_)) {
                        "And"
                    } else {
                        "DisjointOr"
                    };
                    let mut union: Vec<FactId> = Vec::new();
                    for &c in ch {
                        union.extend_from_slice(self.support(c));
                        stack.push(c);
                    }
                    let before = union.len();
                    union.sort_unstable();
                    union.dedup();
                    if union.len() != before {
                        return Err(format!("{kind} node {id:?} is not decomposable"));
                    }
                }
                Node::Decision { var, hi, lo } => {
                    if self.support(*hi).contains(var) || self.support(*lo).contains(var) {
                        return Err(format!(
                            "decision node {id:?} repeats its variable in a branch"
                        ));
                    }
                    stack.push(*hi);
                    stack.push(*lo);
                }
            }
        }
        Ok(())
    }

    /// Count satisfying assignments by cardinality over `universe`.
    ///
    /// Returns `counts` with `counts[k]` = number of assignments setting
    /// exactly `k` variables of `universe` to true that satisfy the function
    /// at `root`, optionally under a conditioning `var := val` (the
    /// conditioned variable must not be in `universe`).
    ///
    /// # Panics
    /// Panics if the root's (unconditioned) support is not contained in
    /// `universe ∪ {conditioned var}`.
    pub fn count_by_size(
        &self,
        root: NodeId,
        universe: &[FactId],
        condition: Option<(FactId, bool)>,
    ) -> Vec<BigNat> {
        let cond_var = condition.map(|(v, _)| v);
        if let Some(cv) = cond_var {
            assert!(
                universe.binary_search(&cv).is_err(),
                "conditioned variable must not be in the universe"
            );
        }
        for v in self.support(root) {
            assert!(
                universe.binary_search(v).is_ok() || cond_var == Some(*v),
                "support variable {v} missing from universe"
            );
        }
        // Fast path: every count over a universe of n variables is at most
        // 2^n, and every intermediate convolution product of two sub-circuit
        // counts is a count over their (disjoint) union — so for n ≤ 120 the
        // whole computation fits exactly in u128.
        if universe.len() <= U128_UNIVERSE_LIMIT {
            let binom = BinomialsU128::up_to(universe.len() + 1);
            let mut memo: HashMap<NodeId, Vec<u128>> = HashMap::new();
            let poly = self.count_rec_u128(root, condition, &mut memo, &binom);
            let t_root = self.effective_support_len(root, cond_var);
            let free = universe.len() - t_root;
            let filled = mul_fill_u128(&poly, free, &binom);
            let mut out: Vec<BigNat> = filled.into_iter().map(BigNat::from_u128).collect();
            while out.len() < universe.len() + 1 {
                out.push(BigNat::zero());
            }
            out.truncate(universe.len() + 1);
            return out;
        }
        let mut memo: HashMap<NodeId, Vec<BigNat>> = HashMap::new();
        let binom = Binomials::up_to(universe.len() + 1);
        let poly = self.count_rec(root, condition, &mut memo, &binom);
        // Fill universe variables the root never mentions.
        let t_root = self.effective_support_len(root, cond_var);
        let free = universe.len() - t_root;
        let filled = mul_fill(&poly, free, &binom);
        pad_to(filled, universe.len() + 1)
    }

    fn count_rec_u128(
        &self,
        id: NodeId,
        condition: Option<(FactId, bool)>,
        memo: &mut HashMap<NodeId, Vec<u128>>,
        binom: &BinomialsU128,
    ) -> Vec<u128> {
        if let Some(p) = memo.get(&id) {
            return p.clone();
        }
        let cond_var = condition.map(|(v, _)| v);
        let poly = match self.node(id) {
            Node::True => vec![1u128],
            Node::False => Vec::new(),
            Node::Leaf(v) => match condition {
                Some((cv, val)) if cv == *v => {
                    if val {
                        vec![1]
                    } else {
                        Vec::new()
                    }
                }
                _ => vec![0, 1],
            },
            Node::And(children) => {
                let mut acc = vec![1u128];
                for &c in children {
                    let p = self.count_rec_u128(c, condition, memo, binom);
                    acc = poly_mul_u128(&acc, &p);
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            Node::DisjointOr(children) => {
                // NonSat(z) = Π_j ((1+z)^{t_j} − Sat_j(z));
                // Sat(z) = (1+z)^{t_self} − NonSat(z).
                let mut non = vec![1u128];
                for &c in children {
                    let p = self.count_rec_u128(c, condition, memo, binom);
                    let t_c = self.effective_support_len(c, cond_var);
                    let row = binom.row(t_c);
                    let non_c: Vec<u128> = (0..=t_c)
                        .map(|i| row[i] - p.get(i).copied().unwrap_or(0))
                        .collect();
                    non = poly_mul_u128(&non, &non_c);
                }
                let t_self = self.effective_support_len(id, cond_var);
                let row = binom.row(t_self);
                (0..=t_self)
                    .map(|i| row[i] - non.get(i).copied().unwrap_or(0))
                    .collect()
            }
            Node::Decision { var, hi, lo } => {
                let t_self = self.effective_support_len(id, cond_var);
                match condition {
                    Some((cv, val)) if cv == *var => {
                        let b = if val { *hi } else { *lo };
                        let p = self.count_rec_u128(b, condition, memo, binom);
                        let missing = t_self - self.effective_support_len(b, cond_var);
                        mul_fill_u128(&p, missing, binom)
                    }
                    _ => {
                        let p_hi = self.count_rec_u128(*hi, condition, memo, binom);
                        let p_lo = self.count_rec_u128(*lo, condition, memo, binom);
                        let miss_hi = t_self - 1 - self.effective_support_len(*hi, cond_var);
                        let miss_lo = t_self - 1 - self.effective_support_len(*lo, cond_var);
                        let mut hi_part = mul_fill_u128(&p_hi, miss_hi, binom);
                        hi_part.insert(0, 0); // × z for var = true
                        let lo_part = mul_fill_u128(&p_lo, miss_lo, binom);
                        let n = hi_part.len().max(lo_part.len());
                        (0..n)
                            .map(|i| {
                                hi_part.get(i).copied().unwrap_or(0)
                                    + lo_part.get(i).copied().unwrap_or(0)
                            })
                            .collect()
                    }
                }
            }
        };
        memo.insert(id, poly.clone());
        poly
    }

    /// |support(node) \ {cond var}|.
    fn effective_support_len(&self, id: NodeId, cond_var: Option<FactId>) -> usize {
        let s = self.support(id);
        match cond_var {
            Some(v) if s.binary_search(&v).is_ok() => s.len() - 1,
            _ => s.len(),
        }
    }

    fn count_rec(
        &self,
        id: NodeId,
        condition: Option<(FactId, bool)>,
        memo: &mut HashMap<NodeId, Vec<BigNat>>,
        binom: &Binomials,
    ) -> Vec<BigNat> {
        if let Some(p) = memo.get(&id) {
            return p.clone();
        }
        let cond_var = condition.map(|(v, _)| v);
        let poly = match self.node(id) {
            Node::True => vec![BigNat::one()],
            Node::False => Vec::new(),
            Node::Leaf(v) => match condition {
                Some((cv, val)) if cv == *v => {
                    if val {
                        vec![BigNat::one()]
                    } else {
                        Vec::new()
                    }
                }
                _ => vec![BigNat::zero(), BigNat::one()],
            },
            Node::And(children) => {
                let mut acc = vec![BigNat::one()];
                for &c in children {
                    let p = self.count_rec(c, condition, memo, binom);
                    acc = poly_mul(&acc, &p);
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            Node::DisjointOr(children) => {
                // See the u128 path: complement product.
                let mut non = vec![BigNat::one()];
                for &c in children {
                    let p = self.count_rec(c, condition, memo, binom);
                    let t_c = self.effective_support_len(c, cond_var);
                    let row = binom.row(t_c);
                    let non_c: Vec<BigNat> = (0..=t_c)
                        .map(|i| {
                            let sat = p.get(i).cloned().unwrap_or_else(BigNat::zero);
                            row[i].sub(&sat)
                        })
                        .collect();
                    non = poly_mul(&non, &non_c);
                }
                let t_self = self.effective_support_len(id, cond_var);
                let row = binom.row(t_self);
                (0..=t_self)
                    .map(|i| {
                        let nm = non.get(i).cloned().unwrap_or_else(BigNat::zero);
                        row[i].sub(&nm)
                    })
                    .collect()
            }
            Node::Decision { var, hi, lo } => {
                let t_self = self.effective_support_len(id, cond_var);
                match condition {
                    Some((cv, val)) if cv == *var => {
                        let b = if val { *hi } else { *lo };
                        let p = self.count_rec(b, condition, memo, binom);
                        let missing = t_self - self.effective_support_len(b, cond_var);
                        mul_fill(&p, missing, binom)
                    }
                    _ => {
                        let p_hi = self.count_rec(*hi, condition, memo, binom);
                        let p_lo = self.count_rec(*lo, condition, memo, binom);
                        // hi branch: var is true (one z), free vars filled.
                        let miss_hi = t_self - 1 - self.effective_support_len(*hi, cond_var);
                        let miss_lo = t_self - 1 - self.effective_support_len(*lo, cond_var);
                        let mut hi_part = mul_fill(&p_hi, miss_hi, binom);
                        hi_part.insert(0, BigNat::zero()); // × z for var = true
                        let lo_part = mul_fill(&p_lo, miss_lo, binom);
                        poly_add(&hi_part, &lo_part)
                    }
                }
            }
        };
        memo.insert(id, poly.clone());
        poly
    }

    /// Total model count over `universe` (sum of the cardinality counts).
    pub fn count_models(&self, root: NodeId, universe: &[FactId]) -> BigNat {
        self.count_by_size(root, universe, None)
            .into_iter()
            .fold(BigNat::zero(), |acc, c| acc.add(&c))
    }

    /// Every variable's marginal counts by cardinality, from one forward and
    /// one reverse pass over the arena.
    ///
    /// For `f = universe[i]`, `out[i][k]` (`k = 0..n`, `n = universe.len()`)
    /// is `#Sat(f := 1)[k] − #Sat(f := 0)[k]`: the difference of the two
    /// conditioned [`Self::count_by_size`] calls over the other `n − 1`
    /// variables, integer for integer, taken mod 2^128 (it is the difference
    /// itself whenever that is non-negative, which monotonicity guarantees
    /// for provenance). Returns `None` when `n` exceeds
    /// [`U128_UNIVERSE_LIMIT`]; `universe` must be sorted.
    ///
    /// This is reverse-mode differentiation of the counting circuit
    /// (Darwiche, "A differential approach to inference in Bayesian
    /// networks", J. ACM 2003). Give each variable `x` a weight `p_x` when
    /// true and `q_x` when false; the root's size polynomial is then
    /// multilinear in every `(p_x, q_x)`, and `(∂/∂p_f − ∂/∂q_f)` of it is
    /// the marginal of `f`. A fill factor `(1+z)^m` stands for a product of
    /// `(p_x + q_x)` terms, which that operator annihilates, so adjoints never
    /// flow into fill factors. The forward pass computes each reachable
    /// node's size polynomial `sat[u]` (as [`Self::count_by_size`] does); the
    /// reverse pass starts from `adj[root] = (1+z)^(n − |supp root|)` and
    /// hands each child the partial derivative of its parent:
    ///
    /// * `And`: the product of the siblings' `sat`;
    /// * `DisjointOr`: the product of the siblings' `(1+z)^{t_j} − sat_j`;
    /// * `Decision(v, hi, lo)`: `z·(1+z)^{miss_hi}` to `hi` and
    ///   `(1+z)^{miss_lo}` to `lo`, while `v`'s marginal gains
    ///   `adj · ((1+z)^{miss_hi}·sat_hi − (1+z)^{miss_lo}·sat_lo)`;
    /// * `Leaf(f)`: `f`'s marginal gains `adj`.
    ///
    /// Every step is a ring operation, so wrapping `u128` arithmetic yields
    /// each marginal exactly mod 2^128 however large the intermediate
    /// adjoints grow, and a marginal over `n − 1 ≤ 119` free variables is
    /// below `2^119`, so it is exact.
    ///
    /// # Panics
    /// Panics if the root's support is not contained in `universe`.
    pub fn marginals_by_size(&self, root: NodeId, universe: &[FactId]) -> Option<Vec<Vec<u128>>> {
        let n = universe.len();
        if n > U128_UNIVERSE_LIMIT {
            return None;
        }
        for v in self.support(root) {
            assert!(
                universe.binary_search(v).is_ok(),
                "support variable {v} missing from universe"
            );
        }
        let binom = BinomialsU128::up_to(n);
        let t = |u: usize| self.supports[u].len();
        let slot = |f: &FactId| universe.binary_search(f).expect("support within universe");
        // Children always have smaller ids than their parent (`from_nodes`
        // rejects anything else; `intern` appends after the children), so
        // one descending sweep marks the nodes reachable from the root, and
        // ascending / descending index loops visit them bottom-up / top-down.
        let r = root.index();
        let mut reach = vec![false; r + 1];
        reach[r] = true;
        for u in (0..=r).rev() {
            if !reach[u] {
                continue;
            }
            match &self.nodes[u] {
                Node::And(ch) | Node::DisjointOr(ch) => {
                    for c in ch {
                        reach[c.index()] = true;
                    }
                }
                Node::Decision { hi, lo, .. } => {
                    reach[hi.index()] = true;
                    reach[lo.index()] = true;
                }
                Node::True | Node::False | Node::Leaf(_) => {}
            }
        }

        // Forward: sat[u] holds exactly |supp u| + 1 coefficients.
        let mut sat: Vec<Vec<u128>> = vec![Vec::new(); r + 1];
        for u in (0..=r).filter(|&u| reach[u]) {
            sat[u] = match &self.nodes[u] {
                Node::True => vec![1],
                Node::False => vec![0],
                Node::Leaf(_) => vec![0, 1],
                Node::And(ch) => ch
                    .iter()
                    .fold(vec![1], |acc, c| poly_mul_u128(&acc, &sat[c.index()])),
                Node::DisjointOr(ch) => {
                    let non = ch.iter().fold(vec![1], |acc, c| {
                        poly_mul_u128(&acc, &complement_u128(&sat[c.index()], &binom))
                    });
                    complement_u128(&non, &binom)
                }
                Node::Decision { hi, lo, .. } => {
                    let (h, l) = (hi.index(), lo.index());
                    let mut out = vec![0u128; t(u) + 1];
                    // z·(1+z)^{miss_hi}·sat_hi + (1+z)^{miss_lo}·sat_lo.
                    add_assign_u128(
                        &mut out[1..],
                        &mul_fill_u128(&sat[h], t(u) - 1 - t(h), &binom),
                    );
                    add_assign_u128(&mut out, &mul_fill_u128(&sat[l], t(u) - 1 - t(l), &binom));
                    out
                }
            };
        }

        // Reverse: adj[u] is ∂(root count)/∂sat[u], with at most
        // n − |supp u| + 1 coefficients.
        let mut adj: Vec<Vec<u128>> = vec![Vec::new(); r + 1];
        adj[r] = binom.row(n - t(r)).to_vec();
        let mut out = vec![vec![0u128; n]; n];
        for u in (0..=r).rev().filter(|&u| reach[u]) {
            let a = std::mem::take(&mut adj[u]);
            if a.iter().all(|&c| c == 0) {
                continue;
            }
            match &self.nodes[u] {
                Node::True | Node::False => {}
                Node::Leaf(f) => add_assign_u128(&mut out[slot(f)], &a),
                Node::And(ch) => {
                    let factors: Vec<&[u128]> =
                        ch.iter().map(|c| sat[c.index()].as_slice()).collect();
                    for (c, g) in ch.iter().zip(adjoint_products(&a, &factors)) {
                        accumulate_u128(&mut adj[c.index()], &g);
                    }
                }
                Node::DisjointOr(ch) => {
                    let non: Vec<Vec<u128>> = ch
                        .iter()
                        .map(|c| complement_u128(&sat[c.index()], &binom))
                        .collect();
                    let factors: Vec<&[u128]> = non.iter().map(Vec::as_slice).collect();
                    for (c, g) in ch.iter().zip(adjoint_products(&a, &factors)) {
                        accumulate_u128(&mut adj[c.index()], &g);
                    }
                }
                Node::Decision { var, hi, lo } => {
                    let (h, l) = (hi.index(), lo.index());
                    let (miss_hi, miss_lo) = (t(u) - 1 - t(h), t(u) - 1 - t(l));
                    let mut to_hi = vec![0u128];
                    to_hi.extend(mul_fill_u128(&a, miss_hi, &binom));
                    accumulate_u128(&mut adj[h], &to_hi);
                    accumulate_u128(&mut adj[l], &mul_fill_u128(&a, miss_lo, &binom));
                    let mut diff = mul_fill_u128(&sat[h], miss_hi, &binom);
                    for (d, lo_c) in diff.iter_mut().zip(mul_fill_u128(&sat[l], miss_lo, &binom)) {
                        *d = d.wrapping_sub(lo_c);
                    }
                    add_assign_u128(&mut out[slot(var)], &poly_mul_u128(&a, &diff));
                }
            }
        }
        Some(out)
    }
}

/// `seed · Π_{j≠i} factors[j]` for every `i`, from prefix and suffix
/// products (no division): the adjoints an `And` / `DisjointOr` node hands
/// its children.
fn adjoint_products(seed: &[u128], factors: &[&[u128]]) -> Vec<Vec<u128>> {
    let m = factors.len();
    let mut suffix = vec![vec![1u128]; m + 1];
    for i in (0..m).rev() {
        suffix[i] = poly_mul_u128(factors[i], &suffix[i + 1]);
    }
    let mut prefix = seed.to_vec();
    let mut out = Vec::with_capacity(m);
    for i in 0..m {
        out.push(poly_mul_u128(&prefix, &suffix[i + 1]));
        if i + 1 < m {
            prefix = poly_mul_u128(&prefix, factors[i]);
        }
    }
    out
}

/// `(1+z)^t − p` for a polynomial `p` of exactly `t + 1` coefficients.
fn complement_u128(p: &[u128], binom: &BinomialsU128) -> Vec<u128> {
    let row = binom.row(p.len() - 1);
    row.iter().zip(p).map(|(b, c)| b.wrapping_sub(*c)).collect()
}

/// `dst += src` coefficient-wise, wrapping; `src` is no longer than `dst`.
fn add_assign_u128(dst: &mut [u128], src: &[u128]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.wrapping_add(*s);
    }
}

/// `dst += src`, growing `dst` to `src`'s length first.
fn accumulate_u128(dst: &mut Vec<u128>, src: &[u128]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    add_assign_u128(dst, src);
}

/// Polynomial product (coefficients by cardinality). Empty vec = zero.
fn poly_mul(a: &[BigNat], b: &[BigNat]) -> Vec<BigNat> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![BigNat::zero(); a.len() + b.len() - 1];
    for (i, ca) in a.iter().enumerate() {
        if ca.is_zero() {
            continue;
        }
        for (j, cb) in b.iter().enumerate() {
            if cb.is_zero() {
                continue;
            }
            out[i + j] = out[i + j].add(&ca.mul(cb));
        }
    }
    out
}

/// Polynomial sum.
fn poly_add(a: &[BigNat], b: &[BigNat]) -> Vec<BigNat> {
    let n = a.len().max(b.len());
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let ca = a.get(i).cloned().unwrap_or_else(BigNat::zero);
        let cb = b.get(i).cloned().unwrap_or_else(BigNat::zero);
        out.push(ca.add(&cb));
    }
    out
}

/// Multiply by `(1+z)^k` — fills `k` unconstrained variables. Binomial rows
/// come from a [`Binomials`] cache built once per counting pass.
fn mul_fill(p: &[BigNat], k: usize, binom: &Binomials) -> Vec<BigNat> {
    if k == 0 || p.is_empty() {
        return p.to_vec();
    }
    let row = binom.row(k);
    let mut out = vec![BigNat::zero(); p.len() + k];
    for (i, c) in p.iter().enumerate() {
        if c.is_zero() {
            continue;
        }
        for (j, b) in row.iter().enumerate() {
            out[i + j] = out[i + j].add(&c.mul(b));
        }
    }
    out
}

/// Universe-size cutoff below which counting runs in exact `u128`
/// arithmetic (all counts ≤ 2^n and all convolution intermediates stay
/// counts, so n ≤ 120 cannot overflow), and [`Circuit::marginals_by_size`]
/// applies.
pub const U128_UNIVERSE_LIMIT: usize = 120;

/// Polynomial product in wrapping `u128` arithmetic (exact mod 2^128).
fn poly_mul_u128(a: &[u128], b: &[u128]) -> Vec<u128> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u128; a.len() + b.len() - 1];
    for (i, &ca) in a.iter().enumerate() {
        if ca == 0 {
            continue;
        }
        for (j, &cb) in b.iter().enumerate() {
            out[i + j] = out[i + j].wrapping_add(ca.wrapping_mul(cb));
        }
    }
    out
}

/// Multiply by `(1+z)^k` in wrapping `u128` arithmetic.
fn mul_fill_u128(p: &[u128], k: usize, binom: &BinomialsU128) -> Vec<u128> {
    if k == 0 || p.is_empty() {
        return p.to_vec();
    }
    let row = binom.row(k);
    let mut out = vec![0u128; p.len() + k];
    for (i, &c) in p.iter().enumerate() {
        if c == 0 {
            continue;
        }
        for (j, &b) in row.iter().enumerate() {
            out[i + j] = out[i + j].wrapping_add(c.wrapping_mul(b));
        }
    }
    out
}

/// Pascal rows in `u128` (valid to n = 120 within the fast-path regime).
#[derive(Debug)]
pub struct BinomialsU128 {
    rows: Vec<Vec<u128>>,
}

impl BinomialsU128 {
    /// Pascal rows `0..=n`.
    pub fn up_to(n: usize) -> Self {
        let mut rows: Vec<Vec<u128>> = Vec::with_capacity(n + 1);
        rows.push(vec![1]);
        for k in 1..=n {
            let prev = &rows[k - 1];
            let mut row = Vec::with_capacity(k + 1);
            row.push(1u128);
            for i in 1..k {
                row.push(prev[i - 1] + prev[i]);
            }
            row.push(1);
            rows.push(row);
        }
        BinomialsU128 { rows }
    }

    /// Row `k`.
    pub fn row(&self, k: usize) -> &[u128] {
        &self.rows[k]
    }
}

/// Pascal-triangle cache of binomial coefficient rows.
#[derive(Debug)]
pub struct Binomials {
    rows: Vec<Vec<BigNat>>,
}

impl Binomials {
    /// Compute all rows `C(0,·) .. C(n,·)` by the Pascal recurrence
    /// (addition-only, exact).
    pub fn up_to(n: usize) -> Self {
        let mut rows: Vec<Vec<BigNat>> = Vec::with_capacity(n + 1);
        rows.push(vec![BigNat::one()]);
        for k in 1..=n {
            let prev = &rows[k - 1];
            let mut row = Vec::with_capacity(k + 1);
            row.push(BigNat::one());
            for i in 1..k {
                row.push(prev[i - 1].add(&prev[i]));
            }
            row.push(BigNat::one());
            rows.push(row);
        }
        Binomials { rows }
    }

    /// Row `k`: `[C(k,0), …, C(k,k)]`.
    pub fn row(&self, k: usize) -> &[BigNat] {
        &self.rows[k]
    }

    /// `C(n, k)` (zero when `k > n`).
    pub fn binom(&self, n: usize, k: usize) -> BigNat {
        if k > n {
            BigNat::zero()
        } else {
            self.rows[n][k].clone()
        }
    }
}

/// Pad a polynomial with zero coefficients up to `len`.
fn pad_to(mut p: Vec<BigNat>, len: usize) -> Vec<BigNat> {
    while p.len() < len {
        p.push(BigNat::zero());
    }
    p.truncate(len);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FactId {
        FactId(i)
    }

    /// Build the circuit for x0 ∧ x1 by hand.
    #[test]
    fn and_of_leaves_counts() {
        let mut c = Circuit::new();
        let l0 = c.mk_leaf(f(0));
        let l1 = c.mk_leaf(f(1));
        let root = c.mk_and(vec![l0, l1]);
        let counts = c.count_by_size(root, &[f(0), f(1)], None);
        // Only {x0, x1} satisfies: one model of size 2.
        assert_eq!(
            counts.iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![0.0, 0.0, 1.0]
        );
        assert_eq!(c.count_models(root, &[f(0), f(1)]).to_f64(), 1.0);
    }

    /// Decision node for x0 ∨ x1 : decide x0; hi=True, lo=Leaf(x1).
    #[test]
    fn or_via_decision_counts() {
        let mut c = Circuit::new();
        let t = c.mk_true();
        let l1 = c.mk_leaf(f(1));
        let root = c.mk_decision(f(0), t, l1);
        let counts = c.count_by_size(root, &[f(0), f(1)], None);
        // Satisfying: {x0}, {x1}, {x0,x1} → sizes 1,1,2.
        assert_eq!(
            counts.iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![0.0, 2.0, 1.0]
        );
    }

    #[test]
    fn universe_fill_counts_free_variables() {
        let mut c = Circuit::new();
        let root = c.mk_leaf(f(0));
        // Universe has an extra free variable x1.
        let counts = c.count_by_size(root, &[f(0), f(1)], None);
        // Models: {x0} (size 1), {x0,x1} (size 2).
        assert_eq!(
            counts.iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![0.0, 1.0, 1.0]
        );
    }

    #[test]
    fn conditioning_on_leaf() {
        let mut c = Circuit::new();
        let l0 = c.mk_leaf(f(0));
        let l1 = c.mk_leaf(f(1));
        let root = c.mk_and(vec![l0, l1]);
        let on = c.count_by_size(root, &[f(1)], Some((f(0), true)));
        assert_eq!(
            on.iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![0.0, 1.0]
        );
        let off = c.count_by_size(root, &[f(1)], Some((f(0), false)));
        assert_eq!(
            off.iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![0.0, 0.0]
        );
    }

    #[test]
    fn conditioning_on_decision_var() {
        let mut c = Circuit::new();
        let t = c.mk_true();
        let l1 = c.mk_leaf(f(1));
        let root = c.mk_decision(f(0), t, l1); // x0 ∨ x1
        let on = c.count_by_size(root, &[f(1)], Some((f(0), true)));
        // x0=1 → formula true: models over {x1} = {}, {x1}.
        assert_eq!(
            on.iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![1.0, 1.0]
        );
        let off = c.count_by_size(root, &[f(1)], Some((f(0), false)));
        // x0=0 → formula = x1.
        assert_eq!(
            off.iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![0.0, 1.0]
        );
    }

    #[test]
    fn constants_and_simplification() {
        let mut c = Circuit::new();
        let t = c.mk_true();
        let fls = c.mk_false();
        let l = c.mk_leaf(f(3));
        assert_eq!(c.mk_and(vec![t, l]), l);
        assert_eq!(c.mk_and(vec![fls, l]), fls);
        assert_eq!(c.mk_and(vec![]), t);
        assert_eq!(c.mk_decision(f(9), l, l), l);
        assert_eq!(c.mk_decision(f(9), t, t), t);
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut c = Circuit::new();
        let a = c.mk_leaf(f(1));
        let b = c.mk_leaf(f(1));
        assert_eq!(a, b);
        let l2 = c.mk_leaf(f(2));
        let n1 = c.mk_and(vec![a, l2]);
        let n2 = c.mk_and(vec![l2, b]);
        assert_eq!(n1, n2);
        assert_eq!(c.len(), 3); // two leaves + one And
    }

    #[test]
    fn eval_matches_semantics() {
        let mut c = Circuit::new();
        let t = c.mk_true();
        let l1 = c.mk_leaf(f(1));
        let l2 = c.mk_leaf(f(2));
        let and12 = c.mk_and(vec![l1, l2]);
        let root = c.mk_decision(f(0), t, and12); // x0 ∨ (x1 ∧ x2)
        assert!(c.eval_sorted(root, &[f(0)]));
        assert!(c.eval_sorted(root, &[f(1), f(2)]));
        assert!(!c.eval_sorted(root, &[f(1)]));
        assert!(!c.eval_sorted(root, &[]));
    }

    #[test]
    fn invariants_hold_for_wellformed() {
        let mut c = Circuit::new();
        let t = c.mk_true();
        let l1 = c.mk_leaf(f(1));
        let l2 = c.mk_leaf(f(2));
        let and12 = c.mk_and(vec![l1, l2]);
        let root = c.mk_decision(f(0), t, and12);
        assert!(c.check_invariants(root).is_ok());
    }

    #[test]
    fn binomial_fill_is_exact_for_large_k() {
        // (1+z)^64 total = 2^64, exceeding u64.
        let p = vec![BigNat::one()];
        let binom = Binomials::up_to(64);
        let filled = mul_fill(&p, 64, &binom);
        let total = filled.iter().fold(BigNat::zero(), |a, c| a.add(c));
        assert_eq!(total, BigNat::pow2(64));
        // Middle coefficient C(64,32) is correct.
        assert_eq!(filled[32].to_string(), "1832624140942590534");
    }

    #[test]
    fn bignat_slow_path_agrees_beyond_u128_limit() {
        // Universe of 125 free variables + one constrained leaf exceeds the
        // u128 fast-path limit; totals must still be exact powers of two.
        let mut c = Circuit::new();
        let root = c.mk_leaf(f(0));
        let mut universe: Vec<FactId> = vec![f(0)];
        universe.extend((1..126).map(f));
        let total = c.count_models(root, &universe);
        assert_eq!(total, BigNat::pow2(125));
        // And the small-universe fast path gives the same shape.
        let small: Vec<FactId> = (0..10).map(f).collect();
        let total_small = c.count_models(root, &small);
        assert_eq!(total_small, BigNat::pow2(9));
    }

    #[test]
    fn binomials_match_known_values() {
        let b = Binomials::up_to(10);
        assert_eq!(b.binom(10, 5).to_f64(), 252.0);
        assert_eq!(b.binom(10, 0).to_f64(), 1.0);
        assert_eq!(b.binom(10, 10).to_f64(), 1.0);
        assert_eq!(b.binom(4, 7).to_f64(), 0.0);
        assert_eq!(
            b.row(3).iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![1.0, 3.0, 3.0, 1.0]
        );
    }
}
