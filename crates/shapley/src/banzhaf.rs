//! Exact Banzhaf values via the same circuit-counting machinery.
//!
//! The Banzhaf value of `f` is the fraction of coalitions of the other
//! players for which `f` is pivotal:
//!
//! ```text
//! Banzhaf(f) = (#Sat₁ − #Sat₀) / 2^(n-1)
//! ```
//!
//! where `#Sat₁` / `#Sat₀` count satisfying subsets of the other `n−1`
//! players with `f` fixed true / false. The pivotal count is the sum over
//! coalition sizes of the same marginal counts exact Shapley uses, from the
//! same adjoint pass. Cheaper than Shapley (no per-size weighting) and used
//! as an auxiliary attribution signal in the ablation benches.

use crate::exact::{FactScores, Marginals};
use ls_provenance::{compile, BigNat, CompileOptions, Dnf};

/// Exact Banzhaf values of every lineage fact.
pub fn banzhaf_values(provenance: &Dnf) -> FactScores {
    let players = provenance.variables();
    if players.is_empty() {
        return FactScores::new();
    }
    let compiled = compile(provenance, CompileOptions::default());
    let ln_pivotal: Vec<f64> = match Marginals::of(&compiled.circuit, compiled.root, &players) {
        Marginals::Small(d) => d
            .iter()
            .map(|d_f| BigNat::ln_u128(d_f.iter().fold(0, |acc, &c| acc.wrapping_add(c))))
            .collect(),
        Marginals::Large(d) => d
            .iter()
            .map(|d_f| d_f.iter().fold(BigNat::zero(), |acc, c| acc.add(c)).ln())
            .collect(),
    };
    let ln_coalitions = ((players.len() - 1) as f64) * std::f64::consts::LN_2;
    players
        .iter()
        .zip(ln_pivotal)
        .map(|(&f, ln_p)| {
            let value = if ln_p == f64::NEG_INFINITY {
                0.0
            } else {
                (ln_p - ln_coalitions).exp()
            };
            (f, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_relational::{FactId, Monomial};

    fn dnf(monos: &[&[u32]]) -> Dnf {
        Dnf::from_monomials(
            monos
                .iter()
                .map(|ids| Monomial::from_facts(ids.iter().map(|&i| FactId(i)).collect()))
                .collect(),
        )
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn dictator_has_banzhaf_one() {
        let scores = banzhaf_values(&dnf(&[&[0]]));
        assert!(close(scores[&FactId(0)], 1.0));
    }

    #[test]
    fn and_game() {
        // φ = a∧b: each pivotal iff the other is present → 1/2.
        let scores = banzhaf_values(&dnf(&[&[0, 1]]));
        assert!(close(scores[&FactId(0)], 0.5));
        assert!(close(scores[&FactId(1)], 0.5));
    }

    #[test]
    fn or_game() {
        // φ = a∨b: pivotal iff the other is absent → 1/2.
        let scores = banzhaf_values(&dnf(&[&[0], &[1]]));
        assert!(close(scores[&FactId(0)], 0.5));
    }

    #[test]
    fn three_player_majority_like() {
        // φ = (a∧b) ∨ (a∧c): a pivotal for {b},{c},{b,c} → 3/4;
        // b pivotal for {a} only → 1/4... wait: b pivotal iff a present and
        // c absent → coalitions {a} → 1/4. Same for c.
        let scores = banzhaf_values(&dnf(&[&[0, 1], &[0, 2]]));
        assert!(close(scores[&FactId(0)], 0.75));
        assert!(close(scores[&FactId(1)], 0.25));
        assert!(close(scores[&FactId(2)], 0.25));
    }

    #[test]
    fn ranking_agrees_with_shapley_on_paper_example() {
        let d = dnf(&[&[0, 1, 4, 6], &[0, 2, 4, 7], &[0, 3, 5, 8]]);
        let banzhaf = banzhaf_values(&d);
        let shapley = crate::exact::shapley_values(&d);
        // Both rank c1 (4) above c2 (5) and a1 (0) first.
        assert!(banzhaf[&FactId(4)] > banzhaf[&FactId(5)]);
        let top = banzhaf.iter().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(top, &FactId(0));
        assert!(shapley[&FactId(4)] > shapley[&FactId(5)]);
    }

    #[test]
    fn empty_provenance() {
        assert!(banzhaf_values(&Dnf::fls()).is_empty());
    }
}
