//! P̃ → P condensation (Fig. 3 and Algorithm 1's update rule).
//!
//! The template matrix P̃ ∈ R^{M×M} is never materialized: each computed
//! upper-triangle entry P̃_{ij} is immediately folded into the basis matrix
//! P ∈ R^{N×N} through the label array l (template → basis index).
//!
//! Because P̃ is symmetric and only its upper triangle is iterated, an
//! *off-diagonal* P̃ entry whose two templates belong to the *same* basis
//! function contributes twice to the diagonal of P. The paper's Algorithm 1
//! pseudocode tests `i = j ∧ l_i = l_j` for the doubling — a typo: the
//! figure's color coding and the sentence "only those off-diagonal entries
//! of P̃ which are combined to the diagonal of P contribute their values
//! twice" identify the intended condition as **i ≠ j ∧ l_i = l_j**, which
//! is what [`accumulate_entry`] implements (and what the dense reference
//! test confirms).

use bemcap_linalg::Matrix;
use bemcap_quad::galerkin::GalerkinEngine;

use crate::basisfn::BasisSet;
use crate::template::{pair_integral, Template};

/// The flattened template view of a basis set: templates T₁…T_M plus the
/// label array l mapping each template to its basis function.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateIndex {
    templates: Vec<Template>,
    labels: Vec<usize>,
    basis_count: usize,
}

impl TemplateIndex {
    /// Builds the flattened index from a basis set.
    pub fn new(set: &BasisSet) -> TemplateIndex {
        let (templates, labels) = set.flatten();
        TemplateIndex { templates, labels, basis_count: set.basis_count() }
    }

    /// M — number of templates.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// N — number of basis functions.
    pub fn basis_count(&self) -> usize {
        self.basis_count
    }

    /// Template `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= template_count()`.
    pub fn template(&self, t: usize) -> &Template {
        &self.templates[t]
    }

    /// Label l_t: the basis function owning template `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= template_count()`.
    pub fn label(&self, t: usize) -> usize {
        self.labels[t]
    }

    /// All templates.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// The label array.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }
}

/// Folds one computed upper-triangle entry P̃_{ij} (i ≤ j) into the full
/// symmetric basis matrix `p`, per (corrected) Algorithm 1.
///
/// # Panics
///
/// Panics if `i > j` or labels are out of range for `p`.
#[inline]
pub fn accumulate_entry(p: &mut Matrix, i: usize, j: usize, li: usize, lj: usize, value: f64) {
    assert!(i <= j, "upper-triangle entries require i <= j");
    if i == j {
        // Diagonal of P̃ contributes once (necessarily li == lj).
        p.add_to(li, lj, value);
    } else if li == lj {
        // Off-diagonal P̃ entry folding onto the diagonal of P: counted
        // twice (P̃_{ij} and P̃_{ji}).
        p.add_to(li, li, 2.0 * value);
    } else {
        // Generic entry: write both symmetric positions of P.
        p.add_to(li, lj, value);
        p.add_to(lj, li, value);
    }
}

/// Reference (slow) assembly of P directly at the basis level: the
/// double sum of equation (4) over every ordered template pair. Used to
/// validate the condensed Algorithm 1 path (`bemcap-core`'s assembly).
pub fn assemble_dense_reference(eng: &GalerkinEngine, set: &BasisSet) -> Matrix {
    let n = set.basis_count();
    let mut p = Matrix::zeros(n, n);
    for (bi, fi) in set.functions().iter().enumerate() {
        for (bj, fj) in set.functions().iter().enumerate() {
            let mut acc = 0.0;
            for ti in &fi.templates {
                for tj in &fj.templates {
                    acc += pair_integral(eng, ti, tj);
                }
            }
            p.set(bi, bj, acc);
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchShape;
    use crate::basisfn::BasisFunction;
    use bemcap_geom::{Axis, Panel};
    use bemcap_quad::galerkin::ShapeDir;

    fn example_set() -> BasisSet {
        // Mirrors Fig. 3: four basis functions, ψ3 with two templates.
        let p = |w: f64, u0: f64| Panel::new(Axis::Z, w, (u0, u0 + 1.0), (0.0, 1.0)).unwrap();
        BasisSet::new(vec![
            BasisFunction::new(0, vec![Template::flat(p(0.0, 0.0))]),
            BasisFunction::new(0, vec![Template::flat(p(0.0, 1.5))]),
            BasisFunction::new(
                1,
                vec![
                    Template::flat(p(1.0, 0.5)),
                    Template::arch(p(1.0, 0.2), ShapeDir::U, ArchShape { center: 0.7, width: 0.3 }),
                ],
            ),
            BasisFunction::new(1, vec![Template::flat(p(1.0, 2.0))]),
        ])
    }

    #[test]
    fn template_index_mirrors_fig3() {
        let set = example_set();
        let idx = TemplateIndex::new(&set);
        assert_eq!(idx.template_count(), 5);
        assert_eq!(idx.basis_count(), 4);
        assert_eq!(idx.labels(), &[0, 1, 2, 2, 3]);
    }

    #[test]
    fn accumulate_rules() {
        let mut p = Matrix::zeros(2, 2);
        // Diagonal P̃ entry: counted once.
        accumulate_entry(&mut p, 0, 0, 0, 0, 3.0);
        assert_eq!(p.get(0, 0), 3.0);
        // Off-diagonal entry, same basis: doubled onto the diagonal.
        accumulate_entry(&mut p, 0, 1, 1, 1, 2.0);
        assert_eq!(p.get(1, 1), 4.0);
        // Off-diagonal entry, different bases: symmetric pair.
        accumulate_entry(&mut p, 1, 2, 0, 1, 5.0);
        assert_eq!(p.get(0, 1), 5.0);
        assert_eq!(p.get(1, 0), 5.0);
    }

    #[test]
    #[should_panic]
    fn lower_triangle_rejected() {
        let mut p = Matrix::zeros(2, 2);
        accumulate_entry(&mut p, 2, 1, 0, 0, 1.0);
    }
}
