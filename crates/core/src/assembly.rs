//! System setup: filling P and Φ from the template index.
//!
//! Algorithm 1 is one k-loop over the upper triangle of the template
//! matrix P̃, each entry folded into P through the label array. The loop
//! exists once, in the pair producer `for_each_pair`; run sequentially,
//! on shared memory or by message passing, only the merge differs:
//!
//! * [`assemble_sequential`] — one thread, the D = 1 reference: every
//!   entry accumulates straight into P (through a shared pair-integral
//!   cache when the executor supplies one);
//! * [`assemble_threaded`] — the shared-memory flow of Fig. 4: workers
//!   accumulate *private* partial matrices over their k-ranges, summed by
//!   the main thread;
//! * [`assemble_distributed`] — the message-passing flow of Figs. 5–6:
//!   every rank builds an N×N_d partial matrix over its contiguous column
//!   range (adjacent ranks share a boundary column) and sends it to rank
//!   0, which shifts and adds;
//! * [`measure_chunk_costs_best_of`] — times the producer chunk by chunk,
//!   the measured inputs to Table 3 and Fig. 8.
//!
//! The three assemblies agree up to floating-point addition order; the
//! workspace integration tests assert their agreement.

use std::ops::Range;
use std::time::Instant;

use bemcap_basis::{
    accumulate_entry, pair_integral, template_moment, BasisSet, Template, TemplateIndex,
    TemplateKey,
};
use bemcap_geom::EPS0;
use bemcap_linalg::Matrix;
use bemcap_par::{k_to_ij, partition_ranges, pool, triangle_size, Universe};
use bemcap_quad::galerkin::GalerkinEngine;

use crate::cache::PairCache;
use crate::report::CacheStats;

/// Output of one assembly run.
#[derive(Debug, Clone)]
pub struct Assembly {
    /// The N×N system matrix P (scaled by 1/(4πε)).
    pub p: Matrix,
    /// The N×n right-hand side Φ.
    pub phi: Matrix,
    /// Wall-clock seconds of the setup step.
    pub seconds: f64,
}

/// Scale factor 1/(4πε) for a medium of relative permittivity `eps_rel`.
pub(crate) fn kernel_scale(eps_rel: f64) -> f64 {
    1.0 / (4.0 * std::f64::consts::PI * eps_rel * EPS0)
}

/// Builds Φ ∈ R^{N×n}: Φ_{ik} = ∫ψ_i ds when ψ_i lives on conductor k.
pub fn assemble_phi(eng: &GalerkinEngine, set: &BasisSet, n_cond: usize) -> Matrix {
    let n = set.basis_count();
    let mut phi = Matrix::zeros(n, n_cond);
    for (bi, f) in set.functions().iter().enumerate() {
        let moment: f64 = f.templates.iter().map(|t| template_moment(eng, t)).sum();
        phi.set(bi, f.conductor, moment);
    }
    phi
}

/// The pair producer: walks `range` of the upper-triangle enumeration of
/// P̃ in ascending k and hands each scaled entry `scale · P̃_ij` to
/// `sink(i, j, value)`. With a cache, each raw integral is looked up
/// (or computed and inserted) under its template-pair key; a hit returns
/// the very bits a recomputation would, so the sink sees identical values
/// either way. Returns the lookup counters (all zero without a cache).
fn for_each_pair(
    eng: &GalerkinEngine,
    cache: Option<PairCache<'_>>,
    index: &TemplateIndex,
    scale: f64,
    range: Range<usize>,
    mut sink: impl FnMut(usize, usize, f64),
) -> CacheStats {
    let mut stats = CacheStats::default();
    if range.is_empty() {
        return stats;
    }
    let keys: Vec<TemplateKey> = match cache {
        Some(_) => index.templates().iter().map(Template::key).collect(),
        None => Vec::new(),
    };
    // (i, j) advance incrementally through the triangle enumeration — one
    // closed-form k_to_ij per range instead of one sqrt per entry.
    let (mut i, mut j) = k_to_ij(range.start);
    for _ in range {
        let (a, b) = (index.template(i), index.template(j));
        let raw = match cache {
            Some(c) => c.get_or_compute(keys[i], keys[j], &mut stats, || pair_integral(eng, a, b)),
            None => pair_integral(eng, a, b),
        };
        sink(i, j, scale * raw);
        i += 1;
        if i > j {
            i = 0;
            j += 1;
        }
    }
    stats
}

/// The sink folding each entry into a full symmetric N×N matrix, per
/// Algorithm 1's update rule ([`accumulate_entry`]).
fn fold_into<'a>(
    p: &'a mut Matrix,
    index: &'a TemplateIndex,
) -> impl FnMut(usize, usize, f64) + 'a {
    move |i, j, v| accumulate_entry(p, i, j, index.label(i), index.label(j), v)
}

/// Sequential Algorithm 1 (D = 1).
pub fn assemble_sequential(
    eng: &GalerkinEngine,
    index: &TemplateIndex,
    set: &BasisSet,
    n_cond: usize,
    eps_rel: f64,
) -> Assembly {
    assemble_cached(eng, None, index, set, n_cond, eps_rel).0
}

/// [`assemble_sequential`] reading and filling an optional shared
/// pair-integral cache, returning the lookup counters alongside. The
/// result is bit-identical with or without the cache.
pub(crate) fn assemble_cached(
    eng: &GalerkinEngine,
    cache: Option<PairCache<'_>>,
    index: &TemplateIndex,
    set: &BasisSet,
    n_cond: usize,
    eps_rel: f64,
) -> (Assembly, CacheStats) {
    let start = Instant::now();
    let n = index.basis_count();
    let mut p = Matrix::zeros(n, n);
    let all = 0..triangle_size(index.template_count());
    let stats =
        for_each_pair(eng, cache, index, kernel_scale(eps_rel), all, fold_into(&mut p, index));
    let phi = assemble_phi(eng, set, n_cond);
    (Assembly { p, phi, seconds: start.elapsed().as_secs_f64() }, stats)
}

/// Shared-memory Algorithm 1 (Fig. 4): `threads` workers over the static
/// k-partition, each accumulating a private full-size matrix, merged at
/// the join. Returns per-worker timings alongside the assembly.
pub fn assemble_threaded(
    eng: &GalerkinEngine,
    index: &TemplateIndex,
    set: &BasisSet,
    n_cond: usize,
    eps_rel: f64,
    threads: usize,
) -> (Assembly, Vec<pool::WorkerTiming>) {
    let start = Instant::now();
    let scale = kernel_scale(eps_rel);
    let n = index.basis_count();
    let total_k = triangle_size(index.template_count());
    let (partials, timings) = pool::run_partitioned(threads, total_k, |_, range| {
        let mut local = Matrix::zeros(n, n);
        for_each_pair(eng, None, index, scale, range, fold_into(&mut local, index));
        local
    });
    let mut p = Matrix::zeros(n, n);
    // The merge runs through the blocked elementwise axpy kernel
    // (`Matrix::add_assign`), bit-identical to the old scalar loop.
    for part in &partials {
        p += part;
    }
    let phi = assemble_phi(eng, set, n_cond);
    (Assembly { p, phi, seconds: start.elapsed().as_secs_f64() }, timings)
}

/// Distributed-memory Algorithm 1 (Figs. 5–6) on the in-process
/// message-passing runtime.
///
/// Every rank builds an `N × N_d` partial matrix over its contiguous
/// basis-column range (the upper-triangle representatives only — labels
/// are monotone in the template index, so l_i ≤ l_j for every computed
/// entry). Rank 0 adds its own partial directly; every other rank
/// serializes its partial and sends it to rank 0, which shifts it to the
/// right columns, adds, and finally mirrors the upper triangle into the
/// full symmetric P.
pub fn assemble_distributed(
    eng: &GalerkinEngine,
    index: &TemplateIndex,
    set: &BasisSet,
    n_cond: usize,
    eps_rel: f64,
    ranks: usize,
) -> Assembly {
    let start = Instant::now();
    let scale = kernel_scale(eps_rel);
    let n = index.basis_count();
    let total_k = triangle_size(index.template_count());
    let ranges = partition_ranges(total_k, ranks);
    // Rank 0 returns the accumulated upper-triangle matrix; the others
    // return `None` after sending their slab.
    let results = Universe::run(ranks, |comm| {
        let range = ranges[comm.rank()].clone();
        // Column range of this partition in basis indices.
        let (col_lo, nd) = if range.is_empty() {
            (0usize, 0usize)
        } else {
            let (_, j_first) = k_to_ij(range.start);
            let (_, j_last) = k_to_ij(range.end - 1);
            let (lo, hi) = (index.label(j_first), index.label(j_last));
            (lo, hi - lo + 1)
        };
        let mut partial = Matrix::zeros(n, nd.max(1));
        for_each_pair(eng, None, index, scale, range, |i, j, v| {
            // Upper-triangle representative (l_i ≤ l_j): an off-diagonal
            // P̃ entry folding onto the diagonal of P counts twice.
            let (li, lj) = (index.label(i), index.label(j));
            let v = if i != j && li == lj { 2.0 * v } else { v };
            partial.add_to(li, lj - col_lo, v);
        });
        if comm.rank() == 0 {
            // Rank 0 keeps its partial locally and receives the others.
            let mut upper = Matrix::zeros(n, n);
            add_shifted(&mut upper, &partial, col_lo, nd);
            for src in 1..comm.size() {
                let header = comm.recv_f64s(src).expect("header from worker rank");
                let (off, cols) = (header[0] as usize, header[1] as usize);
                let data = comm.recv_f64s(src).expect("partial matrix from worker rank");
                let m = Matrix::from_vec(n, cols.max(1), data).expect("partial matrix shape");
                add_shifted(&mut upper, &m, off, cols);
            }
            Some(upper)
        } else {
            comm.send_f64s(0, &[col_lo as f64, nd as f64]).expect("header to rank 0");
            comm.send_f64s(0, partial.as_slice()).expect("partial to rank 0");
            None
        }
    });
    let mut upper = results.into_iter().next().flatten().expect("rank 0 returns the matrix");
    // Mirror the strict upper triangle.
    for i in 0..n {
        for j in (i + 1)..n {
            let v = upper.get(i, j);
            upper.set(j, i, v);
        }
    }
    let phi = assemble_phi(eng, set, n_cond);
    Assembly { p: upper, phi, seconds: start.elapsed().as_secs_f64() }
}

fn add_shifted(dest: &mut Matrix, partial: &Matrix, col_offset: usize, cols: usize) {
    for i in 0..dest.rows() {
        for c in 0..cols {
            let v = partial.get(i, c);
            if v != 0.0 {
                dest.add_to(i, col_offset + c, v);
            }
        }
    }
}

/// Measures per-chunk task costs of the k-loop for the machine simulator:
/// the k-range is split into `chunks` blocks and each block's wall time is
/// recorded. These are the *measured* inputs to Table 3 / Fig. 8.
pub fn measure_chunk_costs(
    eng: &GalerkinEngine,
    index: &TemplateIndex,
    eps_rel: f64,
    chunks: usize,
) -> Vec<f64> {
    measure_chunk_costs_best_of(eng, index, eps_rel, chunks, 1)
}

/// Like [`measure_chunk_costs`] but repeats the sweep `reps` times and
/// keeps each chunk's *minimum* time — the standard defense against
/// scheduler interference on a shared host, which otherwise inflates a few
/// chunks by orders of magnitude and corrupts the balance statistics.
pub fn measure_chunk_costs_best_of(
    eng: &GalerkinEngine,
    index: &TemplateIndex,
    eps_rel: f64,
    chunks: usize,
    reps: usize,
) -> Vec<f64> {
    let scale = kernel_scale(eps_rel);
    let total_k = triangle_size(index.template_count());
    let n = index.basis_count();
    let mut sink = Matrix::zeros(n, n);
    let ranges = partition_ranges(total_k, chunks.max(1));
    let mut best = vec![f64::INFINITY; ranges.len()];
    for _ in 0..reps.max(1) {
        for (slot, range) in best.iter_mut().zip(&ranges) {
            let t = Instant::now();
            for_each_pair(eng, None, index, scale, range.clone(), fold_into(&mut sink, index));
            *slot = slot.min(t.elapsed().as_secs_f64());
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
    use bemcap_geom::structures::{self, CrossingParams};

    fn setup() -> (GalerkinEngine, BasisSet, TemplateIndex, usize) {
        let geo = structures::crossing_wires(CrossingParams::default());
        let set = instantiate(&geo, &InstantiateConfig::default()).unwrap();
        let index = TemplateIndex::new(&set);
        (GalerkinEngine::default(), set, index, geo.conductor_count())
    }

    #[test]
    fn condensed_equals_dense_reference() {
        // The Fig. 3 example: four basis functions, ψ3 owning two
        // templates, so the doubling rule onto P's diagonal is exercised.
        use bemcap_basis::condense::assemble_dense_reference;
        use bemcap_basis::{ArchShape, BasisFunction, Template};
        use bemcap_geom::{Axis, Panel};
        use bemcap_quad::galerkin::ShapeDir;
        let p = |w: f64, u0: f64| Panel::new(Axis::Z, w, (u0, u0 + 1.0), (0.0, 1.0)).unwrap();
        let set = BasisSet::new(vec![
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
        ]);
        let eng = GalerkinEngine::default();
        let index = TemplateIndex::new(&set);
        let dense = &assemble_dense_reference(&eng, &set) * kernel_scale(1.0);
        let condensed = assemble_sequential(&eng, &index, &set, 2, 1.0).p;
        let scale = dense.max_abs();
        for i in 0..4 {
            for j in 0..4 {
                let d = (dense.get(i, j) - condensed.get(i, j)).abs();
                assert!(
                    d < 1e-9 * scale,
                    "entry ({i},{j}): dense {} vs condensed {}",
                    dense.get(i, j),
                    condensed.get(i, j)
                );
            }
        }
        assert!(condensed.is_symmetric(1e-9));
    }

    #[test]
    fn threaded_matches_sequential() {
        let (eng, set, index, nc) = setup();
        let seq = assemble_sequential(&eng, &index, &set, nc, 1.0);
        for threads in [2, 3] {
            let (par, timings) = assemble_threaded(&eng, &index, &set, nc, 1.0, threads);
            assert_eq!(timings.len(), threads);
            let diff = (&seq.p - &par.p).max_abs();
            assert!(diff < 1e-9 * seq.p.max_abs(), "threads={threads}: diff {diff}");
            assert_eq!(seq.phi, par.phi);
        }
    }

    #[test]
    fn distributed_matches_sequential() {
        let (eng, set, index, nc) = setup();
        let seq = assemble_sequential(&eng, &index, &set, nc, 1.0);
        for ranks in [1, 2, 4] {
            let dist = assemble_distributed(&eng, &index, &set, nc, 1.0, ranks);
            let diff = (&seq.p - &dist.p).max_abs();
            assert!(diff < 1e-9 * seq.p.max_abs(), "ranks={ranks}: diff {diff}");
        }
    }

    #[test]
    fn p_is_symmetric_and_positive_diagonal() {
        let (eng, set, index, nc) = setup();
        let a = assemble_sequential(&eng, &index, &set, nc, 1.0);
        assert!(a.p.is_symmetric(1e-9));
        for i in 0..a.p.dim() {
            assert!(a.p.get(i, i) > 0.0, "diagonal {i}");
        }
    }

    #[test]
    fn phi_lives_on_the_right_conductors() {
        let (eng, set, _, nc) = setup();
        let phi = assemble_phi(&eng, &set, nc);
        for (bi, f) in set.functions().iter().enumerate() {
            for k in 0..nc {
                if k == f.conductor {
                    assert!(phi.get(bi, k) != 0.0);
                } else {
                    assert_eq!(phi.get(bi, k), 0.0);
                }
            }
        }
    }

    #[test]
    fn chunk_costs_cover_all_work() {
        let (eng, _, index, _) = setup();
        let costs = measure_chunk_costs(&eng, &index, 1.0, 16);
        assert_eq!(costs.len(), 16);
        assert!(costs.iter().all(|&c| c >= 0.0));
        assert!(costs.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn eps_scaling_is_linear() {
        let (eng, set, index, nc) = setup();
        let a1 = assemble_sequential(&eng, &index, &set, nc, 1.0);
        let a2 = assemble_sequential(&eng, &index, &set, nc, 2.0);
        // P scales as 1/ε.
        let scaled = &a2.p * 2.0;
        assert!((&a1.p - &scaled).max_abs() < 1e-9 * a1.p.max_abs());
    }
}
