//! The public extraction API: [`Extractor`] → [`Extraction`].

use bemcap_basis::instantiate::InstantiateConfig;
use bemcap_fmm::FmmConfig;
use bemcap_geom::Geometry;
use bemcap_linalg::{KrylovConfig, Matrix, PrecondKind};
use bemcap_pfft::PfftConfig;
use bemcap_quad::galerkin::{GalerkinConfig, GalerkinEngine};

use crate::backend::{
    AutoBackend, Backend, DensePwcBackend, FmmBackend, InstantiableBackend, PfftBackend,
    DEFAULT_AUTO_BUDGET,
};
use crate::cache::{PairCache, TemplateCache};
use crate::error::CoreError;
use crate::report::{CacheStats, ExtractionReport};

/// Which solver backend to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The paper's method: instantiable basis functions + direct solve.
    InstantiableBasis,
    /// Piecewise-constant Galerkin, dense direct solve (exact reference
    /// for small problems).
    PwcDense,
    /// Piecewise-constant Galerkin with the multipole-accelerated matvec
    /// (the FASTCAP-style baseline).
    PwcFmm,
    /// Piecewise-constant Galerkin with the precorrected-FFT matvec.
    PwcPfft,
    /// Pick a piecewise-constant backend per geometry from the panel
    /// count and the configured memory budget
    /// ([`Extractor::auto_memory_budget`]); see
    /// [`crate::backend::AutoBackend::resolve`] for the policy.
    Auto,
}

/// How the setup step executes (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Single thread.
    Sequential,
    /// Shared-memory threads (Fig. 4).
    Threads(usize),
    /// Message-passing ranks (Figs. 5–6).
    MessagePassing(usize),
}

/// The extraction front end (builder style).
///
/// ```
/// use bemcap_core::{Extractor, Method};
/// use bemcap_geom::structures;
///
/// let geo = structures::parallel_plates(1e-6, 1e-6, 0.2e-6);
/// let out = Extractor::new()
///     .method(Method::PwcDense)
///     .mesh_divisions(6)
///     .extract(&geo)?;
/// assert!(out.capacitance().get(0, 1) < 0.0);
/// # Ok::<(), bemcap_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Extractor {
    method: Method,
    parallelism: Parallelism,
    accelerated: bool,
    instantiate_cfg: InstantiateConfig,
    galerkin_cfg: GalerkinConfig,
    mesh_divisions: usize,
    fmm_cfg: FmmConfig,
    pfft_cfg: PfftConfig,
    krylov_cfg: KrylovConfig,
    precond: PrecondKind,
    auto_budget: usize,
}

impl Default for Extractor {
    fn default() -> Self {
        Extractor::new()
    }
}

impl Extractor {
    /// An extractor with the paper's defaults: instantiable basis,
    /// sequential setup, exact primitives.
    pub fn new() -> Extractor {
        Extractor {
            method: Method::InstantiableBasis,
            parallelism: Parallelism::Sequential,
            accelerated: false,
            instantiate_cfg: InstantiateConfig::default(),
            galerkin_cfg: GalerkinConfig::default(),
            mesh_divisions: 8,
            fmm_cfg: FmmConfig::default(),
            pfft_cfg: PfftConfig::default(),
            krylov_cfg: KrylovConfig::default(),
            precond: PrecondKind::default(),
            auto_budget: DEFAULT_AUTO_BUDGET,
        }
    }

    /// Selects the solver backend.
    pub fn method(mut self, method: Method) -> Extractor {
        self.method = method;
        self
    }

    /// Selects the setup-step execution mode (instantiable method only).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Extractor {
        self.parallelism = parallelism;
        self
    }

    /// Enables the §4.2.3 integration acceleration (tabulated `log` and
    /// `atan` primitives).
    pub fn accelerated(mut self, on: bool) -> Extractor {
        self.accelerated = on;
        self
    }

    /// Overrides the basis instantiation configuration.
    pub fn instantiate_config(mut self, cfg: InstantiateConfig) -> Extractor {
        self.instantiate_cfg = cfg;
        self
    }

    /// Overrides the integration engine configuration.
    pub fn galerkin_config(mut self, cfg: GalerkinConfig) -> Extractor {
        self.galerkin_cfg = cfg;
        self
    }

    /// Mesh resolution for the piecewise-constant backends.
    pub fn mesh_divisions(mut self, divisions: usize) -> Extractor {
        self.mesh_divisions = divisions;
        self
    }

    /// Tunes the multipole operator ([`Method::PwcFmm`] and the FMM arm
    /// of [`Method::Auto`]): opening angle and octree leaf size.
    pub fn fmm_config(mut self, cfg: FmmConfig) -> Extractor {
        self.fmm_cfg = cfg;
        self
    }

    /// Tunes the precorrected-FFT operator ([`Method::PwcPfft`] and the
    /// pFFT arm of [`Method::Auto`]): grid spacing, near-stencil radius,
    /// grid cap.
    pub fn pfft_config(mut self, cfg: PfftConfig) -> Extractor {
        self.pfft_cfg = cfg;
        self
    }

    /// Sets the iterative caps (GMRES tolerance, restart length, matvec
    /// cap) shared by the Krylov-backed backends.
    pub fn krylov_config(mut self, cfg: KrylovConfig) -> Extractor {
        self.krylov_cfg = cfg;
        self
    }

    /// Picks the preconditioner the Krylov-backed backends build at
    /// prepare time (default: Jacobi from the exact system diagonal).
    pub fn preconditioner(mut self, kind: PrecondKind) -> Extractor {
        self.precond = kind;
        self
    }

    /// Sets the [`Method::Auto`] memory budget in bytes (default
    /// [`DEFAULT_AUTO_BUDGET`]).
    pub fn auto_memory_budget(mut self, bytes: usize) -> Extractor {
        self.auto_budget = bytes;
        self
    }

    pub(crate) fn engine(&self) -> GalerkinEngine {
        let eng = GalerkinEngine::new(self.galerkin_cfg);
        if self.accelerated {
            eng.with_primitives(
                bemcap_accel::fastmath::fast_double_primitive,
                bemcap_accel::fastmath::fast_quad_primitive,
            )
            .with_triple_primitive(bemcap_accel::fastmath::fast_triple_primitive)
        } else {
            eng
        }
    }

    pub(crate) fn is_accelerated(&self) -> bool {
        self.accelerated
    }

    /// The [`Backend`] this configuration dispatches to — the typed
    /// description of what [`Extractor::extract`] will run.
    /// [`Method::Auto`] returns the resolving backend
    /// ([`crate::backend::AutoBackend`]); the concrete choice is made per
    /// geometry at prepare time.
    pub fn backend(&self) -> Box<dyn Backend> {
        match self.method {
            Method::InstantiableBasis => Box::new(InstantiableBackend {
                instantiate: self.instantiate_cfg,
                parallelism: self.parallelism,
            }),
            Method::PwcDense => Box::new(DensePwcBackend { mesh_divisions: self.mesh_divisions }),
            Method::PwcFmm => Box::new(FmmBackend {
                mesh_divisions: self.mesh_divisions,
                config: self.fmm_cfg,
                krylov: self.krylov_cfg,
                precond: self.precond,
            }),
            Method::PwcPfft => Box::new(PfftBackend {
                mesh_divisions: self.mesh_divisions,
                config: self.pfft_cfg,
                krylov: self.krylov_cfg,
                precond: self.precond,
            }),
            Method::Auto => Box::new(self.auto_backend()),
        }
    }

    fn auto_backend(&self) -> AutoBackend {
        AutoBackend {
            mesh_divisions: self.mesh_divisions,
            memory_budget: self.auto_budget,
            fmm: self.fmm_cfg,
            pfft: self.pfft_cfg,
            krylov: self.krylov_cfg,
            precond: self.precond,
        }
    }

    /// The [`Method`] that will actually run on `geo`: the configured one,
    /// with [`Method::Auto`] resolved through its panel-count/memory
    /// policy (deterministic per geometry and configuration).
    pub fn resolved_method(&self, geo: &Geometry) -> Method {
        match self.method {
            Method::Auto => self.auto_backend().resolve(geo),
            m => m,
        }
    }

    /// Bit-exact identity of the full solver configuration, including the
    /// active backend's typed config ([`Backend::digest`]). Two
    /// extractors with equal digests produce bit-identical results on the
    /// same geometry, which is what licenses the executor to coalesce
    /// their jobs into one shared micro-batch (`f64` fields compare by
    /// bit pattern, so even `-0.0` vs `0.0` keeps configs apart);
    /// extractors differing in any behavior-affecting knob — a pFFT grid
    /// spacing, an FMM tolerance, a preconditioner — can never share one.
    pub fn config_digest(&self) -> Vec<u64> {
        let ic = &self.instantiate_cfg;
        let parallelism = match self.parallelism {
            Parallelism::Sequential => 0,
            Parallelism::Threads(n) => (1 << 32) | n as u64,
            Parallelism::MessagePassing(n) => (2 << 32) | n as u64,
        };
        let mut words = vec![
            match self.method {
                Method::InstantiableBasis => 0,
                Method::PwcDense => 1,
                Method::PwcFmm => 2,
                Method::PwcPfft => 3,
                Method::Auto => 4,
            },
            parallelism,
            u64::from(self.accelerated),
            self.mesh_divisions as u64,
            ic.laws.width_coeff.to_bits(),
            ic.laws.ext_coeff.to_bits(),
            ic.max_segment_aspect.to_bits(),
            ic.max_gap_ratio.to_bits(),
        ];
        words.extend(self.galerkin_cfg.words());
        self.backend().digest(&mut words);
        words
    }

    /// Runs the extraction: resolves the backend, times its prepare
    /// (system setup) and solve (system solving) steps, and reports what
    /// actually ran (resolved method name, real worker count, Krylov
    /// stats for iterative backends).
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyGeometry`] for conductor-less geometries;
    /// * backend errors ([`CoreError::Basis`], [`CoreError::Linalg`],
    ///   [`CoreError::Fmm`], [`CoreError::Pfft`]).
    pub fn extract(&self, geo: &Geometry) -> Result<Extraction, CoreError> {
        self.extract_with(&self.engine(), None, geo).map(|(extraction, _)| extraction)
    }

    /// [`Extractor::extract`] on a caller-built `engine` (the executor
    /// builds one per micro-batch), reading and filling the shared
    /// pair-integral `cache` under this configuration's engine tag
    /// ([`PairCache::new`]). Returns the cache lookups alongside; the
    /// extraction is bit-identical with or without the cache.
    pub(crate) fn extract_with(
        &self,
        engine: &GalerkinEngine,
        cache: Option<&TemplateCache>,
        geo: &Geometry,
    ) -> Result<(Extraction, CacheStats), CoreError> {
        if geo.conductor_count() == 0 {
            return Err(CoreError::EmptyGeometry);
        }
        let names: Vec<String> = geo.conductors().iter().map(|c| c.name().to_string()).collect();
        let backend = self.backend();
        let cache = cache.map(|c| PairCache::new(c, &self.galerkin_cfg, self.accelerated));
        let t = std::time::Instant::now();
        let prepared = {
            let _span = crate::metrics::Span::enter(crate::metrics::metrics().extract_setup_nanos);
            backend.prepare(engine, cache, geo)?
        };
        let setup_seconds = t.elapsed().as_secs_f64();
        let (method, n, m_templates, workers, memory_bytes, cache_stats) = (
            prepared.method_name().to_string(),
            prepared.n(),
            prepared.m_templates(),
            prepared.workers(),
            prepared.memory_bytes(),
            prepared.cache_stats(),
        );
        let t = std::time::Instant::now();
        let out = {
            let _span = crate::metrics::Span::enter(crate::metrics::metrics().extract_solve_nanos);
            prepared.solve()?
        };
        let solve_seconds = t.elapsed().as_secs_f64();
        crate::metrics::metrics().extractions.inc();
        let extraction = Extraction {
            capacitance: CapacitanceMatrix { names, c: out.capacitance },
            report: ExtractionReport {
                method,
                n,
                m_templates,
                workers,
                setup_seconds,
                solve_seconds,
                memory_bytes,
                krylov: out.krylov.map(Into::into),
            },
        };
        Ok((extraction, cache_stats))
    }
}

/// A labeled n×n short-circuit capacitance matrix (F).
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitanceMatrix {
    names: Vec<String>,
    c: Matrix,
}

impl CapacitanceMatrix {
    /// Number of conductors.
    pub fn dim(&self) -> usize {
        self.c.rows()
    }

    /// Entry C_ij (self capacitance on the diagonal, negative coupling off
    /// it).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.c.get(i, j)
    }

    /// Conductor net names, in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.c
    }

    /// Largest relative asymmetry |C_ij − C_ji| / max|C| — a solver
    /// quality indicator (the exact matrix is symmetric).
    pub fn asymmetry(&self) -> f64 {
        let scale = self.c.max_abs().max(f64::MIN_POSITIVE);
        let mut worst = 0.0_f64;
        for i in 0..self.c.rows() {
            for j in (i + 1)..self.c.cols() {
                worst = worst.max((self.c.get(i, j) - self.c.get(j, i)).abs() / scale);
            }
        }
        worst
    }
}

impl std::fmt::Display for CapacitanceMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "capacitance matrix ({} conductors, farad):", self.dim())?;
        for i in 0..self.dim() {
            write!(f, "  {:>8}", self.names[i])?;
            for j in 0..self.dim() {
                write!(f, " {:>12.4e}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The result of one extraction: the capacitance matrix plus the
/// performance report.
#[derive(Debug, Clone)]
pub struct Extraction {
    capacitance: CapacitanceMatrix,
    report: ExtractionReport,
}

impl Extraction {
    /// The capacitance matrix.
    pub fn capacitance(&self) -> &CapacitanceMatrix {
        &self.capacitance
    }

    /// The performance report.
    pub fn report(&self) -> &ExtractionReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bemcap_geom::structures::{self, CrossingParams};

    #[test]
    fn instantiable_extraction_end_to_end() {
        let geo = structures::crossing_wires(CrossingParams::default());
        let out = Extractor::new().extract(&geo).unwrap();
        let c = out.capacitance();
        assert_eq!(c.dim(), 2);
        assert!(c.get(0, 0) > 0.0);
        assert!(c.get(1, 1) > 0.0);
        assert!(c.get(0, 1) < 0.0);
        assert!(c.asymmetry() < 1e-6, "asymmetry {}", c.asymmetry());
        assert_eq!(c.names()[0], "target");
        let r = out.report();
        assert_eq!(r.method, "instantiable");
        assert!(r.m_templates.unwrap() >= r.n);
    }

    #[test]
    fn instantiable_matches_pwc_reference_loosely() {
        // The headline accuracy claim: the compact basis reproduces the
        // finely discretized reference within a few percent (2.8 % in the
        // paper's Table 2 — our basis is a reimplementation, so we accept
        // a looser band and measure precisely in EXPERIMENTS.md).
        let geo = structures::crossing_wires(CrossingParams::default());
        let inst = Extractor::new().extract(&geo).unwrap();
        let reference =
            Extractor::new().method(Method::PwcDense).mesh_divisions(16).extract(&geo).unwrap();
        let ci = -inst.capacitance().get(0, 1);
        let cr = -reference.capacitance().get(0, 1);
        let rel = (ci - cr).abs() / cr;
        assert!(rel < 0.25, "coupling {ci} vs reference {cr} (rel {rel:.3})");
    }

    #[test]
    fn all_parallel_modes_agree() {
        let geo = structures::crossing_wires(CrossingParams::default());
        let seq = Extractor::new().extract(&geo).unwrap();
        let thr = Extractor::new().parallelism(Parallelism::Threads(3)).extract(&geo).unwrap();
        let mp =
            Extractor::new().parallelism(Parallelism::MessagePassing(3)).extract(&geo).unwrap();
        for other in [&thr, &mp] {
            for i in 0..2 {
                for j in 0..2 {
                    let a = seq.capacitance().get(i, j);
                    let b = other.capacitance().get(i, j);
                    assert!((a - b).abs() < 1e-9 * a.abs().max(b.abs()));
                }
            }
        }
        assert_eq!(thr.report().workers, 3);
    }

    #[test]
    fn accelerated_engine_is_close_to_exact() {
        let geo = structures::crossing_wires(CrossingParams::default());
        let exact = Extractor::new().extract(&geo).unwrap();
        let fast = Extractor::new().accelerated(true).extract(&geo).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let a = exact.capacitance().get(i, j);
                let b = fast.capacitance().get(i, j);
                assert!((a - b).abs() < 0.01 * a.abs().max(b.abs()), "({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn setup_dominates_runtime() {
        // The paper's §3 premise: >95 % of runtime in setup. On tiny
        // examples the ratio is noisy, so require a clear majority.
        let geo = structures::bus_crossing(2, 2, structures::BusParams::default());
        let out = Extractor::new().extract(&geo).unwrap();
        assert!(
            out.report().setup_fraction() > 0.8,
            "setup fraction {}",
            out.report().setup_fraction()
        );
    }

    #[test]
    fn empty_geometry_error() {
        let geo = Geometry::new(vec![]);
        assert!(matches!(Extractor::new().extract(&geo), Err(CoreError::EmptyGeometry)));
    }

    #[test]
    fn display_formats() {
        let geo = structures::crossing_wires(CrossingParams::default());
        let out = Extractor::new().extract(&geo).unwrap();
        let s = format!("{}", out.capacitance());
        assert!(s.contains("target") && s.contains("source"));
    }
}
