//! Batched multi-net extraction: one solver configuration over a family
//! of geometries.
//!
//! The paper's economics (conf_dac_HsiaoD11) are that instantiable basis
//! functions make per-structure setup cheap — cheap enough that the
//! natural unit of work is not one geometry but a *family* of similar
//! geometries (a parameter sweep, a bus with many nets, a corner
//! enumeration). [`BatchExtractor`] packages that unit as a thin client
//! of the shared execution core ([`crate::exec::Executor`]):
//!
//! * jobs are submitted to the executor's bounded work queue and results
//!   always come back in **input order**, whatever the pool size —
//!   scheduling can never reorder or change a result;
//! * each micro-batch builds its Galerkin engine **once** and shares it
//!   across its jobs; a private per-run executor receives the jobs as
//!   contiguous chunk submissions of the Algorithm-1 static share
//!   (`⌈jobs / workers⌉` jobs per micro-batch), so engine builds are
//!   amortized deterministically, matching the old dedicated scheduler;
//! * with caching enabled (the default), pair integrals are shared across
//!   jobs through a [`crate::cache::TemplateCache`] keyed by the
//!   [`bemcap_basis::TemplateKey`] pair and the engine's quadrature
//!   identity ([`crate::cache::PairCache`]): families that keep part of
//!   the geometry fixed (every sweep does) skip the integrals of the
//!   unchanged template pairs entirely, and jobs with a different
//!   Galerkin configuration or acceleration never read each other's
//!   integrals. A cache hit returns the very f64 a recomputation would
//!   produce, so cached and uncached runs yield **bit-identical**
//!   capacitance matrices. The cache is read by instantiable jobs with
//!   sequential setup; threaded and message-passing setups and the
//!   mesh-based methods compute every integral and report zero cache
//!   counters. By default each run gets a private unbounded cache;
//!   [`BatchExtractor::shared_cache`] plugs in a process-lifetime
//!   (optionally memory-bounded) cache instead, which is how the
//!   `bemcap-serve` daemon keeps integrals warm across requests;
//! * per-job timings and cache counters come back as
//!   [`JobReport`]s under a whole-run [`BatchReport`], which now also
//!   carries the run's executor counters ([`crate::report::ExecStats`]:
//!   queue wait, coalescing ratio, rejections).
//!
//! By default each run spins up a private executor sized so admission
//! never rejects; [`BatchExtractor::executor`] instead runs the batch as
//! one client among many of a shared, admission-controlled executor (the
//! daemon's configuration), where [`CoreError::Busy`] backpressure
//! applies.
//!
//! [`crate::sweep::sweep`] is a thin wrapper over this module.
//!
//! ```
//! use bemcap_core::batch::BatchExtractor;
//! use bemcap_core::Extractor;
//! use bemcap_geom::structures::{self, CrossingParams};
//!
//! let batch = BatchExtractor::new(Extractor::new()).workers(1);
//! let hs = [0.4e-6, 0.8e-6];
//! let result = batch.extract_family(&hs, |h| {
//!     structures::crossing_wires(CrossingParams { separation: h, ..Default::default() })
//! })?;
//! assert_eq!(result.points().len(), 2);
//! assert!(result.report().cache.hits > 0); // the fixed wire recurs
//! # Ok::<(), bemcap_core::CoreError>(())
//! ```

use std::sync::Arc;
use std::time::Instant;

use bemcap_geom::Geometry;

use crate::cache::TemplateCache;
use crate::error::CoreError;
use crate::exec::{ExecConfig, Executor, Ticket};
use crate::extraction::{Extraction, Extractor};
use crate::report::{BatchReport, CacheStats, ExecStats, JobReport};

/// Name of the environment variable that sets the default pool size
/// (`BEMCAP_POOL=4`). CI runs the test suite under several values so
/// scheduler nondeterminism cannot hide behind a fixed default.
pub const POOL_ENV: &str = "BEMCAP_POOL";

/// The default scheduler pool size: `BEMCAP_POOL` when set to a positive
/// integer, 1 otherwise.
pub fn default_pool_size() -> usize {
    std::env::var(POOL_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// One unit of batch work: a geometry with a label and an optional swept
/// parameter value.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Human-readable job label (net name, corner name, "h=0.4e-6", ...).
    pub label: String,
    /// The swept parameter value for family jobs; `None` for ad-hoc jobs.
    pub parameter: Option<f64>,
    /// The geometry to extract.
    pub geometry: Geometry,
}

impl BatchJob {
    /// A job with no parameter annotation.
    pub fn new(label: impl Into<String>, geometry: Geometry) -> BatchJob {
        BatchJob { label: label.into(), parameter: None, geometry }
    }

    /// Attaches the swept parameter value (reported back in results and
    /// error contexts).
    #[must_use]
    pub fn with_parameter(mut self, parameter: f64) -> BatchJob {
        self.parameter = Some(parameter);
        self
    }
}

/// One completed job: its extraction plus the per-job scheduling record.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// The job label, as submitted.
    pub label: String,
    /// The swept parameter value, if the job had one.
    pub parameter: Option<f64>,
    /// The extraction result.
    pub extraction: Extraction,
    /// Scheduling and cache record of this job.
    pub job: JobReport,
}

/// All results of a batch run, in input order, plus the run-level report.
#[derive(Debug, Clone)]
pub struct BatchResult {
    points: Vec<BatchPoint>,
    report: BatchReport,
}

impl BatchResult {
    /// The per-job results, in input order.
    pub fn points(&self) -> &[BatchPoint] {
        &self.points
    }

    /// The run-level report (wall time, pool, aggregated cache counters).
    pub fn report(&self) -> &BatchReport {
        &self.report
    }

    /// Consumes the result into its points.
    pub fn into_points(self) -> Vec<BatchPoint> {
        self.points
    }

    /// One capacitance entry across the batch as `(parameter, C_ij)`
    /// pairs — the plottable curve of a family run. Jobs without a
    /// parameter annotation are skipped.
    pub fn entry_curve(&self, i: usize, j: usize) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter_map(|p| Some((p.parameter?, p.extraction.capacitance().get(i, j))))
            .collect()
    }
}

/// Batch extraction front end: an [`Extractor`] configuration applied to
/// many geometries through the shared execution core, with job-level
/// parallelism and cross-job caching.
///
/// The cross-job cache applies to instantiable extractors with the
/// default sequential setup (the executor pool is then the parallelism).
/// Extractors that ask for within-job parallelism
/// ([`Extractor::parallelism`]) keep it: each job runs the unchanged
/// one-at-a-time path, scheduled on the executor but without the shared
/// cache — pick one level or the other rather than oversubscribing both.
#[derive(Debug, Clone)]
pub struct BatchExtractor {
    extractor: Extractor,
    workers: Option<usize>,
    cache: CacheChoice,
    executor: Option<Arc<Executor>>,
}

/// Which pair-integral cache a batch run uses.
#[derive(Debug, Clone)]
enum CacheChoice {
    /// No caching: every integral is computed.
    Off,
    /// A fresh unbounded [`TemplateCache`] per run (the default).
    PerRun,
    /// A caller-owned, typically process-lifetime cache shared across
    /// runs (and across threads — the daemon's configuration).
    Shared(Arc<TemplateCache>),
}

impl BatchExtractor {
    /// A batch front end over the given extractor configuration, with
    /// caching enabled and the pool size taken from `BEMCAP_POOL` (or 1).
    pub fn new(extractor: Extractor) -> BatchExtractor {
        BatchExtractor { extractor, workers: None, cache: CacheChoice::PerRun, executor: None }
    }

    /// Pins the scheduler pool size (of the private per-run executor;
    /// ignored when [`BatchExtractor::executor`] supplies a shared one).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn workers(mut self, n: usize) -> BatchExtractor {
        assert!(n > 0, "batch pool needs at least one worker");
        self.workers = Some(n);
        self
    }

    /// Enables or disables the shared pair-integral cache. Results are
    /// bit-identical either way; only the work (and the reported cache
    /// counters) changes. Enabling restores the default per-run cache,
    /// discarding any [`BatchExtractor::shared_cache`] choice.
    #[must_use]
    pub fn cache(mut self, on: bool) -> BatchExtractor {
        self.cache = if on { CacheChoice::PerRun } else { CacheChoice::Off };
        self
    }

    /// Uses a caller-owned [`TemplateCache`] instead of a fresh per-run
    /// one, so pair integrals survive across batch runs for the lifetime
    /// of the cache — the configuration behind the `bemcap-serve` daemon.
    /// Results stay bit-identical whatever the cache's bound or prior
    /// contents, including integrals left by extractors with another
    /// quadrature configuration; only the hit/miss/eviction counters
    /// change.
    #[must_use]
    pub fn shared_cache(mut self, cache: Arc<TemplateCache>) -> BatchExtractor {
        self.cache = CacheChoice::Shared(cache);
        self
    }

    /// Runs this batch on a caller-owned, typically process-lifetime
    /// [`Executor`] instead of a private per-run one. The executor's own
    /// pool size applies (the [`BatchExtractor::workers`] setting is
    /// ignored) and so does its admission control: when its queue is
    /// full, [`BatchExtractor::extract_all`] returns [`CoreError::Busy`].
    #[must_use]
    pub fn executor(mut self, executor: Arc<Executor>) -> BatchExtractor {
        self.executor = Some(executor);
        self
    }

    /// The pool size this batch will run with.
    pub fn effective_workers(&self) -> usize {
        match &self.executor {
            Some(exec) => exec.config().workers,
            None => self.workers.unwrap_or_else(default_pool_size),
        }
    }

    /// Runs every job and returns the results in input order.
    ///
    /// All jobs are attempted; if any fail, the error of the **lowest
    /// failing index** is returned (deterministic under any pool size),
    /// wrapped in [`CoreError::BatchJob`] with the job's index and
    /// parameter.
    ///
    /// # Errors
    ///
    /// [`CoreError::BatchJob`] around the first failing job's error;
    /// [`CoreError::Busy`] when a shared executor
    /// ([`BatchExtractor::executor`]) refuses admission (already-admitted
    /// jobs still run, but no result is assembled).
    pub fn extract_all(&self, jobs: &[BatchJob]) -> Result<BatchResult, CoreError> {
        if jobs.is_empty() {
            return Ok(BatchResult {
                points: Vec::new(),
                report: BatchReport {
                    jobs: 0,
                    workers: self.effective_workers(),
                    cache_enabled: !matches!(self.cache, CacheChoice::Off),
                    wall_seconds: 0.0,
                    busy_seconds: 0.0,
                    cache: CacheStats::default(),
                    exec: ExecStats::default(),
                },
            });
        }
        match &self.executor {
            Some(exec) => {
                // On a shared executor, submit one job per submission:
                // admission is then per job, and jobs coalesce freely
                // with other clients' same-configuration work.
                self.run_on(exec, jobs, 1)
            }
            None => {
                let workers = self.effective_workers();
                // Private per-run executor, sized so admission never
                // rejects. Jobs are submitted as contiguous chunks of
                // the Algorithm-1 static share (one micro-batch per
                // worker share), so engine builds are amortized
                // deterministically — not left to the coalescing race.
                let chunk = jobs.len().div_ceil(workers);
                let exec = Executor::new(ExecConfig {
                    workers,
                    queue_depth: jobs.len(),
                    coalesce_limit: chunk,
                });
                self.run_on(&exec, jobs, chunk)
            }
        }
    }

    fn run_on(
        &self,
        exec: &Executor,
        jobs: &[BatchJob],
        chunk_size: usize,
    ) -> Result<BatchResult, CoreError> {
        let cache: Option<Arc<TemplateCache>> = match &self.cache {
            CacheChoice::Off => None,
            CacheChoice::PerRun => Some(Arc::new(TemplateCache::unbounded())),
            CacheChoice::Shared(c) => Some(Arc::clone(c)),
        };
        let start = Instant::now();
        let tickets: Vec<Ticket> = jobs
            .chunks(chunk_size)
            .map(|chunk| exec.submit(&self.extractor, cache.clone(), chunk.to_vec()))
            .collect::<Result<_, _>>()?;

        let mut points = Vec::with_capacity(jobs.len());
        let mut busy_seconds = 0.0;
        let mut total_cache = CacheStats::default();
        let mut exec_stats = ExecStats::default();
        let mut micro_batches: Vec<u64> = Vec::new();
        let mut first_failure: Option<(usize, CoreError)> = None;
        for (chunk_index, ticket) in tickets.into_iter().enumerate() {
            let sub = ticket.wait();
            exec_stats.submitted += 1;
            exec_stats.jobs += sub.outcomes.len();
            exec_stats.queue_seconds += sub.queue_seconds;
            if sub.coalesced {
                exec_stats.coalesced += 1;
            }
            if !micro_batches.contains(&sub.micro_batch) {
                micro_batches.push(sub.micro_batch);
            }
            for (offset, outcome) in sub.outcomes.into_iter().enumerate() {
                let idx = chunk_index * chunk_size + offset;
                let job = &jobs[idx];
                match outcome.result {
                    Err(e) => {
                        if first_failure.is_none() {
                            first_failure = Some((idx, e));
                        }
                    }
                    Ok((extraction, stats)) => {
                        busy_seconds += outcome.seconds;
                        total_cache.absorb(stats);
                        points.push(BatchPoint {
                            label: job.label.clone(),
                            parameter: job.parameter,
                            extraction,
                            job: JobReport {
                                index: idx,
                                worker: outcome.worker,
                                seconds: outcome.seconds,
                                cache: stats,
                            },
                        });
                    }
                }
            }
        }
        if let Some((index, source)) = first_failure {
            return Err(CoreError::BatchJob {
                index,
                parameter: jobs[index].parameter,
                source: Box::new(source),
            });
        }
        exec_stats.micro_batches = micro_batches.len();
        let wall_seconds = start.elapsed().as_secs_f64();
        Ok(BatchResult {
            points,
            report: BatchReport {
                jobs: jobs.len(),
                workers: exec.config().workers,
                cache_enabled: cache.is_some(),
                wall_seconds,
                busy_seconds,
                cache: total_cache,
                exec: exec_stats,
            },
        })
    }

    /// Runs the batch over `build(p)` for every parameter in `params` —
    /// the family form behind [`crate::sweep::sweep`].
    ///
    /// # Errors
    ///
    /// [`CoreError::BatchJob`] around the first failing job's error, with
    /// the parameter value attached.
    pub fn extract_family(
        &self,
        params: &[f64],
        mut build: impl FnMut(f64) -> Geometry,
    ) -> Result<BatchResult, CoreError> {
        let jobs: Vec<BatchJob> = params
            .iter()
            .map(|&p| BatchJob::new(format!("param={p:e}"), build(p)).with_parameter(p))
            .collect();
        self.extract_all(&jobs)
    }

    /// Runs the batch over plain geometries, labeled by index.
    ///
    /// # Errors
    ///
    /// [`CoreError::BatchJob`] around the first failing job's error.
    pub fn extract_geometries(
        &self,
        geometries: impl IntoIterator<Item = Geometry>,
    ) -> Result<BatchResult, CoreError> {
        let jobs: Vec<BatchJob> = geometries
            .into_iter()
            .enumerate()
            .map(|(i, g)| BatchJob::new(format!("job{i}"), g))
            .collect();
        self.extract_all(&jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ENTRY_BYTES;
    use crate::extraction::Method;
    use bemcap_geom::structures::{self, CrossingParams};

    fn family(hs: &[f64]) -> Vec<BatchJob> {
        hs.iter()
            .map(|&h| {
                BatchJob::new(
                    format!("h={h}"),
                    structures::crossing_wires(CrossingParams {
                        separation: h,
                        ..Default::default()
                    }),
                )
                .with_parameter(h)
            })
            .collect()
    }

    #[test]
    fn batch_matches_single_extraction_bit_for_bit() {
        let ex = Extractor::new();
        let jobs = family(&[0.4e-6, 0.7e-6, 1.1e-6]);
        let batch = BatchExtractor::new(ex.clone()).workers(2);
        let result = batch.extract_all(&jobs).expect("batch");
        assert_eq!(result.points().len(), 3);
        for (job, point) in jobs.iter().zip(result.points()) {
            let single = ex.extract(&job.geometry).expect("single");
            let a = single.capacitance().matrix();
            let b = point.extraction.capacitance().matrix();
            assert_eq!(a.as_slice(), b.as_slice(), "job {}", point.label);
        }
    }

    #[test]
    fn cache_on_off_identical_and_hits_counted() {
        let jobs = family(&[0.5e-6, 0.5e-6, 0.9e-6]);
        // One worker: jobs run in order, so job 1 (a duplicate of job 0)
        // must be answered entirely from the cache. With more workers the
        // duplicate jobs could race and legitimately both miss.
        let cached =
            BatchExtractor::new(Extractor::new()).workers(1).extract_all(&jobs).expect("cached");
        let uncached = BatchExtractor::new(Extractor::new())
            .workers(1)
            .cache(false)
            .extract_all(&jobs)
            .expect("uncached");
        for (a, b) in cached.points().iter().zip(uncached.points()) {
            assert_eq!(
                a.extraction.capacitance().matrix().as_slice(),
                b.extraction.capacitance().matrix().as_slice()
            );
        }
        // Jobs 0 and 1 are identical geometries: job 1 must be all hits.
        assert!(cached.points()[1].job.cache.hit_rate() > 0.99);
        assert_eq!(uncached.report().cache, CacheStats::default());
        assert!(cached.report().cache.hits > 0);
    }

    #[test]
    fn pool_size_cannot_change_results() {
        let jobs = family(&[0.4e-6, 0.6e-6, 0.8e-6, 1.0e-6, 1.2e-6]);
        let one = BatchExtractor::new(Extractor::new()).workers(1).extract_all(&jobs).expect("w1");
        for w in [2, 3, 5, 8] {
            let many =
                BatchExtractor::new(Extractor::new()).workers(w).extract_all(&jobs).expect("wn");
            for (a, b) in one.points().iter().zip(many.points()) {
                assert_eq!(a.parameter, b.parameter, "workers={w}");
                assert_eq!(
                    a.extraction.capacitance().matrix().as_slice(),
                    b.extraction.capacitance().matrix().as_slice(),
                    "workers={w}"
                );
            }
        }
    }

    #[test]
    fn failing_job_reports_index_and_parameter() {
        let mut jobs = family(&[0.4e-6, 0.8e-6]);
        jobs.insert(1, BatchJob::new("empty", Geometry::new(vec![])).with_parameter(42.0));
        let err = BatchExtractor::new(Extractor::new()).extract_all(&jobs).unwrap_err();
        match err {
            CoreError::BatchJob { index, parameter, source } => {
                assert_eq!(index, 1);
                assert_eq!(parameter, Some(42.0));
                assert!(matches!(*source, CoreError::EmptyGeometry));
            }
            other => panic!("expected BatchJob error, got {other:?}"),
        }
    }

    #[test]
    fn lowest_failing_index_wins_at_any_pool_size() {
        let mut jobs = family(&[0.4e-6, 0.8e-6, 1.2e-6]);
        jobs.insert(1, BatchJob::new("bad1", Geometry::new(vec![])));
        jobs.push(BatchJob::new("bad2", Geometry::new(vec![])));
        for w in [1, 2, 4] {
            let err =
                BatchExtractor::new(Extractor::new()).workers(w).extract_all(&jobs).unwrap_err();
            match err {
                CoreError::BatchJob { index, .. } => assert_eq!(index, 1, "workers={w}"),
                other => panic!("expected BatchJob error, got {other:?}"),
            }
        }
    }

    #[test]
    fn report_accounts_for_all_jobs() {
        let jobs = family(&[0.4e-6, 0.8e-6, 1.2e-6]);
        let result =
            BatchExtractor::new(Extractor::new()).workers(2).extract_all(&jobs).expect("batch");
        let r = result.report();
        assert_eq!(r.jobs, 3);
        assert_eq!(r.workers, 2);
        assert!(r.cache_enabled);
        assert!(r.wall_seconds > 0.0);
        assert!(r.busy_seconds > 0.0);
        let summed: usize = result.points().iter().map(|p| p.job.cache.lookups()).sum();
        assert_eq!(r.cache.lookups(), summed);
        // Executor accounting: 3 jobs on 2 workers go in as 2 chunk
        // submissions (the Algorithm-1 static share), each its own
        // micro-batch — deterministically, no coalescing race involved.
        assert_eq!(r.exec.submitted, 2);
        assert_eq!(r.exec.jobs, 3);
        assert_eq!(r.exec.rejected, 0);
        assert_eq!(r.exec.micro_batches, 2);
        assert_eq!(r.exec.coalesced, 0);
        for (i, p) in result.points().iter().enumerate() {
            assert_eq!(p.job.index, i);
            assert!(p.job.worker < 2);
            assert!(p.job.seconds >= 0.0);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let result = BatchExtractor::new(Extractor::new()).extract_all(&[]).expect("empty");
        assert!(result.points().is_empty());
        assert_eq!(result.report().jobs, 0);
    }

    #[test]
    fn entry_curve_skips_unparameterized_jobs() {
        let mut jobs = family(&[0.4e-6, 0.8e-6]);
        jobs.push(BatchJob::new("extra", structures::crossing_wires(CrossingParams::default())));
        let result = BatchExtractor::new(Extractor::new()).extract_all(&jobs).expect("batch");
        let curve = result.entry_curve(0, 1);
        assert_eq!(curve.len(), 2);
        assert!(curve[0].1.abs() > curve[1].1.abs(), "coupling falls with h");
    }

    #[test]
    fn within_job_parallelism_is_honored_and_bit_identical() {
        // An extractor that asked for threaded setup keeps it inside the
        // batch: the job goes through the unchanged one-at-a-time path
        // (same merge order), so results match extract() bit for bit.
        use crate::extraction::Parallelism;
        let ex = Extractor::new().parallelism(Parallelism::Threads(2));
        let jobs = family(&[0.5e-6, 0.9e-6]);
        let result = BatchExtractor::new(ex.clone()).extract_all(&jobs).expect("batch");
        for (job, point) in jobs.iter().zip(result.points()) {
            let single = ex.extract(&job.geometry).expect("single");
            assert_eq!(
                single.capacitance().matrix().as_slice(),
                point.extraction.capacitance().matrix().as_slice()
            );
            assert_eq!(point.extraction.report().workers, 2);
        }
        // The shared cache is bypassed on this path.
        assert_eq!(result.report().cache, CacheStats::default());
    }

    #[test]
    fn mesh_methods_run_through_batch() {
        let jobs = family(&[0.5e-6]);
        let result = BatchExtractor::new(Extractor::new().method(Method::PwcDense))
            .extract_all(&jobs)
            .expect("dense batch");
        assert_eq!(result.points()[0].extraction.report().method, "pwc-dense");
        assert_eq!(result.report().cache, CacheStats::default());
    }

    #[test]
    fn default_pool_size_is_positive() {
        assert!(default_pool_size() >= 1);
    }

    #[test]
    fn shared_cache_warms_across_runs() {
        let cache = Arc::new(TemplateCache::unbounded());
        let jobs = family(&[0.6e-6, 1.0e-6]);
        let batch =
            BatchExtractor::new(Extractor::new()).workers(1).shared_cache(Arc::clone(&cache));
        let cold = batch.extract_all(&jobs).expect("cold run");
        let warm = batch.extract_all(&jobs).expect("warm run");
        // Identical geometries, process-lifetime cache: the second run is
        // answered entirely from the cache...
        assert_eq!(warm.report().cache.misses, 0, "warm run must be all hits");
        assert!(cold.report().cache.misses > 0);
        // ...and bit-identical to the cold one.
        for (a, b) in cold.points().iter().zip(warm.points()) {
            assert_eq!(
                a.extraction.capacitance().matrix().as_slice(),
                b.extraction.capacitance().matrix().as_slice()
            );
        }
        assert!(!cache.is_empty());
        assert_eq!(cache.lifetime().lookups(), cold.report().cache.lookups() * 2);
    }

    #[test]
    fn shared_cache_never_mixes_quadrature_configs() {
        // One shared cache, three engines over the same crossing pair:
        // accelerated primitives, the exact default, and a different
        // Galerkin order. Each configuration must compute its own
        // integrals and match its one-at-a-time extraction bit for bit,
        // never read integrals another engine left in the cache.
        use bemcap_quad::galerkin::GalerkinConfig;
        let cache = Arc::new(TemplateCache::unbounded());
        let jobs = vec![BatchJob::new("crossing", structures::crossing_wires(Default::default()))];
        let coarse = GalerkinConfig { near_order: 4, ..GalerkinConfig::default() };
        let configs = [
            Extractor::new().accelerated(true),
            Extractor::new(),
            Extractor::new().galerkin_config(coarse),
        ];
        let mut misses = Vec::new();
        for ex in &configs {
            let batch = BatchExtractor::new(ex.clone()).workers(1).shared_cache(Arc::clone(&cache));
            let run = batch.extract_all(&jobs).expect("batch");
            let single = ex.extract(&jobs[0].geometry).expect("single");
            assert_eq!(
                run.points()[0].extraction.capacitance().matrix().as_slice(),
                single.capacitance().matrix().as_slice(),
                "{ex:?}: shared-cache result differs from extract()"
            );
            misses.push(run.report().cache.misses);
        }
        assert!(misses[0] > 0);
        assert_eq!(misses, vec![misses[0]; 3], "every engine computes its own integrals");
        assert_eq!(cache.len(), 3 * misses[0]);
    }

    #[test]
    fn bounded_shared_cache_evicts_but_results_are_unchanged() {
        // A bound far below the family's working set: evictions must
        // happen, the bound must hold, and every matrix must still be
        // bit-identical to the uncached run.
        let jobs = family(&[0.4e-6, 0.55e-6, 0.7e-6, 0.85e-6, 1.0e-6]);
        let cache = Arc::new(TemplateCache::with_max_bytes(64 * ENTRY_BYTES));
        let bounded = BatchExtractor::new(Extractor::new())
            .workers(1)
            .shared_cache(Arc::clone(&cache))
            .extract_all(&jobs)
            .expect("bounded run");
        let reference = BatchExtractor::new(Extractor::new())
            .workers(1)
            .cache(false)
            .extract_all(&jobs)
            .expect("reference");
        for (a, b) in bounded.points().iter().zip(reference.points()) {
            assert_eq!(
                a.extraction.capacitance().matrix().as_slice(),
                b.extraction.capacitance().matrix().as_slice(),
                "eviction changed a result at job {}",
                a.label
            );
        }
        assert!(bounded.report().cache.evictions > 0, "bound this small must evict");
        assert!(cache.resident_bytes() <= cache.max_bytes().expect("bounded"));
        assert_eq!(
            bounded.report().cache.inserted_bytes,
            bounded.report().cache.misses * ENTRY_BYTES
        );
    }

    #[test]
    fn batch_runs_as_a_client_of_a_shared_executor() {
        let exec =
            Arc::new(Executor::new(ExecConfig { workers: 2, queue_depth: 32, coalesce_limit: 4 }));
        let jobs = family(&[0.4e-6, 0.7e-6, 1.1e-6]);
        let on_shared = BatchExtractor::new(Extractor::new())
            .executor(Arc::clone(&exec))
            .extract_all(&jobs)
            .expect("shared-executor batch");
        let private =
            BatchExtractor::new(Extractor::new()).workers(1).extract_all(&jobs).expect("private");
        assert_eq!(on_shared.report().workers, 2, "workers come from the executor");
        for (a, b) in on_shared.points().iter().zip(private.points()) {
            assert_eq!(
                a.extraction.capacitance().matrix().as_slice(),
                b.extraction.capacitance().matrix().as_slice()
            );
        }
        // The run is visible in the executor's lifetime counters.
        let stats = exec.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.jobs, 3);
    }

    #[test]
    fn shared_executor_admission_control_applies_to_batch() {
        // Depth 2, and a 3-job batch submits one job per submission: the
        // third submission may be refused if the first two are still
        // waiting. Force it deterministically by occupying the executor
        // with an unrelated long batch first is racy here; instead use a
        // depth smaller than the batch minus what can possibly start:
        // with a queue this small and submissions this fast, rejection is
        // what the API promises when it happens — assert the error shape
        // by submitting more jobs than the whole queue admits at once.
        let exec =
            Arc::new(Executor::new(ExecConfig { workers: 1, queue_depth: 2, coalesce_limit: 1 }));
        // A single submission larger than the depth is always rejected —
        // wire `batch` frames lean on exactly this.
        let jobs = family(&[0.4e-6, 0.6e-6, 0.8e-6]);
        let err = exec
            .submit(&Extractor::new(), None, jobs.clone())
            .map(|_| ())
            .expect_err("3 jobs can never fit a depth-2 queue");
        assert!(matches!(err, CoreError::Busy { depth: 2, .. }), "{err:?}");
    }
}
