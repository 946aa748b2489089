//! `bus-paper`: the paper's headline regime. One op is one Table-3 row:
//! an instantiable extraction of the 10×10 crossing bus in each set-up
//! mode (sequential, 2 threads, 2 message-passing ranks). Set-up is
//! building the inputs plus one untimed warm-up row.
//!
//! The traced row is issued as its public stages (instantiate, index,
//! assemble, solve) so each stage gets a span; its result must be
//! bit-identical to `Extractor::extract`.

use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::{pair_integral, TemplateIndex};
use bemcap_core::assembly::{assemble_distributed, assemble_sequential, assemble_threaded};
use bemcap_core::extraction::Parallelism;
use bemcap_core::solver::solve_capacitance;
use bemcap_core::Extractor;
use bemcap_geom::{structures, Geometry};
use bemcap_linalg::Matrix;
use bemcap_perfbench::check;
use bemcap_perfbench::out::Metrics;
use bemcap_perfbench::rng::SplitMix64;
use bemcap_perfbench::stats::median;
use bemcap_perfbench::trace::Tracer;
use bemcap_quad::galerkin::GalerkinEngine;

use crate::{closed_loop, time, Ctx, Outcome};

/// Bus size (wires per layer).
const BUS: usize = 10;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_RUNS: usize = 3;
/// Worker count of the threaded and message-passing modes.
const WORKERS: usize = 2;
/// Template pairs timed one by one for `quad.pair_integral_ns`.
const PAIR_SAMPLE: usize = 20_000;
/// Relative agreement required between modes and with the reference.
const REL_TOL: f64 = 1e-9;
/// The 10×10 bus capacitance matrix, row-major, one value per line.
const REFERENCE: &str = include_str!("../../reference/bus10x10.txt");

const MODES: [Parallelism; 3] =
    [Parallelism::Sequential, Parallelism::Threads(WORKERS), Parallelism::MessagePassing(WORKERS)];

/// One extraction's matrix plus its exact sizes.
struct RowResult {
    matrices: Vec<Vec<f64>>,
    n: usize,
    m: usize,
}

fn geometry() -> Geometry {
    structures::bus_crossing(BUS, BUS, structures::BusParams::default())
}

fn flatten(c: &Matrix) -> Vec<f64> {
    (0..c.rows()).flat_map(|i| (0..c.cols()).map(move |j| c.get(i, j))).collect()
}

/// The row through the public front end, one `Extractor::extract` per mode.
fn row_untraced(geo: &Geometry) -> Result<RowResult, String> {
    let mut matrices = Vec::new();
    let (mut n, mut m) = (0, 0);
    for mode in MODES {
        let out = Extractor::new().parallelism(mode).extract(geo).map_err(|e| e.to_string())?;
        n = out.report().n;
        m = out.report().m_templates.unwrap_or(0);
        matrices.push(flatten(out.capacitance().matrix()));
    }
    Ok(RowResult { matrices, n, m })
}

/// The same row issued as its public stages, each inside a span. Pushes
/// the max/mean worker time of the threaded assembly onto `imbalance`.
fn row_traced(
    geo: &Geometry,
    tr: &mut Tracer,
    imbalance: &mut Vec<f64>,
) -> Result<RowResult, String> {
    let eng = GalerkinEngine::default();
    let n_cond = geo.conductor_count();
    let eps = geo.eps_rel();
    let mut matrices = Vec::new();
    let (mut n, mut m) = (0, 0);
    for mode in MODES {
        let (set, index) = tr.span("basis.instantiate", |_| {
            let set = instantiate(geo, &InstantiateConfig::default()).map_err(|e| e.to_string())?;
            let index = TemplateIndex::new(&set);
            Ok::<_, String>((set, index))
        })?;
        n = index.basis_count();
        m = index.template_count();
        let asm = match mode {
            Parallelism::Sequential => tr.span("core.assembly_seq", |_| {
                assemble_sequential(&eng, &index, &set, n_cond, eps)
            }),
            Parallelism::Threads(t) => {
                let (a, timings) = tr.span("core.assembly_threads", |_| {
                    assemble_threaded(&eng, &index, &set, n_cond, eps, t)
                });
                let secs: Vec<f64> = timings.iter().map(|w| w.seconds).collect();
                let mean = secs.iter().sum::<f64>() / secs.len().max(1) as f64;
                imbalance.push(secs.iter().fold(0.0_f64, |a, &b| a.max(b)) / mean);
                a
            }
            Parallelism::MessagePassing(r) => tr.span("core.assembly_mp", |_| {
                assemble_distributed(&eng, &index, &set, n_cond, eps, r)
            }),
        };
        let (c, _) = tr
            .span("linalg.solve", |_| solve_capacitance(asm.p, &asm.phi))
            .map_err(|e| e.to_string())?;
        matrices.push(flatten(&c));
    }
    Ok(RowResult { matrices, n, m })
}

fn reference() -> Result<Vec<f64>, String> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.trim().parse::<f64>().map_err(|e| format!("reference: {e}")))
        .collect()
}

/// Output checks of one row: Maxwell properties of every mode, modes
/// agree, and the row matches the stored reference.
fn check_row(row: &RowResult, reference: &[f64]) -> Result<(), String> {
    let dim = 2 * BUS;
    for (mode, c) in MODES.iter().zip(&row.matrices) {
        if c.len() != dim * dim {
            return Err(format!("{mode:?}: matrix has {} entries", c.len()));
        }
        check::maxwell(dim, |i, j| c[i * dim + j], 1e-9, 1e-9)
            .map_err(|e| format!("{mode:?}: {e}"))?;
        let d = check::max_rel_diff(&row.matrices[0], c);
        if d > REL_TOL {
            return Err(format!("{mode:?} differs from sequential by {d:e}"));
        }
    }
    let d = check::max_rel_diff(reference, &row.matrices[0]);
    if d > REL_TOL {
        return Err(format!("differs from the stored reference by {d:e}"));
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let reference = reference()?;
    let mut setup_s = Vec::new();
    let mut warm = None;
    for _ in 0..SETUP_RUNS {
        let ((geo, row), s) = time(|| {
            let geo = geometry();
            let row = row_untraced(&geo);
            (geo, row)
        });
        setup_s.push(s);
        let row = row?;
        check_row(&row, &reference).map_err(|e| format!("warm-up row: {e}"))?;
        warm = Some((geo, row));
    }
    let (geo, warm) = warm.ok_or("no set-up ran")?;

    let mut tr = Tracer::new(false);
    let mut imbalance = Vec::new();
    let ops = closed_loop(ctx, 1, |i, traced| {
        tr.set_enabled(traced);
        tr.set_op(i);
        let (row, latency) = time(|| {
            tr.span("op", |tr| {
                if traced {
                    row_traced(&geo, tr, &mut imbalance)
                } else {
                    row_untraced(&geo)
                }
            })
        });
        let result = row.and_then(|row| {
            check_row(&row, &reference)?;
            if traced && !check::rows_bit_identical(&row.matrices, &warm.matrices) {
                return Err("staged row is not bit-identical to Extractor::extract".into());
            }
            Ok(())
        });
        (latency, result)
    });
    tr.set_enabled(false);

    let mut layers = Metrics::default();
    layers.set("basis.templates", warm.m as f64, "count");
    layers.set("basis.functions", warm.n as f64, "count");
    layers.set("quad.pairs", (warm.m * (warm.m + 1) / 2) as f64, "count");
    if ctx.trace {
        tr.set_enabled(true);
        tr.set_op(u64::MAX);
        let ns = pair_integral_ns(&geo, ctx.seed, &mut tr)?;
        layers.set("quad.pair_integral_ns", ns, "ns");
        let per_call = |name: &str| tr.layers().get(name).and_then(|t| median(t)).unwrap_or(0.0);
        for (span, metric) in [
            ("basis.instantiate", "basis.instantiate_s"),
            ("core.assembly_seq", "core.assembly_seq_s"),
            ("core.assembly_threads", "core.assembly_threads_s"),
            ("core.assembly_mp", "core.assembly_mp_s"),
            ("linalg.solve", "linalg.solve_s"),
        ] {
            layers.set(metric, per_call(span), "s");
        }
        let seq = per_call("core.assembly_seq");
        let workers = WORKERS as f64;
        layers.set(
            "par.threads_efficiency",
            seq / (workers * per_call("core.assembly_threads")),
            "ratio",
        );
        layers.set("par.mp_efficiency", seq / (workers * per_call("core.assembly_mp")), "ratio");
        if let Some(v) = median(&imbalance) {
            layers.set("par.threads_imbalance", v, "ratio");
        }
    }
    let notes = vec![format!(
        "bus {BUS}x{BUS}: N = {}, M = {}, pair integrals per extraction = {}",
        warm.n,
        warm.m,
        warm.m * (warm.m + 1) / 2
    )];
    Ok(Outcome {
        setup_s,
        ops,
        extra_failed: Vec::new(),
        extra_attempted: 0,
        peak_rss_mib: None,
        layers,
        tracer: tr,
        notes,
    })
}

/// Nanoseconds per `pair_integral` over a seeded sample of the bus's
/// template pairs.
fn pair_integral_ns(geo: &Geometry, seed: u64, tr: &mut Tracer) -> Result<f64, String> {
    let set = instantiate(geo, &InstantiateConfig::default()).map_err(|e| e.to_string())?;
    let index = TemplateIndex::new(&set);
    let m = index.template_count();
    let mut rng = SplitMix64::new(seed);
    let pairs: Vec<(usize, usize)> = (0..PAIR_SAMPLE)
        .map(|_| {
            let (a, b) = (rng.below(m), rng.below(m));
            (a.min(b), a.max(b))
        })
        .collect();
    let eng = GalerkinEngine::default();
    let (sum, s) = time(|| {
        tr.span("quad.pair_integral", |_| {
            pairs
                .iter()
                .map(|&(i, j)| pair_integral(&eng, index.template(i), index.template(j)))
                .sum::<f64>()
        })
    });
    if !sum.is_finite() {
        return Err("non-finite pair integral in the sample".into());
    }
    Ok(s * 1e9 / PAIR_SAMPLE as f64)
}
