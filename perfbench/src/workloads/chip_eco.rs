//! `chip-eco`: a designer's ECO loop on a windowed full chip. Set-up is
//! the cold full-chip pass of a 16×16 crossing bus cut into 4×4 windows
//! with a 1 µm halo, on 2 executor workers. One op is one ECO: a seeded
//! single-net nudge of the base layout (a different offset every op),
//! `GeometryDiff::between`, then `ChipExtractor::reextract`.

use std::collections::BTreeMap;
use std::sync::Arc;

use bemcap_core::{ChipExtraction, ChipExtractor, Extractor, TemplateCache, WindowCache};
use bemcap_geom::{structures, Conductor, Geometry, GeometryDiff, Layout, PartitionConfig, Point3};
use bemcap_perfbench::out::Metrics;
use bemcap_perfbench::rng::SplitMix64;
use bemcap_perfbench::stats::median;
use bemcap_perfbench::trace::Tracer;
use bemcap_perfbench::{check, host};

use crate::{closed_loop, time, Ctx, Outcome};

/// Bus size (wires per layer).
const BUS: usize = 16;
/// Window grid (per side).
const GRID: usize = 4;
/// Halo around each window core, metres.
const HALO: f64 = 1.0e-6;
/// Executor workers.
const WORKERS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_RUNS: usize = 3;
/// ECOs whose window counts are summed into the exact-repeat counts
/// (every run completes at least this many).
const EXACT_PREFIX: usize = 8;
/// ECOs after which `peak_rss_mb` is read (a 25 s run on a 2-vCPU host
/// completes about 50 or more). The resident set stays flat for the
/// first ~60 ECOs and then jumps by about 160 MiB although both caches'
/// accounted bytes stay flat, so a reading at the end of the run would
/// depend on how many ECOs the run completed.
const RSS_AFTER_ECOS: u64 = 32;
/// Relative asymmetry the stitched chip matrix may carry: `c_ij` and
/// `c_ji` come from different windows (the cold pass reads 0.34; the
/// chip module's own tests allow 0.5).
const CHIP_ASYM_TOL: f64 = 0.5;
/// Template-cache budget: holds the cold pass (about 85 MB) plus a few
/// ECOs, so the timed phase evicts stale revisions at a steady rate.
const CACHE_BYTES: usize = 128 << 20;
/// Window-cache budget: the cold pass's 16 results take about 20 KB and
/// an ECO adds about 5 KB, so this holds the cold pass plus a few dozen
/// revisions. The windows an ECO leaves alone are read on most ECOs and
/// stay resident; stale revisions are evicted.
const WINDOW_CACHE_BYTES: usize = 256 << 10;

fn chip(cache: Arc<TemplateCache>) -> ChipExtractor {
    ChipExtractor::new(Extractor::new())
        .windows(GRID, GRID)
        .halo(HALO)
        .workers(WORKERS)
        .shared_cache(cache)
        .window_cache(Arc::new(WindowCache::with_max_bytes(WINDOW_CACHE_BYTES)))
}

/// `geo` with conductor `net` translated by `d`.
fn nudge(geo: &Geometry, net: usize, d: Point3) -> Geometry {
    let conductors = geo
        .conductors()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            if i != net {
                return c.clone();
            }
            let mut nc = Conductor::new(c.name());
            for b in c.boxes() {
                nc.push_box(b.translated(d));
            }
            nc
        })
        .collect();
    Geometry::new(conductors).with_eps_rel(geo.eps_rel())
}

fn dense(x: &ChipExtraction) -> (usize, Vec<f64>) {
    let c = x.capacitance();
    let n = c.dim();
    (n, (0..n).flat_map(|i| (0..n).map(move |j| c.get(i, j))).collect())
}

fn check_chip(x: &ChipExtraction) -> Result<(), String> {
    let (n, v) = dense(x);
    check::maxwell(n, |i, j| v[i * n + j], 1e-9, CHIP_ASYM_TOL)
}

/// Nets grouped by how many windows a nudge of theirs touches (on the
/// 16×16 bus: 24 nets touch 4 windows, 8 touch 8), so the op sequence
/// can cycle through the groups in proportion to their sizes: every seed
/// then gets the same mix of small and large ECOs.
fn nets_by_reach(base: &Geometry, cfg: &PartitionConfig) -> Result<Vec<Vec<usize>>, String> {
    let part =
        Layout::new(base.clone()).and_then(|l| l.partition(cfg)).map_err(|e| e.to_string())?;
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for net in 0..base.conductor_count() {
        let diff = GeometryDiff::between(base, &nudge(base, net, Point3::new(0.0, 0.0, 1e-9)));
        groups.entry(part.windows_touched(&diff).len()).or_default().push(net);
    }
    Ok(groups.into_values().collect())
}

/// The seeded ECO sequence. Ops cycle through the net groups in
/// proportion to their sizes (3 small, 1 large on the 16×16 bus); inside
/// a group, nets come in a seeded order without repeats until the group
/// is used up, so a run samples each group evenly whatever the seed.
struct EcoPicker {
    rng: SplitMix64,
    groups: Vec<Vec<usize>>,
    cycle: Vec<usize>,
    cursors: Vec<usize>,
}

impl EcoPicker {
    fn new(seed: u64, mut groups: Vec<Vec<usize>>) -> EcoPicker {
        let mut rng = SplitMix64::new(seed);
        for g in &mut groups {
            rng.shuffle(g);
        }
        let smallest = groups.iter().map(Vec::len).min().unwrap_or(1).max(1);
        let cycle = (0..groups.len())
            .flat_map(|g| std::iter::repeat_n(g, groups[g].len() / smallest))
            .collect();
        let cursors = vec![0; groups.len()];
        EcoPicker { rng, groups, cycle, cursors }
    }

    /// The ECO of op `i`: which net moves and by how much. The offset is
    /// upward and about 1 nm for every op, so the work per op does not
    /// drift with the op count; the `i / 1000` nm term makes each op's
    /// revision new. Realistic moves (tens to hundreds of nm) make the
    /// chip path return positive off-diagonal couplings on some ECOs,
    /// which the Maxwell check rejects; the offsets stay below that range
    /// on purpose (see the README).
    fn next(&mut self, i: u64) -> (usize, Point3) {
        let g = self.cycle[i as usize % self.cycle.len()];
        let group = &self.groups[g];
        let net = group[self.cursors[g] % group.len()];
        self.cursors[g] += 1;
        let dz = (1.0 + (i as f64 + self.rng.unit()) / 1000.0) * 1.0e-9;
        (net, Point3::new(0.0, 0.0, dz))
    }
}

/// Per-ECO readings for the layer metrics.
#[derive(Default)]
struct EcoLog {
    extracted: usize,
    touched: usize,
    busy_s: Vec<f64>,
    queue_s: Vec<f64>,
    hits: usize,
    lookups: usize,
    evictions: usize,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let base = structures::bus_crossing(BUS, BUS, structures::BusParams::default());
    let cfg = PartitionConfig { nx: GRID, ny: GRID, halo: HALO };
    let mut picker = EcoPicker::new(ctx.seed, nets_by_reach(&base, &cfg)?);
    let cycle = picker.cycle.len();

    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_RUNS {
        drop(state.take());
        let cache = Arc::new(TemplateCache::with_max_bytes(CACHE_BYTES));
        let ex = chip(Arc::clone(&cache));
        let (cold, s) = time(|| ex.extract(&base));
        setup_s.push(s);
        let cold = cold.map_err(|e| format!("cold pass: {e}"))?;
        check_chip(&cold).map_err(|e| format!("cold pass: {e}"))?;
        state = Some((ex, cache, cold));
    }
    let (ex, cache, cold) = state.ok_or("no set-up ran")?;
    let (dim, cold_c) = dense(&cold);

    let mut tr = Tracer::new(false);
    let mut log = EcoLog::default();
    let mut peak_rss_mib = None;
    let ops = closed_loop(ctx, cycle, |i, traced| {
        tr.set_enabled(traced);
        tr.set_op(i);
        let (net, d) = picker.next(i);
        let revised = nudge(&base, net, d);
        let (out, latency) = time(|| {
            tr.span("op", |tr| {
                let diff = tr.span("geom.diff", |_| GeometryDiff::between(&base, &revised));
                let eco = tr.span("chip.reextract", |_| ex.reextract(&revised, &diff));
                (diff, eco)
            })
        });
        let (diff, eco) = out;
        let result = eco.map_err(|e| e.to_string()).and_then(|eco| {
            let r = eco.report();
            // Window ownership of the revision, for the bit-identity check.
            let part = tr
                .span("geom.partition", |_| {
                    Layout::new(revised.clone()).and_then(|l| l.partition(&cfg))
                })
                .map_err(|e| e.to_string())?;
            if traced {
                let all_hit =
                    tr.span("chip.all_hit", |_| ex.extract(&revised)).map_err(|e| e.to_string())?;
                if all_hit.report().extracted != 0 {
                    return Err("an already-cached revision re-extracted windows".into());
                }
            }
            if (i as usize) < EXACT_PREFIX {
                log.extracted += r.extracted;
                log.touched += r.touched.unwrap_or(usize::MAX / 4);
            }
            log.busy_s.push(r.busy_seconds);
            log.queue_s.push(r.queue_seconds);
            log.hits += r.template_cache.hits;
            log.lookups += r.template_cache.lookups();
            log.evictions += r.template_cache.evictions;
            if r.touched != Some(r.extracted) {
                return Err(format!("extracted {} but touched {:?}", r.extracted, r.touched));
            }
            check_chip(&eco)?;
            let (n, c) = dense(&eco);
            if n != dim {
                return Err(format!("chip dimension {n}, cold pass {dim}"));
            }
            let touched = part.windows_touched(&diff);
            for w in part.windows().iter().filter(|w| !touched.contains(&w.index())) {
                for &row in w.owned() {
                    let range = row * n..(row + 1) * n;
                    if !check::bit_identical(&c[range.clone()], &cold_c[range]) {
                        return Err(format!("row {row} of untouched window {} changed", w.index()));
                    }
                }
            }
            Ok(())
        });
        if i + 1 == RSS_AFTER_ECOS {
            peak_rss_mib = host::peak_rss_mib();
        }
        (latency, result)
    });
    tr.set_enabled(false);

    let mut layers = Metrics::default();
    layers.set("chip.windows_extracted", log.extracted as f64, "count");
    layers.set("chip.windows_touched", log.touched as f64, "count");
    let ecos = log.busy_s.len().max(1) as f64;
    layers.set("core.template_cache.evictions", log.evictions as f64 / ecos, "count/op");
    layers.set("core.template_cache.entries", cache.len() as f64, "count");
    layers.set(
        "core.template_cache.hit_ratio",
        log.hits as f64 / log.lookups.max(1) as f64,
        "ratio",
    );
    if let Some(v) = median(&log.busy_s) {
        layers.set("chip.window_busy_s", v, "s");
    }
    if let Some(v) = median(&log.queue_s) {
        layers.set("exec.queue_wait_s", v, "s");
    }
    let spans = tr.layers();
    for (span, metric) in [
        ("geom.diff", "geom.diff_s"),
        ("geom.partition", "geom.partition_s"),
        ("chip.reextract", "chip.reextract_s"),
        ("chip.all_hit", "chip.all_hit_s"),
    ] {
        if let Some(v) = spans.get(span).and_then(|t| median(t)) {
            layers.set(metric, v, "s");
        }
    }
    let windows = ex.window_cache_handle();
    let notes = vec![format!(
        "bus {BUS}x{BUS} in {GRID}x{GRID} windows: {} windows extracted / {} touched over the first {EXACT_PREFIX} ECOs; \
         template cache {} entries; window cache {} entries, {} bytes, {} evictions; \
         peak resident set {:.1} MiB after {RSS_AFTER_ECOS} ECOs, {:.1} MiB at the end",
        log.extracted,
        log.touched,
        cache.len(),
        windows.len(),
        windows.resident_bytes(),
        windows.lifetime().evictions,
        peak_rss_mib.unwrap_or(f64::NAN),
        host::peak_rss_mib().unwrap_or(f64::NAN)
    )];
    Ok(Outcome {
        setup_s,
        ops,
        extra_failed: Vec::new(),
        extra_attempted: 0,
        peak_rss_mib,
        layers,
        tracer: tr,
        notes,
    })
}
