//! `serve-mix`: the service tier. An in-process `bemcaprd` router over
//! two in-process `bemcapd` replicas (1 executor worker each) on fixed
//! loopback ports; 2 client connections, one thread each, in a closed
//! loop. Set-up binds the replicas and the router, then one client sends
//! the hot set once in a fixed order (a replica's cold start).
//!
//! Request classes, in blocks of 10 shuffled per client by the seed:
//! 6 `hot` (repeats of 12 fixed structures, template-cache reads),
//! 3 `sweep` (a batch of never-seen crossing-wire points: misses,
//! integrals, inserts, evictions) and 1 `krylov` (FMM or pFFT on the
//! crossing wires, no templates at all).

use std::time::Instant;

use bemcap_core::{CacheStats, Method};
use bemcap_geom::io::{parse_geometry, write_geometry};
use bemcap_geom::structures::{self, BusParams, CrossingParams, DEFAULT_SCALE};
use bemcap_geom::Geometry;
use bemcap_perfbench::check;
use bemcap_perfbench::out::Metrics;
use bemcap_perfbench::rng::{class_sequence, OpClass, SplitMix64, CLASS_BLOCK};
use bemcap_perfbench::stats::median;
use bemcap_perfbench::trace::Tracer;
use bemcap_router::server::{Router, RouterConfig, RouterHandle};
use bemcap_serve::protocol::{build_extractor, decode_request, encode_request, Request};
use bemcap_serve::{Client, ExtractOptions, ExtractReply, Server, ServerConfig, ServerHandle};

use crate::{closed_loop, time, Ctx, OpLog, Outcome};

/// Fixed loopback addresses: rendezvous routing hashes the replica
/// address strings, so fixed ports make the hot set's split repeat
/// exactly from run to run.
const REPLICAS: [&str; 2] = ["127.0.0.1:27611", "127.0.0.1:27612"];
const ROUTER: &str = "127.0.0.1:27610";
/// Client connections (one thread each).
const CLIENTS: u64 = 2;
/// Set-up repetitions; `setup_s` is their median. A cold start takes
/// about 0.3 s and is dominated by thread start-up and loopback round
/// trips, so it needs more repetitions than the other workloads.
const SETUP_RUNS: usize = 7;
/// Per-replica template-cache budget: holds a replica's share of the
/// hot set but not the sweep stream, so the timed phase evicts.
const CACHE_BYTES: usize = 4 << 20;
/// Geometries per `sweep` batch frame.
const SWEEP_POINTS: usize = 3;
/// Sweep and krylov ops per client recomputed in-process afterwards.
const RECHECK_PER_CLIENT: usize = 2;
/// Warm hot requests timed through the router and straight to the owner.
const RELAY_PAIRS: usize = 20;

fn um(x: f64) -> f64 {
    x * DEFAULT_SCALE
}

fn crossing(width: f64, separation: f64) -> Geometry {
    structures::crossing_wires(CrossingParams {
        width: um(width),
        separation: um(separation),
        ..CrossingParams::default()
    })
}

/// The 12 hot structures: a crossing-wire h-sweep, the width and
/// thickness corners of a 2×2 bus, and 2×2, 2×3 and 3×3 buses.
fn hot_set() -> Vec<Geometry> {
    let mut v: Vec<Geometry> =
        [0.25, 0.5, 0.75, 1.0, 1.5].iter().map(|&h| crossing(1.0, h)).collect();
    for (w, t) in [(0.8, 0.4), (0.8, 0.6), (1.2, 0.4), (1.2, 0.6)] {
        let p = BusParams { width: um(w), thickness: um(t), ..BusParams::default() };
        v.push(structures::bus_crossing(2, 2, p));
    }
    for (m, n) in [(2, 2), (2, 3), (3, 3)] {
        v.push(structures::bus_crossing(m, n, BusParams::default()));
    }
    v
}

fn krylov_options(k: usize) -> ExtractOptions {
    let method = if k.is_multiple_of(2) { Method::PwcFmm } else { Method::PwcPfft };
    ExtractOptions { method, ..ExtractOptions::default() }
}

/// Cold-start replies: geometry text and matrix rows, in hot-set order.
type ColdReplies = Vec<(String, Vec<Vec<f64>>)>;

/// A running topology: two replicas behind one router.
struct Topology {
    replicas: Vec<ServerHandle>,
    router: RouterHandle,
}

impl Topology {
    fn start() -> Result<Topology, String> {
        let mut replicas = Vec::new();
        for addr in REPLICAS {
            let cfg = ServerConfig {
                addr: addr.to_string(),
                cache_max_bytes: Some(CACHE_BYTES),
                workers: 1,
                ..ServerConfig::default()
            };
            let server = Server::bind(cfg).map_err(|e| format!("bind replica {addr}: {e}"))?;
            replicas.push(server.spawn().map_err(|e| e.to_string())?);
        }
        let cfg = RouterConfig {
            addr: ROUTER.to_string(),
            replicas: REPLICAS.iter().map(|s| s.to_string()).collect(),
            ..RouterConfig::default()
        };
        let router = Router::bind(cfg).map_err(|e| format!("bind router {ROUTER}: {e}"))?;
        let router = router.spawn().map_err(|e| e.to_string())?;
        Ok(Topology { replicas, router })
    }

    /// Stops the router and both replicas and waits for their threads.
    fn stop(self) -> Result<(), String> {
        let mut first_err = None;
        let mut note = |r: Result<(), String>| {
            if let Err(e) = r {
                first_err.get_or_insert(e);
            }
        };
        note(Client::connect(ROUTER).and_then(|mut c| c.shutdown()).map_err(|e| e.to_string()));
        note(self.router.join().map_err(|e| e.to_string()));
        for (addr, handle) in REPLICAS.iter().zip(self.replicas) {
            note(Client::connect(*addr).and_then(|mut c| c.shutdown()).map_err(|e| e.to_string()));
            note(handle.join().map_err(|e| e.to_string()));
        }
        first_err.map_or(Ok(()), Err)
    }
}

/// Per-op readings of one client.
#[derive(Default)]
struct ClassLog {
    class: Vec<OpClass>,
    latency: Vec<f64>,
    traced: Vec<bool>,
    daemon_setup: Vec<f64>,
    daemon_solve: Vec<f64>,
    queue: Vec<f64>,
    coalesced: usize,
    cache: CacheStats,
    krylov_iterations: Vec<(usize, usize)>,
    /// (geometry text, options, reply matrix) recomputed afterwards.
    recheck: Vec<(String, ExtractOptions, Vec<Vec<f64>>)>,
}

impl ClassLog {
    fn record(&mut self, class: OpClass, latency: f64, traced: bool, replies: &[ExtractReply]) {
        self.class.push(class);
        self.latency.push(latency);
        self.traced.push(traced);
        self.daemon_setup.push(replies.iter().map(|r| r.setup_seconds).sum());
        self.daemon_solve.push(replies.iter().map(|r| r.solve_seconds).sum());
        // One executor submission per frame: the queue record is shared.
        self.queue.push(replies.first().map_or(0.0, |r| r.queue_seconds));
        self.coalesced += usize::from(replies.first().is_some_and(|r| r.coalesced));
        for r in replies {
            self.cache.absorb(r.cache);
        }
    }

    fn absorb(&mut self, o: ClassLog) {
        self.class.extend(o.class);
        self.latency.extend(o.latency);
        self.traced.extend(o.traced);
        self.daemon_setup.extend(o.daemon_setup);
        self.daemon_solve.extend(o.daemon_solve);
        self.queue.extend(o.queue);
        self.coalesced += o.coalesced;
        self.cache.absorb(o.cache);
        self.krylov_iterations.extend(o.krylov_iterations);
        self.recheck.extend(o.recheck);
    }
}

/// One client's closed loop through the router.
fn client_loop(
    ctx: &Ctx,
    client: u64,
    hot: &ColdReplies,
    epoch: Instant,
) -> Result<(OpLog, ClassLog, Tracer), String> {
    let mut conn = Client::connect(ROUTER).map_err(|e| e.to_string())?;
    let mut rng = SplitMix64::stream(ctx.seed, client);
    let mut classes = Vec::new();
    let mut tr = Tracer::with_epoch(false, epoch);
    let mut log = ClassLog::default();
    // Hot structures come in a seeded order, cycled, so each run repeats
    // every structure equally often.
    let mut hot_order: Vec<usize> = (0..hot.len()).collect();
    rng.shuffle(&mut hot_order);
    let (mut hots, mut sweeps, mut krylovs) = (0usize, 0usize, 0usize);
    let opts = ExtractOptions::default();
    let krylov_text = write_geometry(&crossing(1.0, 0.5));
    let ops = closed_loop(ctx, CLASS_BLOCK.len(), |i, traced| {
        if i as usize >= classes.len() {
            classes.extend(class_sequence(&mut rng, CLASS_BLOCK.len()));
        }
        let class = classes[i as usize];
        tr.set_enabled(traced);
        tr.set_op(client << 32 | i);
        // Build the frame's inputs before the clock starts.
        let hot_pick = hot_order[hots % hot_order.len()];
        hots += usize::from(class == OpClass::Hot);
        let (geos, options) = match class {
            OpClass::Hot => (Vec::new(), opts),
            OpClass::Sweep => {
                let pts = (0..SWEEP_POINTS)
                    .map(|_| crossing(0.6 + 0.8 * rng.unit(), 0.3 + 0.9 * rng.unit()))
                    .collect();
                (pts, opts)
            }
            OpClass::Krylov => (Vec::new(), krylov_options(krylovs)),
        };
        let text = match class {
            OpClass::Hot => &hot[hot_pick].0,
            _ => &krylov_text,
        };
        let codec_ok = !traced || {
            let geometries = match class {
                OpClass::Sweep => geos.iter().map(write_geometry).collect(),
                _ => vec![text.clone()],
            };
            let req = Request::Batch { id: Some(i), geometries, options };
            tr.span("serve.codec", |_| decode_request(&encode_request(&req)).as_ref() == Ok(&req))
        };
        let (replies, latency) = time(|| {
            tr.span("op", |tr| {
                tr.span("serve.client", |_| match class {
                    OpClass::Sweep => conn.extract_batch(&geos, &options),
                    _ => conn.extract_text(text, &options).map(|r| vec![r]),
                })
            })
        });
        let result = replies.map_err(|e| e.to_string()).and_then(|replies| {
            log.record(class, latency, traced, &replies);
            if !codec_ok {
                return Err("the request frame does not round-trip through the codec".into());
            }
            for r in &replies {
                check::maxwell(r.dim(), |a, b| r.get(a, b), 1e-9, 1e-6)?;
            }
            match class {
                OpClass::Hot => {
                    if !check::rows_bit_identical(&replies[0].matrix, &hot[hot_pick].1) {
                        return Err("hot repeat is not bit-identical to its cold reply".into());
                    }
                }
                OpClass::Sweep => {
                    if sweeps < RECHECK_PER_CLIENT {
                        for (g, r) in geos.iter().zip(&replies) {
                            log.recheck.push((write_geometry(g), options, r.matrix.clone()));
                        }
                    }
                    sweeps += 1;
                }
                OpClass::Krylov => {
                    let it = replies[0].solver.map_or(0, |s| s.iterations);
                    log.krylov_iterations.push((krylovs % 2, it));
                    if krylovs < RECHECK_PER_CLIENT {
                        log.recheck.push((text.clone(), options, replies[0].matrix.clone()));
                    }
                    krylovs += 1;
                }
            }
            Ok(())
        });
        (latency, result)
    });
    tr.set_enabled(false);
    Ok((ops, log, tr))
}

/// Binds the topology and sends the hot set once, in order, through the
/// router; returns the cold replies keyed by geometry text.
fn cold_start(hot: &[Geometry]) -> Result<(Topology, ColdReplies, CacheStats), String> {
    let topo = Topology::start()?;
    let mut conn = Client::connect(ROUTER).map_err(|e| e.to_string())?;
    let mut replies = Vec::new();
    let mut cache = CacheStats::default();
    for geo in hot {
        let text = write_geometry(geo);
        let r = conn.extract_text(&text, &ExtractOptions::default()).map_err(|e| e.to_string())?;
        check::maxwell(r.dim(), |a, b| r.get(a, b), 1e-9, 1e-6)?;
        cache.absorb(r.cache);
        replies.push((text, r.matrix));
    }
    Ok((topo, replies, cache))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let hot = hot_set();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_RUNS {
        if let Some((topo, _, _)) = state.take() {
            Topology::stop(topo)?;
        }
        let (started, s) = time(|| cold_start(&hot));
        setup_s.push(s);
        state = Some(started?);
    }
    let (topo, cold, cold_cache) = state.ok_or("no set-up ran")?;
    let resident: Vec<usize> = topo.replicas.iter().map(|r| r.cache().resident_bytes()).collect();
    let forwards = Client::connect(ROUTER)
        .and_then(|mut c| c.route_stats())
        .map_err(|e| e.to_string())?
        .replicas
        .iter()
        .map(|r| r.requests)
        .collect::<Vec<_>>();

    let epoch = Instant::now();
    let results: Vec<Result<(OpLog, ClassLog, Tracer), String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let cold = &cold;
                s.spawn(move || client_loop(ctx, c, cold, epoch))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    let mut ops = OpLog::default();
    let mut log = ClassLog::default();
    let mut tr = Tracer::new(false);
    let mut setup_failure = None;
    for r in results {
        match r {
            Ok((o, l, t)) => {
                ops.absorb(o);
                log.absorb(l);
                tr.absorb(t);
            }
            Err(e) => setup_failure = Some(e),
        }
    }
    let relay = if ctx.trace { Some(relay_seconds(&cold[0].0)) } else { None };
    let stopped = Topology::stop(topo);
    if let Some(e) = setup_failure {
        return Err(e);
    }
    stopped?;

    // Recompute the sampled sweep and krylov replies in-process.
    let mut extra_failed = Vec::new();
    let extra_attempted = log.recheck.len();
    for (text, options, matrix) in &log.recheck {
        let ok = parse_geometry(text)
            .map_err(|e| e.to_string())
            .and_then(|g| build_extractor(options).extract(&g).map_err(|e| e.to_string()))
            .map(|x| {
                let c = x.capacitance();
                let rows: Vec<Vec<f64>> =
                    (0..c.dim()).map(|i| (0..c.dim()).map(|j| c.get(i, j)).collect()).collect();
                check::rows_bit_identical(matrix, &rows)
            });
        match ok {
            Ok(true) => {}
            Ok(false) => {
                extra_failed.push("reply differs from the in-process recomputation".into())
            }
            Err(e) => extra_failed.push(format!("recomputation failed: {e}")),
        }
    }

    let mut layers = Metrics::default();
    layers.set("core.template_cache.hits", cold_cache.hits as f64, "count");
    layers.set("core.template_cache.misses", cold_cache.misses as f64, "count");
    for (i, f) in forwards.iter().enumerate().take(2) {
        layers.set(format!("router.forwards.r{i}"), *f as f64, "count");
    }
    let mut iterations: Vec<(usize, usize)> = log.krylov_iterations.clone();
    iterations.sort_unstable();
    iterations.dedup();
    layers.set(
        "linalg.krylov_iterations",
        iterations.iter().map(|p| p.1).sum::<usize>() as f64,
        "count",
    );
    let n_ops = log.class.len().max(1) as f64;
    layers.set("core.template_cache.hit_ratio", log.cache.hit_rate(), "ratio");
    layers.set("core.template_cache.evictions", log.cache.evictions as f64 / n_ops, "count/op");
    layers.set("exec.coalesced_ratio", log.coalesced as f64 / n_ops, "ratio");
    layers.set("serve.queue_wait_s", log.queue.iter().sum::<f64>() / n_ops, "s");
    let transport: Vec<f64> = (0..log.class.len())
        .map(|k| log.latency[k] - log.queue[k] - log.daemon_setup[k] - log.daemon_solve[k])
        .collect();
    if let Some(v) = median(&transport) {
        layers.set("serve.transport_s", v, "s");
    }
    if let Some(v) = tr.layers().get("serve.codec").and_then(|t| median(t)) {
        layers.set("serve.codec_s", v, "s");
    }
    if let Some(v) = relay {
        layers.set("router.relay_s", v?, "s");
    }
    let total: f64 = log.latency.iter().sum();
    let mut shares = Vec::new();
    for class in OpClass::ALL {
        let pick = |v: &[f64], untraced_only: bool| -> Vec<f64> {
            (0..log.class.len())
                .filter(|&k| log.class[k] == class && !(untraced_only && log.traced[k]))
                .map(|k| v[k])
                .collect()
        };
        let name = class.name();
        if let Some(v) = median(&pick(&log.daemon_setup, false)) {
            layers.set(format!("serve.daemon_setup_s.{name}"), v, "s");
        }
        if let Some(v) = median(&pick(&log.daemon_solve, false)) {
            layers.set(format!("serve.daemon_solve_s.{name}"), v, "s");
        }
        if let Some(v) = median(&pick(&log.latency, true)) {
            layers.set(format!("serve.latency_p50_s.{name}"), v, "s");
        }
        let share = pick(&log.latency, false).iter().sum::<f64>() / total.max(f64::MIN_POSITIVE);
        layers.set(format!("serve.time_share.{name}"), share, "ratio");
        shares.push(format!("{name} {:.1} %", 100.0 * share));
    }
    let notes = vec![
        format!(
            "cold start: hot set split {forwards:?} across replicas, template cache {} hits / {} misses",
            cold_cache.hits, cold_cache.misses
        ),
        format!(
            "template cache after cold start {resident:?} bytes of {CACHE_BYTES} per replica; timed phase: hit rate {:.3}, {} evictions",
            log.cache.hit_rate(),
            log.cache.evictions
        ),
        format!("class time shares: {}; krylov iterations {iterations:?}", shares.join(", ")),
        format!("{} sweep/krylov replies recomputed in-process", extra_attempted),
    ];
    Ok(Outcome {
        setup_s,
        ops,
        extra_failed,
        extra_attempted,
        peak_rss_mib: None,
        layers,
        tracer: tr,
        notes,
    })
}

/// Router relay cost: median latency of a warm hot request through the
/// router minus the same request sent straight to its owning replica
/// (found from `route_stats`).
fn relay_seconds(text: &str) -> Result<f64, String> {
    let err = |e: bemcap_serve::ServeError| e.to_string();
    let opts = ExtractOptions::default();
    let mut via = Client::connect(ROUTER).map_err(err)?;
    let before = via.route_stats().map_err(err)?;
    via.extract_text(text, &opts).map_err(err)?;
    let after = via.route_stats().map_err(err)?;
    let owner = before
        .replicas
        .iter()
        .zip(&after.replicas)
        .position(|(b, a)| a.requests > b.requests)
        .ok_or("no replica took the request")?;
    let mut direct = Client::connect(REPLICAS[owner]).map_err(err)?;
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..RELAY_PAIRS {
        let (r, s) = time(|| via.extract_text(text, &opts));
        r.map_err(err)?;
        a.push(s);
        let (r, s) = time(|| direct.extract_text(text, &opts));
        r.map_err(err)?;
        b.push(s);
    }
    Ok(median(&a).unwrap_or(0.0) - median(&b).unwrap_or(0.0))
}
