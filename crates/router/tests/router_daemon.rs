//! End-to-end front-tier tests: a real router over real daemons, with
//! the stock [`bemcap_serve::Client`] talking to both tiers.
//!
//! The load-bearing property is **bit-identity**: a result that came
//! through the router must match the direct-to-daemon result to the
//! last bit, for every op. The router relays frames verbatim, so any
//! divergence here means the proxy path re-encoded something.

use std::time::Duration;

use bemcap_geom::io::write_geometry;
use bemcap_geom::structures::{self, BusParams, CrossingParams};
use bemcap_geom::Geometry;
use bemcap_router::{routing_key, Balancer, Router, RouterConfig, RouterHandle};
use bemcap_serve::protocol::Request;
use bemcap_serve::{
    ChipOptions, Client, ExtractOptions, ServeError, Server, ServerConfig, ServerHandle,
};

/// N daemons plus a router sharding across them.
struct Tier {
    daemons: Vec<ServerHandle>,
    replicas: Vec<String>,
    router: RouterHandle,
}

impl Tier {
    fn start(n: usize) -> Tier {
        let daemons: Vec<ServerHandle> = (0..n)
            .map(|_| {
                Server::bind(ServerConfig { addr: "127.0.0.1:0".into(), ..Default::default() })
                    .expect("bind daemon")
                    .spawn()
                    .expect("spawn daemon")
            })
            .collect();
        let replicas: Vec<String> = daemons.iter().map(|d| d.addr().to_string()).collect();
        let router = Router::bind(RouterConfig {
            replicas: replicas.clone(),
            connect_timeout: Duration::from_millis(500),
            health_interval: Duration::from_millis(100),
            ..RouterConfig::default()
        })
        .expect("bind router")
        .spawn()
        .expect("spawn router");
        Tier { daemons, replicas, router }
    }

    fn router_client(&self) -> Client {
        Client::connect(self.router.addr()).expect("connect to router")
    }

    fn daemon_client(&self, i: usize) -> Client {
        Client::connect(self.daemons[i].addr()).expect("connect to daemon")
    }

    /// The replica index the router's affinity picks for this geometry
    /// under these options (same key computation, same balancer).
    fn affinity_of(&self, geo: &Geometry, options: &ExtractOptions) -> usize {
        let request =
            Request::Extract { id: None, geometry: write_geometry(geo), options: *options };
        Balancer::new(&self.replicas).pick(routing_key(&request).expect("payload key")).unwrap()
    }

    /// Shuts down the router and every daemon, in that order.
    fn stop(self) {
        self.router_client().shutdown().expect("router shutdown");
        self.router.join().expect("router exit");
        for (i, daemon) in self.daemons.into_iter().enumerate() {
            let mut c = Client::connect(daemon.addr()).expect("connect for shutdown");
            c.shutdown().unwrap_or_else(|e| panic!("daemon {i} shutdown: {e}"));
            daemon.join().expect("daemon exit");
        }
    }
}

fn bits(matrix: &[Vec<f64>]) -> Vec<Vec<u64>> {
    matrix.iter().map(|row| row.iter().map(|v| v.to_bits()).collect()).collect()
}

#[test]
fn routed_extract_and_batch_are_bit_identical_to_direct() {
    let tier = Tier::start(2);
    let mut direct = tier.daemon_client(0);
    let mut routed = tier.router_client();
    let geo = structures::crossing_wires(CrossingParams::default());
    let options = ExtractOptions::default();

    let want = direct.extract(&geo, &options).expect("direct extract");
    let got = routed.extract(&geo, &options).expect("routed extract");
    assert_eq!(got.names, want.names);
    assert_eq!(bits(&got.matrix), bits(&want.matrix), "routed extract diverged bitwise");
    assert_eq!(got.method, want.method);

    // A batch frame routes (and relays) as one unit.
    let geos: Vec<Geometry> = [0.9, 1.0, 1.1]
        .iter()
        .map(|&s| {
            structures::crossing_wires(CrossingParams {
                length: s * CrossingParams::default().length,
                ..CrossingParams::default()
            })
        })
        .collect();
    let want = direct.extract_batch(&geos, &options).expect("direct batch");
    let got = routed.extract_batch(&geos, &options).expect("routed batch");
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(bits(&g.matrix), bits(&w.matrix), "batch job {i} diverged bitwise");
    }
    tier.stop();
}

#[test]
fn routed_chip_is_bit_identical_to_direct() {
    let tier = Tier::start(2);
    let mut direct = tier.daemon_client(1);
    let mut routed = tier.router_client();
    let geo = structures::bus_crossing(2, 2, BusParams::default());
    let options = ChipOptions::default();

    let want = direct.chip(&geo, &options).expect("direct chip");
    let got = routed.chip(&geo, &options).expect("routed chip");
    assert_eq!(got.names, want.names);
    assert_eq!(got.dim, want.dim);
    assert_eq!(got.nnz(), want.nnz());
    for (&(i, j, g), &(wi, wj, w)) in got.entries.iter().zip(&want.entries) {
        assert_eq!((i, j), (wi, wj));
        assert_eq!(g.to_bits(), w.to_bits(), "chip entry ({i},{j}) diverged bitwise");
    }
    tier.stop();
}

#[test]
fn structured_errors_relay_verbatim_and_control_ops_answer_locally() {
    let tier = Tier::start(2);
    let mut routed = tier.router_client();

    // A geometry error is the *replica's* verdict, relayed untouched —
    // never converted into a router-level upstream failure.
    let err = routed.extract_text("conductor a\nbogus 1 2\n", &ExtractOptions::default());
    match err {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, "geometry"),
        other => panic!("expected relayed geometry error, got {other:?}"),
    }
    // The connection survives the structured error.
    routed.ping().expect("ping after structured error");

    // Per-daemon ops are refused by the router with an explanation.
    match routed.stats() {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!(code, "bad-request");
            assert!(message.contains("route_stats"), "{message}");
        }
        other => panic!("expected bad-request for stats via router, got {other:?}"),
    }

    // ping answers from the router itself and flags the tier.
    let v = routed.send_raw(r#"{"op":"ping","id":7}"#).expect("raw ping");
    let router_flag = v.get("result").and_then(|r| r.get("router"));
    assert_eq!(router_flag.and_then(serde_json::Value::as_bool), Some(true), "{v:?}");
    tier.stop();
}

#[test]
fn repeats_keep_their_shard_and_hit_its_warm_cache() {
    let tier = Tier::start(2);
    let mut routed = tier.router_client();
    let options = ExtractOptions::default();

    // Distinct structures picked by the router's predicted placement (its
    // own key + balancer) until each shard holds two, so the spread never
    // depends on which ports the replicas were given and the assertions
    // are exact, not statistical.
    let mut geos: Vec<Geometry> = Vec::new();
    let mut expected = vec![0u64; 2];
    for i in 0..256 {
        if expected.iter().all(|&n| n >= 2) {
            break;
        }
        let geo = structures::crossing_wires(CrossingParams {
            length: (1.0 + 0.05 * i as f64) * CrossingParams::default().length,
            ..CrossingParams::default()
        });
        let shard = tier.affinity_of(&geo, &options);
        if expected[shard] < 2 {
            expected[shard] += 1;
            geos.push(geo);
        }
    }
    assert_eq!(expected, vec![2, 2], "no candidate spread found over both shards");

    // Pass 1 (cold) and pass 2 (repeats): every repeat must land on the
    // replica that served it first.
    for pass in 0..2 {
        for geo in &geos {
            let reply = routed.extract(geo, &options).expect("routed extract");
            if pass == 1 {
                assert!(
                    reply.cache.hits > 0,
                    "repeat request missed its shard's warm template cache"
                );
            }
        }
    }
    let stats = routed.route_stats().expect("route stats");
    assert_eq!(stats.healthy, 2);
    assert_eq!(stats.proxied, 2 * geos.len() as u64);
    assert_eq!(stats.failovers, 0);
    for (i, replica) in stats.replicas.iter().enumerate() {
        assert_eq!(
            replica.requests,
            2 * expected[i],
            "replica {i} ({}) request count off: {stats:?}",
            replica.addr
        );
    }
    tier.stop();
}
