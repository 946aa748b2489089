//! Cross-crate consistency of the parallel machinery: every execution
//! mode of Algorithm 1 produces the same system, the index math agrees
//! between crates, and the simulated machine reproduces the analytic
//! Amdahl limits.

use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::TemplateIndex;
use bemcap_core::assembly;
use bemcap_geom::structures;
use bemcap_par::{k_to_ij, triangle_size, CommModel, MachineSim, Phase, Universe};
use bemcap_quad::galerkin::GalerkinEngine;

#[test]
fn all_assembly_modes_bitwise_close() {
    let geo = structures::bus_crossing(2, 3, structures::BusParams::default());
    let set = instantiate(&geo, &InstantiateConfig::default()).expect("basis");
    let index = TemplateIndex::new(&set);
    let eng = GalerkinEngine::default();
    let nc = geo.conductor_count();
    let seq = assembly::assemble_sequential(&eng, &index, &set, nc, 1.0);
    for workers in 1..=4 {
        let (thr, timings) = assembly::assemble_threaded(&eng, &index, &set, nc, 1.0, workers);
        assert_eq!(timings.len(), workers);
        assert!((&seq.p - &thr.p).max_abs() < 1e-10 * seq.p.max_abs());
        let dist = assembly::assemble_distributed(&eng, &index, &set, nc, 1.0, workers);
        assert!((&seq.p - &dist.p).max_abs() < 1e-10 * seq.p.max_abs());
    }
}

#[test]
fn labels_are_monotone_so_distributed_columns_work() {
    // The distributed partial-matrix scheme (Fig. 5) relies on l_i ≤ l_j
    // for i ≤ j: labels must be nondecreasing in template order.
    let geo = structures::bus_crossing(3, 3, structures::BusParams::default());
    let set = instantiate(&geo, &InstantiateConfig::default()).expect("basis");
    let index = TemplateIndex::new(&set);
    for t in 1..index.template_count() {
        assert!(index.label(t - 1) <= index.label(t));
    }
    // And the k-loop covers the full triangle.
    let m = index.template_count();
    let last = triangle_size(m) - 1;
    assert_eq!(k_to_ij(last), (m - 1, m - 1));
}

#[test]
fn message_passing_ring_and_gather_compose() {
    // A slightly larger protocol exercise: tree reduction of partial sums.
    let results = Universe::run(6, |comm| {
        let mine = (comm.rank() + 1) as f64;
        if comm.rank() == 0 {
            let mut total = mine;
            for src in 1..comm.size() {
                total += comm.recv_f64s(src).expect("partial")[0];
            }
            total
        } else {
            comm.send_f64s(0, &[mine]).expect("send partial");
            0.0
        }
    });
    assert_eq!(results[0], 21.0);
}

#[test]
fn machine_sim_matches_amdahl_closed_form() {
    for d in [2usize, 4, 8] {
        for serial_frac in [0.05, 0.2] {
            let total = 10.0;
            let serial = serial_frac * total;
            let parallel = total - serial;
            let phases1 = [
                Phase::Serial { seconds: serial },
                Phase::Parallel { costs_per_node: vec![parallel] },
            ];
            let t1 = MachineSim::new(1, CommModel::shared_memory()).simulate(&phases1).makespan;
            let phases_d = [
                Phase::Serial { seconds: serial },
                Phase::Parallel { costs_per_node: vec![parallel / d as f64; d] },
            ];
            let rd = MachineSim::new(d, CommModel::shared_memory()).simulate(&phases_d);
            let expect = 1.0 / (serial_frac + (1.0 - serial_frac) / d as f64);
            assert!(
                (rd.speedup(t1) - expect).abs() < 1e-9,
                "d={d} f={serial_frac}: {} vs {expect}",
                rd.speedup(t1)
            );
        }
    }
}

#[test]
fn measured_chunk_costs_drive_high_efficiency() {
    // End-to-end Table 3 pipeline on a small bus: measure chunk costs,
    // simulate D nodes, and require the paper's qualitative result —
    // high efficiency for the embarrassingly parallel setup.
    let geo = structures::bus_crossing(4, 4, structures::BusParams::default());
    let set = instantiate(&geo, &InstantiateConfig::default()).expect("basis");
    let index = TemplateIndex::new(&set);
    let eng = GalerkinEngine::default();
    // Min of 3 sweeps per chunk, as table3 and fig8 measure: one
    // preempted chunk would otherwise skew the balance on a shared host.
    let costs = assembly::measure_chunk_costs_best_of(&eng, &index, 1.0, 512, 3);
    let t1 =
        MachineSim::new(1, CommModel::shared_memory()).simulate_setup(&costs, 0, 0.0, 0.0).makespan;
    // Thresholds are loose because this small bus has few entries and the
    // costs are measured in a debug build on a shared host: partition
    // granularity and timer noise dominate at high D. The release-build
    // 12×12/24×24 harness reaches the paper's ~85–90 % (EXPERIMENTS.md
    // Table 3).
    for (d, floor) in [(2usize, 0.75), (4, 0.65), (8, 0.5), (10, 0.45)] {
        let r = MachineSim::new(d, CommModel::shared_memory()).simulate_setup(
            &costs,
            index.basis_count() * index.basis_count() * 8,
            0.0,
            0.0,
        );
        let eff = r.efficiency(t1);
        assert!(eff > floor, "d={d}: efficiency {eff}");
    }
}
