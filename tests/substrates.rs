//! Integration tests for the substrate crates working together:
//! geometry → expander, fault coverage, emulation ↔ dht.

use continuous_discrete::core::rng::seeded;
use continuous_discrete::core::Point2;
use continuous_discrete::expander::spectral::analyze;
use continuous_discrete::expander::GgExpander;
use continuous_discrete::geometry::TorusVoronoi;
use rand::Rng;

#[test]
fn voronoi_feeds_expander_consistently() {
    let mut rng = seeded(0x6E0);
    let pts: Vec<(f64, f64)> = (0..100).map(|_| (rng.gen(), rng.gen())).collect();
    let voronoi = TorusVoronoi::build(&pts);
    let n = voronoi.len();
    let x = GgExpander::from_voronoi(voronoi);
    assert_eq!(x.len(), n);
    // full adjacency must contain the Voronoi adjacency
    let full = x.full_adjacency();
    for (i, adj) in full.iter().enumerate() {
        for j in x.voronoi().neighbors(i) {
            assert!(adj.contains(&j), "Voronoi edge {i}↔{j} missing from network");
        }
    }
    let r = analyze(&full, 300, 5);
    assert!(r.gap > 0.0);
}

#[test]
fn continuous_gg_maps_match_discrete_shear() {
    // the exact fixed-point Gabber-Galil maps in cd-core and the f64
    // shears used by the discretisation agree on sample points
    let mut rng = seeded(0x66);
    for _ in 0..200 {
        let p = Point2::from_bits(rng.gen(), rng.gen());
        let (x, y) = p.to_f64();
        let f = p.gg_f().to_f64();
        let expect = ((x + y) % 1.0, y);
        assert!((f.0 - expect.0).abs() < 1e-9 || (f.0 - expect.0).abs() > 1.0 - 1e-9);
        assert!((f.1 - expect.1).abs() < 1e-12);
    }
}

#[test]
fn erasure_threshold_matches_fault_coverage() {
    // the fault crate's clique of covers must be wide enough to host
    // k-of-m shares: coverage at or above the smallest threshold
    let mut rng = seeded(0xE5);
    let net = continuous_discrete::fault::OverlapNet::build(512, &mut rng);
    let (min_cov, _) = net.coverage_stats(300, &mut rng);
    assert!(min_cov >= 2, "coverage {min_cov} too thin for erasure coding");
}

#[test]
fn emulated_debruijn_agrees_with_dht_analysis() {
    // Section 2's DHT == Section 7's emulation of the De Bruijn family
    // on the same evenly spaced hosts: degree profiles must agree.
    use continuous_discrete::dht::analysis::graph_stats;
    use continuous_discrete::emulation::{Emulation, GraphFamily};
    let hosts = continuous_discrete::core::pointset::PointSet::evenly_spaced(64);
    let direct = graph_stats(&hosts, 2);
    let emu = Emulation::new(GraphFamily::DeBruijn, 6, hosts);
    let s = emu.stats();
    // both views are constant-degree and within a small constant of
    // each other (the emulation counts undirected guest edges incl.
    // both De Bruijn directions)
    assert!(s.max_host_degree <= 2 * (direct.max_out_degree + direct.max_in_degree));
    assert!(s.max_host_degree >= direct.max_out_degree);
}
