//! Property tests for the network substrate. Each test runs `CASES`
//! seeded cases; case `c` draws its inputs from `SmallRng::seed_from_u64(c)`
//! and every assertion names it, so a failing case reruns alone.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use surfnet_netsim::entanglement::{purify, purify_n, swap};
use surfnet_netsim::generate::{barabasi_albert, NetworkConfig};
use surfnet_netsim::topology::{fidelity_of_noise, noise_of_fidelity};

const CASES: u64 = 64;

#[test]
fn noise_translation_roundtrips() {
    for case in 0..CASES {
        let gamma = SmallRng::seed_from_u64(case).gen_range(0.01..=1.0);
        let mu = noise_of_fidelity(gamma);
        assert!(mu >= 0.0, "case {case}: noise {mu} of fidelity {gamma}");
        let back = fidelity_of_noise(mu);
        assert!((back - gamma).abs() < 1e-9, "case {case}: {back}");
    }
}

#[test]
fn noise_is_additive_where_fidelity_is_multiplicative() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (a, b) = (rng.gen_range(0.1..=1.0), rng.gen_range(0.1..=1.0));
        let sum = noise_of_fidelity(a) + noise_of_fidelity(b);
        let f = fidelity_of_noise(sum);
        assert!((f - a * b).abs() < 1e-9, "case {case}: {a} * {b} vs {f}");
    }
}

#[test]
fn purify_stays_in_unit_interval() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (a, b) = (rng.gen_range(0.0..=1.0), rng.gen_range(0.0..=1.0));
        let out = purify(a, b);
        assert!((0.0..=1.0).contains(&out), "case {case}: {out}");
    }
}

#[test]
fn purify_improves_symmetric_pairs_above_half() {
    for case in 0..CASES {
        let rho = SmallRng::seed_from_u64(case).gen_range(0.5001..=0.9999);
        let out = purify(rho, rho);
        assert!(out > rho, "case {case}: purify({rho}, {rho}) = {out}");
    }
}

#[test]
fn purify_n_is_monotone_in_n_above_half() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (rho, n) = (rng.gen_range(0.55..=0.95), rng.gen_range(0u32..6));
        assert!(
            purify_n(rho, n + 1) >= purify_n(rho, n),
            "case {case}: rho {rho}, n {n}"
        );
    }
}

#[test]
fn swap_never_improves() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (a, b) = (rng.gen_range(0.0..=1.0), rng.gen_range(0.0..=1.0));
        let s = swap(a, b);
        assert!(s <= a.min(b) + 1e-12, "case {case}: swap({a}, {b}) = {s}");
        assert!((s - a * b).abs() < 1e-12, "case {case}: {s}");
    }
}

#[test]
fn generated_networks_always_connected() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let nodes = rng.gen_range(8usize..30);
        let mut cfg = NetworkConfig::default();
        cfg.num_nodes = nodes;
        cfg.num_servers = 2.min(nodes - 3);
        cfg.num_switches = (nodes / 4).min(nodes - 3 - cfg.num_servers);
        let net = barabasi_albert(&cfg, &mut rng)
            .unwrap_or_else(|e| panic!("case {case}: {nodes} nodes: {e}"));
        assert!(net.is_connected(), "case {case}: {nodes} nodes");
        assert_eq!(net.num_nodes(), nodes, "case {case}");
        // Dijkstra between any two users exists.
        let users = net.users();
        if users.len() >= 2 {
            let path = net.min_noise_path(users[0], users[1]);
            assert!(path.is_some(), "case {case}: {nodes} nodes");
        }
    }
}

#[test]
fn min_noise_path_never_noisier_than_min_hop() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let net = barabasi_albert(&NetworkConfig::default(), &mut rng)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let users = net.users();
        assert!(users.len() >= 2, "case {case}: {} users", users.len());
        let (a, b) = (users[0], users[users.len() - 1]);
        let (Some(by_noise), Some(by_hops)) = (net.min_noise_path(a, b), net.min_hop_path(a, b))
        else {
            panic!("case {case}: no route {a} -> {b}");
        };
        assert!(
            net.path_noise(&by_noise) <= net.path_noise(&by_hops) + 1e-9,
            "case {case}: {a} -> {b}"
        );
        assert!(by_hops.len() <= by_noise.len(), "case {case}: {a} -> {b}");
    }
}
