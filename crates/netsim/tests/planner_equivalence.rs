//! Planner equivalence corpus: the streaming planner's landmark-guided
//! bidirectional [`RouteSearch`] against the one-sided reference,
//! [`Network::shortest_path_by`], over the same table of fiber noises.
//!
//! Barabási–Albert scenarios draw fidelities from a continuous range, so
//! their minimum-noise routes are unique and both searches must return the
//! very same fibers. Where routes tie exactly, the two may pick different
//! ones, and only the noise is compared. One search instance answers every
//! query on its network, so stale per-query state (labels or cached
//! potentials) would show up here. The search must also stay small: on the
//! 1,200-node graphs its landmark bounds hold it to well under half the
//! nodes the bidirectional search settles without them, and a network whose
//! landmarks all lie in another component must still route with zero
//! potentials.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use surfnet_netsim::generate::{barabasi_albert, NetworkConfig};
use surfnet_netsim::{Fiber, FiberId, Network, NodeId, NodeKind, RouteSearch};

fn noise_table(net: &Network) -> Vec<f64> {
    net.fibers().iter().map(Fiber::noise).collect()
}

/// A BA graph with the streaming scenario's mix of users and relays.
fn ba(num_nodes: usize, fidelity_range: (f64, f64), seed: u64) -> Network {
    let config = NetworkConfig {
        num_nodes,
        attachment: 2,
        num_servers: num_nodes / 30,
        num_switches: num_nodes * 2 / 15,
        fidelity_range,
        ..NetworkConfig::default()
    };
    barabasi_albert(&config, &mut SmallRng::seed_from_u64(seed)).unwrap()
}

/// `count` random ordered pairs of distinct users.
fn user_pairs(net: &Network, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let users = net.users();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let src = users[rng.gen_range(0..users.len())];
            let dst = loop {
                let d = users[rng.gen_range(0..users.len())];
                if d != src {
                    break d;
                }
            };
            (src, dst)
        })
        .collect()
}

/// The forward fold of `route`'s noise, the way the reference accumulates
/// it; panics unless `route` is a connected walk from `src` to `dst`.
fn walk_noise(net: &Network, noise: &[f64], src: NodeId, dst: NodeId, route: &[FiberId]) -> f64 {
    let mut cur = src;
    let mut total = 0.0;
    for &f in route {
        assert!(
            net.incident(cur).contains(&f),
            "fiber {f} does not leave node {cur} on route {src}->{dst}"
        );
        cur = net.fiber(f).other(cur);
        total += noise[f];
    }
    assert_eq!(cur, dst, "route {src}->{dst} ends at {cur}");
    total
}

#[test]
fn unique_routes_are_identical_on_ba_graphs() {
    let mut queries = 0;
    for (num_nodes, fidelity_range) in [
        (300, (0.75, 1.0)),
        (300, (0.5, 1.0)),
        (1_200, (0.75, 1.0)),
        (1_200, (0.5, 1.0)),
    ] {
        for seed in [0, 1] {
            let net = ba(num_nodes, fidelity_range, 92_000 + seed);
            let noise = noise_table(&net);
            let mut search = RouteSearch::new(&net);
            let pairs = user_pairs(&net, 2_500, 93_000 + seed);
            for &(src, dst) in &pairs {
                let expected = net.shortest_path_by(src, dst, |f| noise[f]);
                assert!(expected.is_some(), "BA graphs are connected");
                assert_eq!(
                    search.path(src, dst),
                    expected,
                    "{num_nodes} nodes, fidelities {fidelity_range:?}, seed {seed}: {src}->{dst}"
                );
                queries += 1;
            }
            // The landmark bounds keep the search small: about 30 settled
            // nodes per query on the 1,200-node graphs, where the
            // bidirectional search without them settles about 100.
            let per_query = search.settled() as f64 / pairs.len() as f64;
            assert!(per_query > 0.0);
            if num_nodes == 1_200 {
                assert!(
                    per_query < 50.0,
                    "{num_nodes} nodes, fidelities {fidelity_range:?}, seed {seed}: \
                     {per_query:.1} settled per query"
                );
            }
        }
    }
    assert_eq!(queries, 20_000);
}

#[test]
fn tied_routes_have_the_reference_noise() {
    // Every fiber has the same noise, so a route's noise is its hop count
    // and most pairs have several minimum-noise routes.
    let net = ba(300, (0.9, 0.9), 94_000);
    let noise = noise_table(&net);
    let mut search = RouteSearch::new(&net);
    for (src, dst) in user_pairs(&net, 2_000, 94_001) {
        let expected = net.shortest_path_by(src, dst, |f| noise[f]).unwrap();
        let route = search.path(src, dst).unwrap();
        assert_eq!(
            walk_noise(&net, &noise, src, dst, &route),
            walk_noise(&net, &noise, src, dst, &expected),
            "{src}->{dst}: {route:?} vs {expected:?}"
        );
    }
}

#[test]
fn diamond_with_two_equal_routes() {
    //     s1
    //   /    \
    // u0      u3     both routes: 0.9 then 0.8
    //   \    /
    //     s2
    let mut net = Network::new();
    let u0 = net.add_node(NodeKind::User, 8);
    let s1 = net.add_node(NodeKind::Switch, 8);
    let s2 = net.add_node(NodeKind::Switch, 8);
    let u3 = net.add_node(NodeKind::User, 8);
    net.add_fiber(u0, s1, 0.9, 4, 0.0).unwrap();
    net.add_fiber(s1, u3, 0.8, 4, 0.0).unwrap();
    net.add_fiber(u0, s2, 0.9, 4, 0.0).unwrap();
    net.add_fiber(s2, u3, 0.8, 4, 0.0).unwrap();
    let noise = noise_table(&net);
    let mut search = RouteSearch::new(&net);
    for (src, dst) in [(u0, u3), (u3, u0)] {
        let expected = net.shortest_path_by(src, dst, |f| noise[f]).unwrap();
        let route = search.path(src, dst).unwrap();
        assert_eq!(route.len(), 2);
        assert_eq!(
            walk_noise(&net, &noise, src, dst, &route),
            walk_noise(&net, &noise, src, dst, &expected)
        );
    }
}

/// A BA graph and a separate two-user island, the island's nodes first
/// or last; returns the network and the island's two nodes.
fn with_island(island_first: bool) -> (Network, NodeId, NodeId) {
    let main = ba(120, (0.75, 1.0), 95_000);
    let mut net = Network::new();
    let add_island = |net: &mut Network| {
        let a = net.add_node(NodeKind::User, 8);
        let b = net.add_node(NodeKind::User, 8);
        net.add_fiber(a, b, 0.9, 4, 0.0).unwrap();
        (a, b)
    };
    let island = if island_first {
        Some(add_island(&mut net))
    } else {
        None
    };
    let offset = net.num_nodes();
    for v in 0..main.num_nodes() {
        let node = main.node(v);
        net.add_node(node.kind, node.capacity);
    }
    for f in main.fibers() {
        net.add_fiber(
            f.a + offset,
            f.b + offset,
            f.fidelity,
            f.entanglement_capacity,
            f.loss_prob,
        )
        .unwrap();
    }
    let (a, b) = island.unwrap_or_else(|| add_island(&mut net));
    (net, a, b)
}

#[test]
fn pairs_in_different_components_have_no_route() {
    // Landmarks are picked from node 0's component. With the island built
    // first that is the island, so the BA graph's queries run with zero
    // potential.
    for island_first in [false, true] {
        let (net, a, b) = with_island(island_first);
        let island_fiber = net.incident(a)[0];
        let main = if island_first { 2 } else { 0 };
        let noise = noise_table(&net);
        let mut search = RouteSearch::new(&net);
        for (src, dst) in user_pairs(&net, 400, 95_001) {
            let expected = net.shortest_path_by(src, dst, |f| noise[f]);
            let on_island = |v| v == a || v == b;
            assert_eq!(expected.is_none(), on_island(src) != on_island(dst));
            assert_eq!(
                search.path(src, dst),
                expected,
                "island first: {island_first}, {src}->{dst}"
            );
        }
        assert_eq!(search.path(a, b), Some(vec![island_fiber]));
        assert_eq!(search.path(main, a), None);
        assert_eq!(search.path(b, main), None);
    }
}
