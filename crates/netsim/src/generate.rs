//! Random network generation (paper Sec. VI-B).
//!
//! Evaluation networks are Barabási–Albert preferential-attachment graphs
//! with 20+ nodes; the most connected nodes become servers and switches,
//! the rest are users. Fiber fidelities are drawn uniformly from a
//! per-scenario range (`[0.75, 1]` for good connections, `[0.5, 1]` for
//! poor ones).

use crate::topology::{Network, NodeKind};
use rand::Rng;

/// Parameters for one generated network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Total number of nodes (the paper uses "over 20").
    pub num_nodes: usize,
    /// Barabási–Albert attachment count: each new node connects to this
    /// many existing nodes.
    pub attachment: usize,
    /// How many of the most connected nodes become servers.
    pub num_servers: usize,
    /// How many of the next most connected nodes become switches.
    pub num_switches: usize,
    /// Uniform fidelity range for fibers (`[0.75, 1]` good, `[0.5, 1]` poor).
    pub fidelity_range: (f64, f64),
    /// Quantum memory capacity `η_r` of each switch.
    pub switch_capacity: u32,
    /// Quantum memory capacity of each server (typically larger).
    pub server_capacity: u32,
    /// Entangled pairs `η_e` prepared per fiber per scheduling round.
    pub entanglement_capacity: u32,
    /// Per-hop photon loss probability on plain channels.
    pub loss_prob: f64,
}

impl Default for NetworkConfig {
    /// The "sufficient facilities, good connections" configuration used as
    /// the reproduction's reference scenario.
    fn default() -> NetworkConfig {
        NetworkConfig {
            num_nodes: 22,
            attachment: 2,
            num_servers: 3,
            num_switches: 7,
            fidelity_range: (0.75, 1.0),
            switch_capacity: 60,
            server_capacity: 120,
            entanglement_capacity: 20,
            loss_prob: 0.03,
        }
    }
}

impl NetworkConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`crate::NetError::InvalidConfig`] when counts or ranges are
    /// impossible (more relays than nodes, empty fidelity range, …).
    pub fn validate(&self) -> Result<(), crate::NetError> {
        let (lo, hi) = self.fidelity_range;
        if self.num_nodes < 3
            || self.attachment == 0
            || self.attachment >= self.num_nodes
            || self.num_servers + self.num_switches >= self.num_nodes
            || self.num_servers == 0
            || !(lo > 0.0 && lo <= hi && hi <= 1.0)
            || !(0.0..=1.0).contains(&self.loss_prob)
        {
            return Err(crate::NetError::InvalidConfig);
        }
        Ok(())
    }
}

/// Generates a Barabási–Albert network per `config`.
///
/// The returned network is connected by construction (every new node
/// attaches to existing ones). Node kinds are assigned by degree: the
/// `num_servers` most connected nodes are servers, the next `num_switches`
/// are switches, everything else is a user. Ties break by node id.
///
/// # Errors
///
/// Propagates [`crate::NetError::InvalidConfig`] from validation.
pub fn barabasi_albert<R: Rng + ?Sized>(
    config: &NetworkConfig,
    rng: &mut R,
) -> Result<Network, crate::NetError> {
    config.validate()?;
    let n = config.num_nodes;
    let m = config.attachment;

    // Adjacency skeleton first (degrees decide node kinds).
    // Start with a clique on m+1 nodes, then preferential attachment.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut degree = vec![0usize; n];
    // Endpoint pool: each node appears once per incident edge, so sampling
    // uniformly from the pool is degree-proportional sampling.
    let mut pool: Vec<usize> = Vec::new();
    let seed_nodes = m + 1;
    for u in 0..seed_nodes {
        for v in (u + 1)..seed_nodes {
            edges.push((u, v));
            degree[u] += 1;
            degree[v] += 1;
            pool.push(u);
            pool.push(v);
        }
    }
    for new in seed_nodes..n {
        let mut targets = Vec::with_capacity(m);
        let mut guard = 0;
        while targets.len() < m {
            let t = pool[rng.gen_range(0..pool.len())];
            if t != new && !targets.contains(&t) {
                targets.push(t);
            }
            guard += 1;
            if guard > 10_000 {
                // Degenerate pool (cannot happen for valid configs); fall
                // back to the lowest-id unused nodes.
                for t in 0..new {
                    if !targets.contains(&t) {
                        targets.push(t);
                        if targets.len() == m {
                            break;
                        }
                    }
                }
            }
        }
        for &t in &targets {
            edges.push((new, t));
            degree[new] += 1;
            degree[t] += 1;
            pool.push(new);
            pool.push(t);
        }
    }

    // Rank nodes by degree to assign kinds.
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(degree[v]), v));
    let mut kinds = vec![NodeKind::User; n];
    for &v in by_degree.iter().take(config.num_servers) {
        kinds[v] = NodeKind::Server;
    }
    for &v in by_degree
        .iter()
        .skip(config.num_servers)
        .take(config.num_switches)
    {
        kinds[v] = NodeKind::Switch;
    }

    let mut net = Network::new();
    for &kind in &kinds {
        let capacity = match kind {
            NodeKind::User => 0,
            NodeKind::Switch => config.switch_capacity,
            NodeKind::Server => config.server_capacity,
        };
        net.add_node(kind, capacity);
    }
    let (lo, hi) = config.fidelity_range;
    for (u, v) in edges {
        let fidelity = if lo == hi { hi } else { rng.gen_range(lo..hi) };
        net.add_fiber(
            u,
            v,
            fidelity,
            config.entanglement_capacity,
            config.loss_prob,
        )?;
    }
    debug_assert!(net.is_connected());
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn default_config_is_valid() {
        NetworkConfig::default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = NetworkConfig::default();
        c.num_nodes = 2;
        assert!(c.validate().is_err());
        let mut c = NetworkConfig::default();
        c.attachment = 0;
        assert!(c.validate().is_err());
        let mut c = NetworkConfig::default();
        c.num_servers = 20;
        c.num_switches = 10;
        assert!(c.validate().is_err());
        let mut c = NetworkConfig::default();
        c.fidelity_range = (0.9, 0.8);
        assert!(c.validate().is_err());
    }

    #[test]
    fn generated_network_is_connected_with_right_counts() {
        let config = NetworkConfig::default();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            let net = barabasi_albert(&config, &mut rng).unwrap();
            assert!(net.is_connected());
            assert_eq!(net.num_nodes(), config.num_nodes);
            assert_eq!(net.servers().len(), config.num_servers);
            assert_eq!(net.relays().len(), config.num_servers + config.num_switches);
            // BA edge count: C(m+1, 2) + m * (n - m - 1).
            let m = config.attachment;
            let expected = m * (m + 1) / 2 + m * (config.num_nodes - m - 1);
            assert_eq!(net.num_fibers(), expected);
        }
    }

    #[test]
    fn fidelities_respect_range() {
        let mut config = NetworkConfig::default();
        config.fidelity_range = (0.5, 1.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let net = barabasi_albert(&config, &mut rng).unwrap();
        for f in net.fibers() {
            assert!(f.fidelity >= 0.5 && f.fidelity <= 1.0);
        }
    }

    #[test]
    fn relays_are_high_degree_nodes() {
        // Kinds go by degree, highest first, ties to the lower id, so every
        // relay has degree ≥ every user; degrees do tie across the cut.
        let stream = NetworkConfig {
            num_nodes: 1_200,
            num_servers: 40,
            num_switches: 160,
            ..NetworkConfig::default()
        };
        for config in [NetworkConfig::default(), stream] {
            for seed in 0..50 {
                let net = barabasi_albert(&config, &mut SmallRng::seed_from_u64(seed)).unwrap();
                let degree = |v: usize| net.incident(v).len();
                let min_relay = net.relays().into_iter().map(degree).min().unwrap();
                let max_user = net.users().into_iter().map(degree).max().unwrap();
                assert!(
                    min_relay >= max_user,
                    "{} nodes, seed {seed}: a relay of degree {min_relay}, a user of {max_user}",
                    config.num_nodes
                );
            }
        }
    }

    #[test]
    fn reproducible_given_seed() {
        let config = NetworkConfig::default();
        let a = barabasi_albert(&config, &mut SmallRng::seed_from_u64(7)).unwrap();
        let b = barabasi_albert(&config, &mut SmallRng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
    }
}
