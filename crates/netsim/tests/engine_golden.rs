//! Bit-identity golden test for the three execution engines.
//!
//! Plans 40 random user pairs on each of two 60-node Barabási–Albert
//! networks with the streaming planner, then executes every plan through
//! `execute_plan` and `execute_plan_event` at entanglement rates 0.4 and
//! 1.0, with and without per-transfer fiber failures, under a tight
//! 8-tick budget. `execute_concurrently` runs each network's plans as one
//! contended batch, without fiber failures. Every outcome's completion
//! flag, latency and the bits of every segment record fold into one
//! FNV-1a digest, so any change to recovery, the segment walk, the
//! budget, latency charging, the records or RNG consumption moves it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use surfnet_netsim::concurrent::execute_concurrently;
use surfnet_netsim::event::{execute_plan_event, plan_request};
use surfnet_netsim::execution::execute_plan;
use surfnet_netsim::generate::{barabasi_albert, NetworkConfig};
use surfnet_netsim::{ExecutionConfig, ExecutionOutcome, Network, Request, TransferPlan};

const MAX_TICKS: u64 = 8;
const PLANS_PER_NET: usize = 40;
/// FNV-1a digest of every outcome, recorded before the engines shared
/// one segment walk.
const GOLDEN_DIGEST: u64 = 0x0822_5b03_627f_5b74;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// How many outcomes of each kind the corpus produced.
#[derive(Default)]
struct Census {
    completed: usize,
    timeouts: usize,
    route_failures: usize,
}

impl Census {
    /// Classifies `out` by the failure-latency contract: a timeout charges
    /// the completed segments plus the budget, a route failure only the
    /// completed segments.
    fn record(&mut self, out: &ExecutionOutcome) {
        let walked: u64 = out.segments.iter().map(|s| s.ticks).sum();
        if out.completed {
            assert_eq!(
                out.latency, walked,
                "completed latency is not the segment sum"
            );
            self.completed += 1;
        } else if out.latency == walked + MAX_TICKS {
            self.timeouts += 1;
        } else {
            assert_eq!(out.latency, walked, "failure charged neither way: {out:?}");
            self.route_failures += 1;
        }
    }
}

fn fold(digest: &mut Fnv, census: &mut Census, out: &ExecutionOutcome) {
    census.record(out);
    digest.word(u64::from(out.completed));
    digest.word(out.latency);
    digest.word(out.segments.len() as u64);
    for s in &out.segments {
        for x in [
            s.core_fidelity,
            s.support_fidelity,
            s.support_erasure_prob,
            s.core_erasure_prob,
        ] {
            digest.word(x.to_bits());
        }
        digest.word(s.ticks);
        digest.word(u64::from(s.corrected_at_end));
    }
}

fn network(seed: u64) -> Network {
    let config = NetworkConfig {
        num_nodes: 60,
        num_servers: 3,
        num_switches: 8,
        ..NetworkConfig::default()
    };
    barabasi_albert(&config, &mut SmallRng::seed_from_u64(seed)).unwrap()
}

/// `PLANS_PER_NET` plans between random distinct users.
fn plans(net: &Network, seed: u64) -> Vec<TransferPlan> {
    let users = net.users();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..PLANS_PER_NET)
        .map(|_| {
            let src = users[rng.gen_range(0..users.len())];
            let dst = loop {
                let d = users[rng.gen_range(0..users.len())];
                if d != src {
                    break d;
                }
            };
            plan_request(net, &Request::new(src, dst, 1)).unwrap()
        })
        .collect()
}

#[test]
fn engine_outcomes_replay_bit_identically() {
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut census = Census::default();
    for net_seed in [93_000u64, 93_001] {
        let net = network(net_seed);
        let plans = plans(&net, net_seed + 100);
        for (r, entanglement_rate) in [0.4, 1.0].into_iter().enumerate() {
            for (f, fiber_failure_prob) in [0.0, 0.1].into_iter().enumerate() {
                let config = ExecutionConfig {
                    entanglement_rate,
                    fiber_failure_prob,
                    max_ticks: MAX_TICKS,
                    ..ExecutionConfig::default()
                };
                let seed = net_seed * 16 + (r * 2 + f) as u64;
                let mut rng = SmallRng::seed_from_u64(seed);
                for plan in &plans {
                    fold(
                        &mut digest,
                        &mut census,
                        &execute_plan(&net, plan, &config, &mut rng),
                    );
                }
                let mut rng = SmallRng::seed_from_u64(seed + 8);
                for plan in &plans {
                    let out = execute_plan_event(&net, plan, &config, &mut rng);
                    fold(&mut digest, &mut census, &out);
                }
                if fiber_failure_prob == 0.0 {
                    let mut rng = SmallRng::seed_from_u64(seed + 4);
                    for out in execute_concurrently(&net, &plans, &config, &mut rng) {
                        fold(&mut digest, &mut census, &out);
                    }
                }
            }
        }
    }
    assert!(census.completed > 0, "no transfer completed");
    assert!(census.timeouts > 0, "no transfer timed out");
    assert!(census.route_failures > 0, "no transfer lost its route");
    assert_eq!(
        digest.0, GOLDEN_DIGEST,
        "engine outcomes moved: digest {:#018x} ({} completed, {} timeouts, {} route failures)",
        digest.0, census.completed, census.timeouts, census.route_failures
    );
}
