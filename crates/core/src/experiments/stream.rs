//! Streaming workload: sustained open Poisson arrivals on a large
//! Barabási–Albert network, driven through the discrete-event engine
//! ([`surfnet_netsim::event`]).
//!
//! Where the figure experiments replay a fixed batch of requests per
//! trial, this scenario holds the network under continuous load and
//! measures what the admission controller does when relay memories and
//! fiber pair pools saturate: sustained completions per second, latency
//! percentiles of completed transfers, and the per-reason drop taxonomy
//! (unroutable / relay capacity / fiber pool).

use crate::metrics::percentile;
use crate::report;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_netsim::event::{simulate, ArrivalProcess, StreamConfig, StreamStats};
use surfnet_netsim::generate::{barabasi_albert, NetworkConfig};

/// Parameters of the streaming scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamParams {
    /// Topology to generate per trial.
    pub net: NetworkConfig,
    /// Expected Poisson arrivals per tick, in `(0, 1]`: [`simulate`]
    /// panics on any other value.
    pub arrival_rate: f64,
    /// Streaming-engine tunables (horizon, defer policy, execution).
    /// The arrival process inside is overridden by `arrival_rate`.
    pub sim: StreamConfig,
}

impl Default for StreamParams {
    /// A 1,200-node metropolitan-scale BA graph with deliberately tight
    /// relay memories and fiber pair pools, so that admission control and
    /// backpressure actually bite: three-code requests oversubscribe a
    /// two-pair fiber pool outright, and concurrent two-code transfers
    /// contend for four-slot switch memories at the BA hubs.
    fn default() -> StreamParams {
        StreamParams {
            net: NetworkConfig {
                num_nodes: 1_200,
                attachment: 2,
                num_servers: 40,
                num_switches: 160,
                fidelity_range: (0.75, 1.0),
                switch_capacity: 4,
                server_capacity: 8,
                entanglement_capacity: 2,
                loss_prob: 0.03,
            },
            arrival_rate: 0.25,
            sim: StreamConfig {
                horizon: 4_000,
                ..StreamConfig::default()
            },
        }
    }
}

/// Per-trial measurements (one generated network, one streaming run).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRow {
    /// Trial index.
    pub trial: usize,
    /// Requests that entered the system.
    pub arrivals: u64,
    /// Requests admitted into execution.
    pub admitted: u64,
    /// Admitted transfers that completed.
    pub completed: u64,
    /// Total drops across all reasons.
    pub dropped: u64,
    /// Sustained completions per second of simulated time.
    pub requests_per_sec: f64,
    /// Median completed-transfer latency (ticks).
    pub latency_p50: f64,
    /// 99th-percentile completed-transfer latency (ticks).
    pub latency_p99: f64,
}

/// Result bundle: per-trial rows plus pooled statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// One row per trial.
    pub rows: Vec<TrialRow>,
    /// All trials' statistics merged ([`StreamStats::merge`]): counters
    /// summed, latencies pooled, simulated time accumulated.
    pub pooled: StreamStats,
    /// Nodes per generated network.
    pub num_nodes: usize,
    /// Fibers per generated network.
    pub num_fibers: usize,
}

/// Runs `trials` independent streaming trials. Trial `t` generates its
/// network and drives its arrivals from a `SmallRng` seeded with
/// `base_seed` plus `t`, so the result is a pure function of the
/// parameters, the trial count, and the base seed.
pub fn run(params: &StreamParams, trials: usize, base_seed: u64) -> StreamResult {
    let config = StreamConfig {
        arrival: ArrivalProcess::Poisson {
            rate: params.arrival_rate,
        },
        ..params.sim.clone()
    };
    let mut rows = Vec::with_capacity(trials);
    let mut pooled = StreamStats {
        arrivals: 0,
        admitted: 0,
        completed: 0,
        failed: 0,
        deferred: 0,
        dropped_unroutable: 0,
        dropped_capacity: 0,
        dropped_pool: 0,
        end_time: 0,
        latencies: Vec::new(),
    };
    let mut num_nodes = 0;
    let mut num_fibers = 0;
    for t in 0..trials {
        let mut rng = SmallRng::seed_from_u64(base_seed.wrapping_add(t as u64));
        let net = barabasi_albert(&params.net, &mut rng)
            .expect("stream scenario network config is validated by construction");
        num_nodes = net.num_nodes();
        num_fibers = net.num_fibers();
        let stats = simulate(&net, &config, &mut rng);
        let sorted = sorted_latencies(&stats);
        rows.push(TrialRow {
            trial: t,
            arrivals: stats.arrivals,
            admitted: stats.admitted,
            completed: stats.completed,
            dropped: stats.dropped(),
            requests_per_sec: stats.requests_per_sec(),
            latency_p50: percentile(&sorted, 0.50),
            latency_p99: percentile(&sorted, 0.99),
        });
        pooled.merge(&stats);
    }
    StreamResult {
        rows,
        pooled,
        num_nodes,
        num_fibers,
    }
}

/// `stats`' completed-transfer latencies in ascending order, as
/// [`percentile`] takes them.
pub fn sorted_latencies(stats: &StreamStats) -> Vec<f64> {
    let mut sorted: Vec<f64> = stats.latencies.iter().map(|&l| l as f64).collect();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Renders the per-trial table plus the pooled summary line.
pub fn render(result: &StreamResult) -> String {
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.trial.to_string(),
                r.arrivals.to_string(),
                r.admitted.to_string(),
                r.completed.to_string(),
                r.dropped.to_string(),
                report::f3(r.requests_per_sec),
                report::f3(r.latency_p50),
                report::f3(r.latency_p99),
            ]
        })
        .collect();
    let p = &result.pooled;
    let sorted = sorted_latencies(p);
    format!(
        "Streaming scenario: open Poisson load on a {}-node / {}-fiber BA network ({} trials)\n{}\npooled: {} arrivals, {} admitted, {} completed, {} failed, {} deferred; \
drops {} (unroutable {}, capacity {}, pool {}); {} req/s, p50 {}, p99 {} ticks\n",
        result.num_nodes,
        result.num_fibers,
        result.rows.len(),
        report::table(
            &[
                "trial", "arrivals", "admitted", "completed", "dropped", "req_per_s", "lat_p50",
                "lat_p99",
            ],
            &rows
        ),
        p.arrivals,
        p.admitted,
        p.completed,
        p.failed,
        p.deferred,
        p.dropped(),
        p.dropped_unroutable,
        p.dropped_capacity,
        p.dropped_pool,
        report::f3(p.requests_per_sec()),
        report::f3(percentile(&sorted, 0.50)),
        report::f3(percentile(&sorted, 0.99)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down variant for tests: same contention structure,
    /// 1/10th the network and horizon.
    fn small_params() -> StreamParams {
        let mut params = StreamParams::default();
        params.net.num_nodes = 120;
        params.net.num_servers = 6;
        params.net.num_switches = 18;
        params.sim.horizon = 800;
        params
    }

    #[test]
    fn stream_run_is_deterministic() {
        let params = small_params();
        let a = run(&params, 2, 9_100);
        let b = run(&params, 2, 9_100);
        assert_eq!(a, b);
    }

    #[test]
    fn tight_resources_produce_both_admissions_and_drops() {
        let result = run(&small_params(), 2, 9_200);
        assert!(result.pooled.admitted > 0, "no request was ever admitted");
        assert!(
            result.pooled.dropped() > 0,
            "tight pools/memories should force drops"
        );
        assert!(result.pooled.completed > 0);
        assert_eq!(
            result.pooled.arrivals,
            result.pooled.admitted + result.pooled.dropped()
        );
    }

    #[test]
    fn render_mentions_pooled_taxonomy() {
        let result = run(&small_params(), 1, 9_300);
        let text = render(&result);
        assert!(text.contains("pooled:"));
        assert!(text.contains("unroutable"));
        assert!(text.contains("capacity"));
        assert!(text.contains("pool"));
    }
}
