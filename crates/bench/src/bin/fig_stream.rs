//! Streaming scenario: sustained open Poisson arrivals on a large
//! Barabási–Albert network through the discrete-event engine, reporting
//! sustained requests/sec, completed-transfer latency percentiles, and
//! the admission-control drop taxonomy.
//!
//! Usage: `cargo run -p surfnet-bench --release --bin fig_stream -- \
//!   [--trials N] [--seed S] [--rate R] [--nodes N] [--horizon H]`
//!
//! `--nodes` rescales the server/switch counts with the default 1200-node
//! scenario's ratios.

use surfnet_bench::{
    arg_in, args, flatten, report_json, seed_arg, telemetry_dump, telemetry_init, trace_finish,
};
use surfnet_core::experiments::stream::{self, StreamParams};
use surfnet_netsim::generate::NetworkConfig;
use surfnet_telemetry::json::Value;

/// `net` at `nodes` nodes, keeping the default scenario's relay ratios
/// (40 servers / 160 switches per 1200 nodes) at any scale.
fn rescaled(net: &NetworkConfig, nodes: usize) -> NetworkConfig {
    NetworkConfig {
        num_nodes: nodes,
        num_servers: (nodes / 30).max(1),
        num_switches: (nodes * 2 / 15).max(1),
        ..net.clone()
    }
}

fn main() {
    telemetry_init();
    let args = args(&["--trials", "--seed", "--rate", "--horizon", "--nodes"]);
    let trials = arg_in(&args, "--trials", 4usize, "at least 1", |&n| n >= 1);
    let seed = seed_arg(&args, 90_000u64, trials as u64);
    let mut params = StreamParams::default();
    // At most one arrival per tick: `simulate` cannot represent more.
    params.arrival_rate = arg_in(&args, "--rate", params.arrival_rate, "in (0, 1]", |&r| {
        r > 0.0 && r <= 1.0
    });
    // The first arrival comes at tick 1 at the earliest.
    params.sim.horizon = arg_in(&args, "--horizon", params.sim.horizon, "at least 1", |&h| {
        h >= 1
    });
    let nodes = arg_in(
        &args,
        "--nodes",
        params.net.num_nodes,
        "a node count whose rescaled network is valid and has at least two users",
        |&n| {
            let net = rescaled(&params.net, n);
            net.validate().is_ok() && net.num_nodes - net.num_servers - net.num_switches >= 2
        },
    );
    params.net = rescaled(&params.net, nodes);
    let result = stream::run(&params, trials, seed);
    print!("{}", stream::render(&result));
    report_json::emit(
        "stream",
        vec![
            ("trials", Value::from(trials)),
            ("seed", Value::from(seed)),
            ("rate", Value::from(params.arrival_rate)),
            ("nodes", Value::from(nodes)),
            ("horizon", Value::from(params.sim.horizon)),
        ],
        &flatten::stream(&result),
    );
    telemetry_dump("stream");
    trace_finish();
}
