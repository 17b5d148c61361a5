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
    arg_or, args, flatten, report_json, telemetry_dump, telemetry_init, trace_finish,
};
use surfnet_core::experiments::stream::{self, StreamParams};
use surfnet_telemetry::json::Value;

fn main() {
    telemetry_init();
    let args = args(&["--trials", "--seed", "--rate", "--horizon", "--nodes"]);
    let trials = arg_or(&args, "--trials", 4usize);
    let seed = arg_or(&args, "--seed", 90_000u64);
    let mut params = StreamParams::default();
    params.arrival_rate = arg_or(&args, "--rate", params.arrival_rate);
    params.sim.horizon = arg_or(&args, "--horizon", params.sim.horizon);
    let nodes = arg_or(&args, "--nodes", params.net.num_nodes);
    // Keep the default scenario's relay ratios (40 servers / 160 switches
    // per 1200 nodes) at any scale.
    params.net.num_nodes = nodes;
    params.net.num_servers = (nodes / 30).max(1);
    params.net.num_switches = (nodes * 2 / 15).max(1);
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
