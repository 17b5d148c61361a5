//! Network routing: schedule a batch of requests on a random
//! Barabási–Albert network with the LP-based SurfNet scheduler, execute
//! the schedule online, and compare against the Raw and Purification
//! baselines.
//!
//! ```sh
//! cargo run --example network_routing
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet::core::pipeline::{run_trial_on, Design};
use surfnet::core::scenario::TrialConfig;
use surfnet::netsim::generate::{barabasi_albert, NetworkConfig};
use surfnet::netsim::request::random_requests;
use surfnet::routing::{RoutingParams, SurfNetScheduler};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(20_24);
    let net = barabasi_albert(&NetworkConfig::default(), &mut rng)?;
    println!(
        "network: {} nodes ({} users, {} switches+servers of which {} servers), {} fibers",
        net.num_nodes(),
        net.users().len(),
        net.relays().len(),
        net.servers().len(),
        net.num_fibers()
    );

    let requests = random_requests(&net, 5, 3, &mut rng);
    for (k, r) in requests.iter().enumerate() {
        println!(
            "request {k}: user {} -> user {} ({} codes)",
            r.src, r.dst, r.num_codes
        );
    }

    let params = RoutingParams {
        n_core: 9,
        m_support: 32,
        omega: 0.15,
        w_core: 0.9,
        w_total: 0.7,
    };

    // Offline scheduling: the LP relaxation of Eqs. 1-6 with rounding.
    let schedule = SurfNetScheduler::new(params).schedule(&net, &requests)?;
    println!(
        "\nSurfNet LP schedule: {}/{} codes scheduled (throughput {:.2})",
        schedule.total_scheduled(),
        schedule.requested_per_request.iter().sum::<u32>(),
        schedule.throughput()
    );
    for code in schedule.codes.iter().take(5) {
        let hops: usize = code
            .plan
            .segments
            .iter()
            .map(|s| s.support_route.len())
            .sum();
        println!(
            "  request {} via {} hops, {} segment(s), {} error correction(s)",
            code.request,
            hops,
            code.plan.segments.len(),
            code.corrections
        );
    }

    // Full pipeline on the same network: execution + decoding.
    let cfg = TrialConfig::default();
    for design in [Design::SurfNet, Design::Raw, Design::Purification(2)] {
        let mut rng = SmallRng::seed_from_u64(99);
        let m = run_trial_on(design, &cfg, &net, &requests, &mut rng)?;
        println!(
            "{:<18} fidelity {:.3}  latency {:>6.1}  throughput {:.2}",
            design.label(),
            m.fidelity,
            m.latency,
            m.throughput
        );
    }
    Ok(())
}
