//! Routing benchmarks: LP build + solve time of the Eqs. 1–6 relaxation,
//! and a full scheduling round, on the reference scenario.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_netsim::generate::{barabasi_albert, NetworkConfig};
use surfnet_netsim::request::random_requests;
use surfnet_routing::formulation::build;
use surfnet_routing::{ChannelMode, RoutingParams, SurfNetScheduler};

fn setup() -> (
    surfnet_netsim::Network,
    Vec<surfnet_netsim::Request>,
    RoutingParams,
) {
    let mut rng = SmallRng::seed_from_u64(99);
    let net = barabasi_albert(&NetworkConfig::default(), &mut rng).unwrap();
    let requests = random_requests(&net, 5, 3, &mut rng);
    let params = RoutingParams {
        n_core: 9,
        m_support: 32,
        omega: 0.15,
        w_core: 0.9,
        w_total: 0.7,
    };
    (net, requests, params)
}

fn bench_routing(c: &mut Criterion) {
    let (net, requests, params) = setup();
    c.bench_function("lp-build", |b| {
        b.iter(|| build(&net, &requests, &params, ChannelMode::DualChannel))
    });
    let form = build(&net, &requests, &params, ChannelMode::DualChannel);
    c.bench_function("lp-solve", |b| b.iter(|| form.lp.maximize().unwrap()));
    let scheduler = SurfNetScheduler::new(params);
    c.bench_function("schedule-surfnet", |b| {
        b.iter(|| scheduler.schedule(&net, &requests).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_routing
}
criterion_main!(benches);
