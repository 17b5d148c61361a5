//! Telemetry overhead: what the instrumentation left compiled into the hot
//! paths costs. The bench measures; it sets no bound.
//!
//! Two angles:
//!
//! * micro — the raw `count!`/`span!` macro cost with telemetry disabled
//!   (one relaxed atomic load + branch) vs enabled (thread-local shard
//!   update);
//! * macro — a full SurfNet decode, instrumented as shipped, with
//!   telemetry disabled vs enabled.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_decoder::{Decoder, SurfNetDecoder};
use surfnet_lattice::{CoreTopology, ErrorModel, ErrorSample, SurfaceCode};
use surfnet_telemetry::Telemetry;

fn samples(model: &ErrorModel, count: usize, seed: u64) -> Vec<ErrorSample> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count).map(|_| model.sample(&mut rng)).collect()
}

fn bench_macro_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry-macro");
    Telemetry::disabled();
    group.bench_function("count-disabled", |b| {
        b.iter(|| {
            surfnet_telemetry::count!("bench.overhead.counter", black_box(1u64));
        })
    });
    group.bench_function("span-disabled", |b| {
        b.iter(|| {
            let _span = surfnet_telemetry::span!("bench.overhead.span");
            black_box(());
        })
    });
    Telemetry::enabled();
    group.bench_function("count-enabled", |b| {
        b.iter(|| {
            surfnet_telemetry::count!("bench.overhead.counter", black_box(1u64));
        })
    });
    group.bench_function("span-enabled", |b| {
        b.iter(|| {
            let _span = surfnet_telemetry::span!("bench.overhead.span");
            black_box(());
        })
    });
    Telemetry::disabled();
    surfnet_telemetry::reset();
    group.finish();
}

fn bench_decode_overhead(c: &mut Criterion) {
    let code = SurfaceCode::new(9).unwrap();
    let partition = code.core_partition(CoreTopology::Cross);
    let model = ErrorModel::dual_channel(&code, &partition, 0.06, 0.15);
    let batch = samples(&model, 32, 42);
    let decoder = SurfNetDecoder::from_model(&code, &model);

    let mut group = c.benchmark_group("telemetry-decode");
    Telemetry::disabled();
    group.bench_function("surfnet-d9-disabled", |b| {
        let mut i = 0;
        b.iter(|| {
            let s = &batch[i % batch.len()];
            i += 1;
            decoder.decode_sample(&code, s)
        })
    });
    Telemetry::enabled();
    group.bench_function("surfnet-d9-enabled", |b| {
        let mut i = 0;
        b.iter(|| {
            let s = &batch[i % batch.len()];
            i += 1;
            decoder.decode_sample(&code, s)
        })
    });
    Telemetry::disabled();
    surfnet_telemetry::reset();
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_macro_cost, bench_decode_overhead
}
criterion_main!(benches);
