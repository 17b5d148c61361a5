//! The paper's three decoders on the same shots: the modified MWPM
//! (Algorithm 1; Theorem 1, Corollary 1.1), the Union-Find baseline and
//! the SurfNet Decoder (Algorithm 2, Theorem 2), at distances 5/7/9 over
//! Fig. 8's Pauli grid and erasure rate. Prints each decoder's logical
//! error rates and its wall-clock µs per shot at each distance.
//!
//! Usage: `cargo run -p surfnet-bench --release --bin fig_decoders -- \
//!     [--trials N] [--seed S]`

use std::time::Instant;
use surfnet_bench::{
    arg_in, args, flatten, report_json, seed_arg, telemetry_dump, telemetry_init, trace_finish,
};
use surfnet_core::experiments::fig8::{self, ThresholdCurves};
use surfnet_core::experiments::runner::default_workers;
use surfnet_core::{report, DecoderKind};
use surfnet_decoder::{Decoder, MwpmDecoder};
use surfnet_lattice::{ErrorModel, SurfaceCode};
use surfnet_telemetry::json::Value;

/// Small enough for MWPM's blossom matcher: a d = 9 shot already costs it
/// close to 1 ms on one core.
const DISTANCES: [usize; 3] = [5, 7, 9];

type Build = fn(&SurfaceCode, &ErrorModel) -> Box<dyn Decoder + Sync>;

fn main() {
    telemetry_init();
    let args = args(&["--trials", "--seed"]);
    let trials = arg_in(&args, "--trials", 400usize, "at least 1", |&n| n >= 1);
    let seed = seed_arg(&args, 85_000u64, 1);
    let rates = fig8::paper_rates();
    let decoders: [(&str, Build); 3] = [
        ("MWPM", |c, m| Box::new(MwpmDecoder::from_model(c, m))),
        ("Union-Find", |c, m| DecoderKind::UnionFind.build(c, m)),
        ("SurfNet Decoder", |c, m| DecoderKind::SurfNet.build(c, m)),
    ];
    let shots = (rates.len() * trials) as f64;
    let mut metrics = Vec::new();
    let mut costs = Vec::new();
    for (name, build) in decoders {
        let mut points = Vec::new();
        let mut row = vec![name.to_string()];
        // One call per distance, so each distance gets its own time. Every
        // decoder sees the same shots: a point's seed ignores the decoder.
        for d in DISTANCES {
            let start = Instant::now();
            let curves =
                fig8::run_with(name, build, &[d], &rates, fig8::ERASURE_RATE, trials, seed);
            let us_per_shot = start.elapsed().as_secs_f64() * 1e6 / shots;
            row.push(format!("{us_per_shot:.1}"));
            points.extend(curves.points);
        }
        let curves = ThresholdCurves {
            decoder: name.to_string(),
            threshold: fig8::estimate_threshold(&points),
            points,
        };
        println!("{}", fig8::render(&curves));
        metrics.extend(flatten::fig8(&curves));
        costs.push(row);
    }
    // Wall-clock time stays out of the report, whose metrics are seeded.
    println!(
        "µs per shot, sampling, decoder builds and scoring included (worker threads: {})",
        default_workers()
    );
    let headers: Vec<String> = DISTANCES.iter().map(|d| format!("d={d}")).collect();
    let mut header_refs = vec!["decoder"];
    header_refs.extend(headers.iter().map(String::as_str));
    print!("{}", report::table(&header_refs, &costs));
    report_json::emit(
        "fig_decoders",
        vec![
            ("trials", Value::from(trials)),
            ("seed", Value::from(seed)),
            ("erasure_rate", Value::Num(fig8::ERASURE_RATE)),
        ],
        &metrics,
    );
    telemetry_dump("fig_decoders");
    trace_finish();
}
