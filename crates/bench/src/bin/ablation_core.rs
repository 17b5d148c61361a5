//! Ablation: Core-topology geometry (paper Sec. IV: "the specific selection
//! of data qubits and geometry for the Core part ... is a future
//! improvement"). Compares logical error rates when the high-fidelity Core
//! is the cross (default), the middle row only, the middle column only, or
//! absent (uniform rates), at the paper's Fig. 8 operating point.
//!
//! Usage: `cargo run -p surfnet-bench --release --bin ablation_core -- [--trials N]`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_bench::{arg_in, args, report_json, telemetry_dump, telemetry_init, trace_finish};
use surfnet_core::experiments::runner::{count_failed_shots, default_workers};
use surfnet_decoder::SurfNetDecoder;
use surfnet_lattice::{CoreTopology, ErrorModel, SurfaceCode};
use surfnet_telemetry::json::Value;

fn main() {
    telemetry_init();
    let args = args(&["--trials", "--distance", "--pauli", "--erasure"]);
    let trials = arg_in(&args, "--trials", 1500usize, "at least 1", |&n| n >= 1);
    let distance = arg_in(&args, "--distance", 9usize, "odd and at least 3", |&d| {
        d >= 3 && !d.is_multiple_of(2)
    });
    let probability = |p: &f64| (0.0..=1.0).contains(p);
    let p = arg_in(&args, "--pauli", 0.07f64, "in [0, 1]", probability);
    let pe = arg_in(&args, "--erasure", 0.15f64, "in [0, 1]", probability);
    let code = SurfaceCode::new(distance).expect("valid distance");
    println!(
        "core-topology ablation: d={distance}, pauli {:.1}%, erasure {:.1}%, {trials} trials",
        p * 100.0,
        pe * 100.0
    );
    let cases: Vec<(&str, &str, Option<CoreTopology>)> = vec![
        ("none (uniform)", "none", None),
        ("cross", "cross", Some(CoreTopology::Cross)),
        ("middle-row", "middle-row", Some(CoreTopology::MiddleRow)),
        (
            "middle-column",
            "middle-column",
            Some(CoreTopology::MiddleColumn),
        ),
    ];
    let mut metrics = Vec::new();
    for (label, key, topology) in cases {
        let model = match topology {
            None => ErrorModel::uniform(&code, p, pe),
            Some(t) => {
                let part = code.core_partition(t);
                ErrorModel::dual_channel(&code, &part, p, pe)
            }
        };
        let decoder = SurfNetDecoder::from_model(&code, &model);
        let rng = SmallRng::seed_from_u64(11);
        let failures = count_failed_shots(&decoder, &code, &model, rng, trials, default_workers());
        let error_rate = failures as f64 / trials as f64;
        println!("  {label:<16} logical error rate {error_rate:.4}");
        metrics.push((format!("{key}/logical_error_rate"), error_rate));
    }
    report_json::emit(
        "ablation_core",
        vec![
            ("trials", Value::from(trials)),
            ("distance", Value::from(distance)),
            ("pauli", Value::Num(p)),
            ("erasure", Value::Num(pe)),
        ],
        &metrics,
    );
    telemetry_dump("ablation_core");
    trace_finish();
}
