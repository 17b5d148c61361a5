//! Bit-identity golden test for the simplex solver on the Fig. 7 programs.
//!
//! Builds the exact linear programs that the SurfNet and Raw schedulers
//! solve in Fig. 7 trials — the four `fig7::scenarios()` × eight seeds from
//! 70,000, with the network and requests drawn in `run_trial`'s RNG order —
//! solves each, and folds every solution into one FNV-1a digest. The digest
//! was recorded from the dense reference solver; any change to the pivot
//! sequence (entering column, leaving row, iteration count) moves at least
//! one solution bit and therefore the digest. A second digest pins the
//! programs themselves, through their `Debug` rendering (Rust's `f64`
//! `Debug` output round-trips, so it is exact), so a change to the
//! formulation's build is judged apart from the solver.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_core::experiments::fig7;
use surfnet_core::pipeline::params_for_partition;
use surfnet_core::TrialConfig;
use surfnet_lattice::{CoreTopology, SurfaceCode};
use surfnet_lp::{LinearProgram, LpError};
use surfnet_netsim::generate::barabasi_albert;
use surfnet_netsim::request::random_requests;
use surfnet_routing::formulation::build;
use surfnet_routing::{ChannelMode, RawScheduler};

const SEEDS: u64 = 8;
const BASE_SEED: u64 = 70_000;
/// FNV-1a digest of every solution, recorded from the dense reference solver.
const GOLDEN_DIGEST: u64 = 0x8b45_95aa_a6c3_7069;
/// FNV-1a digest of every program's `Debug` rendering, recorded from the
/// formulation that filtered every directed edge per node and merged
/// duplicate terms by linear search.
const BUILD_DIGEST: u64 = 0x2011_619b_1ea1_e5c3;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The {SurfNet, Raw} programs of one Fig. 7 trial, in design order.
fn trial_programs(cfg: &TrialConfig, seed: u64) -> Vec<LinearProgram> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let net = barabasi_albert(&cfg.scenario.network_config(), &mut rng).expect("network");
    let requests = random_requests(&net, cfg.num_requests, cfg.max_codes_per_request, &mut rng);
    if requests.is_empty() {
        return Vec::new();
    }
    let code = SurfaceCode::new(cfg.code_distance).expect("code");
    let params = params_for_partition(&cfg.params, &code.core_partition(CoreTopology::Cross));
    // Raw's LP sees the relay capacity bonus through a scaled clone.
    let factor = RawScheduler::new(params).capacity_factor;
    let mut scaled = net.clone();
    for v in 0..scaled.num_nodes() {
        let c = scaled.node(v).capacity;
        scaled.node_mut(v).capacity = (c as f64 * factor) as u32;
    }
    vec![
        build(&net, &requests, &params, ChannelMode::DualChannel).lp,
        build(&scaled, &requests, &params, ChannelMode::PlainOnly).lp,
    ]
}

#[test]
fn fig7_programs_solve_bit_identically() {
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut programs = 0;
    for scenario in fig7::scenarios() {
        let mut cfg = TrialConfig::default();
        cfg.scenario = scenario;
        for seed in BASE_SEED..BASE_SEED + SEEDS {
            for lp in trial_programs(&cfg, seed) {
                programs += 1;
                match lp.maximize() {
                    Ok(sol) => {
                        digest.word(0);
                        digest.word(sol.objective.to_bits());
                        for v in sol.values {
                            // `+ 0.0` maps -0.0 to 0.0 and leaves every other value alone.
                            digest.word((v + 0.0).to_bits());
                        }
                    }
                    Err(e) => digest.word(match e {
                        LpError::Infeasible => 1,
                        LpError::Unbounded => 2,
                        LpError::IterationLimit => 3,
                        _ => 4,
                    }),
                }
            }
        }
    }
    assert_eq!(programs, 64, "4 scenarios x 8 seeds x {{SurfNet, Raw}}");
    assert_eq!(
        digest.0, GOLDEN_DIGEST,
        "solutions moved: digest {:#018x}",
        digest.0
    );
}

#[test]
fn fig7_programs_build_identically() {
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut programs = 0;
    for scenario in fig7::scenarios() {
        let mut cfg = TrialConfig::default();
        cfg.scenario = scenario;
        for seed in BASE_SEED..BASE_SEED + SEEDS {
            for lp in trial_programs(&cfg, seed) {
                programs += 1;
                digest.bytes(format!("{lp:?}").as_bytes());
            }
        }
    }
    assert_eq!(programs, 64, "4 scenarios x 8 seeds x {{SurfNet, Raw}}");
    assert_eq!(
        digest.0, BUILD_DIGEST,
        "programs moved: digest {:#018x}",
        digest.0
    );
}
