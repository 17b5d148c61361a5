//! The three workloads: what one call is, how the untraced run makes it
//! through the public experiment entry points, and how the traced run
//! splits the same call into timed calls to each layer's public
//! functions.
//!
//! The traced split is a copy of `pipeline::run_trial`,
//! `experiments::fig8::run` and `experiments::stream::run` made of the
//! same public calls in the same order, so it consumes the RNG the same
//! way and returns bit-identical results; the tests below and the
//! `result_digest` comparison of every traced run hold it to that.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use surfnet_core::evaluate::DecoderCache;
use surfnet_core::experiments::fig7;
use surfnet_core::experiments::fig8;
use surfnet_core::experiments::stream::{self, StreamParams};
use surfnet_core::pipeline::{params_for_partition, run_trial};
use surfnet_core::{DecoderKind, Design, PipelineError, TrialConfig, TrialMetrics};
use surfnet_decoder::{Decoder, SurfNetDecoder, UnionFindDecoder};
use surfnet_lattice::{CoreTopology, ErrorModel, SurfaceCode};
use surfnet_netsim::event::{
    execute_plan_event, plan_request, simulate, ArrivalProcess, StreamConfig, StreamStats,
};
use surfnet_netsim::execution::{execute_plan, execute_teleportation};
use surfnet_netsim::generate::barabasi_albert;
use surfnet_netsim::request::{random_requests, Request};
use surfnet_netsim::topology::Network;
use surfnet_routing::formulation::build;
use surfnet_routing::{
    ChannelMode, PurificationScheduler, RawScheduler, RoutingParams, SurfNetScheduler,
};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7 trials: LP-bound.
    Fig7,
    /// Fig. 8 threshold points: decode-bound.
    Fig8,
    /// Streaming runs on the event engine: planning-bound.
    Stream,
}

impl Workload {
    /// Every workload, in the order a full run visits them.
    pub const ALL: [Workload; 3] = [Workload::Fig7, Workload::Fig8, Workload::Stream];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7 => "fig7",
            Workload::Fig8 => "fig8",
            Workload::Stream => "stream",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Base seed at `--seed 0`.
    fn default_base_seed(self) -> u64 {
        match self {
            Workload::Fig7 => 70_000,
            Workload::Fig8 => 80_000,
            Workload::Stream => 90_000,
        }
    }

    /// The percentile reported as `call_tail_ms`: the highest one that
    /// leaves at least ten calls beyond it in a pass of the full sizes
    /// (3,200 / 120 / 40 calls leave 32 / 12 / 10).
    pub fn tail_pct(self) -> u32 {
        match self {
            Workload::Fig7 => 99,
            Workload::Fig8 => 90,
            Workload::Stream => 75,
        }
    }

    /// What `work_per_s` counts.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::Fig7 => "trial",
            Workload::Fig8 => "shot",
            Workload::Stream => "arrival",
        }
    }
}

/// How much work one pass of each workload holds.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Trials per Fig. 7 (scenario, design) cell.
    pub fig7_seeds: u64,
    /// Fig. 8 code distances.
    pub fig8_distances: Vec<usize>,
    /// Fig. 8 Pauli rates.
    pub fig8_rates: Vec<f64>,
    /// Shots per Fig. 8 point.
    pub fig8_shots: usize,
    /// Streaming scenario.
    pub stream: StreamParams,
    /// Streaming runs per pass.
    pub stream_calls: u64,
}

impl Sizes {
    /// The benchmark's sizes: 3,200 trials, 120 points of 1,600 shots,
    /// 40 streaming runs on the default 1,200-node scenario.
    pub fn full() -> Sizes {
        Sizes {
            fig7_seeds: 160,
            fig8_distances: fig8::paper_distances(),
            fig8_rates: fig8::paper_rates(),
            fig8_shots: 1_600,
            stream: StreamParams::default(),
            stream_calls: 40,
        }
    }

    /// Plumbing-check sizes for the tests, which finish in about a second.
    #[cfg(test)]
    pub fn smoke() -> Sizes {
        let mut stream = StreamParams::default();
        stream.net.num_nodes = 120;
        stream.net.num_servers = 6;
        stream.net.num_switches = 18;
        stream.sim.horizon = 400;
        Sizes {
            fig7_seeds: 1,
            fig8_distances: vec![5],
            fig8_rates: vec![0.05, 0.07],
            fig8_shots: 50,
            stream,
            stream_calls: 2,
        }
    }
}

/// One call of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Unit {
    /// One `run_trial` of a Fig. 7 cell.
    Trial {
        /// Index into [`Plan::configs`].
        scenario: usize,
        /// Network design.
        design: Design,
        /// Trial seed.
        seed: u64,
    },
    /// One Fig. 8 point: `fig8::run` on a single (distance, rate).
    Point {
        /// Decoder under test.
        decoder: DecoderKind,
        /// Code distance.
        distance: usize,
        /// Support-part Pauli rate.
        rate: f64,
    },
    /// One streaming run: `stream::run(params, 1, seed)`.
    Stream {
        /// Run seed.
        seed: u64,
    },
}

/// A workload instantiated for one seed: the ordered calls of one pass.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Base seed after the `--seed` shift.
    pub base_seed: u64,
    /// Fig. 7 trial configuration per scenario.
    pub configs: Vec<TrialConfig>,
    /// Shots per Fig. 8 point.
    pub shots: usize,
    /// Streaming scenario.
    pub stream: StreamParams,
    /// The calls of one pass, in order.
    pub units: Vec<Unit>,
}

impl Plan {
    /// Builds the calls of `workload` for `--seed shift`. Each shift moves
    /// every base seed by 1,000, more than any workload uses, so distinct
    /// shifts never share an input.
    pub fn new(workload: Workload, shift: u64, sizes: &Sizes) -> Plan {
        let base_seed = workload
            .default_base_seed()
            .wrapping_add(shift.wrapping_mul(1_000));
        let configs: Vec<TrialConfig> = fig7::scenarios()
            .into_iter()
            .map(|scenario| TrialConfig {
                scenario,
                ..TrialConfig::default()
            })
            .collect();
        let units = match workload {
            // Seed-major, so the first 20 calls cover every cell once.
            Workload::Fig7 => (0..sizes.fig7_seeds)
                .flat_map(|i| {
                    (0..configs.len()).flat_map(move |scenario| {
                        Design::FIG7.into_iter().map(move |design| Unit::Trial {
                            scenario,
                            design,
                            seed: base_seed.wrapping_add(i),
                        })
                    })
                })
                .collect(),
            Workload::Fig8 => [DecoderKind::UnionFind, DecoderKind::SurfNet]
                .into_iter()
                .flat_map(|decoder| {
                    sizes.fig8_distances.iter().flat_map(move |&distance| {
                        sizes.fig8_rates.iter().map(move |&rate| Unit::Point {
                            decoder,
                            distance,
                            rate,
                        })
                    })
                })
                .collect(),
            Workload::Stream => (0..sizes.stream_calls)
                .map(|t| Unit::Stream {
                    seed: base_seed.wrapping_add(t),
                })
                .collect(),
        };
        Plan {
            workload,
            base_seed,
            configs,
            shots: sizes.fig8_shots,
            stream: sizes.stream.clone(),
            units,
        }
    }

    /// The untimed warm-up before timing: one Fig. 7 trial per cell, so
    /// that both the LP and the purification paths are warm, or the first
    /// call of the other workloads.
    pub fn warmup(&self) -> &[Unit] {
        let n = match self.workload {
            Workload::Fig7 => fig7::scenarios().len() * Design::FIG7.len(),
            Workload::Fig8 | Workload::Stream => 1,
        };
        &self.units[..n.min(self.units.len())]
    }

    /// Makes one call through the public experiment entry point.
    pub fn call(&self, unit: &Unit) -> CallResult {
        match *unit {
            Unit::Trial {
                scenario,
                design,
                seed,
            } => CallResult::Trial(run_trial(design, &self.configs[scenario], seed)),
            Unit::Point {
                decoder,
                distance,
                rate,
            } => {
                let curves = fig8::run(
                    decoder,
                    &[distance],
                    &[rate],
                    fig8::ERASURE_RATE,
                    self.shots,
                    self.base_seed,
                );
                let p = curves.points[0];
                CallResult::Point {
                    failures: (p.logical_error_rate * p.trials as f64).round() as usize,
                    shots: p.trials,
                }
            }
            Unit::Stream { seed } => CallResult::Stream(stream::run(&self.stream, 1, seed).pooled),
        }
    }

    /// Makes the same call as [`Self::call`] split into timed calls to
    /// each layer, accumulating into `layers`.
    pub fn call_traced(&self, unit: &Unit, layers: &mut Layers) -> CallResult {
        match *unit {
            Unit::Trial {
                scenario,
                design,
                seed,
            } => CallResult::Trial(traced_trial(design, &self.configs[scenario], seed, layers)),
            Unit::Point {
                decoder,
                distance,
                rate,
            } => traced_point(decoder, distance, rate, self.shots, self.base_seed, layers),
            Unit::Stream { seed } => CallResult::Stream(traced_stream(&self.stream, seed, layers)),
        }
    }
}

/// What one call returned.
#[derive(Debug)]
pub enum CallResult {
    /// A Fig. 7 trial.
    Trial(Result<TrialMetrics, PipelineError>),
    /// A Fig. 8 point.
    Point {
        /// Shots with a logical error.
        failures: usize,
        /// Shots run.
        shots: usize,
    },
    /// A streaming run.
    Stream(StreamStats),
}

impl CallResult {
    /// Work units completed: a successful trial, a shot, an arrival.
    pub fn work(&self) -> u64 {
        match self {
            CallResult::Trial(r) => u64::from(r.is_ok()),
            CallResult::Point { shots, .. } => *shots as u64,
            CallResult::Stream(stats) => stats.arrivals,
        }
    }

    /// Checks the call's output for internal consistency.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant, or the call's own error.
    pub fn check(&self) -> Result<(), String> {
        match self {
            CallResult::Trial(Err(e)) => Err(format!("trial failed: {e}")),
            CallResult::Trial(Ok(m)) => {
                if !(0.0..=1.0).contains(&m.fidelity) || !(0.0..=1.0).contains(&m.throughput) {
                    Err(format!(
                        "fidelity {} / throughput {} outside [0, 1]",
                        m.fidelity, m.throughput
                    ))
                } else if m.executed > m.requested {
                    Err(format!(
                        "executed {} > requested {}",
                        m.executed, m.requested
                    ))
                } else {
                    Ok(())
                }
            }
            CallResult::Point { failures, shots } if failures > shots => {
                Err(format!("{failures} failures in {shots} shots"))
            }
            CallResult::Point { .. } => Ok(()),
            CallResult::Stream(s) => {
                if s.arrivals != s.admitted + s.dropped() {
                    Err(format!(
                        "arrivals {} != admitted {} + dropped {}",
                        s.arrivals,
                        s.admitted,
                        s.dropped()
                    ))
                } else if s.admitted != s.completed + s.failed {
                    Err(format!(
                        "admitted {} != completed {} + failed {}",
                        s.admitted, s.completed, s.failed
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Feeds the bit patterns of the result into `digest`.
    pub fn hash_into(&self, digest: &mut Fnv) {
        match self {
            CallResult::Trial(Ok(m)) => {
                for w in [
                    0,
                    m.fidelity.to_bits(),
                    m.latency.to_bits(),
                    m.throughput.to_bits(),
                    u64::from(m.executed),
                    u64::from(m.requested),
                ] {
                    digest.word(w);
                }
            }
            CallResult::Trial(Err(_)) => digest.word(1),
            CallResult::Point { failures, shots } => {
                digest.word(*failures as u64);
                digest.word(*shots as u64);
            }
            CallResult::Stream(s) => {
                for w in [
                    s.arrivals,
                    s.admitted,
                    s.completed,
                    s.failed,
                    s.deferred,
                    s.dropped_unroutable,
                    s.dropped_capacity,
                    s.dropped_pool,
                    s.end_time,
                ] {
                    digest.word(w);
                }
                s.latencies.iter().for_each(|&l| digest.word(l));
            }
        }
    }
}

/// 64-bit FNV-1a over little-endian words.
#[derive(Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorbs one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Per-layer accumulators of a traced pass. Times are nanoseconds;
/// `probe_ns` is time spent re-running a layer outside the call to
/// measure it, which the traced wall time excludes.
#[derive(Debug, Default)]
pub struct Layers {
    /// `barabasi_albert` + `random_requests`.
    pub generate_ns: f64,
    /// Scheduler calls minus the LP probe's build + solve.
    pub routing_ns: f64,
    /// `formulation::build` in the LP probe.
    pub lp_build_ns: f64,
    /// `LinearProgram::maximize` in the LP probe.
    pub lp_solve_ns: f64,
    /// `execute_plan`.
    pub entangle_ns: f64,
    /// `execute_teleportation`.
    pub purify_ns: f64,
    /// `DecoderCache::evaluate_transfers` (decoders inside included).
    pub evaluate_ns: f64,
    /// `{SurfNet,UnionFind}Decoder::from_model`.
    pub decoder_build_ns: f64,
    /// `Decoder::decode`.
    pub decode_ns: f64,
    /// `ErrorModel::sample`.
    pub sample_ns: f64,
    /// `SurfaceCode::extract_syndrome`.
    pub syndrome_ns: f64,
    /// `SurfaceCode::score_correction`.
    pub score_ns: f64,
    /// `event::simulate`.
    pub simulate_ns: f64,
    /// Probe time, excluded from the traced wall time.
    pub probe_ns: f64,
    /// Codes requested by the scheduled trials.
    pub codes_requested: u64,
    /// Codes the schedulers placed.
    pub codes_scheduled: u64,
    /// Per-solve LP time, microseconds.
    pub lp_solve_us: Vec<f64>,
    /// Σ LP variables.
    pub lp_vars: u64,
    /// Σ LP constraints.
    pub lp_rows: u64,
    /// Σ simplex pivots of the probed solves.
    pub lp_pivots: u64,
    /// Σ simulated latency of every executed transfer, ticks.
    pub ticks: u64,
    /// Segments of completed transfers sampled and decoded.
    pub segments: u64,
    /// Decoders the per-trial caches built.
    pub decoders_built: u64,
    /// Per-shot decode time, microseconds.
    pub decode_us: Vec<f64>,
    /// Decode nanoseconds and shots per code distance.
    pub decode_by_distance: BTreeMap<usize, (f64, u64)>,
    /// Shots with no defect and no erasure.
    pub trivial_shots: u64,
    /// `plan_request` probe time and calls.
    pub plan_probe: (f64, u64),
    /// `execute_plan_event` probe time and calls.
    pub execute_probe: (f64, u64),
    /// Admission offers (arrivals + re-offers).
    pub offers: u64,
    /// Admitted requests.
    pub admitted: u64,
    /// Drops for saturated fiber pools.
    pub dropped_pool: u64,
    /// Drops for saturated relay memory.
    pub dropped_capacity: u64,
}

impl Layers {
    /// The self-times that tile a traced call, by per-layer metric name,
    /// in milliseconds.
    pub fn self_ms(&self) -> [(&'static str, f64); 13] {
        [
            ("netsim.generate.self_ms", self.generate_ns),
            ("routing.self_ms", self.routing_ns),
            ("lp.build_ms", self.lp_build_ns),
            ("lp.solve_ms", self.lp_solve_ns),
            ("netsim.execution.entangle_ms", self.entangle_ns),
            ("netsim.execution.purify_ms", self.purify_ns),
            ("core.evaluate.self_ms", self.evaluate_ns),
            ("decoder.build_ms", self.decoder_build_ns),
            ("decoder.decode_ms", self.decode_ns),
            ("lattice.sample_ms", self.sample_ns),
            ("lattice.syndrome_ms", self.syndrome_ns),
            ("lattice.score_ms", self.score_ns),
            ("netsim.event.simulate_ms", self.simulate_ns),
        ]
        .map(|(name, ns)| (name, ns / 1e6))
    }
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Current value of a telemetry counter (0 while telemetry is off).
pub fn counter(name: &str) -> u64 {
    surfnet_telemetry::snapshot().counter(name).unwrap_or(0)
}

/// `pipeline::run_trial`, split at its layer calls.
fn traced_trial(
    design: Design,
    cfg: &TrialConfig,
    seed: u64,
    layers: &mut Layers,
) -> Result<TrialMetrics, PipelineError> {
    // The split omits the sweep-only network rescaling and the concurrent
    // executor, which Fig. 7 never turns on.
    assert!(cfg.capacity_scale == 1.0 && cfg.entanglement_scale == 1.0);
    assert!(!cfg.concurrent_execution);
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = Instant::now();
    let net = barabasi_albert(&cfg.scenario.network_config(), &mut rng)?;
    let requests = random_requests(&net, cfg.num_requests, cfg.max_codes_per_request, &mut rng);
    layers.generate_ns += ns_since(t);
    let requested: u32 = requests.iter().map(|r| r.num_codes).sum();
    layers.codes_requested += u64::from(requested);
    // (executed, Σ success weight, Σ latency) over completed transfers.
    let mut tally = (0u32, 0.0f64, 0u64);
    match design {
        Design::SurfNet | Design::Raw => {
            let code = SurfaceCode::new(cfg.code_distance)?;
            let partition = code.core_partition(CoreTopology::Cross);
            let params = params_for_partition(&cfg.params, &partition);
            let t = Instant::now();
            let schedule = if design == Design::SurfNet {
                SurfNetScheduler::new(params).schedule(&net, &requests)?
            } else {
                RawScheduler::new(params).schedule(&net, &requests)?
            };
            layers.routing_ns += ns_since(t);
            layers.codes_scheduled += schedule.codes.len() as u64;
            lp_probe(design, &net, &requests, &params, layers);
            let t = Instant::now();
            let outcomes: Vec<_> = schedule
                .codes
                .iter()
                .map(|c| execute_plan(&net, &c.plan, &cfg.execution, &mut rng))
                .collect();
            layers.entangle_ns += ns_since(t);
            layers.ticks += outcomes.iter().map(|o| o.latency).sum::<u64>();
            let t = Instant::now();
            let mut cache = DecoderCache::new();
            let verdicts = cache.evaluate_transfers(
                &code,
                &partition,
                &outcomes,
                DecoderKind::SurfNet,
                &mut rng,
                &cfg.batch,
            )?;
            layers.evaluate_ns += ns_since(t);
            layers.decoders_built += cache.len() as u64;
            for (outcome, &ok) in outcomes.iter().zip(&verdicts) {
                if outcome.completed {
                    layers.segments += outcome.segments.len() as u64;
                    tally.0 += 1;
                    tally.1 += if ok { 1.0 } else { 0.0 };
                    tally.2 += outcome.latency;
                }
            }
        }
        Design::Purification(n) => {
            let t = Instant::now();
            let schedule = PurificationScheduler::new(n).schedule(&net, &requests)?;
            layers.routing_ns += ns_since(t);
            layers.codes_scheduled += schedule.assignments.len() as u64;
            let t = Instant::now();
            let outcomes: Vec<_> = schedule
                .assignments
                .iter()
                .map(|a| execute_teleportation(&net, &a.route, n, &cfg.execution, &mut rng))
                .collect();
            layers.purify_ns += ns_since(t);
            for outcome in &outcomes {
                layers.ticks += outcome.latency;
                if outcome.completed {
                    tally.0 += 1;
                    tally.1 += outcome.fidelity;
                    tally.2 += outcome.latency;
                }
            }
        }
    }
    // The pipeline's private `finish`, term for term.
    let (executed, weight, latency_sum) = tally;
    let per_executed = |x: f64| {
        if executed == 0 {
            0.0
        } else {
            x / f64::from(executed)
        }
    };
    Ok(TrialMetrics {
        fidelity: per_executed(weight),
        latency: per_executed(latency_sum as f64),
        throughput: if requested == 0 {
            0.0
        } else {
            f64::from(executed) / f64::from(requested)
        },
        executed,
        requested,
    })
}

/// Re-runs the LP that the SurfNet or Raw scheduler just solved on the
/// same inputs, timing `formulation::build` and `maximize` apart, and
/// moves that time from `routing` to `lp`.
fn lp_probe(
    design: Design,
    net: &Network,
    requests: &[Request],
    params: &RoutingParams,
    layers: &mut Layers,
) {
    // Both schedulers return before building an LP for no requests.
    if requests.is_empty() {
        return;
    }
    let probe = Instant::now();
    let pivots_before = counter("lp.pivots");
    let scaled;
    let (lp_net, mode) = if design == Design::Raw {
        // Raw's LP sees the relay capacity bonus through a scaled clone.
        let factor = RawScheduler::new(*params).capacity_factor;
        let mut clone = net.clone();
        for v in 0..clone.num_nodes() {
            let c = clone.node(v).capacity;
            clone.node_mut(v).capacity = (c as f64 * factor) as u32;
        }
        scaled = clone;
        (&scaled, ChannelMode::PlainOnly)
    } else {
        (net, ChannelMode::DualChannel)
    };
    let t = Instant::now();
    let form = build(lp_net, requests, params, mode);
    let build_ns = ns_since(t);
    let t = Instant::now();
    let solution = form.lp.maximize();
    let solve_ns = ns_since(t);
    black_box(solution.ok());
    layers.routing_ns -= build_ns + solve_ns;
    layers.lp_build_ns += build_ns;
    layers.lp_solve_ns += solve_ns;
    layers.lp_solve_us.push(solve_ns / 1e3);
    layers.lp_vars += form.lp.num_vars() as u64;
    layers.lp_rows += form.lp.num_constraints() as u64;
    layers.lp_pivots += counter("lp.pivots") - pivots_before;
    layers.probe_ns += ns_since(probe);
}

/// `fig8::run` on one point (its private `count_failures`), split into
/// decoder construction and per-shot sample / syndrome / decode / score.
fn traced_point(
    decoder: DecoderKind,
    distance: usize,
    rate: f64,
    shots: usize,
    base_seed: u64,
    layers: &mut Layers,
) -> CallResult {
    let code = SurfaceCode::new(distance).expect("valid distance");
    let partition = code.core_partition(CoreTopology::Cross);
    let model = ErrorModel::dual_channel(&code, &partition, rate, fig8::ERASURE_RATE);
    // fig8's per-point seed, copied; the fig8 guard test pins it.
    let seed = base_seed
        ^ (distance as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((rate * 1e6) as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = Instant::now();
    let built: Box<dyn Decoder> = match decoder {
        DecoderKind::SurfNet => Box::new(SurfNetDecoder::from_model(&code, &model)),
        DecoderKind::UnionFind => Box::new(UnionFindDecoder::from_model(&code, &model)),
    };
    layers.decoder_build_ns += ns_since(t);
    let mut failures = 0;
    let mut decode_sum = 0.0;
    for _ in 0..shots {
        let t0 = Instant::now();
        let sample = model.sample(&mut rng);
        let t1 = Instant::now();
        let syndrome = code.extract_syndrome(&sample.pauli);
        let t2 = Instant::now();
        let correction = built
            .decode(&code, &syndrome, &sample.erased)
            .expect("decoding a well-formed surface code sample cannot fail");
        let t3 = Instant::now();
        let outcome = code.score_correction(&sample.pauli, &correction);
        let t4 = Instant::now();
        let decode_ns = (t3 - t2).as_nanos() as f64;
        layers.sample_ns += (t1 - t0).as_nanos() as f64;
        layers.syndrome_ns += (t2 - t1).as_nanos() as f64;
        layers.decode_ns += decode_ns;
        layers.score_ns += (t4 - t3).as_nanos() as f64;
        layers.decode_us.push(decode_ns / 1e3);
        decode_sum += decode_ns;
        if syndrome.is_trivial() && !sample.erased.contains(&true) {
            layers.trivial_shots += 1;
        }
        if !outcome.is_success() {
            failures += 1;
        }
    }
    let slot = layers.decode_by_distance.entry(distance).or_default();
    slot.0 += decode_sum;
    slot.1 += shots as u64;
    CallResult::Point { failures, shots }
}

/// `stream::run(params, 1, seed)`, split into generation and
/// `simulate`, plus a probe of the planner and executor it calls.
fn traced_stream(params: &StreamParams, seed: u64, layers: &mut Layers) -> StreamStats {
    let config = StreamConfig {
        arrival: ArrivalProcess::Poisson {
            rate: params.arrival_rate,
        },
        ..params.sim.clone()
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = Instant::now();
    let net = barabasi_albert(&params.net, &mut rng)
        .expect("stream scenario network config is validated by construction");
    layers.generate_ns += ns_since(t);
    let t = Instant::now();
    let stats = simulate(&net, &config, &mut rng);
    layers.simulate_ns += ns_since(t);
    event_probe(&net, &config, &stats, seed, layers);
    stats
}

/// Keeps the probe's requests apart from the run's own RNG stream.
const PROBE_SALT: u64 = 0x9E0B_E5EE_D5A1_7001;

/// Times `plan_request` and `execute_plan_event` outside `simulate` on
/// as many requests as `simulate` offered, drawn the way `simulate`
/// draws them but from a separately seeded RNG.
fn event_probe(
    net: &Network,
    config: &StreamConfig,
    stats: &StreamStats,
    seed: u64,
    layers: &mut Layers,
) {
    let probe = Instant::now();
    let offers = stats.arrivals + stats.deferred;
    let users = net.users();
    let mut rng = SmallRng::seed_from_u64(seed ^ PROBE_SALT);
    for _ in 0..offers {
        let src = users[rng.gen_range(0..users.len())];
        let dst = loop {
            let d = users[rng.gen_range(0..users.len())];
            if d != src {
                break d;
            }
        };
        let request = Request::new(src, dst, rng.gen_range(1..=config.max_codes_per_request));
        let t = Instant::now();
        let plan = plan_request(net, &request);
        layers.plan_probe.0 += ns_since(t);
        layers.plan_probe.1 += 1;
        if let Some(plan) = plan {
            let t = Instant::now();
            black_box(execute_plan_event(net, &plan, &config.exec, &mut rng));
            layers.execute_probe.0 += ns_since(t);
            layers.execute_probe.1 += 1;
        }
    }
    layers.offers += offers;
    layers.admitted += stats.admitted;
    layers.dropped_pool += stats.dropped_pool;
    layers.dropped_capacity += stats.dropped_capacity;
    layers.probe_ns += ns_since(probe);
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfnet_core::metrics::MetricsSummary;

    fn traced(plan: &Plan, unit: &Unit) -> CallResult {
        plan.call_traced(unit, &mut Layers::default())
    }

    fn digest(r: &CallResult) -> u64 {
        let mut h = Fnv::default();
        r.hash_into(&mut h);
        h.0
    }

    #[test]
    fn traced_trial_equals_run_trial() {
        let plan = Plan::new(Workload::Fig7, 0, &Sizes::smoke());
        for scenario in [0, 3] {
            for design in Design::FIG7 {
                for seed in [70_000, 70_001] {
                    let expected = run_trial(design, &plan.configs[scenario], seed).unwrap();
                    let unit = Unit::Trial {
                        scenario,
                        design,
                        seed,
                    };
                    match traced(&plan, &unit) {
                        CallResult::Trial(Ok(m)) => {
                            assert_eq!(m, expected, "{} seed {seed}", design.label())
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn serial_fig7_calls_aggregate_to_the_ci_baseline_figure() {
        // `ci/BENCH_fig7.baseline.json` is `fig7 --trials 4 --seed 70000`.
        let sizes = Sizes {
            fig7_seeds: 4,
            ..Sizes::smoke()
        };
        let plan = Plan::new(Workload::Fig7, 0, &sizes);
        let figure = fig7::run(4, 70_000);
        let mut by_cell: BTreeMap<(usize, usize), Vec<TrialMetrics>> = BTreeMap::new();
        for unit in &plan.units {
            let Unit::Trial {
                scenario, design, ..
            } = *unit
            else {
                unreachable!()
            };
            let d = Design::FIG7.iter().position(|&x| x == design).unwrap();
            match plan.call(unit) {
                CallResult::Trial(Ok(m)) => by_cell.entry((scenario, d)).or_default().push(m),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(by_cell.len(), figure.cells.len());
        for (((scenario, d), trials), cell) in by_cell.iter().zip(&figure.cells) {
            let s = MetricsSummary::from_trials(trials);
            assert_eq!(cell.scenario, plan.configs[*scenario].scenario.label());
            assert_eq!(cell.design, Design::FIG7[*d].label());
            assert_eq!(
                (s.fidelity, s.throughput, s.latency_p50, s.latency_p95),
                (
                    cell.fidelity,
                    cell.throughput,
                    cell.latency_p50,
                    cell.latency_p95
                )
            );
            assert_eq!((s.latency_p99, cell.failed_trials), (cell.latency_p99, 0));
        }
    }

    #[test]
    fn traced_fig8_failures_equal_fig8_run() {
        let sizes = Sizes {
            fig8_distances: vec![5, 7],
            fig8_rates: vec![0.05, 0.08],
            fig8_shots: 200,
            ..Sizes::smoke()
        };
        let plan = Plan::new(Workload::Fig8, 3, &sizes);
        let mut layers = Layers::default();
        for unit in &plan.units {
            let Unit::Point {
                decoder,
                distance,
                rate,
            } = *unit
            else {
                unreachable!()
            };
            let curve = fig8::run(decoder, &[distance], &[rate], 0.15, 200, plan.base_seed);
            let traced = plan.call_traced(unit, &mut layers);
            let CallResult::Point { failures, shots } = traced else {
                unreachable!()
            };
            assert_eq!(shots, 200);
            assert_eq!(
                failures as f64 / shots as f64,
                curve.points[0].logical_error_rate,
                "{decoder:?} d={distance} p={rate}"
            );
            assert_eq!(digest(&traced), digest(&plan.call(unit)));
        }
        assert_eq!(layers.decode_us.len(), 8 * 200);
        assert_eq!(layers.decode_by_distance.len(), 2);
    }

    #[test]
    fn single_stream_runs_equal_rows_of_one_multi_trial_run() {
        let mut params = StreamParams::default();
        params.net.num_nodes = 120;
        params.net.num_servers = 6;
        params.net.num_switches = 18;
        params.sim.horizon = 800;
        let whole = stream::run(&params, 3, 9_100);
        let mut layers = Layers::default();
        for t in 0..3u64 {
            let single = stream::run(&params, 1, 9_100 + t);
            let row = &whole.rows[t as usize];
            assert_eq!(
                (row.arrivals, row.admitted, row.completed, row.dropped),
                (
                    single.rows[0].arrivals,
                    single.rows[0].admitted,
                    single.rows[0].completed,
                    single.rows[0].dropped
                )
            );
            assert_eq!(row.latency_p99, single.rows[0].latency_p99);
            let traced = traced_stream(&params, 9_100 + t, &mut layers);
            assert_eq!(traced, single.pooled);
        }
        assert!(layers.plan_probe.1 >= whole.pooled.arrivals);
    }

    #[test]
    fn results_check_their_invariants() {
        let ok = TrialMetrics {
            fidelity: 0.9,
            latency: 3.0,
            throughput: 0.5,
            executed: 2,
            requested: 4,
        };
        assert!(CallResult::Trial(Ok(ok)).check().is_ok());
        let over = TrialMetrics { executed: 5, ..ok };
        assert!(CallResult::Trial(Ok(over)).check().is_err());
        let bad = CallResult::Point {
            failures: 3,
            shots: 2,
        };
        assert!(bad.check().unwrap_err().contains("3 failures"));
        let unit = Plan::new(Workload::Stream, 0, &Sizes::smoke()).units[0];
        assert_eq!(unit, Unit::Stream { seed: 90_000 });
        assert_eq!(
            Plan::new(Workload::Stream, 2, &Sizes::smoke()).base_seed,
            92_000
        );
    }
}
