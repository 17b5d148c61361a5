//! `perf`: the SurfNet benchmark. It times the paper's three kinds of
//! compute end to end through the public experiment entry points, and in
//! a separate traced run splits the same calls into timed calls to each
//! layer.
//!
//! # Running it
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml --bin perf -- \
//!     [--workload fig7|fig8|stream] [--seed S] [--trace [0|1]] [--out FILE] [--seconds N]
//! ```
//!
//! Always go through `cargo run` as above. `perf` is its own package, so
//! a build at the repository root neither builds it nor rebuilds the
//! crates it links. A `perf` binary left in a target directory may
//! therefore time an older tree.
//!
//! * Without `--workload`, `perf` runs itself once per workload, one
//!   after another. Each workload gets a fresh process, so its `setup_s`
//!   and `peak_rss_mb` are its own.
//! * `--seed S` moves every base seed by `1000·S` from the defaults of
//!   70,000 (fig7), 80,000 (fig8) and 90,000 (stream). A claimed gain
//!   must also hold on a seed not used while writing the change.
//! * An untraced run makes two whole passes over the workload's calls and
//!   reports each call at the faster of its two times. A 2-core VM shared
//!   with other tenants was seen to slow down by up to 40% in episodes of
//!   a few seconds; an episode that hits a call in one pass rarely hits it
//!   in the other, so the faster time drops it. The second pass must
//!   reproduce the first pass's `result_digest`, and a repeated call must
//!   not run much faster than its first run (which a cache of whole
//!   results would do). The four fresh processes behind `setup_s` are
//!   started at even intervals between the timed calls, for the same
//!   reason.
//! * `--trace` (or `--trace 1`) runs one untraced pass and then one traced
//!   pass of the same calls, and reports the per-layer metrics instead.
//! * `--out FILE` appends each workload's record line to `FILE`.
//! * `--seconds N` is accepted so that a runner can pass the declared
//!   `run_seconds`, and otherwise ignored: the run length is the fixed
//!   work above, on both sides of a comparison, and `run_seconds` records
//!   how long it takes.
//!
//! Each workload prints a table, then its record as one JSON line
//! (`workload`, `seed`, `git_rev`, `trace`, `metrics`, `attempted`,
//! `failed`, `result_digest`, `check`), then a last line `{"correct",
//! "attempted", "failed", "metrics"}`. A failed output check sets
//! `check`, `correct: false` and a non-zero exit status.
//!
//! # Load shape
//!
//! A closed loop from one caller thread: each call starts when the
//! previous one returns, after one untimed warm-up at the default seeds
//! (one fig7 trial per cell; the first call otherwise). The only other
//! thread is the `parallel_map` worker that `fig8::run` spawns, one on a
//! two-core machine. The untraced run never enables telemetry. The traced run
//! enables it only to read the `lp.pivots` and `decoder.growth_rounds`
//! counters.
//!
//! # Workloads
//!
//! * `fig7`: 4 scenarios × 5 designs × 160 seeds = 3,200
//!   `pipeline::run_trial` calls per pass, the calls of
//!   `fig7 --trials 160`. The work unit is a trial.
//!   The LP solve is about 94% of the SurfNet and Raw trials, which are
//!   40% of the calls. The purification trials (about 50 µs, no LP) set
//!   `call_p50_ms`. An LP change should therefore move `work_per_s` and
//!   `call_tail_ms` (p99) and leave `call_p50_ms` alone. Decode is under
//!   1% here.
//! * `fig8`: {Union-Find, SurfNet} × d ∈ {9, 11, 13, 15} × 15 Pauli rates
//!   = 120 `fig8::run` calls of 1,600 shots each per pass, each equal to
//!   that point of the full figure. The work unit is a shot. It is
//!   decode-bound, with no LP and no netsim, and reuses one decoder per
//!   point for 1,600 shots, where fig7 builds many small decoders.
//!   `call_tail_ms` is p90.
//! * `stream`: 40 `stream::run(&StreamParams::default(), 1, seed + t)`
//!   calls per pass, each equal to row `t` of `fig_stream`: a 1,200-node
//!   BA graph, Poisson 0.25/tick, horizon 4,000. The work unit is an
//!   arrival. It is the only workload on the event engine, where planning
//!   (`plan_request`, about 2.2 offers per arrival) is about 99% of
//!   `simulate`. `call_tail_ms` is p75.
//!
//! Ballpark on a 2-core x86-64 VM shared with other tenants, whose speed
//! drifted by up to 25% over tens of minutes. fig7 runs 315–430 trials/s
//! (call p50 0.040–0.057 ms, p99 20–30 ms), with the LP solve at 93% of
//! the traced pass; fig8 runs 17k–27k shots/s (call p50 55–90 ms, p90
//! 95–155 ms), with decoding at about 89%; stream runs 3.1k–4.4k
//! arrivals/s (call p50 220–315 ms, p75 230–340 ms), with planning at
//! about 98% of `simulate` and 29% of offers admitted. An untraced run of
//! one workload takes 16–30 s, a traced one 20–35 s.
//!
//! # End-to-end metrics (untraced run)
//!
//! | name | unit | meaning |
//! |---|---|---|
//! | `setup_s` | s | process start → warm-up done; median of this process and 4 fresh ones spread over the run |
//! | `work_per_s` | 1/s | work units of one pass ÷ Σ of each call's faster wall time |
//! | `call_p50_ms` | ms | median over calls of the faster wall time |
//! | `call_tail_ms` | ms | nearest-rank p99 / p90 / p75 of the same (fig7 / fig8 / stream) |
//! | `peak_rss_mb` | MiB | `VmHWM` of the workload's process at its end |
//!
//! Calls that returned an error or failed their output check are counted
//! in `failed` out of `attempted`; `perf compare` regresses on any
//! increase of that share.
//!
//! # Per-layer metrics (traced run)
//!
//! Self-times, in ms over one traced pass, tile the call:
//! `netsim.generate.self_ms` (`barabasi_albert`, `random_requests`),
//! `routing.self_ms` (scheduler calls minus the LP probe),
//! `lp.build_ms` / `lp.solve_ms` (the LP probe: `formulation::build` and
//! `maximize` re-run on each SurfNet or Raw scheduler's inputs),
//! `netsim.execution.entangle_ms` / `purify_ms` (`execute_plan`,
//! `execute_teleportation`), `core.evaluate.self_ms`
//! (`DecoderCache::evaluate_transfers`, decoders inside included),
//! `decoder.build_ms` / `decode_ms`, `lattice.sample_ms` / `syndrome_ms`
//! / `score_ms` (fig8's shot loop), and `netsim.event.simulate_ms`.
//! `unattributed_ms` is traced wall time minus their sum, and `coverage`
//! (ratio) is their sum ÷ traced wall time. It must be at least 0.95.
//! Probe time is left out of the traced wall time.
//! `trace_overhead_frac` (ratio) is traced ÷ untraced wall time − 1.
//!
//! Counts and shapes: `routing.codes_scheduled_frac` (ratio),
//! `lp.solves`, `lp.pivots`, `lp.vars_mean`, `lp.rows_mean` (count),
//! `lp.solve_p50_us` / `p99_us` (µs), `netsim.execution.ns_per_tick` (ns
//! of execution per simulated tick), `core.evaluate.segments` and
//! `decoders_built` (count), `decoder.decode_p50_us` / `p99_us` and
//! `decoder.decode_us_mean.d9`…`d15` (µs), `decoder.trivial_frac` (shots
//! with no defect and no erasure), `decoder.growth_rounds` (count).
//!
//! The stream probe re-runs `plan_request` and `execute_plan_event` on as
//! many requests as `simulate` offered, drawn the way `simulate` draws
//! them from a separately seeded RNG: `netsim.event.plan_us` and
//! `execute_us` (µs per call); `plan_ms_est` (× offers), `execute_ms_est`
//! (× admitted) and `admit_ms_est` (what is left of `simulate`) are
//! estimates. Also `netsim.event.offers`, `admitted_frac` (admitted ÷
//! offers), `dropped_pool` and `dropped_capacity` (count). A layer a
//! workload never calls reads 0.
//!
//! # Comparing two commits
//!
//! Build each commit in its own checkout and run both sides in at least
//! ten alternating pairs, each run with `--out` into that side's file:
//!
//! ```text
//! perf compare base.jsonl… -- change.jsonl…
//! ```
//!
//! For every workload × end-to-end metric it prints both medians and
//! quartiles, the relative change and the bound from `BENCHMARK.json`,
//! and a verdict: agree, regressed, improved, or unresolved (the spread
//! is wider than the bound). A larger share of failed calls regresses.
//! It also flags a `result_digest` that changed for the same seed. It
//! exits non-zero on any regression or changed digest. Host speed drift
//! that hits one side's runs reads as unresolved; more pairs resolve it.

mod compare;
mod spec;
mod stats;
mod workloads;

use spec::Spec;
use std::hint::black_box;
use std::io::Write;
use std::process::{Command, Stdio};
use std::time::Instant;
use surfnet_telemetry::json::{obj, Value};
use workloads::{counter, CallResult, Fnv, Layers, Plan, Sizes, Unit, Workload};

/// Set-up samples behind `setup_s`: this process plus four fresh ones.
const SETUP_SAMPLES: usize = 5;

/// Least share of traced wall time the layer self-times must cover.
const MIN_COVERAGE: f64 = 0.95;

/// Passes of an untraced run; each call is reported at its fastest.
const PASSES: usize = 2;

/// Least median ratio of a repeated call's time to its first time. A
/// cached result makes the repeat nearly free; a host slowdown during the
/// first pass (at most 1.7× seen on a shared VM) leaves it above 0.5.
const MIN_REPEAT_RATIO: f64 = 0.3;

const USAGE: &str = "usage: perf [--workload fig7|fig8|stream] [--seed S] [--trace [0|1]] \
[--out FILE] [--seconds N]\n       perf compare A.json... -- B.json...";

#[derive(Debug, Default)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    trace: bool,
    out: Option<String>,
    /// Internal: only set up, print the set-up time, and exit.
    setup_probe: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                opts.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            // Checked but unused: the run length is fixed per workload.
            "--seconds" => {
                value("--seconds")?
                    .parse::<u64>()
                    .map_err(|_| "--seconds takes a whole number")?;
            }
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => opts.out = Some(value("--out")?),
            "--setup-probe" => opts.setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::run(&args[1..]));
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match opts.workload {
        None => run_all(&args),
        Some(workload) => run_one(workload, &opts, started),
    };
    std::process::exit(code);
}

/// Runs every workload in a fresh process of its own, one after another.
fn run_all(args: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot find own executable: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(args)
            .args(["--workload", workload.name()])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            eprintln!("perf: workload {} failed", workload.name());
            code = 1;
        }
    }
    code
}

fn run_one(workload: Workload, opts: &Options, started: Instant) -> i32 {
    if cfg!(debug_assertions) {
        eprintln!("perf: unoptimized build; timings are not comparable to a --release run");
    }
    let plan = Plan::new(workload, opts.seed, &Sizes::full());
    // The warm-up runs at the default seeds whatever `--seed` says, so
    // that `setup_s` measures the same work at every seed.
    let warm = Plan::new(workload, 0, &Sizes::full());
    for unit in warm.warmup() {
        black_box(warm.call(unit));
    }
    let setup_s = started.elapsed().as_secs_f64();
    if opts.setup_probe {
        println!("{setup_s}");
        return 0;
    }
    let report = if opts.trace {
        measure_traced(&plan, false)
    } else {
        measure_untraced(&plan, setup_s, || setup_probe(workload, opts.seed), false)
    };
    emit(&report, opts, &Spec::load())
}

/// Set-up time of a fresh process, which pays every lazy initialisation
/// again: set-up work that moves out of the timed calls shows here.
fn setup_probe(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(&exe)
        .args(["--workload", workload.name(), "--setup-probe"])
        .args(["--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| "probe printed no set-up time".to_string())
}

/// Everything one run measured.
#[derive(Debug)]
struct Report {
    workload: Workload,
    traced: bool,
    /// `(name, value)` in declaration order.
    metrics: Vec<(&'static str, f64)>,
    digest: u64,
    attempted: u64,
    failed: u64,
    /// Wall time of each pass, seconds.
    pass_s: Vec<f64>,
    /// Output-check failures; any makes the run incorrect.
    problems: Vec<String>,
    /// Caveats that do not fail a smoke run.
    notes: Vec<String>,
}

/// Calls, work and digests of whole passes over a plan.
struct Passes {
    /// Wall time of each call in milliseconds, one row per pass.
    call_ms: Vec<Vec<f64>>,
    /// Wall time of each pass, seconds.
    pass_s: Vec<f64>,
    /// Work units of one pass; every pass must give the same results.
    work: u64,
    attempted: u64,
    failed: u64,
    digest: u64,
    problems: Vec<String>,
}

impl Passes {
    /// Each call's fastest time over the passes. The shared host slows
    /// down in episodes of a few seconds; one that hits a call in one pass
    /// rarely hits the same call in the next.
    fn best_call_ms(&self) -> Vec<f64> {
        (0..self.call_ms[0].len())
            .map(|i| {
                self.call_ms
                    .iter()
                    .map(|pass| pass[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }
}

/// Runs `passes` whole passes over `plan.units` through `call`, timing
/// every call. `between` runs untimed before each call, with the call's
/// index counted over all passes.
fn run_passes(
    plan: &Plan,
    passes: usize,
    mut call: impl FnMut(&Unit) -> CallResult,
    mut between: impl FnMut(usize),
) -> Passes {
    let mut p = Passes {
        call_ms: Vec::new(),
        pass_s: Vec::new(),
        work: 0,
        attempted: 0,
        failed: 0,
        digest: 0,
        problems: Vec::new(),
    };
    for _ in 0..passes {
        let pass_start = Instant::now();
        let mut digest = Fnv::default();
        let mut call_ms = Vec::with_capacity(plan.units.len());
        let mut work = 0;
        for unit in &plan.units {
            between(p.attempted as usize);
            let t = Instant::now();
            let result = black_box(call(unit));
            call_ms.push(t.elapsed().as_secs_f64() * 1e3);
            p.attempted += 1;
            work += result.work();
            if let Err(why) = result.check() {
                p.failed += 1;
                if p.problems.len() < 5 {
                    p.problems.push(format!("{unit:?}: {why}"));
                }
            }
            result.hash_into(&mut digest);
        }
        if p.pass_s.is_empty() {
            (p.digest, p.work) = (digest.0, work);
        } else if digest.0 != p.digest {
            p.problems.push(format!(
                "pass {} gave result_digest {:016x}, pass 1 gave {:016x}",
                p.pass_s.len() + 1,
                digest.0,
                p.digest
            ));
        }
        p.call_ms.push(call_ms);
        p.pass_s.push(pass_start.elapsed().as_secs_f64());
    }
    p
}

/// A tail percentile that a strict run refuses when fewer than ten
/// samples lie beyond it, and a smoke run reports with a note. An empty
/// sample is a layer the workload never calls and reads 0.
fn tail(
    samples: &mut [f64],
    pct: u32,
    name: &str,
    smoke: bool,
    problems: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> f64 {
    samples.sort_by(f64::total_cmp);
    if samples.is_empty() {
        return 0.0;
    }
    stats::tail(samples, pct).unwrap_or_else(|why| {
        let msg = format!("{name}: {why}");
        if smoke {
            notes.push(msg);
        } else {
            problems.push(msg);
        }
        stats::nearest_rank(samples, pct)
    })
}

/// Times [`PASSES`] passes and reports each call at its faster time.
/// `setup_s` is this process's set-up time, and `probe` measures that of
/// a fresh one. `smoke` (the tests' small sizes) turns unsupported tail
/// percentiles into notes.
fn measure_untraced(
    plan: &Plan,
    setup_s: f64,
    mut probe: impl FnMut() -> Result<f64, String>,
    smoke: bool,
) -> Report {
    assert!(
        !surfnet_telemetry::enabled(),
        "telemetry must be off for an untraced run"
    );
    let calls = PASSES * plan.units.len();
    let mut setups = vec![setup_s];
    let (mut taken, mut probe_errors) = (1, Vec::new());
    // The probes are spread evenly over the passes, so that one slow spell
    // of the host reaches few of them.
    let between = |i: usize| {
        if taken < SETUP_SAMPLES && i * SETUP_SAMPLES >= taken * calls {
            taken += 1;
            match probe() {
                Ok(s) => setups.push(s),
                Err(e) => probe_errors.push(format!("set-up probe failed: {e}")),
            }
        }
    };
    let mut p = run_passes(plan, PASSES, |u| plan.call(u), between);
    p.problems.extend(probe_errors);
    // Taking the faster time is sound only while a repeated call does all
    // its work again; a cache of whole results would fake a speed-up.
    let repeat_ratio = stats::median(
        &p.call_ms[1]
            .iter()
            .zip(&p.call_ms[0])
            .map(|(again, first)| again / first)
            .collect::<Vec<_>>(),
    );
    if repeat_ratio < MIN_REPEAT_RATIO {
        p.problems.push(format!(
            "a repeated call takes {repeat_ratio:.2} of its first time; \
             every call must recompute its result"
        ));
    }
    let mut call_ms = p.best_call_ms();
    let busy_s = call_ms.iter().sum::<f64>() / 1e3;
    let mut notes = Vec::new();
    let call_p50 = stats::median(&call_ms);
    let tail_ms = tail(
        &mut call_ms,
        plan.workload.tail_pct(),
        "call_tail_ms",
        smoke,
        &mut p.problems,
        &mut notes,
    );
    let rss = peak_rss_mb().unwrap_or_else(|| {
        p.problems
            .push("VmHWM unavailable in /proc/self/status".into());
        0.0
    });
    Report {
        workload: plan.workload,
        traced: false,
        metrics: vec![
            ("setup_s", stats::median(&setups)),
            ("work_per_s", p.work as f64 / busy_s),
            ("call_p50_ms", call_p50),
            ("call_tail_ms", tail_ms),
            ("peak_rss_mb", rss),
        ],
        digest: p.digest,
        attempted: p.attempted,
        failed: p.failed,
        pass_s: p.pass_s,
        problems: p.problems,
        notes,
    }
}

/// One untraced and one traced pass. `smoke` (the tests' small sizes)
/// turns unsupported tail percentiles and low coverage into notes.
fn measure_traced(plan: &Plan, smoke: bool) -> Report {
    assert!(
        !surfnet_telemetry::enabled(),
        "telemetry must be off for the untraced pass"
    );
    let untraced = run_passes(plan, 1, |u| plan.call(u), |_| {});
    surfnet_telemetry::Telemetry::enabled();
    let rounds_before = counter("decoder.growth_rounds");
    let mut layers = Layers::default();
    let traced = run_passes(plan, 1, |u| plan.call_traced(u, &mut layers), |_| {});
    let growth_rounds = counter("decoder.growth_rounds") - rounds_before;
    surfnet_telemetry::Telemetry::disabled();
    surfnet_telemetry::reset();

    let mut problems = traced.problems;
    problems.extend(untraced.problems);
    let mut notes = Vec::new();
    if traced.digest != untraced.digest {
        problems.push(format!(
            "traced result_digest {:016x} != untraced {:016x}",
            traced.digest, untraced.digest
        ));
    }
    let wall_ms = traced.pass_s[0] * 1e3 - layers.probe_ns / 1e6;
    let attributed: f64 = layers.self_ms().iter().map(|&(_, ms)| ms).sum();
    let coverage = attributed / wall_ms;
    if coverage < MIN_COVERAGE {
        let msg = format!("coverage {coverage:.3} < {MIN_COVERAGE}");
        if smoke {
            notes.push(msg);
        } else {
            problems.push(msg);
        }
    }
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let lp_solves = layers.lp_solve_us.len() as f64;
    let lp_p50 = stats::median(&layers.lp_solve_us);
    let lp_p99 = tail(
        &mut layers.lp_solve_us,
        99,
        "lp.solve_p99_us",
        smoke,
        &mut problems,
        &mut notes,
    );
    let decode_p50 = stats::median(&layers.decode_us);
    let decode_p99 = tail(
        &mut layers.decode_us,
        99,
        "decoder.decode_p99_us",
        smoke,
        &mut problems,
        &mut notes,
    );
    let shots = layers.decode_us.len() as f64;
    let decode_mean = |d: usize| {
        let (ns, n) = layers
            .decode_by_distance
            .get(&d)
            .copied()
            .unwrap_or((0.0, 0));
        ratio(ns / 1e3, n as f64)
    };
    let plan_us = ratio(layers.plan_probe.0 / 1e3, layers.plan_probe.1 as f64);
    let execute_us = ratio(layers.execute_probe.0 / 1e3, layers.execute_probe.1 as f64);
    let plan_ms_est = plan_us * layers.offers as f64 / 1e3;
    let execute_ms_est = execute_us * layers.admitted as f64 / 1e3;
    let self_ms = layers.self_ms();
    let own = |name: &'static str| {
        let row = self_ms.iter().find(|m| m.0 == name);
        (name, row.expect("a self-time row").1)
    };
    let metrics: Vec<(&'static str, f64)> = vec![
        own("netsim.generate.self_ms"),
        own("routing.self_ms"),
        (
            "routing.codes_scheduled_frac",
            ratio(layers.codes_scheduled as f64, layers.codes_requested as f64),
        ),
        own("lp.build_ms"),
        own("lp.solve_ms"),
        ("lp.solves", lp_solves),
        ("lp.solve_p50_us", lp_p50),
        ("lp.solve_p99_us", lp_p99),
        ("lp.vars_mean", ratio(layers.lp_vars as f64, lp_solves)),
        ("lp.rows_mean", ratio(layers.lp_rows as f64, lp_solves)),
        ("lp.pivots", layers.lp_pivots as f64),
        own("netsim.execution.entangle_ms"),
        own("netsim.execution.purify_ms"),
        (
            "netsim.execution.ns_per_tick",
            ratio(layers.entangle_ns + layers.purify_ns, layers.ticks as f64),
        ),
        own("core.evaluate.self_ms"),
        ("core.evaluate.segments", layers.segments as f64),
        ("core.evaluate.decoders_built", layers.decoders_built as f64),
        own("decoder.build_ms"),
        own("decoder.decode_ms"),
        ("decoder.decode_p50_us", decode_p50),
        ("decoder.decode_p99_us", decode_p99),
        ("decoder.decode_us_mean.d9", decode_mean(9)),
        ("decoder.decode_us_mean.d11", decode_mean(11)),
        ("decoder.decode_us_mean.d13", decode_mean(13)),
        ("decoder.decode_us_mean.d15", decode_mean(15)),
        (
            "decoder.trivial_frac",
            ratio(layers.trivial_shots as f64, shots),
        ),
        ("decoder.growth_rounds", growth_rounds as f64),
        own("lattice.sample_ms"),
        own("lattice.syndrome_ms"),
        own("lattice.score_ms"),
        own("netsim.event.simulate_ms"),
        ("netsim.event.plan_us", plan_us),
        ("netsim.event.plan_ms_est", plan_ms_est),
        ("netsim.event.execute_us", execute_us),
        ("netsim.event.execute_ms_est", execute_ms_est),
        (
            "netsim.event.admit_ms_est",
            if layers.offers == 0 {
                0.0
            } else {
                own("netsim.event.simulate_ms").1 - plan_ms_est - execute_ms_est
            },
        ),
        ("netsim.event.offers", layers.offers as f64),
        (
            "netsim.event.admitted_frac",
            ratio(layers.admitted as f64, layers.offers as f64),
        ),
        ("netsim.event.dropped_pool", layers.dropped_pool as f64),
        (
            "netsim.event.dropped_capacity",
            layers.dropped_capacity as f64,
        ),
        ("unattributed_ms", wall_ms - attributed),
        ("coverage", coverage),
        (
            "trace_overhead_frac",
            wall_ms / (untraced.pass_s[0] * 1e3) - 1.0,
        ),
    ];
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    Report {
        workload: plan.workload,
        traced: true,
        metrics,
        digest: traced.digest,
        attempted,
        failed,
        pass_s: vec![untraced.pass_s[0], traced.pass_s[0]],
        problems,
        notes,
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout or for packed refs).
fn git_rev() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(name) => read(&format!(".git/{name}")),
            None => Some(head),
        },
        None => None,
    }
    .unwrap_or_else(|| "unknown".to_string())
}

fn metrics_json(report: &Report, spec: &Spec) -> Value {
    obj(report
        .metrics
        .iter()
        .map(|&(name, value)| {
            let unit = spec.unit(name).unwrap_or("");
            (
                name,
                obj(vec![
                    ("value", Value::from(value)),
                    ("unit", Value::from(unit)),
                ]),
            )
        })
        .collect())
}

/// Prints the table, the record line and the result line; appends the
/// record to `--out`. Returns the exit status.
fn emit(report: &Report, opts: &Options, spec: &Spec) -> i32 {
    let check = if report.problems.is_empty() {
        "ok".to_string()
    } else {
        report.problems.join("; ")
    };
    let name = report.workload.name();
    println!(
        "perf {name} --seed {} ({}, {} calls, work unit: {}; passes of {} s)",
        opts.seed,
        if report.traced {
            "untraced pass, then traced pass"
        } else {
            "untraced"
        },
        report.attempted,
        report.workload.work_unit(),
        report
            .pass_s
            .iter()
            .map(|s| format!("{s:.2}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    for &(metric, value) in &report.metrics {
        println!(
            "  {metric:<34} {value:>16.4} {}",
            spec.unit(metric).unwrap_or("")
        );
    }
    println!("  failed calls {} of {}", report.failed, report.attempted);
    println!("  result_digest {:016x}  check: {check}", report.digest);
    for note in &report.notes {
        println!("  note: {note}");
    }
    let record = obj(vec![
        ("workload", Value::from(name)),
        ("seed", Value::from(opts.seed)),
        ("git_rev", Value::from(git_rev().as_str())),
        ("trace", Value::Bool(report.traced)),
        ("metrics", metrics_json(report, spec)),
        ("attempted", Value::from(report.attempted)),
        ("failed", Value::from(report.failed)),
        (
            "result_digest",
            Value::from(format!("{:016x}", report.digest).as_str()),
        ),
        ("check", Value::from(check.as_str())),
    ])
    .to_string();
    println!("{record}");
    if let Some(path) = &opts.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("perf: cannot append to {path}: {e}");
            return 2;
        }
    }
    let correct = report.problems.is_empty();
    println!(
        "{}",
        obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::from(report.attempted)),
            ("failed", Value::from(report.failed)),
            ("metrics", metrics_json(report, spec)),
        ])
    );
    if correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(report: &Report) -> Vec<&str> {
        report.metrics.iter().map(|&(n, _)| n).collect()
    }

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// The CI hook: every workload at smoke size, untraced and then traced,
    /// in one test because the traced run enables process-global telemetry.
    #[test]
    fn smoke_runs_emit_every_declared_metric() {
        let spec = Spec::load();
        let declared = |list: &[spec::MetricSpec]| -> Vec<String> {
            list.iter().map(|m| m.name.clone()).collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, workloads);
        for workload in Workload::ALL {
            let plan = Plan::new(workload, 0, &Sizes::smoke());
            let untraced = measure_untraced(&plan, 0.01, || Ok(0.02), true);
            assert!(untraced.problems.is_empty(), "{:?}", untraced.problems);
            assert_eq!(names(&untraced), declared(&spec.end_to_end));
            assert!(untraced.metrics.iter().all(|&(_, v)| v > 0.0));
            let traced = measure_traced(&plan, true);
            assert!(traced.problems.is_empty(), "{:?}", traced.problems);
            assert_eq!(names(&traced), declared(&spec.per_layer));
            assert_eq!(traced.digest, untraced.digest);
            let get = |n: &str| traced.metrics.iter().find(|m| m.0 == n).unwrap().1;
            assert!(get("coverage") > 0.5, "{workload:?}");
            match workload {
                Workload::Fig7 => assert!(get("lp.solves") > 0.0 && get("lp.pivots") > 0.0),
                Workload::Fig8 => assert!(get("decoder.growth_rounds") > 0.0),
                Workload::Stream => assert!(get("netsim.event.offers") > 0.0),
            }
            assert!(!surfnet_telemetry::enabled());
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let opts = parse_args(&args("--workload fig8 --seed 3 --seconds 9 --trace 1")).unwrap();
        assert_eq!(opts.workload, Some(Workload::Fig8));
        assert_eq!((opts.seed, opts.trace), (3, true));
        assert!(!parse_args(&args("--trace 0")).unwrap().trace);
        let bare = parse_args(&args("--trace --out x.jsonl")).unwrap();
        assert!(bare.trace && bare.out.as_deref() == Some("x.jsonl"));
        assert!(parse_args(&args("--workload fig9")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--seconds soon")).is_err());
        assert!(parse_args(&args("--smoke")).is_err());
        assert!(parse_args(&args("--bogus")).is_err());
    }
}
