//! Time-series stats sampler: periodic JSONL snapshots of the aggregate
//! metrics (`SURFNET_STATS=<path>[:interval_ms]`).
//!
//! The aggregate layer reports totals once, after a run; a control plane
//! (and a human watching a long sweep) needs the *trajectory* — counters
//! and histogram deltas over time, plus derived rates. This module spawns
//! a sampler thread that snapshots the registry every `interval_ms`
//! (default [`DEFAULT_INTERVAL_MS`]) and appends one `surfnet-stats/v1`
//! record per sample to the configured JSONL file, with a final exact
//! sample flushed by [`finish`].
//!
//! # Record schema (`surfnet-stats/v1`)
//!
//! One JSON object per line:
//!
//! * `schema` — always `"surfnet-stats/v1"`;
//! * `seq` — sample index, starting at 0;
//! * `t_ms` — milliseconds since the sampler started;
//! * `counters` — cumulative counter values;
//! * `counter_deltas` — per-window counter increments;
//! * `timers` — cumulative `{count, total_ns}` per timer;
//! * `timer_deltas` — per-window `{count, total_ns}` increments;
//! * `groups` — cumulative labeled-family values, flattened to
//!   `name{label}` keys (counter value or histogram sample count);
//! * `group_deltas` — per-window family increments, same keys;
//! * `gauges` — derived rates for the window: `shots_per_sec`,
//!   `decoder.cache_hit_rate`, `journal.drop_rate_per_sec` (each present
//!   only when its denominator is nonzero).
//!
//! Mid-run samples are *approximate*: worker threads merge their local
//! shards on flush/exit, so in-flight counts surface at the next merge.
//! The final [`finish`] sample is exact once workers have joined.
//!
//! The pure [`Sampler`] computes records from `(t_ms, Snapshot)` pairs
//! with no clock of its own, so tests drive it with a virtual clock and
//! byte-identical output is guaranteed for identical inputs.

use crate::json::{obj, Value};
use crate::Snapshot;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Schema tag carried by every stats record.
pub const SCHEMA: &str = "surfnet-stats/v1";

/// Sampling interval when `SURFNET_STATS=<path>` gives none.
pub const DEFAULT_INTERVAL_MS: u64 = 500;

/// Parses a `SURFNET_STATS` value: empty/`0`/`off` disables, `<path>`
/// samples at [`DEFAULT_INTERVAL_MS`], `<path>:<interval_ms>` at the given
/// positive interval.
///
/// # Errors
///
/// Anything else — a non-numeric or zero interval suffix — is rejected
/// with a message naming the bad value and the accepted forms.
/// [`init_from_env`] treats that as fatal rather than silently sampling
/// nothing or at a wrong cadence.
pub fn parse_stats_spec(raw: &str) -> Result<Option<(PathBuf, u64)>, String> {
    let raw = raw.trim();
    let reject = || {
        Err(format!(
            "unrecognized SURFNET_STATS value {raw:?}; expected \"<path>\", \
             \"<path>:<interval_ms>\" (positive integer milliseconds), \
             or unset/\"0\"/\"off\""
        ))
    };
    match raw {
        "" | "0" | "off" => return Ok(None),
        _ => {}
    }
    if let Some((path, ms)) = raw.rsplit_once(':') {
        if path.is_empty() {
            return reject();
        }
        return match ms.parse::<u64>() {
            Ok(interval) if interval > 0 => Ok(Some((PathBuf::from(path), interval))),
            _ => reject(),
        };
    }
    Ok(Some((PathBuf::from(raw), DEFAULT_INTERVAL_MS)))
}

/// Pure sampling state: turns a sequence of `(t_ms, Snapshot)` pairs into
/// stats records, tracking the previous sample for deltas.
#[derive(Debug, Default)]
pub struct Sampler {
    seq: u64,
    prev_t_ms: u64,
    prev_counters: Vec<(String, u64)>,
    /// `(name, count, total_ns)` of every timer at the previous sample.
    prev_timers: Vec<(String, u64, u64)>,
    /// Flattened `name{label}` family values at the previous sample.
    prev_groups: Vec<(String, u64)>,
}

impl Sampler {
    /// A sampler with no history (the first sample's deltas are measured
    /// from zero at `t_ms = 0`).
    pub fn new() -> Sampler {
        Sampler::default()
    }

    /// Computes the record for a snapshot taken at `t_ms` and advances the
    /// delta baseline.
    pub fn sample(&mut self, t_ms: u64, snap: &Snapshot) -> Value {
        let dt_ms = t_ms.saturating_sub(self.prev_t_ms);
        let prev_counter =
            |name: &str| -> u64 { lookup_pair(&self.prev_counters, name).unwrap_or(0) };
        let counters: Vec<(String, u64)> = snap.counters.clone();
        let counter_deltas: Vec<(String, u64)> = counters
            .iter()
            .map(|(name, v)| (name.clone(), v.saturating_sub(prev_counter(name))))
            .collect();
        let timers: Vec<(String, u64, u64)> = snap
            .timers
            .iter()
            .map(|t| (t.name.clone(), t.count, t.total_ns))
            .collect();
        let timer_deltas: Vec<(String, u64, u64)> = timers
            .iter()
            .map(|(name, count, total_ns)| {
                let (pc, pt) = lookup_timer(&self.prev_timers, name).unwrap_or((0, 0));
                (
                    name.clone(),
                    count.saturating_sub(pc),
                    total_ns.saturating_sub(pt),
                )
            })
            .collect();
        let groups: Vec<(String, u64)> = snap
            .groups
            .iter()
            .flat_map(|fam| {
                fam.labels
                    .iter()
                    .map(|l| (format!("{}{{{}}}", fam.name, l.label), l.value))
            })
            .collect();
        let group_deltas: Vec<(String, u64)> = groups
            .iter()
            .map(|(name, v)| {
                (
                    name.clone(),
                    v.saturating_sub(lookup_pair(&self.prev_groups, name).unwrap_or(0)),
                )
            })
            .collect();
        let gauges = derive_gauges(dt_ms, &counter_deltas, &timer_deltas);

        let record = obj(vec![
            ("schema", Value::from(SCHEMA)),
            ("seq", Value::from(self.seq)),
            ("t_ms", Value::from(t_ms)),
            (
                "counters",
                Value::Obj(
                    counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::from(*v)))
                        .collect(),
                ),
            ),
            (
                "counter_deltas",
                Value::Obj(
                    counter_deltas
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::from(*v)))
                        .collect(),
                ),
            ),
            (
                "timers",
                Value::Obj(timers.iter().map(timer_entry).collect()),
            ),
            (
                "timer_deltas",
                Value::Obj(timer_deltas.iter().map(timer_entry).collect()),
            ),
            (
                "groups",
                Value::Obj(
                    groups
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::from(*v)))
                        .collect(),
                ),
            ),
            (
                "group_deltas",
                Value::Obj(
                    group_deltas
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::from(*v)))
                        .collect(),
                ),
            ),
            ("gauges", Value::Obj(gauges)),
        ]);
        self.seq += 1;
        self.prev_t_ms = t_ms;
        self.prev_counters = counters;
        self.prev_timers = timers;
        self.prev_groups = groups;
        record
    }
}

fn lookup_pair(pairs: &[(String, u64)], name: &str) -> Option<u64> {
    pairs.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

fn lookup_timer(timers: &[(String, u64, u64)], name: &str) -> Option<(u64, u64)> {
    timers
        .iter()
        .find(|(n, _, _)| n == name)
        .map(|&(_, c, t)| (c, t))
}

fn timer_entry(entry: &(String, u64, u64)) -> (String, Value) {
    let (name, count, total_ns) = entry;
    (
        name.clone(),
        obj(vec![
            ("count", Value::from(*count)),
            ("total_ns", Value::from(*total_ns)),
        ]),
    )
}

/// Derived per-window rates. Each gauge appears only when its denominator
/// is nonzero, so a quiet window yields an empty object rather than NaNs.
fn derive_gauges(
    dt_ms: u64,
    counter_deltas: &[(String, u64)],
    timer_deltas: &[(String, u64, u64)],
) -> Vec<(String, Value)> {
    let delta = |name: &str| lookup_pair(counter_deltas, name).unwrap_or(0);
    let mut gauges = Vec::new();
    // Decoded shots this window: each shot that runs a decoder kernel is
    // one sample of its decode timer, and each shot the trivial-shot fast
    // path answers without a kernel is one `decoder.trivial_skips`.
    let kernel_shots: u64 = timer_deltas
        .iter()
        .filter(|(n, _, _)| {
            matches!(
                n.as_str(),
                "decoder.surfnet.decode" | "decoder.union_find.decode" | "decoder.mwpm.decode"
            )
        })
        .map(|&(_, count, _)| count)
        .sum();
    let shots = kernel_shots + delta("decoder.trivial_skips");
    if shots > 0 && dt_ms > 0 {
        gauges.push((
            "shots_per_sec".to_string(),
            Value::Num(shots as f64 * 1000.0 / dt_ms as f64),
        ));
    }
    let hits = delta("decoder.cache_hits");
    let misses = delta("decoder.cache_misses");
    if hits + misses > 0 {
        gauges.push((
            "decoder.cache_hit_rate".to_string(),
            Value::Num(hits as f64 / (hits + misses) as f64),
        ));
    }
    if dt_ms > 0 {
        gauges.push((
            "journal.drop_rate_per_sec".to_string(),
            Value::Num(delta("journal.dropped") as f64 * 1000.0 / dt_ms as f64),
        ));
    }
    gauges
}

/// Parses a stats JSONL file back into its records, verifying the schema
/// tag of every line.
///
/// # Errors
///
/// Reports the first malformed line (1-based): invalid JSON, or a missing
/// or unexpected `schema`.
pub fn parse_stats_jsonl(text: &str) -> Result<Vec<Value>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Value::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match v.get("schema").and_then(Value::as_str) {
            Some(SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "line {}: schema {other:?}, expected {SCHEMA:?}",
                    i + 1
                ))
            }
            None => return Err(format!("line {}: missing \"schema\"", i + 1)),
        }
        records.push(v);
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// Runtime: the background sampler thread.

struct Runtime {
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<std::io::Result<()>>,
    path: PathBuf,
}

fn runtime() -> &'static Mutex<Option<Runtime>> {
    static RUNTIME: OnceLock<Mutex<Option<Runtime>>> = OnceLock::new();
    RUNTIME.get_or_init(|| Mutex::new(None))
}

/// Reads `SURFNET_STATS`; a valid spec enables aggregate recording (the
/// sampler is useless without it) and starts the sampler thread. Returns
/// the output path, if sampling was configured.
///
/// A malformed value prints the accepted forms to stderr and **exits with
/// status 2**: a garbled spec means the caller expected a time series and
/// would otherwise silently not get one.
pub fn init_from_env() -> Option<PathBuf> {
    let raw = std::env::var("SURFNET_STATS").unwrap_or_default();
    match parse_stats_spec(&raw) {
        Ok(None) => None,
        Ok(Some((path, interval_ms))) => {
            crate::Telemetry::enabled();
            start(path.clone(), interval_ms);
            Some(path)
        }
        Err(message) => {
            eprintln!("surfnet-telemetry: {message}");
            std::process::exit(2);
        }
    }
}

/// Starts the sampler thread writing to `path` every `interval_ms`.
/// Replaces (finishing) any sampler already running.
pub fn start(path: PathBuf, interval_ms: u64) {
    finish();
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let thread_path = path.clone();
    let join = std::thread::Builder::new()
        .name("surfnet-stats".to_string())
        .spawn(move || sampler_loop(&thread_path, interval_ms, &thread_stop))
        .expect("spawn stats sampler thread");
    *runtime().lock().unwrap_or_else(PoisonError::into_inner) = Some(Runtime { stop, join, path });
}

/// Stops the sampler, waits for its final (exact) sample, and returns the
/// output path. No-op returning `None` when no sampler is running.
pub fn finish() -> Option<PathBuf> {
    let rt = runtime()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()?;
    // analyzer:allow(atomic-ordering): wakeup hint only; the join() right
    // below is the real synchronization with the sampler
    rt.stop.store(true, Ordering::Relaxed);
    match rt.join.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => eprintln!(
            "surfnet-telemetry: stats sampler failed writing {}: {e}",
            rt.path.display()
        ),
        Err(_) => eprintln!("surfnet-telemetry: stats sampler thread panicked"),
    }
    Some(rt.path)
}

fn sampler_loop(
    path: &std::path::Path,
    interval_ms: u64,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    let started = Instant::now();
    let mut sampler = Sampler::new();
    let interval = Duration::from_millis(interval_ms);
    let mut next = interval;
    loop {
        // Sleep toward the next tick in short hops so finish() returns
        // promptly even with multi-second intervals.
        let stopping = loop {
            // analyzer:allow(atomic-ordering): polled stop flag; finish()
            // joins this thread before reading the output file
            if stop.load(Ordering::Relaxed) {
                break true;
            }
            let elapsed = started.elapsed();
            if elapsed >= next {
                break false;
            }
            std::thread::sleep((next - elapsed).min(Duration::from_millis(25)));
        };
        let t_ms = started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        let record = sampler.sample(t_ms, &crate::snapshot());
        let mut line = String::new();
        record.write(&mut line);
        line.push('\n');
        file.write_all(line.as_bytes())?;
        file.flush()?;
        if stopping {
            return Ok(());
        }
        next += interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimerStats;

    fn snap(counters: &[(&str, u64)], timers: &[(&str, u64, u64)]) -> Snapshot {
        Snapshot {
            counters: counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            timers: timers
                .iter()
                .map(|&(name, count, total_ns)| TimerStats {
                    name: name.to_string(),
                    count,
                    total_ns,
                    mean_ns: 0.0,
                    p50_ns: 0,
                    p95_ns: 0,
                    p99_ns: 0,
                })
                .collect(),
            groups: Vec::new(),
        }
    }

    fn snap_with_groups(counters: &[(&str, u64)], groups: &[(&str, &[(&str, u64)])]) -> Snapshot {
        let mut s = snap(counters, &[]);
        s.groups = groups
            .iter()
            .map(|&(name, labels)| crate::dim::FamilySnapshot {
                name: name.to_string(),
                kind: crate::dim::FamilyKind::Counter,
                labels: labels
                    .iter()
                    .map(|&(label, value)| crate::dim::LabelValue {
                        label: label.to_string(),
                        value,
                        total_ns: 0,
                    })
                    .collect(),
            })
            .collect();
        s
    }

    #[test]
    fn spec_parsing_accepts_documented_forms() {
        assert_eq!(parse_stats_spec(""), Ok(None));
        assert_eq!(parse_stats_spec("  off "), Ok(None));
        assert_eq!(parse_stats_spec("0"), Ok(None));
        assert_eq!(
            parse_stats_spec("stats.jsonl"),
            Ok(Some(("stats.jsonl".into(), DEFAULT_INTERVAL_MS)))
        );
        assert_eq!(
            parse_stats_spec("out/run.jsonl:250"),
            Ok(Some(("out/run.jsonl".into(), 250)))
        );
    }

    #[test]
    fn spec_parsing_rejects_garbled_values() {
        for bad in ["stats.jsonl:abc", "stats.jsonl:0", "stats.jsonl:-5", ":250"] {
            let err = parse_stats_spec(bad).unwrap_err();
            assert!(err.contains("SURFNET_STATS"), "{err}");
            assert!(err.contains("interval_ms"), "{err}");
        }
    }

    #[test]
    fn sampler_is_deterministic_under_a_virtual_clock() {
        let run = || {
            let mut sampler = Sampler::new();
            let mut out = String::new();
            for (t_ms, shots) in [(500u64, 640u64), (1000, 1280), (1500, 1280)] {
                let record = sampler.sample(
                    t_ms,
                    &snap(
                        &[("decoder.trivial_skips", shots / 4), ("journal.dropped", 0)],
                        &[("decoder.surfnet.decode", shots, shots * 100)],
                    ),
                );
                record.write(&mut out);
                out.push('\n');
            }
            out
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical inputs must produce identical records");
        assert_eq!(a.lines().count(), 3);
    }

    #[test]
    fn shots_per_sec_counts_fast_path_shots() {
        // 345 shots ran a decoder kernel (one decode-timer sample each) and
        // 105 took the trivial-shot fast path, which skips the kernel and
        // its timer: 450 shots in one second.
        let mut sampler = Sampler::new();
        let record = sampler.sample(
            1000,
            &snap(
                &[("decoder.trivial_skips", 105)],
                &[("decoder.surfnet.decode", 345, 1_000_000)],
            ),
        );
        let gauges = record.get("gauges").unwrap();
        assert_eq!(
            gauges.get("shots_per_sec").and_then(Value::as_f64),
            Some(450.0)
        );
    }

    #[test]
    fn records_round_trip_and_carry_deltas_and_gauges() {
        let mut sampler = Sampler::new();
        let first = sampler.sample(
            500,
            &snap(
                &[
                    ("decoder.cache_hits", 8),
                    ("decoder.cache_misses", 2),
                    ("journal.dropped", 0),
                ],
                &[("decoder.surfnet.decode", 100, 5_000)],
            ),
        );
        let second = sampler.sample(
            1000,
            &snap(
                &[
                    ("decoder.cache_hits", 8),
                    ("decoder.cache_misses", 2),
                    ("journal.dropped", 5),
                ],
                &[("decoder.surfnet.decode", 150, 9_000)],
            ),
        );
        let mut text = String::new();
        first.write(&mut text);
        text.push('\n');
        second.write(&mut text);
        text.push('\n');

        let records = parse_stats_jsonl(&text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].get("seq").and_then(Value::as_u64), Some(0));
        assert_eq!(records[1].get("seq").and_then(Value::as_u64), Some(1));
        // Round trip: re-serializing parses to the same structure.
        assert_eq!(records[0], Value::parse(&first.to_string()).unwrap());
        assert_eq!(records[1], Value::parse(&second.to_string()).unwrap());

        // First window: 100 scalar shots in 500ms, 80% hit rate.
        let gauges = records[0].get("gauges").unwrap();
        assert_eq!(
            gauges.get("shots_per_sec").and_then(Value::as_f64),
            Some(200.0)
        );
        assert_eq!(
            gauges.get("decoder.cache_hit_rate").and_then(Value::as_f64),
            Some(0.8)
        );
        // Second window: only the counter deltas moved.
        let deltas = records[1].get("counter_deltas").unwrap();
        assert_eq!(
            deltas.get("journal.dropped").and_then(Value::as_u64),
            Some(5)
        );
        assert_eq!(
            deltas.get("decoder.cache_hits").and_then(Value::as_u64),
            Some(0)
        );
        let gauges = records[1].get("gauges").unwrap();
        assert!(gauges.get("decoder.cache_hit_rate").is_none());
        assert_eq!(
            gauges
                .get("journal.drop_rate_per_sec")
                .and_then(Value::as_f64),
            Some(10.0)
        );
        let timer_deltas = records[1].get("timer_deltas").unwrap();
        let decode = timer_deltas.get("decoder.surfnet.decode").unwrap();
        assert_eq!(decode.get("count").and_then(Value::as_u64), Some(50));
        assert_eq!(decode.get("total_ns").and_then(Value::as_u64), Some(4_000));
    }

    #[test]
    fn sampler_emits_per_window_family_deltas() {
        let mut sampler = Sampler::new();
        let links: &[(&str, u64)] = &[("0-1", 10), ("1-2", 4)];
        let first = sampler.sample(
            500,
            &snap_with_groups(&[], &[("netsim.link.attempts", links)]),
        );
        let links: &[(&str, u64)] = &[("0-1", 25), ("1-2", 4), ("2-3", 7)];
        let second = sampler.sample(
            1000,
            &snap_with_groups(&[], &[("netsim.link.attempts", links)]),
        );
        let g = first.get("group_deltas").unwrap();
        assert_eq!(
            g.get("netsim.link.attempts{0-1}").and_then(Value::as_u64),
            Some(10)
        );
        let g = second.get("group_deltas").unwrap();
        assert_eq!(
            g.get("netsim.link.attempts{0-1}").and_then(Value::as_u64),
            Some(15)
        );
        assert_eq!(
            g.get("netsim.link.attempts{1-2}").and_then(Value::as_u64),
            Some(0)
        );
        // A label that first appears mid-run deltas from zero.
        assert_eq!(
            g.get("netsim.link.attempts{2-3}").and_then(Value::as_u64),
            Some(7)
        );
        let cumulative = second.get("groups").unwrap();
        assert_eq!(
            cumulative
                .get("netsim.link.attempts{0-1}")
                .and_then(Value::as_u64),
            Some(25)
        );
    }

    #[test]
    fn parse_rejects_wrong_schema_and_bad_json() {
        assert!(parse_stats_jsonl("{\"schema\":\"surfnet-stats/v0\"}\n").is_err());
        assert!(parse_stats_jsonl("{\"seq\":0}\n").is_err());
        assert!(parse_stats_jsonl("nope\n").is_err());
        assert!(parse_stats_jsonl("\n").unwrap().is_empty());
    }

    #[test]
    fn sampler_thread_writes_and_finishes() {
        // Serialize against other tests that might start a sampler.
        let _g = crate::telemetry_test_guard();
        let dir = std::env::temp_dir().join("surfnet-stats-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.jsonl");
        start(path.clone(), 10);
        std::thread::sleep(Duration::from_millis(40));
        let finished = finish().unwrap();
        assert_eq!(finished, path);
        let text = std::fs::read_to_string(&path).unwrap();
        let records = parse_stats_jsonl(&text).unwrap();
        assert!(!records.is_empty());
        // seq is dense from 0 and t_ms is monotone.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.get("seq").and_then(Value::as_u64), Some(i as u64));
        }
        let times: Vec<u64> = records
            .iter()
            .map(|r| r.get("t_ms").and_then(Value::as_u64).unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        std::fs::remove_file(&path).ok();
    }
}
