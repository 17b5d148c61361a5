//! Failure flight recorder: capture failing shots into replayable artifacts.
//!
//! When armed (via [`init_from_env`] reading `SURFNET_FLIGHT=<dir>`, or
//! [`arm`] in tests), the evaluation loop captures every shot that ends in
//! a logical error — and every shot whose decode trips a `SURFNET_CHECK`
//! invariant panic — into a self-contained JSON artifact:
//!
//! ```text
//! {
//!   "schema": "surfnet-flight/v1",
//!   "kind": "logical_error" | "invariant_panic",
//!   "context": { "design", "scenario", "trial_seed", "code_distance", "segment" },
//!   "model": { "pauli_prob": [...], "erasure_prob": [...] },
//!   "sample": { "pauli": "IXZ..", "erased": [...] },
//!   "syndrome": { "z_flips": [...], "x_flips": [...] },
//!   "decoders": [ { "name", "correction", "syndrome_cleared", "logical_x", "logical_z" } ],
//!   "panic_message": "...",          // invariant_panic only
//!   "journal_tail": [ ... ]          // recent events from this thread's journal ring
//! }
//! ```
//!
//! Arming is per thread: [`arm`] arms the calling thread, and the
//! experiment runner hands that thread's [`Recorder`] to its workers. Runs
//! that share a process without sharing an arming thread (parallel tests)
//! therefore never capture into each other's directory or budget.
//!
//! The model stores the *raw probabilities* (not fidelities) so replay is
//! bit-exact: see [`ErrorModel::from_probabilities`]. [`replay_artifact`]
//! re-executes a captured shot deterministically — no RNG is involved once
//! the sampled error pattern is pinned — and diffs the recorded decoder
//! behavior against a fresh decode, plus the decoders against each other
//! (SurfNet vs MWPM disagreement triage). The `surfnet-bench` `replay`
//! binary is a thin CLI over this module.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use surfnet_decoder::{Decoder, MwpmDecoder, SurfNetDecoder, UnionFindDecoder};
use surfnet_lattice::{ErrorModel, ErrorSample, Pauli, PauliString, SurfaceCode, Syndrome};
use surfnet_telemetry::journal;
use surfnet_telemetry::json::{self, Value};

/// Default capture budget when `SURFNET_FLIGHT_MAX` is unset.
pub const DEFAULT_MAX_CAPTURES: usize = 4;

/// Capture directory and budget, shared by every thread of one armed run.
struct Config {
    dir: PathBuf,
    max: usize,
    captured: usize,
}

/// The recorder a thread captures into; `None` when disarmed. Clone it to
/// hand the calling thread's recorder to a worker thread, which then
/// [`install`](Recorder::install)s it.
#[derive(Clone, Default)]
pub struct Recorder(Option<Arc<Mutex<Config>>>);

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

impl Recorder {
    /// The calling thread's recorder.
    pub fn current() -> Recorder {
        RECORDER.with(|r| r.borrow().clone())
    }

    /// Makes this the calling thread's recorder: its captures share this
    /// recorder's directory and budget.
    pub fn install(self) {
        RECORDER.with(|r| *r.borrow_mut() = self);
    }
}

/// Whether the calling thread's flight recorder is armed. The evaluation
/// hot path checks this before doing any capture work.
#[inline]
pub fn armed() -> bool {
    RECORDER.with(|r| r.borrow().0.is_some())
}

/// Arms the calling thread's recorder: up to `max` failing shots are
/// written under `dir`.
pub fn arm(dir: impl Into<PathBuf>, max: usize) {
    Recorder(Some(Arc::new(Mutex::new(Config {
        dir: dir.into(),
        max,
        captured: 0,
    }))))
    .install();
}

/// Disarms the calling thread's recorder.
pub fn disarm() {
    Recorder::default().install();
}

/// Values that read as boolean switches rather than directories. Someone
/// exporting `SURFNET_FLIGHT=1` expected an on/off knob; silently creating
/// a directory literally named `1` (or `true`) would hide that mistake.
const SWITCH_LIKE: &[&str] = &[
    "1", "on", "true", "yes", "y", "enable", "enabled", "false", "no", "n", "disable", "disabled",
    "none",
];

/// Parses the `SURFNET_FLIGHT` / `SURFNET_FLIGHT_MAX` pair into a capture
/// directory and budget, or `None` when the recorder should stay disarmed.
///
/// `SURFNET_FLIGHT` accepts a capture directory to arm, or unset / `""` /
/// `0` / `off` to stay disarmed. Switch-like values (`1`, `true`, ...) are
/// rejected rather than treated as directory names. `SURFNET_FLIGHT_MAX`
/// accepts a non-negative integer, or unset / `""` for
/// [`DEFAULT_MAX_CAPTURES`]; it is validated even when the recorder is
/// disarmed, so a garbled budget never silently rides along.
///
/// # Errors
///
/// Returns a message naming the offending variable and the accepted forms.
pub fn parse_flight_spec(
    flight: Option<&str>,
    max: Option<&str>,
) -> Result<Option<(PathBuf, usize)>, String> {
    let budget = match max.map(str::trim) {
        None | Some("") => DEFAULT_MAX_CAPTURES,
        Some(raw) => raw.parse::<usize>().map_err(|_| {
            format!(
                "unrecognized SURFNET_FLIGHT_MAX value {raw:?}; accepted forms: \
                 a non-negative integer capture budget, or unset/empty for the \
                 default ({DEFAULT_MAX_CAPTURES})"
            )
        })?,
    };
    let Some(raw) = flight else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() || trimmed == "0" || trimmed.eq_ignore_ascii_case("off") {
        return Ok(None);
    }
    if SWITCH_LIKE.contains(&trimmed.to_ascii_lowercase().as_str()) {
        return Err(format!(
            "ambiguous SURFNET_FLIGHT value {trimmed:?} — the knob takes a capture \
             directory, not an on/off switch; accepted forms: a directory path to \
             arm, or unset/empty/\"0\"/\"off\" to stay disarmed"
        ));
    }
    Ok(Some((PathBuf::from(trimmed), budget)))
}

/// Arms the recorder from `SURFNET_FLIGHT` (capture directory) and
/// `SURFNET_FLIGHT_MAX` (capture budget, default
/// [`DEFAULT_MAX_CAPTURES`]). Empty, `0`, or `off` leaves it disarmed.
/// Returns the capture directory when armed.
///
/// A malformed value prints the accepted forms to stderr and **exits with
/// status 2** (mirroring `SURFNET_STATS` / `SURFNET_TELEMETRY`): a garbled
/// spec means the caller expected captures and would otherwise silently
/// not get them.
pub fn init_from_env() -> Option<PathBuf> {
    let flight = std::env::var("SURFNET_FLIGHT").ok();
    let max = std::env::var("SURFNET_FLIGHT_MAX").ok();
    match parse_flight_spec(flight.as_deref(), max.as_deref()) {
        Ok(None) => None,
        Ok(Some((dir, budget))) => {
            arm(&dir, budget);
            Some(dir)
        }
        Err(message) => {
            // analyzer:allow(print-site): fatal env misconfiguration must
            // reach stderr before the process exits
            eprintln!("surfnet-flight: {message}");
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------------------
// Trial context (thread-local; set by the pipeline, read at capture time).
// The trial seed and the segment come from the trace context
// (`surfnet_telemetry::trace::current`), which the pipeline installs anyway.

#[derive(Debug, Clone, Default)]
struct TrialContext {
    design: Option<String>,
    scenario: Option<String>,
}

thread_local! {
    static CONTEXT: RefCell<TrialContext> = RefCell::new(TrialContext::default());
}

/// RAII guard restoring the previous thread-local trial context on drop.
pub struct ContextScope {
    saved: TrialContext,
}

impl Drop for ContextScope {
    fn drop(&mut self) {
        let saved = std::mem::take(&mut self.saved);
        CONTEXT.with(|c| *c.borrow_mut() = saved);
    }
}

/// Records the design and scenario for subsequent captures on this thread.
pub fn trial_scope(design: &str, scenario: &str) -> ContextScope {
    let ctx = TrialContext {
        design: Some(design.to_string()),
        scenario: Some(scenario.to_string()),
    };
    ContextScope {
        saved: CONTEXT.with(|c| c.replace(ctx)),
    }
}

// ---------------------------------------------------------------------------
// Capture.

/// Captures a shot that decoded cleanly but suffered a logical error.
/// Returns the artifact path, or `None` when disarmed, over budget, or the
/// write failed.
pub fn capture_logical_error(
    code: &SurfaceCode,
    model: &ErrorModel,
    sample: &ErrorSample,
) -> Option<PathBuf> {
    capture(code, model, sample, "logical_error", None)
}

/// Captures a shot whose decode panicked (a `SURFNET_CHECK` invariant
/// tripped). The failing decoder is *not* re-run here — replay re-triggers
/// it under a debugger instead.
pub fn capture_invariant_panic(
    code: &SurfaceCode,
    model: &ErrorModel,
    sample: &ErrorSample,
    message: &str,
) -> Option<PathBuf> {
    capture(code, model, sample, "invariant_panic", Some(message))
}

fn capture(
    code: &SurfaceCode,
    model: &ErrorModel,
    sample: &ErrorSample,
    kind: &str,
    panic_message: Option<&str>,
) -> Option<PathBuf> {
    let shared = Recorder::current().0?;
    let (dir, index) = {
        let mut cfg = shared.lock().expect("flight config lock");
        if cfg.captured >= cfg.max {
            return None;
        }
        cfg.captured += 1;
        (cfg.dir.clone(), cfg.captured - 1)
    };
    surfnet_telemetry::event!("flight.capture");
    surfnet_telemetry::count!("flight.captured");
    let artifact = build_artifact(code, model, sample, kind, panic_message);
    let ctx = CONTEXT.with(|c| c.borrow().clone());
    let design = slug(ctx.design.as_deref().unwrap_or("unknown"));
    let seed = surfnet_telemetry::trace::current()
        .trial
        .map(|s| s.to_string())
        .unwrap_or_else(|| "noseed".to_string());
    let path = dir.join(format!("FLIGHT_{design}_{seed}_{index}.json"));
    let mut out = String::new();
    artifact.write_pretty(&mut out);
    out.push('\n');
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out));
    match written {
        Ok(()) => {
            // analyzer:allow(print-site): operator-facing notice that a replay artifact exists; stderr is the only channel a failing sweep has
            eprintln!("surfnet-flight: captured {kind} shot to {}", path.display());
            Some(path)
        }
        Err(e) => {
            // analyzer:allow(print-site): capture failures must not abort the sweep, but staying silent would hide the lost artifact
            eprintln!("surfnet-flight: failed to write {}: {e}", path.display());
            None
        }
    }
}

/// Lowercased alphanumeric-and-dashes form of a design label
/// (`Purification N=2` → `purification-n-2`).
fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

fn bools(flags: &[bool]) -> Value {
    flags.iter().map(|&b| Value::Bool(b)).collect()
}

fn probs(values: impl Iterator<Item = f64>) -> Value {
    values.map(Value::Num).collect()
}

fn build_artifact(
    code: &SurfaceCode,
    model: &ErrorModel,
    sample: &ErrorSample,
    kind: &str,
    panic_message: Option<&str>,
) -> Value {
    let ctx = CONTEXT.with(|c| c.borrow().clone());
    let trace = surfnet_telemetry::trace::current();
    let syndrome = code.extract_syndrome(&sample.pauli);
    let n = model.len();
    let opt_u64 = |v: Option<u64>| v.map(Value::from).unwrap_or(Value::Null);
    let mut fields = vec![
        ("schema", Value::from("surfnet-flight/v1")),
        ("kind", Value::from(kind)),
        (
            "context",
            json::obj(vec![
                (
                    "design",
                    Value::from(ctx.design.as_deref().unwrap_or("unknown")),
                ),
                (
                    "scenario",
                    Value::from(ctx.scenario.as_deref().unwrap_or("unknown")),
                ),
                ("trial_seed", opt_u64(trace.trial)),
                ("code_distance", Value::from(code.distance())),
                ("segment", opt_u64(trace.segment)),
            ]),
        ),
        (
            "model",
            json::obj(vec![
                ("pauli_prob", probs((0..n).map(|q| model.pauli_prob(q)))),
                ("erasure_prob", probs((0..n).map(|q| model.erasure_prob(q)))),
            ]),
        ),
        (
            "sample",
            json::obj(vec![
                ("pauli", Value::from(sample.pauli.to_string())),
                ("erased", bools(&sample.erased)),
            ]),
        ),
        (
            "syndrome",
            json::obj(vec![
                ("z_flips", bools(&syndrome.z_flips)),
                ("x_flips", bools(&syndrome.x_flips)),
            ]),
        ),
        (
            "decoders",
            if kind == "logical_error" {
                decoder_entries(code, model, sample, &syndrome)
            } else {
                Value::Arr(Vec::new())
            },
        ),
    ];
    if let Some(msg) = panic_message {
        fields.push(("panic_message", Value::from(msg)));
    }
    fields.push(("journal_tail", journal_tail()));
    json::obj(fields)
}

/// Re-decodes the captured shot with all three decoders (deterministic —
/// each decoder is a pure function of code, model, syndrome, erasures) and
/// records each one's correction and score.
fn decoder_entries(
    code: &SurfaceCode,
    model: &ErrorModel,
    sample: &ErrorSample,
    syndrome: &Syndrome,
) -> Value {
    let decoders: Vec<Box<dyn Decoder>> = vec![
        Box::new(MwpmDecoder::from_model(code, model)),
        Box::new(UnionFindDecoder::from_model(code, model)),
        Box::new(SurfNetDecoder::from_model(code, model)),
    ];
    decoders
        .iter()
        .map(|d| {
            let name = d.name();
            // A SURFNET_CHECK invariant can trip inside this diagnostic
            // re-decode too; a panicking decoder becomes an "error" entry
            // rather than aborting the capture.
            let decoded = catch_unwind(AssertUnwindSafe(|| {
                d.decode(code, syndrome, &sample.erased)
            }));
            match decoded {
                Ok(Ok(correction)) => {
                    let outcome = code.score_correction(&sample.pauli, &correction);
                    json::obj(vec![
                        ("name", Value::from(name)),
                        ("correction", Value::from(correction.to_string())),
                        ("syndrome_cleared", Value::Bool(outcome.syndrome_cleared)),
                        ("logical_x", Value::Bool(outcome.logical_failure.x)),
                        ("logical_z", Value::Bool(outcome.logical_failure.z)),
                    ])
                }
                Ok(Err(e)) => json::obj(vec![
                    ("name", Value::from(name)),
                    ("error", Value::from(format!("{e}"))),
                ]),
                Err(payload) => json::obj(vec![
                    ("name", Value::from(name)),
                    ("error", Value::from(panic_text(&payload))),
                ]),
            }
        })
        .collect()
}

fn journal_tail() -> Value {
    journal::thread_tail(128)
        .into_iter()
        .map(|e| {
            let mut fields = vec![
                ("ts_ns", Value::from(e.ts_ns)),
                ("tid", Value::from(e.tid)),
                ("name", Value::from(e.name)),
                ("phase", Value::from(e.phase.code())),
            ];
            if let Some(arg) = e.arg {
                fields.push(("arg", Value::from(arg)));
            }
            if let Some(trial) = e.ctx.trial {
                fields.push(("trial", Value::from(trial)));
            }
            if let Some(req) = e.ctx.request {
                fields.push(("req", Value::from(req)));
            }
            if let Some(seg) = e.ctx.segment {
                fields.push(("seg", Value::from(seg)));
            }
            json::obj(fields)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Journal-tail timeline.

/// Renders the `journal_tail` of a flight artifact as an indented span
/// timeline: matched begin/end pairs become spans with durations, instants
/// are printed at their nesting depth, and trace-context ids (trial /
/// request / segment) are annotated where recorded. Timestamps are relative
/// to the first event in the tail.
///
/// Returns `None` when the artifact has no journal tail (journal disabled
/// during capture) or the tail is empty.
///
/// # Errors
///
/// Returns a message when the tail is present but malformed (missing
/// `ts_ns`/`name`/`phase`).
pub fn render_journal_timeline(artifact: &Value) -> Result<Option<String>, String> {
    let Some(tail) = artifact.get("journal_tail") else {
        return Ok(None);
    };
    let entries = tail
        .as_array()
        .ok_or("field `journal_tail` is not an array")?;
    if entries.is_empty() {
        return Ok(None);
    }

    struct Entry {
        ts_ns: u64,
        name: String,
        phase: char,
        ctx: String,
    }
    let mut events = Vec::with_capacity(entries.len());
    for e in entries {
        let ts_ns = field(e, "ts_ns")?
            .as_u64()
            .ok_or("journal_tail `ts_ns` is not an integer")?;
        let name = str_field(e, "name")?;
        let phase = str_field(e, "phase")?
            .chars()
            .next()
            .ok_or("journal_tail `phase` is empty")?;
        let mut ctx = String::new();
        for (key, label) in [("trial", "trial"), ("req", "req"), ("seg", "seg")] {
            if let Some(v) = e.get(key).and_then(Value::as_u64) {
                if !ctx.is_empty() {
                    ctx.push(' ');
                }
                ctx.push_str(&format!("{label}={v}"));
            }
        }
        events.push(Entry {
            ts_ns,
            name,
            phase,
            ctx,
        });
    }
    events.sort_by_key(|e| e.ts_ns);
    let t0 = events[0].ts_ns;

    // First pass: match begin/end pairs so spans print with durations.
    let mut durations: Vec<Option<u64>> = vec![None; events.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match e.phase {
            'B' => stack.push(i),
            'E' => {
                // Pop to the innermost open span with this name; spans that
                // never see their end (tail truncation) stay open.
                if let Some(pos) = stack.iter().rposition(|&b| events[b].name == e.name) {
                    let begin = stack.remove(pos);
                    durations[begin] = Some(e.ts_ns.saturating_sub(events[begin].ts_ns));
                }
            }
            _ => {}
        }
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = String::from("journal tail timeline (capturing thread):\n");
    let mut depth = 0usize;
    for (i, e) in events.iter().enumerate() {
        let rel = format!("+{:.3}ms", ms(e.ts_ns - t0));
        let ctx = if e.ctx.is_empty() {
            String::new()
        } else {
            format!("  [{}]", e.ctx)
        };
        match e.phase {
            'B' => {
                let dur = match durations[i] {
                    Some(d) => format!("{:.3}ms", ms(d)),
                    None => "(open)".to_string(),
                };
                out.push_str(&format!(
                    "  {rel:>12}  {:indent$}{} {dur}{ctx}\n",
                    "",
                    e.name,
                    indent = depth * 2
                ));
                depth += 1;
            }
            'E' => depth = depth.saturating_sub(1),
            _ => {
                out.push_str(&format!(
                    "  {rel:>12}  {:indent$}! {}{ctx}\n",
                    "",
                    e.name,
                    indent = depth * 2
                ));
            }
        }
    }
    Ok(Some(out))
}

/// Human-readable text of a caught panic payload.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Replay.

/// How one decoder behaved when the captured shot was re-executed.
#[derive(Debug, Clone)]
pub struct DecoderReplay {
    /// Decoder name (`mwpm`, `union-find`, `surfnet`).
    pub name: String,
    /// Correction recorded in the artifact (None for panic captures or
    /// recorded decode errors).
    pub recorded_correction: Option<String>,
    /// Correction produced by the replay (None if the replay decode
    /// errored or panicked; the message is then in `replay_error`).
    pub replayed_correction: Option<String>,
    /// Replay-side decode error or invariant panic, if any.
    pub replay_error: Option<String>,
    /// Whether the replayed shot suffered a logical error.
    pub replayed_failure: Option<bool>,
    /// Whether the replay reproduced the recorded correction and score
    /// bit-for-bit (true when nothing was recorded to compare against).
    pub matches_recording: bool,
}

/// A pair of decoders whose replayed corrections differ, and where.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// First decoder name.
    pub a: String,
    /// Second decoder name.
    pub b: String,
    /// Data qubits on which the two corrections apply different Paulis.
    pub qubits: Vec<usize>,
}

/// The result of deterministically re-executing a captured shot.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Artifact kind (`logical_error` or `invariant_panic`).
    pub kind: String,
    /// Design label from the capture context.
    pub design: String,
    /// Scenario label from the capture context.
    pub scenario: String,
    /// Trial RNG seed, when recorded.
    pub seed: Option<u64>,
    /// Surface-code distance.
    pub code_distance: usize,
    /// Whether the syndrome recomputed from the stored error pattern
    /// matches the stored syndrome exactly.
    pub syndrome_matches: bool,
    /// Panic message for invariant captures.
    pub panic_message: Option<String>,
    /// Per-decoder replay outcomes.
    pub decoders: Vec<DecoderReplay>,
}

impl ReplayReport {
    /// Whether the replay reproduced every recorded observation exactly.
    pub fn is_faithful(&self) -> bool {
        self.syndrome_matches && self.decoders.iter().all(|d| d.matches_recording)
    }

    /// Pairs of decoders whose replayed corrections differ (the SurfNet vs
    /// MWPM triage view).
    pub fn disagreements(&self) -> Vec<Disagreement> {
        let mut out = Vec::new();
        for i in 0..self.decoders.len() {
            for j in i + 1..self.decoders.len() {
                let (a, b) = (&self.decoders[i], &self.decoders[j]);
                let (Some(ca), Some(cb)) = (&a.replayed_correction, &b.replayed_correction) else {
                    continue;
                };
                let qubits: Vec<usize> = ca
                    .chars()
                    .zip(cb.chars())
                    .enumerate()
                    .filter(|(_, (x, y))| x != y)
                    .map(|(q, _)| q)
                    .collect();
                if !qubits.is_empty() {
                    out.push(Disagreement {
                        a: a.name.clone(),
                        b: b.name.clone(),
                        qubits,
                    });
                }
            }
        }
        out
    }

    /// Multi-line human-readable rendering (what the `replay` binary
    /// prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "kind={} design={} scenario={} seed={} d={}\n",
            self.kind,
            self.design,
            self.scenario,
            self.seed
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".to_string()),
            self.code_distance
        ));
        if let Some(msg) = &self.panic_message {
            out.push_str(&format!("captured panic: {msg}\n"));
        }
        out.push_str(&format!(
            "syndrome: {}\n",
            if self.syndrome_matches {
                "reproduced"
            } else {
                "MISMATCH"
            }
        ));
        for d in &self.decoders {
            let status = match (&d.replay_error, d.replayed_failure) {
                (Some(e), _) => format!("error: {e}"),
                (None, Some(true)) => "logical error".to_string(),
                (None, Some(false)) => "success".to_string(),
                (None, None) => "not replayed".to_string(),
            };
            let fidelity = if d.matches_recording {
                "matches recording"
            } else {
                "DIVERGED from recording"
            };
            out.push_str(&format!("  {:<11} {status} ({fidelity})\n", d.name));
        }
        for dis in self.disagreements() {
            out.push_str(&format!(
                "  {} vs {} disagree on qubits {:?}\n",
                dis.a, dis.b, dis.qubits
            ));
        }
        out
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

fn bool_array(v: &Value, key: &str) -> Result<Vec<bool>, String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("field `{key}` is not an array"))?
        .iter()
        .map(|e| {
            e.as_bool()
                .ok_or_else(|| format!("field `{key}` holds a non-boolean"))
        })
        .collect()
}

fn f64_array(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("field `{key}` is not an array"))?
        .iter()
        .map(|e| {
            e.as_f64()
                .ok_or_else(|| format!("field `{key}` holds a non-number"))
        })
        .collect()
}

fn parse_pauli_string(s: &str) -> Result<PauliString, String> {
    s.chars()
        .map(|c| match c {
            'I' => Ok(Pauli::I),
            'X' => Ok(Pauli::X),
            'Y' => Ok(Pauli::Y),
            'Z' => Ok(Pauli::Z),
            other => Err(format!("invalid Pauli character `{other}`")),
        })
        .collect::<Result<Vec<Pauli>, String>>()
        .map(PauliString::from_ops)
}

/// Loads and parses a flight artifact from disk.
///
/// # Errors
///
/// Returns a message when the file is unreadable or not valid JSON.
pub fn load_artifact(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))
}

/// Deterministically re-executes a captured shot and diffs it against the
/// recording.
///
/// Replay needs no RNG: the artifact pins the sampled error pattern, and
/// every decoder is a pure function of (code, model, syndrome, erasures).
/// For `invariant_panic` artifacts (no recorded decoder entries) all three
/// decoders are run fresh, with panics caught into `replay_error`.
///
/// # Errors
///
/// Returns a message when the artifact is malformed or internally
/// inconsistent (wrong schema, bad Pauli characters, length mismatches).
pub fn replay_artifact(artifact: &Value) -> Result<ReplayReport, String> {
    let schema = str_field(artifact, "schema")?;
    if schema != "surfnet-flight/v1" {
        return Err(format!("unsupported artifact schema `{schema}`"));
    }
    let kind = str_field(artifact, "kind")?;
    let context = field(artifact, "context")?;
    let design = str_field(context, "design")?;
    let scenario = str_field(context, "scenario")?;
    let seed = field(context, "trial_seed")?.as_u64();
    let code_distance = field(context, "code_distance")?
        .as_u64()
        .ok_or("field `code_distance` is not an integer")? as usize;
    let code = SurfaceCode::new(code_distance).map_err(|e| format!("bad code distance: {e}"))?;

    let model_v = field(artifact, "model")?;
    let model = ErrorModel::from_probabilities(
        &f64_array(model_v, "pauli_prob")?,
        &f64_array(model_v, "erasure_prob")?,
    )
    .map_err(|e| format!("bad error model: {e}"))?;
    if model.len() != code.num_data_qubits() {
        return Err(format!(
            "model covers {} qubits but distance-{code_distance} code has {}",
            model.len(),
            code.num_data_qubits()
        ));
    }

    let sample_v = field(artifact, "sample")?;
    let sample = ErrorSample {
        pauli: parse_pauli_string(&str_field(sample_v, "pauli")?)?,
        erased: bool_array(sample_v, "erased")?,
    };
    if sample.pauli.len() != code.num_data_qubits() || sample.erased.len() != sample.pauli.len() {
        return Err("sample length does not match the code".to_string());
    }

    let syndrome = code.extract_syndrome(&sample.pauli);
    let recorded_syndrome = field(artifact, "syndrome")?;
    let syndrome_matches = bool_array(recorded_syndrome, "z_flips")? == syndrome.z_flips
        && bool_array(recorded_syndrome, "x_flips")? == syndrome.x_flips;

    let recorded: Vec<&Value> = field(artifact, "decoders")?
        .as_array()
        .ok_or("field `decoders` is not an array")?
        .iter()
        .collect();
    let names: Vec<String> = if recorded.is_empty() {
        vec!["mwpm".into(), "union-find".into(), "surfnet".into()]
    } else {
        recorded
            .iter()
            .map(|d| str_field(d, "name"))
            .collect::<Result<_, _>>()?
    };

    let mut decoders = Vec::with_capacity(names.len());
    for (i, name) in names.iter().enumerate() {
        let decoder: Box<dyn Decoder> = match name.as_str() {
            "mwpm" => Box::new(MwpmDecoder::from_model(&code, &model)),
            "union-find" => Box::new(UnionFindDecoder::from_model(&code, &model)),
            "surfnet" => Box::new(SurfNetDecoder::from_model(&code, &model)),
            other => return Err(format!("unknown decoder `{other}` in artifact")),
        };
        let decoded = catch_unwind(AssertUnwindSafe(|| {
            decoder.decode(&code, &syndrome, &sample.erased)
        }));
        let (replayed_correction, replay_error, replayed_failure, replayed_score) = match decoded {
            Ok(Ok(correction)) => {
                let outcome = code.score_correction(&sample.pauli, &correction);
                (
                    Some(correction.to_string()),
                    None,
                    Some(outcome.logical_failure.any()),
                    Some(outcome),
                )
            }
            Ok(Err(e)) => (None, Some(format!("{e}")), None, None),
            Err(payload) => (None, Some(panic_text(&payload)), None, None),
        };
        let recorded_entry = recorded.get(i);
        let recorded_correction = recorded_entry
            .and_then(|d| d.get("correction"))
            .and_then(|c| c.as_str())
            .map(str::to_string);
        let matches_recording = match (recorded_entry, &recorded_correction) {
            (Some(entry), Some(rec)) => {
                let flags_match =
                    ["syndrome_cleared", "logical_x", "logical_z"]
                        .iter()
                        .all(|&flag| {
                            match (entry.get(flag).and_then(Value::as_bool), &replayed_score) {
                                (Some(rec_flag), Some(out)) => {
                                    let replayed_flag = match flag {
                                        "syndrome_cleared" => out.syndrome_cleared,
                                        "logical_x" => out.logical_failure.x,
                                        _ => out.logical_failure.z,
                                    };
                                    rec_flag == replayed_flag
                                }
                                _ => false,
                            }
                        });
                replayed_correction.as_deref() == Some(rec.as_str()) && flags_match
            }
            // The recording has an error entry (or nothing): faithful iff
            // the replay also failed to produce a correction.
            _ => replayed_correction.is_none() || recorded_entry.is_none(),
        };
        decoders.push(DecoderReplay {
            name: name.clone(),
            recorded_correction,
            replayed_correction,
            replay_error,
            replayed_failure,
            matches_recording,
        });
    }

    Ok(ReplayReport {
        kind,
        design,
        scenario,
        seed,
        code_distance,
        syndrome_matches,
        panic_message: artifact
            .get("panic_message")
            .and_then(|m| m.as_str())
            .map(str::to_string),
        decoders,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use surfnet_lattice::CoreTopology;

    fn failing_shot(code: &SurfaceCode, model: &ErrorModel, seed: u64) -> ErrorSample {
        // High noise so a failure appears within a bounded number of draws.
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..10_000 {
            let sample = model.sample(&mut rng);
            let outcome = SurfNetDecoder::from_model(code, model).decode_sample(code, &sample);
            if !outcome.is_success() {
                return sample;
            }
        }
        panic!("no failing shot found at this noise level");
    }

    #[test]
    fn flight_spec_accepts_documented_forms() {
        // Disarmed forms.
        assert_eq!(parse_flight_spec(None, None), Ok(None));
        assert_eq!(parse_flight_spec(Some(""), None), Ok(None));
        assert_eq!(parse_flight_spec(Some("  "), None), Ok(None));
        assert_eq!(parse_flight_spec(Some("0"), None), Ok(None));
        assert_eq!(parse_flight_spec(Some("OFF"), None), Ok(None));
        // Armed with the default and an explicit budget.
        assert_eq!(
            parse_flight_spec(Some("/tmp/captures"), None),
            Ok(Some((PathBuf::from("/tmp/captures"), DEFAULT_MAX_CAPTURES)))
        );
        assert_eq!(
            parse_flight_spec(Some("captures"), Some("12")),
            Ok(Some((PathBuf::from("captures"), 12)))
        );
        assert_eq!(
            parse_flight_spec(Some("captures"), Some(" 0 ")),
            Ok(Some((PathBuf::from("captures"), 0)))
        );
        // Empty budget falls back to the default.
        assert_eq!(
            parse_flight_spec(Some("captures"), Some("")),
            Ok(Some((PathBuf::from("captures"), DEFAULT_MAX_CAPTURES)))
        );
    }

    #[test]
    fn flight_spec_rejects_garbled_values() {
        // Switch-like directory values are a misunderstanding, not a path.
        for bad in ["1", "true", "ON", "yes", "disabled"] {
            let err = parse_flight_spec(Some(bad), None).unwrap_err();
            assert!(err.contains("SURFNET_FLIGHT"), "{err}");
            assert!(err.contains("directory"), "{err}");
        }
        // Garbled budgets abort even though the recorder would be armed...
        let err = parse_flight_spec(Some("captures"), Some("lots")).unwrap_err();
        assert!(err.contains("SURFNET_FLIGHT_MAX"), "{err}");
        assert!(err.contains("integer"), "{err}");
        assert!(parse_flight_spec(Some("captures"), Some("-3")).is_err());
        assert!(parse_flight_spec(Some("captures"), Some("4x")).is_err());
        // ...and even when it is disarmed: the typo should surface now,
        // not on the next run that also sets SURFNET_FLIGHT.
        assert!(parse_flight_spec(None, Some("lots")).is_err());
    }

    #[test]
    fn slug_flattens_labels() {
        assert_eq!(slug("SurfNet"), "surfnet");
        assert_eq!(slug("Purification N=2"), "purification-n-2");
        assert_eq!(slug("--x--"), "x");
    }

    #[test]
    fn disarmed_recorder_captures_nothing() {
        disarm();
        let code = SurfaceCode::new(3).unwrap();
        let model = ErrorModel::uniform(&code, 0.2, 0.1);
        let sample = failing_shot(&code, &model, 3);
        assert!(capture_logical_error(&code, &model, &sample).is_none());
    }

    #[test]
    fn capture_respects_budget_and_replay_is_bit_exact() {
        let dir = std::env::temp_dir().join("surfnet-flight-test-budget");
        let _ = std::fs::remove_dir_all(&dir);
        arm(&dir, 2);
        let _design = trial_scope("SurfNet", "abundant/good");
        let _seed = surfnet_telemetry::trace::trial_scope(77);
        let code = SurfaceCode::new(5).unwrap();
        let part = code.core_partition(CoreTopology::Cross);
        let model = ErrorModel::dual_channel(&code, &part, 0.12, 0.15);
        let sample = failing_shot(&code, &model, 8);

        let first = capture_logical_error(&code, &model, &sample).expect("first capture");
        let second = capture_logical_error(&code, &model, &sample).expect("second capture");
        assert!(capture_logical_error(&code, &model, &sample).is_none());
        assert_ne!(first, second);
        assert!(first
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("FLIGHT_surfnet_77_"));

        let artifact = load_artifact(&first).expect("load");
        let report = replay_artifact(&artifact).expect("replay");
        assert!(report.syndrome_matches, "syndrome diverged");
        assert!(report.is_faithful(), "replay diverged: {}", report.render());
        assert_eq!(report.design, "SurfNet");
        assert_eq!(report.seed, Some(77));
        assert_eq!(report.decoders.len(), 3);
        // The captured shot was a SurfNet logical error; replay must agree.
        let surfnet = report
            .decoders
            .iter()
            .find(|d| d.name == "surfnet")
            .unwrap();
        assert_eq!(surfnet.replayed_failure, Some(true));

        disarm();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invariant_capture_records_panic_message() {
        let dir = std::env::temp_dir().join("surfnet-flight-test-panic");
        let _ = std::fs::remove_dir_all(&dir);
        arm(&dir, 1);
        let code = SurfaceCode::new(3).unwrap();
        let model = ErrorModel::uniform(&code, 0.1, 0.1);
        let sample = model.sample(&mut SmallRng::seed_from_u64(4));
        let path = capture_invariant_panic(&code, &model, &sample, "check tripped: odd parity")
            .expect("capture");
        let artifact = load_artifact(&path).expect("load");
        assert_eq!(
            artifact.get("kind").and_then(|k| k.as_str()),
            Some("invariant_panic")
        );
        let report = replay_artifact(&artifact).expect("replay");
        assert_eq!(
            report.panic_message.as_deref(),
            Some("check tripped: odd parity")
        );
        // No decoders were recorded; replay runs all three fresh.
        assert_eq!(report.decoders.len(), 3);
        disarm();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipeline_capture_replays_bit_for_bit() {
        // End to end: arm the recorder, run real trials until one shot
        // fails, then replay the artifact and demand an exact reproduction
        // of the captured syndrome and every decoder's correction.
        let dir = std::env::temp_dir().join("surfnet-flight-test-e2e");
        let _ = std::fs::remove_dir_all(&dir);
        arm(&dir, 1);
        let cfg = crate::scenario::TrialConfig::default();
        let mut captured = None;
        for seed in 0..64 {
            let _ = crate::pipeline::run_trial(crate::pipeline::Design::SurfNet, &cfg, seed);
            if let Some(entry) = std::fs::read_dir(&dir).ok().and_then(|mut d| d.next()) {
                captured = Some((seed, entry.expect("dir entry").path()));
                break;
            }
        }
        let (seed, path) = captured.expect("no logical error captured in 64 trials");
        let artifact = load_artifact(&path).expect("load");
        let report = replay_artifact(&artifact).expect("replay");
        assert_eq!(report.kind, "logical_error");
        assert_eq!(report.design, "SurfNet");
        assert_eq!(report.seed, Some(seed));
        assert!(report.syndrome_matches, "syndrome diverged on replay");
        assert!(
            report.is_faithful(),
            "replay diverged from the recording:\n{}",
            report.render()
        );
        disarm();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arming_is_per_thread_and_follows_runner_workers() {
        let dir = std::env::temp_dir().join("surfnet-flight-test-workers");
        let _ = std::fs::remove_dir_all(&dir);
        arm(&dir, 1);
        assert!(!std::thread::scope(|s| s.spawn(armed).join().unwrap()));
        let cfg = crate::scenario::TrialConfig::default();
        crate::experiments::runner::parallel_trials(crate::pipeline::Design::SurfNet, &cfg, 64, 0);
        let captured = std::fs::read_dir(&dir).map_or(0, |d| d.count());
        assert_eq!(captured, 1, "workers share the caller's budget of one");
        disarm();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_rejects_malformed_artifacts() {
        assert!(replay_artifact(&Value::parse("{}").unwrap())
            .unwrap_err()
            .contains("schema"));
        let wrong = Value::parse(r#"{"schema":"surfnet-flight/v99"}"#).unwrap();
        assert!(replay_artifact(&wrong).unwrap_err().contains("v99"));
        assert!(parse_pauli_string("IXQZ").is_err());
    }

    #[test]
    fn timeline_renders_spans_instants_and_context() {
        let artifact = Value::parse(
            r#"{
              "journal_tail": [
                {"ts_ns": 1000, "tid": 7, "name": "pipeline.trial", "phase": "B", "trial": 42},
                {"ts_ns": 2000, "tid": 7, "name": "trial.stage.decode", "phase": "B", "trial": 42, "req": 3},
                {"ts_ns": 2500, "tid": 7, "name": "evaluate.shot_failed", "phase": "I", "trial": 42, "req": 3, "seg": 1},
                {"ts_ns": 4000, "tid": 7, "name": "trial.stage.decode", "phase": "E", "trial": 42},
                {"ts_ns": 9000, "tid": 7, "name": "pipeline.trial", "phase": "E", "trial": 42}
              ]
            }"#,
        )
        .unwrap();
        let text = render_journal_timeline(&artifact)
            .expect("well-formed tail")
            .expect("non-empty tail");
        // Spans carry durations; the instant is nested and annotated.
        assert!(text.contains("pipeline.trial 0.008ms"), "{text}");
        assert!(text.contains("trial.stage.decode 0.002ms"), "{text}");
        assert!(text.contains("! evaluate.shot_failed"), "{text}");
        assert!(text.contains("[trial=42 req=3 seg=1]"), "{text}");
        // Nesting: the stage span is indented under the trial span.
        let trial_line = text.lines().find(|l| l.contains("pipeline.trial")).unwrap();
        let stage_line = text
            .lines()
            .find(|l| l.contains("trial.stage.decode"))
            .unwrap();
        // Same fixed-width timestamp column, so name position reflects depth.
        assert!(
            stage_line.find("trial.stage.decode").unwrap()
                > trial_line.find("pipeline.trial").unwrap(),
            "{text}"
        );

        // Absent or empty tails render as None.
        assert!(render_journal_timeline(&Value::parse("{}").unwrap())
            .unwrap()
            .is_none());
        assert!(
            render_journal_timeline(&Value::parse(r#"{"journal_tail": []}"#).unwrap())
                .unwrap()
                .is_none()
        );
        // Malformed tails error.
        let bad = Value::parse(r#"{"journal_tail": [{"tid": 1}]}"#).unwrap();
        assert!(render_journal_timeline(&bad).is_err());
    }

    #[test]
    fn context_scopes_nest_and_restore() {
        {
            let _outer = trial_scope("Raw", "sparse/poor");
            CONTEXT.with(|c| assert_eq!(c.borrow().design.as_deref(), Some("Raw")));
            {
                let _inner = trial_scope("SurfNet", "abundant/good");
                CONTEXT.with(|c| {
                    assert_eq!(c.borrow().design.as_deref(), Some("SurfNet"));
                    assert_eq!(c.borrow().scenario.as_deref(), Some("abundant/good"));
                });
            }
            CONTEXT.with(|c| assert_eq!(c.borrow().scenario.as_deref(), Some("sparse/poor")));
        }
        CONTEXT.with(|c| assert_eq!(c.borrow().design, None));
    }
}
