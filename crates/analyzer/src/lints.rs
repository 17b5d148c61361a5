//! The lint registry and the built-in lints.
//!
//! | lint | family | severity | scope |
//! |------|--------|----------|-------|
//! | `wall-clock` | determinism | warning | everything except `telemetry`/`bench` |
//! | `hash-collections` | determinism | warning | library code of `decoder`/`netsim`/`routing`/`lattice` |
//! | `unseeded-rng` | determinism | warning | everything except shims |
//! | `panic-site` | panic-safety | warning | library code of `decoder`/`lp`/`netsim` |
//! | `telemetry-name` | telemetry discipline | error | everything except `telemetry` |
//! | `print-site` | workspace hygiene | warning | library code except `telemetry`/`bench` exporters |
//! | `scoped-flush` | concurrency | warning | everywhere, **including test code** |
//! | `atomic-ordering` | concurrency | warning | everything except test code |
//! | `env-var-registry` | configuration discipline | error | everywhere, including test code |
//! | `catalog-unused` | telemetry discipline | warning | the catalog/env registries themselves |
//!
//! Test code (`tests/` files and `#[cfg(test)]`/`#[test]` regions) is
//! exempt from most lints, but **not** from `scoped-flush` (both historical
//! scoped-thread shard losses lived in test code) or `env-var-registry`
//! (a typo'd knob in a test silently tests nothing). Any finding can be
//! suppressed with a `// analyzer:allow(<lint>): <reason>` comment on the
//! same line or the line above; a directive without a reason is itself
//! reported (`bad-allow`), and a directive that suppresses nothing is
//! reported too (`unused-allow`), so the suppression trail can neither rot
//! nor accumulate.

use crate::diagnostics::{Diagnostic, Report, Severity};
use crate::index::{match_paren, slice_calls_flush, WorkspaceIndex};
use crate::source::{FileKind, SourceFile};
use std::collections::BTreeSet;
use surfnet_telemetry::catalog::{self, MetricKind};
use surfnet_telemetry::envreg;

use crate::lexer::{Token, TokenKind};

/// A single static check over scanned source files.
pub trait Lint {
    /// Kebab-case lint name used in diagnostics and allow directives.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-lints`.
    fn description(&self) -> &'static str;
    /// Severity of this lint's findings.
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    /// Scans one `file` and appends raw (pre-suppression) findings to
    /// `out`. The workspace `index` carries cross-file facts (call graph,
    /// use edges).
    fn check(&self, file: &SourceFile, index: &WorkspaceIndex, out: &mut Vec<Diagnostic>);
    /// One pass over the whole file set, for lints whose subject is the
    /// workspace rather than a file (e.g. dead registry entries). Runs
    /// after every per-file pass.
    fn check_workspace(
        &self,
        _files: &[SourceFile],
        _index: &WorkspaceIndex,
        _out: &mut Vec<Diagnostic>,
    ) {
    }
}

/// The built-in lint set, in reporting order.
pub fn default_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(WallClock),
        Box::new(HashCollections),
        Box::new(UnseededRng),
        Box::new(PanicSite),
        Box::new(TelemetryName),
        Box::new(PrintSite),
        Box::new(ScopedFlush),
        Box::new(AtomicOrdering),
        Box::new(EnvVarRegistry),
        Box::new(CatalogUnused),
    ]
}

/// Name of the meta-lint reporting malformed/unknown allow directives.
pub const BAD_ALLOW: &str = "bad-allow";

/// Name of the meta-lint reporting allow directives that suppress nothing.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// Runs every lint over `files` as one workspace: builds the symbol index,
/// runs per-file and workspace passes, applies `analyzer:allow`
/// suppression (tracking which directives earned their keep), validates
/// the directives themselves (`bad-allow`), and flags stale ones
/// (`unused-allow`). Results fold into `report`.
pub fn analyze_files(files: &[SourceFile], lints: &[Box<dyn Lint>], report: &mut Report) {
    report.files += files.len();
    let index = WorkspaceIndex::build(files);

    let mut raw = Vec::new();
    for file in files {
        for lint in lints {
            lint.check(file, &index, &mut raw);
        }
    }
    for lint in lints {
        lint.check_workspace(files, &index, &mut raw);
    }

    // Suppression. Workspace-pass findings may land in any file, so route
    // each diagnostic back to its file before consulting the allows.
    let file_for = |path: &str| files.iter().find(|f| f.path == path);
    let mut used: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for diag in raw {
        let allow = file_for(&diag.path).and_then(|f| f.allow_for(diag.lint, diag.line));
        match allow {
            Some(a) => {
                report.suppressed += 1;
                used.insert((diag.path.clone(), a.line, a.lint.clone()));
            }
            None => report.diagnostics.push(diag),
        }
    }

    // Validate the directives themselves: unknown lint names and missing
    // reasons defeat the point of an auditable suppression trail.
    for file in files {
        for allow in &file.allows {
            let known = allow.lint == BAD_ALLOW
                || allow.lint == UNUSED_ALLOW
                || lints.iter().any(|l| l.name() == allow.lint);
            let problem = if allow.lint.is_empty() {
                Some(
                    "malformed analyzer:allow directive (expected `analyzer:allow(<lint>): <reason>`)"
                        .to_string(),
                )
            } else if !known {
                Some(format!(
                    "analyzer:allow names unknown lint `{}`",
                    allow.lint
                ))
            } else if allow.reason.is_empty() {
                Some(format!(
                    "analyzer:allow({}) is missing a `: <reason>` justification",
                    allow.lint
                ))
            } else {
                None
            };
            if let Some(message) = problem {
                report.diagnostics.push(Diagnostic {
                    lint: BAD_ALLOW,
                    severity: Severity::Warning,
                    path: file.path.clone(),
                    line: allow.line,
                    message,
                });
            }
        }
    }

    // Stale suppressions: a well-formed directive that silenced nothing is
    // itself a finding (suppressible in turn with allow(unused-allow), for
    // directives guarding platform- or cfg-dependent code).
    for file in files {
        for allow in &file.allows {
            let known = allow.lint == BAD_ALLOW
                || allow.lint == UNUSED_ALLOW
                || lints.iter().any(|l| l.name() == allow.lint);
            if !known || allow.lint == UNUSED_ALLOW {
                continue; // bad-allow covers unknown; meta-directives below
            }
            let key = (file.path.clone(), allow.line, allow.lint.clone());
            if used.contains(&key) {
                continue;
            }
            let diag = Diagnostic {
                lint: UNUSED_ALLOW,
                severity: Severity::Warning,
                path: file.path.clone(),
                line: allow.line,
                message: format!(
                    "analyzer:allow({}) suppresses nothing; remove the stale directive",
                    allow.lint
                ),
            };
            match file.allow_for(UNUSED_ALLOW, allow.line) {
                Some(a) => {
                    report.suppressed += 1;
                    used.insert((file.path.clone(), a.line, a.lint.clone()));
                }
                None => report.diagnostics.push(diag),
            }
        }
    }
    // Second pass for the meta-directives themselves, now that every use
    // of allow(unused-allow) has been recorded.
    for file in files {
        for allow in &file.allows {
            if allow.lint != UNUSED_ALLOW {
                continue;
            }
            let key = (file.path.clone(), allow.line, allow.lint.clone());
            if !used.contains(&key) {
                report.diagnostics.push(Diagnostic {
                    lint: UNUSED_ALLOW,
                    severity: Severity::Warning,
                    path: file.path.clone(),
                    line: allow.line,
                    message: "analyzer:allow(unused-allow) suppresses nothing; remove the stale directive"
                        .to_string(),
                });
            }
        }
    }
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

/// True when the token at `i` should be skipped: test file or test region.
fn in_test(file: &SourceFile, t: &Token) -> bool {
    file.is_test_file() || file.in_test_region(t.line)
}

fn diag(
    lint: &'static str,
    severity: Severity,
    file: &SourceFile,
    line: u32,
    message: String,
) -> Diagnostic {
    Diagnostic {
        lint,
        severity,
        path: file.path.clone(),
        line,
        message,
    }
}

/// Bans wall-clock reads (`Instant::now`, `SystemTime`) outside the
/// telemetry and bench crates: trial timing must flow through telemetry
/// spans so results stay deterministic and profiles stay comparable.
struct WallClock;

impl Lint for WallClock {
    fn name(&self) -> &'static str {
        "wall-clock"
    }
    fn description(&self) -> &'static str {
        "Instant::now/SystemTime outside telemetry/bench; route timing through telemetry spans"
    }
    fn check(&self, file: &SourceFile, _index: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
        if matches!(file.crate_name.as_str(), "telemetry" | "bench") {
            return;
        }
        let ts = &file.tokens;
        for (i, t) in ts.iter().enumerate() {
            if in_test(file, t) {
                continue;
            }
            if is_ident(t, "Instant")
                && ts.get(i + 1).is_some_and(|a| is_punct(a, ":"))
                && ts.get(i + 2).is_some_and(|a| is_punct(a, ":"))
                && ts.get(i + 3).is_some_and(|a| is_ident(a, "now"))
            {
                out.push(diag(
                    self.name(),
                    self.severity(),
                    file,
                    t.line,
                    "Instant::now() outside telemetry/bench; use a telemetry span/timer instead"
                        .to_string(),
                ));
            }
            if is_ident(t, "SystemTime") {
                out.push(diag(
                    self.name(),
                    self.severity(),
                    file,
                    t.line,
                    "SystemTime is nondeterministic; derive time from seeds or telemetry"
                        .to_string(),
                ));
            }
        }
    }
}

/// Bans `HashMap`/`HashSet` in result-bearing library crates, where
/// iteration order can leak into decoder/routing output and break
/// seed-for-seed reproducibility. Use `BTreeMap`/`BTreeSet` or index-keyed
/// `Vec`s.
struct HashCollections;

impl Lint for HashCollections {
    fn name(&self) -> &'static str {
        "hash-collections"
    }
    fn description(&self) -> &'static str {
        "HashMap/HashSet in decoder/netsim/routing/lattice library code; iteration order leaks"
    }
    fn check(&self, file: &SourceFile, _index: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
        if !matches!(
            file.crate_name.as_str(),
            "decoder" | "netsim" | "routing" | "lattice"
        ) || file.kind != FileKind::Lib
        {
            return;
        }
        for t in &file.tokens {
            if in_test(file, t) {
                continue;
            }
            if is_ident(t, "HashMap") || is_ident(t, "HashSet") {
                out.push(diag(
                    self.name(),
                    self.severity(),
                    file,
                    t.line,
                    format!(
                        "{} in order-sensitive library code; use BTreeMap/BTreeSet or an index-keyed Vec",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// Bans RNG constructors that pull entropy from the environment. Every
/// random stream must be seeded explicitly so trials replay bit-for-bit.
struct UnseededRng;

impl Lint for UnseededRng {
    fn name(&self) -> &'static str {
        "unseeded-rng"
    }
    fn description(&self) -> &'static str {
        "RNG construction from ambient entropy; seed explicitly (seed_from_u64)"
    }
    fn check(&self, file: &SourceFile, _index: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
        if file.crate_name.starts_with("shims/") {
            return;
        }
        const BANNED: &[&str] = &[
            "from_entropy",
            "thread_rng",
            "from_os_rng",
            "OsRng",
            "getrandom",
        ];
        for t in &file.tokens {
            if in_test(file, t) {
                continue;
            }
            if t.kind == TokenKind::Ident && BANNED.contains(&t.text.as_str()) {
                out.push(diag(
                    self.name(),
                    self.severity(),
                    file,
                    t.line,
                    format!(
                        "`{}` draws ambient entropy; construct RNGs with seed_from_u64",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// Bans `unwrap`/`expect`/`panic!` in the library hot paths of the decoder,
/// LP, and network-simulation crates. Convert to a typed error, or
/// allow-annotate with the proof of unreachability.
struct PanicSite;

impl Lint for PanicSite {
    fn name(&self) -> &'static str {
        "panic-site"
    }
    fn description(&self) -> &'static str {
        "unwrap/expect/panic! in decoder/lp/netsim library code; use typed errors"
    }
    fn check(&self, file: &SourceFile, _index: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
        if !matches!(file.crate_name.as_str(), "decoder" | "lp" | "netsim")
            || file.kind != FileKind::Lib
        {
            return;
        }
        let ts = &file.tokens;
        for (i, t) in ts.iter().enumerate() {
            if in_test(file, t) {
                continue;
            }
            let method_call = |name: &str| {
                is_punct(t, ".")
                    && ts.get(i + 1).is_some_and(|a| is_ident(a, name))
                    && ts.get(i + 2).is_some_and(|a| is_punct(a, "("))
            };
            if method_call("unwrap") || method_call("expect") {
                let name = &ts[i + 1].text;
                out.push(diag(
                    self.name(),
                    self.severity(),
                    file,
                    t.line,
                    format!(".{name}() in library hot path; return a typed error or annotate why it cannot fire"),
                ));
            }
            if is_ident(t, "panic") && ts.get(i + 1).is_some_and(|a| is_punct(a, "!")) {
                out.push(diag(
                    self.name(),
                    self.severity(),
                    file,
                    t.line,
                    "panic! in library hot path; return a typed error or annotate the contract"
                        .to_string(),
                ));
            }
        }
    }
}

/// Every metric name literal passed to `span!`/`count!`/`event!`/`timer()`/
/// `counter()`/`counter_family()` must be registered in
/// `surfnet_telemetry::catalog` with the matching kind. `event!` is
/// matched in both its forms — `event!("name")` and `event!("name", arg)`;
/// the family constructor requires the `Family` kind. Reports at error
/// severity: a typo'd name records into a series nobody reads.
struct TelemetryName;

impl Lint for TelemetryName {
    fn name(&self) -> &'static str {
        "telemetry-name"
    }
    fn description(&self) -> &'static str {
        "span/count/event/timer/counter name literal absent from the telemetry catalog (or wrong kind)"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn check(&self, file: &SourceFile, _index: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
        if file.crate_name == "telemetry" {
            return;
        }
        let ts = &file.tokens;
        for (i, t) in ts.iter().enumerate() {
            if in_test(file, t) {
                continue;
            }
            // span!("name") / count!("name") / event!("name")
            let macro_name =
                if (is_ident(t, "span") || is_ident(t, "count") || is_ident(t, "event"))
                    && ts.get(i + 1).is_some_and(|a| is_punct(a, "!"))
                    && ts.get(i + 2).is_some_and(|a| is_punct(a, "("))
                    && ts.get(i + 3).is_some_and(|a| a.kind == TokenKind::Str)
                {
                    Some((t.text.as_str(), 3))
                // timer("name") / counter("name") / counter_family("name")
                } else if (is_ident(t, "timer")
                    || is_ident(t, "counter")
                    || is_ident(t, "counter_family"))
                    && ts.get(i + 1).is_some_and(|a| is_punct(a, "("))
                    && ts.get(i + 2).is_some_and(|a| a.kind == TokenKind::Str)
                {
                    Some((t.text.as_str(), 2))
                } else {
                    None
                };
            let Some((call, name_off)) = macro_name else {
                continue;
            };
            let want = match call {
                "span" | "timer" => MetricKind::Timer,
                "event" => MetricKind::Event,
                "counter_family" => MetricKind::Family,
                _ => MetricKind::Counter,
            };
            let metric = &ts[i + name_off].text;
            match catalog::lookup(metric) {
                None => out.push(diag(
                    self.name(),
                    self.severity(),
                    file,
                    t.line,
                    format!(
                        "metric name \"{metric}\" is not registered in surfnet_telemetry::catalog"
                    ),
                )),
                Some(kind) if kind != want => out.push(diag(
                    self.name(),
                    self.severity(),
                    file,
                    t.line,
                    format!(
                        "metric \"{metric}\" is registered as a {kind:?} but used via `{call}`"
                    ),
                )),
                Some(_) => {}
            }
        }
    }
}

/// Bans ad-hoc stdout/stderr output in library crates: all human-facing
/// output belongs to binaries and the telemetry/bench exporters.
struct PrintSite;

impl Lint for PrintSite {
    fn name(&self) -> &'static str {
        "print-site"
    }
    fn description(&self) -> &'static str {
        "println!/dbg!/eprintln! in library code outside the telemetry/bench exporters"
    }
    fn check(&self, file: &SourceFile, _index: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
        if file.kind != FileKind::Lib || matches!(file.crate_name.as_str(), "telemetry" | "bench") {
            return;
        }
        const BANNED: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];
        let ts = &file.tokens;
        for (i, t) in ts.iter().enumerate() {
            if in_test(file, t) {
                continue;
            }
            if t.kind == TokenKind::Ident
                && BANNED.contains(&t.text.as_str())
                && ts.get(i + 1).is_some_and(|a| is_punct(a, "!"))
            {
                out.push(diag(
                    self.name(),
                    self.severity(),
                    file,
                    t.line,
                    format!(
                        "{}! in library code; print from binaries or exporters only",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// The PR 4/PR 6 bug class, denied mechanically: a `thread::scope` worker
/// closure that (transitively, via the workspace call graph) records
/// telemetry must flush its thread-local shard before returning, because
/// `std::thread::scope` unblocks when the closure returns — *before* TLS
/// destructors run — so the scope's caller can snapshot while a shard's
/// counts are still buffered in a dying thread.
///
/// Test code is **not** exempt: both historical losses were in tests.
struct ScopedFlush;

impl Lint for ScopedFlush {
    fn name(&self) -> &'static str {
        "scoped-flush"
    }
    fn description(&self) -> &'static str {
        "thread::scope closure records telemetry (transitively) without flush()/flush_thread()"
    }
    fn check(&self, file: &SourceFile, index: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
        let ts = &file.tokens;
        for i in 0..ts.len() {
            // thread :: scope ( [move] |var|
            if !(is_ident(&ts[i], "thread")
                && ts.get(i + 1).is_some_and(|a| is_punct(a, ":"))
                && ts.get(i + 2).is_some_and(|a| is_punct(a, ":"))
                && ts.get(i + 3).is_some_and(|a| is_ident(a, "scope"))
                && ts.get(i + 4).is_some_and(|a| is_punct(a, "(")))
            {
                continue;
            }
            let mut j = i + 5;
            if ts.get(j).is_some_and(|a| is_ident(a, "move")) {
                j += 1;
            }
            if !ts.get(j).is_some_and(|a| is_punct(a, "|")) {
                continue;
            }
            let Some(var) = ts.get(j + 1).filter(|a| a.kind == TokenKind::Ident) else {
                continue;
            };
            if !ts.get(j + 2).is_some_and(|a| is_punct(a, "|")) {
                continue;
            }
            let scope_end = match_paren(ts, i + 4).min(ts.len());
            let mut k = j + 3;
            while k + 3 < scope_end {
                let spawn = ts[k].kind == TokenKind::Ident
                    && ts[k].text == var.text
                    && is_punct(&ts[k + 1], ".")
                    && is_ident(&ts[k + 2], "spawn")
                    && is_punct(&ts[k + 3], "(");
                if !spawn {
                    k += 1;
                    continue;
                }
                let spawn_close = match_paren(ts, k + 3).min(ts.len());
                // The whole spawn argument: closure params + body. Params
                // are bare idents and cannot fake a call or a flush.
                let body = &ts[k + 4..spawn_close];
                if index.slice_records_telemetry(body) && !slice_calls_flush(body) {
                    out.push(diag(
                        self.name(),
                        self.severity(),
                        file,
                        ts[k].line,
                        format!(
                            "`{}.spawn` closure records telemetry but never calls \
                             surfnet_telemetry::flush()/journal::flush_thread(); its shard can \
                             be lost when the scope joins before TLS destructors run",
                            var.text
                        ),
                    ));
                }
                k = spawn_close;
            }
        }
    }
}

/// Every `Ordering::Relaxed` is a claim that no other memory access is
/// published by the operation — a claim the compiler cannot check. Each
/// site must either carry an `// analyzer:allow(atomic-ordering): <reason>`
/// justification or upgrade to Acquire/Release.
struct AtomicOrdering;

impl Lint for AtomicOrdering {
    fn name(&self) -> &'static str {
        "atomic-ordering"
    }
    fn description(&self) -> &'static str {
        "Ordering::Relaxed without a justifying allow; prove independence or use Acquire/Release"
    }
    fn check(&self, file: &SourceFile, _index: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
        if file.crate_name.starts_with("shims/") {
            return;
        }
        let ts = &file.tokens;
        for (i, t) in ts.iter().enumerate() {
            if in_test(file, t) {
                continue;
            }
            if is_ident(t, "Ordering")
                && ts.get(i + 1).is_some_and(|a| is_punct(a, ":"))
                && ts.get(i + 2).is_some_and(|a| is_punct(a, ":"))
                && ts.get(i + 3).is_some_and(|a| is_ident(a, "Relaxed"))
            {
                out.push(diag(
                    self.name(),
                    self.severity(),
                    file,
                    t.line,
                    "Ordering::Relaxed publishes nothing; justify why no other memory access \
                     depends on it, or use Acquire/Release"
                        .to_string(),
                ));
            }
        }
    }
}

/// Every `SURFNET_*` string literal must be a knob registered in
/// `surfnet_telemetry::envreg`, mirroring what `telemetry-name` does for
/// metric names: the env surface can't typo-fork. Error severity — a
/// misspelled knob reads as "unset" and silently disables the feature.
/// Test code is **not** exempt (a typo'd knob in a test tests nothing).
struct EnvVarRegistry;

impl Lint for EnvVarRegistry {
    fn name(&self) -> &'static str {
        "env-var-registry"
    }
    fn description(&self) -> &'static str {
        "SURFNET_* string literal absent from surfnet_telemetry::envreg"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn check(&self, file: &SourceFile, _index: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
        // The registry's own definition file is the one place the names
        // may appear without being "uses".
        if file.path.ends_with("telemetry/src/envreg.rs") {
            return;
        }
        for t in &file.tokens {
            if t.kind != TokenKind::Str {
                continue;
            }
            for name in extract_env_names(&t.text) {
                if !envreg::is_registered(name) {
                    out.push(diag(
                        self.name(),
                        self.severity(),
                        file,
                        t.line,
                        format!(
                            "env var \"{name}\" is not registered in surfnet_telemetry::envreg"
                        ),
                    ));
                }
            }
        }
    }
}

/// Extracts `SURFNET_<UPPER>` names embedded anywhere in a string literal
/// body. `SURFNET_` followed by no uppercase suffix (e.g. the `SURFNET_*`
/// prose wildcard) is not a name.
fn extract_env_names(body: &str) -> Vec<&str> {
    const PREFIX: &str = "SURFNET_";
    let mut names = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = body[from..].find(PREFIX) {
        let start = from + pos;
        from = start + PREFIX.len();
        // Reject `__SURFNET_...` and similar embeddings.
        let embedded = start > 0
            && body[..start]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if embedded {
            continue;
        }
        let suffix_len = body[from..]
            .bytes()
            .take_while(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || *b == b'_')
            .count();
        if suffix_len == 0 {
            continue;
        }
        names.push(&body[start..from + suffix_len]);
        from += suffix_len;
    }
    names
}

/// Dead registry entries: a name defined in the telemetry catalog or the
/// env-var registry that no other file in the analyzed set references (as
/// a substring of any string literal) is dead weight and flagged at its
/// definition line. Only runs when the defining file itself is part of the
/// analyzed set, so single-file fixture runs don't mass-fire.
struct CatalogUnused;

impl Lint for CatalogUnused {
    fn name(&self) -> &'static str {
        "catalog-unused"
    }
    fn description(&self) -> &'static str {
        "telemetry catalog / env registry entry never referenced anywhere in the workspace"
    }
    fn check(&self, _file: &SourceFile, _index: &WorkspaceIndex, _out: &mut Vec<Diagnostic>) {}
    fn check_workspace(
        &self,
        files: &[SourceFile],
        _index: &WorkspaceIndex,
        out: &mut Vec<Diagnostic>,
    ) {
        // One joined string-literal body per file; newline separators stop
        // accidental cross-literal matches.
        let bodies: Vec<String> = files
            .iter()
            .map(|f| {
                f.tokens
                    .iter()
                    .filter(|t| t.kind == TokenKind::Str)
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .collect();
        for (di, def) in files.iter().enumerate() {
            let is_catalog = def.path.ends_with("telemetry/src/catalog.rs");
            let is_envreg = def.path.ends_with("telemetry/src/envreg.rs");
            if !is_catalog && !is_envreg {
                continue;
            }
            let registry = if is_catalog {
                "catalog"
            } else {
                "env-var registry"
            };
            for t in &def.tokens {
                if t.kind != TokenKind::Str || def.in_test_region(t.line) {
                    continue;
                }
                let entry = t.text.as_str();
                let is_entry = if is_catalog {
                    entry.contains('.')
                        && entry.chars().all(|c| {
                            c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'
                        })
                } else {
                    entry.starts_with("SURFNET_")
                };
                if !is_entry {
                    continue;
                }
                let used = bodies
                    .iter()
                    .enumerate()
                    .any(|(bi, body)| bi != di && body.contains(entry));
                if !used {
                    out.push(diag(
                        self.name(),
                        self.severity(),
                        def,
                        t.line,
                        format!(
                            "{registry} entry \"{entry}\" is never referenced anywhere in the \
                             workspace; drop it or wire it up"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Report {
        let files = vec![SourceFile::parse(path, src)];
        let lints = default_lints();
        let mut report = Report::default();
        analyze_files(&files, &lints, &mut report);
        report
    }

    #[test]
    fn wall_clock_fires_outside_telemetry() {
        let r = run(
            "crates/routing/src/x.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert!(r.diagnostics.iter().any(|d| d.lint == "wall-clock"));
        let r = run(
            "crates/bench/src/x.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert!(r.diagnostics.iter().all(|d| d.lint != "wall-clock"));
    }

    #[test]
    fn panic_site_scope_and_suppression() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(run("crates/decoder/src/x.rs", src)
            .diagnostics
            .iter()
            .any(|d| d.lint == "panic-site"));
        // Out of scope: routing crate.
        assert!(run("crates/routing/src/x.rs", src)
            .diagnostics
            .iter()
            .all(|d| d.lint != "panic-site"));
        // Suppressed with reason: clean, counted.
        let r = run(
            "crates/decoder/src/x.rs",
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // analyzer:allow(panic-site): x is Some by construction",
        );
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn unwrap_or_is_not_a_panic_site() {
        let r = run(
            "crates/decoder/src/x.rs",
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }",
        );
        assert!(r.diagnostics.iter().all(|d| d.lint != "panic-site"));
    }

    #[test]
    fn telemetry_name_checks_catalog_and_kind() {
        let bad = run(
            "crates/decoder/src/x.rs",
            r#"fn f() { surfnet_telemetry::count!("decoder.typo_name"); }"#,
        );
        assert!(bad.diagnostics.iter().any(|d| d.lint == "telemetry-name"));
        let wrong_kind = run(
            "crates/decoder/src/x.rs",
            r#"fn f() { surfnet_telemetry::span!("decoder.growth_rounds"); }"#,
        );
        assert!(wrong_kind
            .diagnostics
            .iter()
            .any(|d| d.lint == "telemetry-name" && d.severity == Severity::Error));
        let good = run(
            "crates/decoder/src/x.rs",
            r#"fn f() { surfnet_telemetry::count!("decoder.growth_rounds"); }"#,
        );
        assert!(good.diagnostics.is_empty());
    }

    #[test]
    fn telemetry_name_checks_event_macro_forms() {
        // Unregistered name, plain form.
        let bad = run(
            "crates/core/src/x.rs",
            r#"fn f() { surfnet_telemetry::event!("core.no_such_event"); }"#,
        );
        assert!(bad
            .diagnostics
            .iter()
            .any(|d| d.lint == "telemetry-name" && d.message.contains("not registered")));
        // Registered but as a Counter, not an Event.
        let wrong_kind = run(
            "crates/core/src/x.rs",
            r#"fn f() { surfnet_telemetry::event!("decoder.growth_rounds"); }"#,
        );
        assert!(wrong_kind
            .diagnostics
            .iter()
            .any(|d| d.lint == "telemetry-name" && d.message.contains("used via `event`")));
        // All registered Event uses, both macro forms: clean.
        let good = run(
            "crates/core/src/x.rs",
            r#"fn f() {
                surfnet_telemetry::event!("evaluate.shot_failed");
                surfnet_telemetry::event!("evaluate.shot_failed", 3);
            }"#,
        );
        assert!(good.diagnostics.is_empty(), "{:#?}", good.diagnostics);
    }

    #[test]
    fn allow_without_reason_is_reported() {
        let r = run(
            "crates/decoder/src/x.rs",
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // analyzer:allow(panic-site)",
        );
        assert!(r.diagnostics.iter().any(|d| d.lint == BAD_ALLOW));
        // The directive still suppresses — the bad-allow diagnostic is the
        // nudge to add the reason.
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn unknown_allow_lint_is_reported() {
        let r = run(
            "crates/decoder/src/x.rs",
            "fn f() {} // analyzer:allow(no-such-lint): whatever",
        );
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.lint == BAD_ALLOW && d.message.contains("no-such-lint")));
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "\
pub fn lib_code() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn helper(x: Option<u8>) -> u8 { x.unwrap() }\n\
}\n";
        let r = run("crates/decoder/src/x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn scoped_flush_fires_even_in_test_regions() {
        let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        std::thread::scope(|s| {
            s.spawn(|| {
                surfnet_telemetry::count!("decoder.growth_rounds");
            });
        });
    }
}
"#;
        let r = run("crates/decoder/src/x.rs", src);
        assert!(
            r.diagnostics.iter().any(|d| d.lint == "scoped-flush"),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn scoped_flush_satisfied_by_flush_call() {
        let src = r#"
fn par() {
    std::thread::scope(|s| {
        s.spawn(move || {
            surfnet_telemetry::count!("decoder.growth_rounds");
            surfnet_telemetry::flush();
        });
    });
}
"#;
        let r = run("crates/decoder/src/x.rs", src);
        assert!(
            r.diagnostics.iter().all(|d| d.lint != "scoped-flush"),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn atomic_ordering_requires_justification() {
        let src = "fn f(x: &std::sync::atomic::AtomicU64) { x.fetch_add(1, Ordering::Relaxed); }";
        let r = run("crates/core/src/x.rs", src);
        assert!(r.diagnostics.iter().any(|d| d.lint == "atomic-ordering"));
        let src = "fn f(x: &std::sync::atomic::AtomicU64) { x.fetch_add(1, Ordering::Relaxed); } // analyzer:allow(atomic-ordering): pure counter, nothing published";
        let r = run("crates/core/src/x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:#?}", r.diagnostics);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn env_var_registry_checks_literals() {
        let bad = run(
            "crates/core/src/x.rs",
            // analyzer:allow(env-var-registry): deliberate negative fixture
            r#"fn f() { std::env::var("SURFNET_TYPO_KNOB"); }"#,
        );
        assert!(bad
            .diagnostics
            .iter()
            .any(|d| d.lint == "env-var-registry" && d.severity == Severity::Error));
        let good = run(
            "crates/core/src/x.rs",
            r#"fn f() { std::env::var("SURFNET_TELEMETRY"); }"#,
        );
        assert!(good.diagnostics.is_empty(), "{:#?}", good.diagnostics);
    }

    #[test]
    fn env_name_extraction() {
        assert_eq!(
            extract_env_names("set SURFNET_TRACE=out.jsonl and SURFNET_CHECK=1"),
            vec!["SURFNET_TRACE", "SURFNET_CHECK"]
        );
        // Prose wildcard and embedded identifiers are not names.
        assert!(extract_env_names("all SURFNET_* knobs").is_empty());
        assert!(extract_env_names("__SURFNET_COUNTER").is_empty());
    }

    #[test]
    fn unused_allow_flags_stale_directives() {
        // The allow names a real lint but nothing on its line fires.
        let r = run(
            "crates/decoder/src/x.rs",
            "fn f() {} // analyzer:allow(panic-site): nothing here panics\n",
        );
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.lint == UNUSED_ALLOW && d.message.contains("panic-site")),
            "{:#?}",
            r.diagnostics
        );
        // A used allow is not flagged.
        let r = run(
            "crates/decoder/src/x.rs",
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // analyzer:allow(panic-site): fine\n",
        );
        assert!(r.diagnostics.iter().all(|d| d.lint != UNUSED_ALLOW));
        // An unused allow can itself be allowed (cfg-dependent code).
        let r = run(
            "crates/decoder/src/x.rs",
            "// analyzer:allow(unused-allow): fires only on windows builds\n\
             fn f() {} // analyzer:allow(panic-site): windows-only unwrap\n",
        );
        assert!(
            r.diagnostics.iter().all(|d| d.lint != UNUSED_ALLOW),
            "{:#?}",
            r.diagnostics
        );
    }
}
