//! # secflow-cli
//!
//! The command-line front end. All behaviour lives here (unit-testable);
//! `main.rs` is a thin argument shim.
//!
//! ```text
//! secflow check  policy.sfl [--explain] [--certify] [--jobs N]
//!                                              # run every `require`
//! secflow audit  policy.sfl [--format=json]    # certified flaw-path report
//! secflow unfold policy.sfl --user clerk       # print S'(F)
//! secflow attack policy.sfl [--steps N]        # bounded concrete attacker
//! secflow fix    policy.sfl                    # minimal revocation repairs
//! secflow fmt    policy.sfl                    # parse + pretty-print
//! secflow serve  policy.sfl                    # resident NDJSON grant/revoke session
//! ```
//!
//! Every command also accepts `--metrics[=text|json]` (pipeline statistics
//! on stderr — phase timings, closure term/rule counters, fixpoint rounds,
//! cache hit/miss counters) and `--trace[=FILE]` / `--trace-format=...`
//! (structured span/instant events, JSON Lines or Chrome `trace_event`
//! format). Metrics write to **stderr** only; trace events go to the
//! `--trace=FILE` target, falling back to stderr only when `--metrics` is
//! off — the two never interleave, and stdout stays byte-identical and
//! diff-stable either way.
//!
//! Exit codes are distinct per outcome class (see [`exit`]):
//! 0 = all requirements satisfied, 1 = at least one violated,
//! 2 = command-line usage error, 3 = input error (unreadable file,
//! parse/type/analysis failure), 4 = `--certify`/`audit` rejected a
//! derivation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use oodb_lang::{check_schema, parse_schema, Requirement, Schema};
use oodb_model::{FnRef, UserName};
use secflow::algorithm::{
    analyze_batch_cached, analyze_batch_streaming, occurrences, AnalysisConfig, AnalysisSink,
    BatchOptions, BatchOutcome, CacheScope, CacheStats, ClosureCache, GroupRecord,
};
use secflow::closure::{Closure, ProofMode};
use secflow::incremental::IncrementalUser;
use secflow::provenance::{audit_witness, render_path, ProvenanceOptions, Severity, WalkMode};
use secflow::report::{render_derivation, render_term, Verdict};
use secflow::stats::ClosureStats;
use secflow::unfold::NProgram;
use secflow_dynamic::attack_requirement;
use secflow_dynamic::strategy::StrategySpec;
use secflow_dynamic::AttackerConfig;
use secflow_obs::{Json, MetricsSink, Phases, Recorder, TraceBuffer, TraceFormat};
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

/// Process exit codes, one constant per outcome class. Scripts can rely on
/// these staying distinct: a missing input file (3) is distinguishable from
/// a policy violation (1) or a mistyped flag (2).
pub mod exit {
    /// Every requirement satisfied (or nothing to do).
    pub const OK: i32 = 0;
    /// At least one requirement violated / attack realised / repair needed.
    pub const VIOLATION: i32 = 1;
    /// Command-line usage error: unknown command, unknown flag, bad value.
    pub const USAGE: i32 = 2;
    /// Input error: unreadable policy file, parse or type errors, unknown
    /// user, or an analysis failure (e.g. the term budget aborting).
    pub const INPUT: i32 = 3;
    /// `--certify` found a recorded derivation the independent proof
    /// checker rejects.
    pub const CERTIFY: i32 = 4;
}

/// A parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `check <file> [--explain] [--jobs N] [--stream] [--full-saturation]`
    Check {
        /// Policy file path.
        file: String,
        /// Print derivations for each violation.
        explain: bool,
        /// Worker threads for the batch analysis driver (1 = serial,
        /// 0 = auto-detect the machine parallelism).
        jobs: usize,
        /// Stream per-group verdict lines as groups complete instead of
        /// buffering the whole outcome — memory stays flat however many
        /// users the policy holds. Lines are tagged `[g<index>]` with the
        /// group's first-seen position; completion order is the pool's
        /// choice when `--jobs` exceeds 1.
        stream: bool,
        /// With `--stream`: emit each group record as one JSON object per
        /// line (NDJSON) instead of human-readable verdict lines, plus a
        /// final summary object. Machine-consumable streaming — schema
        /// pinned by `ndjson_stream_schema_is_pinned`.
        ndjson: bool,
        /// Saturate the full closure instead of the demand-driven slice.
        /// Verdicts and output are identical; this is the escape hatch for
        /// cross-checking the demand engine.
        full_saturation: bool,
        /// Re-validate every recorded derivation with the independent proof
        /// checker after analysis ([`Closure::certify`]); exit 4 if any
        /// derivation is rejected. Forces proof recording and full
        /// saturation.
        certify: bool,
    },
    /// `audit <file> [--format=text|json] [--severity=S] [--mode=M]
    /// [--max-depth N] [--max-paths N] [--jobs N]`
    Audit {
        /// Policy file path.
        file: String,
        /// Report rendering.
        format: AuditFormat,
        /// Drop flaw paths below this severity band (verdicts and the exit
        /// code are unaffected).
        severity: Option<Severity>,
        /// Walk direction/coverage for the path enumeration.
        mode: WalkMode,
        /// Maximum path length in proof-DAG edges.
        max_depth: usize,
        /// Enumeration cap per witness.
        max_paths: usize,
        /// Worker threads for the batch analysis driver (1 = serial).
        jobs: usize,
    },
    /// `unfold <file> --user <name>`
    Unfold {
        /// Policy file path.
        file: String,
        /// User whose capability list to unfold.
        user: String,
    },
    /// `attack <file> [--steps N]`
    Attack {
        /// Policy file path.
        file: String,
        /// Probe-sequence bound.
        steps: usize,
    },
    /// `fix <file>`
    Fix {
        /// Policy file path.
        file: String,
    },
    /// `fmt <file>`
    Fmt {
        /// Policy file path.
        file: String,
    },
    /// `serve <file>` — a long-lived resident session. Reads NDJSON
    /// requests (`check` / `grant` / `revoke` / `stats` / `shutdown`) from
    /// stdin and streams NDJSON responses — including per-requirement
    /// verdict *deltas* after each capability edit — to stdout. Edited
    /// users are maintained incrementally ([`secflow::IncrementalUser`]);
    /// un-edited users are answered through the process-wide
    /// [`ClosureCache`].
    Serve {
        /// Policy file path.
        file: String,
    },
    /// `--help` or no arguments.
    Help,
}

/// How to render metrics on stderr.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Human-readable summary table.
    #[default]
    Text,
    /// Machine-readable JSON document.
    Json,
}

/// How `secflow audit` renders its report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AuditFormat {
    /// Human-readable path listings.
    #[default]
    Text,
    /// The versioned `secflow.audit/1` JSON document.
    Json,
}

/// Where `--trace` events go and how they are encoded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceOptions {
    /// `--trace=FILE`: write the encoded events here. `None` (bare
    /// `--trace`) falls back to stderr — but only when `--metrics` is off,
    /// so the two streams never interleave.
    pub file: Option<String>,
    /// `--trace-format=jsonl|chrome`.
    pub format: TraceFormat,
}

/// The observability flags, orthogonal to the command: `--metrics[=…]`,
/// `--trace[=FILE]` and `--trace-format=…`. Metrics emit to stderr only;
/// trace events go to the `--trace=FILE` target (stderr only as the
/// metrics-off fallback). stdout stays diff-stable in every combination.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsOptions {
    /// Emit a pipeline metrics summary after the command.
    pub metrics: Option<MetricsFormat>,
    /// Emit structured span/instant trace events.
    pub trace: Option<TraceOptions>,
}

impl ObsOptions {
    /// Are both facilities off (the plain, uninstrumented path)?
    pub fn is_off(&self) -> bool {
        self.metrics.is_none() && self.trace.is_none()
    }
}

/// Usage text.
pub const USAGE: &str = "\
secflow — static detection of security flaws in object-oriented databases
         (Tajima, SIGMOD 1996)

USAGE:
  secflow check  <policy-file> [--explain] [--certify] [--jobs N] [--stream]
                               [--format=text|ndjson] [--full-saturation]
                                             run every `require`; exit 1 on flaws
                                             (--jobs fans user groups across N threads
                                             under a work-stealing scheduler; N defaults
                                             to 1, and --jobs 0 auto-detects the machine
                                             parallelism; --stream prints each group's
                                             verdict lines as the group completes,
                                             tagged [g<index>] with its first-seen
                                             position, keeping memory flat however many
                                             users the policy holds — incompatible with
                                             --explain/--certify, which buffer per-group
                                             artifacts; --stream --format=ndjson emits
                                             one compact JSON object per group record
                                             plus a final summary object instead of
                                             text lines; --full-saturation disables the
                                             demand-driven engine and computes the
                                             complete closure — verdicts are identical
                                             either way; --certify re-validates every
                                             recorded derivation with the independent
                                             proof checker and exits 4 on any rejection)
  secflow audit  <policy-file> [--format=text|json] [--severity=low|medium|high|critical]
                               [--mode=backward|forward|complete]
                               [--max-depth N] [--max-paths N] [--jobs N]
                                             run check + certify, then walk every
                                             violation's proof DAG and report the
                                             flaw paths from capability axioms
                                             (sources) to the violated requirement
                                             (sink), severity-scored; --format=json
                                             emits the versioned secflow.audit/1
                                             report; --severity filters paths below
                                             the band (verdicts and exit codes are
                                             unchanged)
  secflow unfold <policy-file> --user <u>    print the numbered unfolding S'(F)
  secflow attack <policy-file> [--steps N]   try to realise each flaw concretely
  secflow fix    <policy-file>               suggest minimal revocations per flaw
  secflow fmt    <policy-file>               parse and pretty-print the policy
  secflow serve  <policy-file>               resident incremental session: read one
                                             NDJSON request per stdin line —
                                             {\"op\":\"check\",\"user\":U},
                                             {\"op\":\"grant\"|\"revoke\",\"user\":U,\"fn\":F},
                                             {\"op\":\"stats\"}, {\"op\":\"shutdown\"} —
                                             and stream NDJSON responses; grant/revoke
                                             maintain the edited user's closure
                                             incrementally (proof-guided retraction +
                                             warm restart) and report only the verdicts
                                             that *changed*; malformed requests get an
                                             {\"error\":…} record and the session
                                             continues; exit 0 on shutdown/EOF

OBSERVABILITY (any command; stdout is unchanged):
  --metrics[=text|json]   pipeline statistics on stderr: per-phase timings,
                          closure term counts per capability kind, rule
                          firings, fixpoint rounds, worklist peak, dedup
                          rate, closure-cache hits/misses/evictions/
                          occupancy/shards, batch work-steal counts
  --trace[=FILE]          structured span/instant trace events (closure
                          phases, per-rule firings, cache hits) with
                          monotonic timestamps; written to FILE, or to
                          stderr only when --metrics is off (the streams
                          never interleave — with --metrics on and no FILE,
                          events are dropped)
  --trace-format=jsonl|chrome
                          event encoding: JSON Lines (default) or Chrome
                          trace_event JSON, loadable in Perfetto /
                          about://tracing

EXIT CODES (distinct per outcome class, stable for scripting):
  0   every requirement satisfied (or nothing to do)
  1   at least one requirement violated / attack realised / repair needed
  2   command-line usage error (unknown command or flag, bad value)
  3   input error: unreadable file, parse/type error, analysis failure
  4   --certify or audit rejected a recorded derivation

POLICY FILES contain class, fn, user and require declarations:

  class Broker { name: string, salary: int, budget: int }
  fn checkBudget(b: Broker): bool { r_budget(b) >= 10 * r_salary(b) }
  user clerk { checkBudget, w_budget }
  require (clerk, r_salary(x) : ti)
";

/// Parse a command line including the observability flags. `--metrics`,
/// `--metrics=text|json`, `--trace`, `--trace=FILE` and
/// `--trace-format=jsonl|chrome` are accepted anywhere on the line;
/// everything else goes through [`parse_args`].
pub fn parse_args_with_obs(args: &[String]) -> Result<(Command, ObsOptions), String> {
    let mut obs = ObsOptions::default();
    let mut trace_on = false;
    let mut trace_file: Option<String> = None;
    let mut trace_format: Option<TraceFormat> = None;
    let mut rest = Vec::with_capacity(args.len());
    for a in args {
        match a.as_str() {
            "--metrics" | "--metrics=text" => obs.metrics = Some(MetricsFormat::Text),
            "--metrics=json" => obs.metrics = Some(MetricsFormat::Json),
            "--trace" => trace_on = true,
            other if other.starts_with("--metrics=") => {
                let fmt = &other["--metrics=".len()..];
                return Err(format!("unknown metrics format `{fmt}` (use text or json)"));
            }
            other if other.starts_with("--trace-format=") => {
                let fmt = &other["--trace-format=".len()..];
                trace_format = Some(TraceFormat::parse(fmt).ok_or_else(|| {
                    format!("unknown trace format `{fmt}` (use jsonl or chrome)")
                })?);
            }
            other if other.starts_with("--trace=") => {
                let file = &other["--trace=".len()..];
                if file.is_empty() {
                    return Err("--trace= needs a file path (or use bare --trace)".into());
                }
                trace_on = true;
                trace_file = Some(file.to_owned());
            }
            _ => rest.push(a.clone()),
        }
    }
    if trace_on {
        obs.trace = Some(TraceOptions {
            file: trace_file,
            format: trace_format.unwrap_or_default(),
        });
    } else if trace_format.is_some() {
        return Err("--trace-format requires --trace or --trace=FILE".into());
    }
    Ok((parse_args(&rest)?, obs))
}

/// Parse a command line (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "-h" | "--help" | "help" => Ok(Command::Help),
        "check" => {
            let mut file = None;
            let mut explain = false;
            let mut jobs = 1usize;
            let mut stream = false;
            let mut ndjson = false;
            let mut full_saturation = false;
            let mut certify = false;
            let mut args = it.peekable();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--explain" => explain = true,
                    "--stream" => stream = true,
                    "--format=ndjson" => ndjson = true,
                    "--format=text" => ndjson = false,
                    "--full-saturation" => full_saturation = true,
                    "--certify" => certify = true,
                    "--jobs" => {
                        // 0 is meaningful: auto-detect the machine
                        // parallelism (std::thread::available_parallelism).
                        jobs = args
                            .next()
                            .ok_or("check: --jobs needs a value")?
                            .parse()
                            .map_err(|_| "check: --jobs must be a number")?;
                    }
                    _ if file.is_none() && !a.starts_with('-') => file = Some(a.clone()),
                    other => {
                        return Err(format!(
                            "unexpected argument `{other}` (check accepts --explain, \
                             --certify, --jobs N, --stream, --format=text|ndjson, \
                             --full-saturation)"
                        ))
                    }
                }
            }
            if stream && (explain || certify) {
                return Err(
                    "check: --stream cannot be combined with --explain or --certify \
                     (both need buffered per-group artifacts)"
                        .into(),
                );
            }
            if ndjson && !stream {
                return Err(
                    "check: --format=ndjson requires --stream (it is the streaming \
                     record format)"
                        .into(),
                );
            }
            let file = file.ok_or("check: missing policy file")?;
            Ok(Command::Check {
                file,
                explain,
                jobs,
                stream,
                ndjson,
                full_saturation,
                certify,
            })
        }
        "audit" => {
            let mut file = None;
            let mut format = AuditFormat::default();
            let mut severity = None;
            let mut mode = WalkMode::default();
            let defaults = ProvenanceOptions::default();
            let mut max_depth = defaults.max_depth;
            let mut max_paths = defaults.max_paths;
            let mut jobs = 1usize;
            let mut args = it.peekable();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--format=text" => format = AuditFormat::Text,
                    "--format=json" => format = AuditFormat::Json,
                    "--max-depth" => {
                        max_depth = args
                            .next()
                            .ok_or("audit: --max-depth needs a value")?
                            .parse()
                            .map_err(|_| "audit: --max-depth must be a number")?;
                        if max_depth == 0 {
                            return Err("audit: --max-depth must be at least 1".into());
                        }
                    }
                    "--max-paths" => {
                        max_paths = args
                            .next()
                            .ok_or("audit: --max-paths needs a value")?
                            .parse()
                            .map_err(|_| "audit: --max-paths must be a number")?;
                        if max_paths == 0 {
                            return Err("audit: --max-paths must be at least 1".into());
                        }
                    }
                    "--jobs" => {
                        jobs = args
                            .next()
                            .ok_or("audit: --jobs needs a value")?
                            .parse()
                            .map_err(|_| "audit: --jobs must be a number")?;
                        if jobs == 0 {
                            return Err("audit: --jobs must be at least 1".into());
                        }
                    }
                    other if other.starts_with("--severity=") => {
                        let s = &other["--severity=".len()..];
                        severity = Some(Severity::parse(s).ok_or_else(|| {
                            format!(
                                "audit: unknown severity `{s}` (use low, medium, high or critical)"
                            )
                        })?);
                    }
                    other if other.starts_with("--mode=") => {
                        let m = &other["--mode=".len()..];
                        mode = WalkMode::parse(m).ok_or_else(|| {
                            format!("audit: unknown mode `{m}` (use backward, forward or complete)")
                        })?;
                    }
                    other if other.starts_with("--format=") => {
                        let f = &other["--format=".len()..];
                        return Err(format!("audit: unknown format `{f}` (use text or json)"));
                    }
                    _ if file.is_none() && !a.starts_with('-') => file = Some(a.clone()),
                    other => {
                        return Err(format!(
                            "unexpected argument `{other}` (audit accepts --format=text|json, \
                             --severity=S, --mode=M, --max-depth N, --max-paths N, --jobs N)"
                        ))
                    }
                }
            }
            Ok(Command::Audit {
                file: file.ok_or("audit: missing policy file")?,
                format,
                severity,
                mode,
                max_depth,
                max_paths,
                jobs,
            })
        }
        "unfold" => {
            let mut file = None;
            let mut user = None;
            let mut args = it.peekable();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--user" => {
                        user = Some(args.next().ok_or("unfold: --user needs a value")?.clone())
                    }
                    _ if file.is_none() && !a.starts_with('-') => file = Some(a.clone()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::Unfold {
                file: file.ok_or("unfold: missing policy file")?,
                user: user.ok_or("unfold: missing --user")?,
            })
        }
        "attack" => {
            let mut file = None;
            let mut steps = 2usize;
            let mut args = it.peekable();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--steps" => {
                        steps = args
                            .next()
                            .ok_or("attack: --steps needs a value")?
                            .parse()
                            .map_err(|_| "attack: --steps must be a number")?;
                    }
                    _ if file.is_none() && !a.starts_with('-') => file = Some(a.clone()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::Attack {
                file: file.ok_or("attack: missing policy file")?,
                steps,
            })
        }
        "fix" => {
            let file = it.next().ok_or("fix: missing policy file")?;
            Ok(Command::Fix { file: file.clone() })
        }
        "fmt" => {
            let file = it.next().ok_or("fmt: missing policy file")?;
            Ok(Command::Fmt { file: file.clone() })
        }
        "serve" => {
            let mut file = None;
            for a in it {
                match a.as_str() {
                    _ if file.is_none() && !a.starts_with('-') => file = Some(a.clone()),
                    other => {
                        return Err(format!(
                            "unexpected argument `{other}` (serve takes only the policy file; \
                             the session is driven by NDJSON requests on stdin)"
                        ))
                    }
                }
            }
            Ok(Command::Serve {
                file: file.ok_or("serve: missing policy file")?,
            })
        }
        other => Err(format!("unknown command `{other}` (try --help)")),
    }
}

/// Parse + type-check policy text (exposed for tests).
pub fn load_str(src: &str) -> Result<Schema, String> {
    let schema = parse_schema(src).map_err(|e| e.to_string())?;
    check_schema(&schema).map_err(|e| e.to_string())?;
    Ok(schema)
}

/// Run a command against policy *text*; returns (report, exit code) — the
/// uninstrumented [`run_on_source_with_obs`].
pub fn run_on_source(cmd: &Command, src: &str) -> (String, i32) {
    execute(cmd, src, None)
}

/// Run a command end-to-end (file IO included); returns (report, exit code)
/// — the uninstrumented [`run_with_obs`].
pub fn run(cmd: &Command) -> (String, i32) {
    let out = run_with_obs(cmd, &ObsOptions::default());
    (out.stdout, out.code)
}

/// Output of an instrumented run: the report (stdout), the observability
/// stream (stderr), the encoded trace document (when `--trace=FILE` was
/// given — the caller writes it) and the exit code.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CliOutput {
    /// The command's report — byte-identical to the uninstrumented run.
    pub stdout: String,
    /// The metrics summary and/or (only when `--metrics` is off) the
    /// encoded trace events; empty when both facilities are off.
    pub stderr: String,
    /// The encoded trace document destined for the `--trace=FILE` target;
    /// `None` unless a trace file was requested.
    pub trace_output: Option<String>,
    /// Process exit code.
    pub code: i32,
}

/// Per-group data captured for the trace timeline: the group's phase
/// durations, closure counters and per-requirement check spans.
#[derive(Default)]
struct GroupTrace {
    user: String,
    phases: Phases,
    terms: u64,
    rounds: u64,
    firings: Vec<(&'static str, u64)>,
    checks: Vec<(String, std::time::Duration)>,
}

/// Closure-cache state captured for metrics/trace: the counters plus the
/// lock-striping layout of the cache that served (or would serve) the run.
struct CacheSnapshot {
    stats: CacheStats,
    len: usize,
    capacity: usize,
    shards: usize,
    max_shard_len: usize,
}

/// Everything collected while an instrumented command runs.
#[derive(Default)]
struct Collected {
    phases: Phases,
    closure: ClosureStats,
    program_nodes: u64,
    occurrences: u64,
    requirements: u64,
    steals: u64,
    cache: Option<CacheSnapshot>,
    groups: Vec<GroupTrace>,
}

impl Collected {
    fn record_to(&self, sink: &mut dyn MetricsSink) {
        self.phases.record_to(sink);
        if self.requirements > 0 {
            self.closure.record_to(sink);
            sink.counter("analysis.requirements", self.requirements);
            sink.counter("analysis.program_nodes", self.program_nodes);
            sink.counter("analysis.occurrences", self.occurrences);
            sink.counter("batch.steals", self.steals);
        }
        if let Some(c) = &self.cache {
            sink.counter("cache.hits", c.stats.hits);
            sink.counter("cache.misses", c.stats.misses);
            sink.counter("cache.union_recomputes", c.stats.union_recomputes);
            sink.counter("cache.evictions", c.stats.evictions);
            sink.counter("cache.shard.count", c.shards as u64);
            sink.gauge("cache.shard.max_len", c.max_shard_len as f64);
            sink.gauge("cache.occupancy", c.len as f64);
            sink.gauge("cache.capacity", c.capacity as f64);
        }
    }

    /// Synthesise the trace timeline from the collected durations: the
    /// driver phases on lane 0, each batch group on its own lane (so
    /// parallel groups render as parallel tracks in Perfetto), closure
    /// spans annotated with term/round counters and per-rule firings,
    /// cache state as an instant event.
    fn build_trace(&self) -> TraceBuffer {
        let mut tb = TraceBuffer::new();
        let us = |d: std::time::Duration| d;
        let mut cursor = 0u64;
        let mut group_start = 0u64;
        for (name, d) in self.phases.iter() {
            tb.span(name, "phase", 0, cursor, us(d), vec![]);
            cursor += d.as_micros() as u64;
            if name == "typecheck" {
                group_start = cursor;
            }
        }
        for (gi, g) in self.groups.iter().enumerate() {
            let tid = gi as u64 + 1;
            let mut t = group_start;
            let mut served_from_cache = true;
            for (name, d) in g.phases.iter() {
                if name == "unfold" {
                    served_from_cache = false;
                }
                let mut args = vec![("user".to_owned(), Json::str(&g.user))];
                if name == "closure" {
                    args.push(("terms".to_owned(), Json::count(g.terms)));
                    args.push(("rounds".to_owned(), Json::count(g.rounds)));
                    for (rule, n) in &g.firings {
                        args.push((format!("rule.{rule}"), Json::count(*n)));
                    }
                }
                tb.span(name, "group", tid, t, us(d), args);
                t += d.as_micros() as u64;
            }
            if served_from_cache {
                tb.instant(
                    "cache.hit",
                    "cache",
                    tid,
                    group_start,
                    vec![("user".to_owned(), Json::str(&g.user))],
                );
            }
            for (req, d) in &g.checks {
                tb.span(
                    "check",
                    "requirement",
                    tid,
                    t,
                    us(*d),
                    vec![("requirement".to_owned(), Json::str(req))],
                );
                t += d.as_micros() as u64;
            }
        }
        if let Some(c) = &self.cache {
            tb.instant(
                "cache",
                "cache",
                0,
                cursor,
                vec![
                    ("hits".to_owned(), Json::count(c.stats.hits)),
                    ("misses".to_owned(), Json::count(c.stats.misses)),
                    (
                        "union_recomputes".to_owned(),
                        Json::count(c.stats.union_recomputes),
                    ),
                    ("evictions".to_owned(), Json::count(c.stats.evictions)),
                    ("shards".to_owned(), Json::count(c.shards as u64)),
                    ("occupancy".to_owned(), Json::count(c.len as u64)),
                    ("capacity".to_owned(), Json::count(c.capacity as u64)),
                ],
            );
        }
        tb
    }
}

/// Run a command against policy text with observability. When both
/// facilities are off this is exactly [`run_on_source`] with empty stderr;
/// otherwise stdout is still byte-identical, stderr carries the metrics
/// summary (and the encoded trace only when `--metrics` is off), and
/// [`CliOutput::trace_output`] carries the trace document destined for the
/// `--trace=FILE` target.
pub fn run_on_source_with_obs(cmd: &Command, src: &str, obs: &ObsOptions) -> CliOutput {
    // Help loads no policy, so there is nothing to observe.
    let mut col = (!obs.is_off() && *cmd != Command::Help).then(Collected::default);
    let (stdout, code) = execute(cmd, src, col.as_mut());
    let mut out = CliOutput {
        stdout,
        code,
        ..CliOutput::default()
    };
    let Some(col) = col else {
        return out;
    };
    if let Some(trace) = &obs.trace {
        let encoded = col.build_trace().encode(trace.format);
        if trace.file.is_some() {
            out.trace_output = Some(encoded);
        } else if obs.metrics.is_none() {
            // Bare --trace without --metrics: stderr is free, use it.
            out.stderr.push_str(&encoded);
        }
        // With --metrics on and no file target the events are dropped:
        // the two streams must never interleave on stderr.
    }
    if let Some(format) = obs.metrics {
        let mut rec = Recorder::new();
        col.record_to(&mut rec);
        let report = rec.into_report();
        match format {
            MetricsFormat::Text => out.stderr.push_str(&report.render_table()),
            MetricsFormat::Json => out.stderr.push_str(&report.to_json().pretty()),
        }
    }
    out
}

/// Run a command end-to-end with observability: file IO included, and the
/// `--trace=FILE` document written to its target.
pub fn run_with_obs(cmd: &Command, obs: &ObsOptions) -> CliOutput {
    let src = match cmd.file() {
        None => String::new(),
        Some(file) => match std::fs::read_to_string(file) {
            Ok(src) => src,
            Err(e) => {
                return CliOutput {
                    stdout: format!("error: cannot read `{file}`: {e}\n"),
                    code: exit::INPUT,
                    ..CliOutput::default()
                }
            }
        },
    };
    let mut out = run_on_source_with_obs(cmd, &src, obs);
    let target = obs.trace.as_ref().and_then(|t| t.file.as_ref());
    if let (Some(path), Some(doc)) = (target, &out.trace_output) {
        if let Err(e) = std::fs::write(path, doc) {
            let _ = writeln!(out.stderr, "error: cannot write trace to `{path}`: {e}");
        }
    }
    out
}

impl Command {
    /// The policy file the command reads; `None` for [`Command::Help`].
    fn file(&self) -> Option<&str> {
        match self {
            Command::Help => None,
            Command::Check { file, .. }
            | Command::Audit { file, .. }
            | Command::Unfold { file, .. }
            | Command::Attack { file, .. }
            | Command::Fix { file }
            | Command::Fmt { file }
            | Command::Serve { file } => Some(file),
        }
    }
}

/// Run `f`, timed as `phase` when the run is instrumented.
fn timed<T>(col: Option<&mut Collected>, phase: &str, f: impl FnOnce() -> T) -> T {
    match col {
        Some(col) => col.phases.time(phase, f),
        None => f(),
    }
}

/// The one command dispatcher behind every entry point: load the policy,
/// then run the command. With `col` the run is instrumented — parse and
/// typecheck are timed, the batch commands collect per-group stats (which
/// bypasses the closure cache), and every other command is timed as one
/// phase. stdout and the exit code never depend on `col`.
fn execute(cmd: &Command, src: &str, mut col: Option<&mut Collected>) -> (String, i32) {
    if *cmd == Command::Help {
        return (USAGE.to_owned(), exit::OK);
    }
    let schema = match timed(col.as_deref_mut(), "parse", || parse_schema(src)) {
        Ok(s) => s,
        Err(e) => return (format!("error: {e}\n"), exit::INPUT),
    };
    if let Err(e) = timed(col.as_deref_mut(), "typecheck", || check_schema(&schema)) {
        return (format!("error: {e}\n"), exit::INPUT);
    }
    match cmd {
        Command::Help => unreachable!("help is answered before loading"),
        Command::Fmt { .. } => (schema.to_string(), exit::OK),
        Command::Check {
            explain,
            jobs,
            stream,
            ndjson,
            full_saturation,
            certify,
            ..
        } => {
            if *stream {
                check_report_stream(&schema, *jobs, *full_saturation, *ndjson, col)
            } else {
                check_report(&schema, *explain, *jobs, *full_saturation, *certify, col)
            }
        }
        Command::Audit {
            file,
            format,
            severity,
            mode,
            max_depth,
            max_paths,
            jobs,
        } => {
            let opts = AuditOptions {
                policy: file.clone(),
                format: *format,
                severity: *severity,
                provenance: ProvenanceOptions {
                    max_depth: *max_depth,
                    max_paths: *max_paths,
                    mode: *mode,
                },
            };
            let outcome = audit_batch(&schema, *jobs);
            if let Some(col) = col.as_deref_mut() {
                collect_batch(&schema, &outcome, col);
            }
            timed(col, "audit", || render_audit(&schema, &outcome, &opts))
        }
        Command::Unfold { user, .. } => timed(col, "unfold", || unfold_report(&schema, user)),
        Command::Attack { steps, .. } => timed(col, "attack", || attack_report(&schema, *steps)),
        Command::Fix { .. } => timed(col, "fix", || fix_report(&schema)),
        Command::Serve { .. } => timed(col, "serve", || serve_stdin(&schema)),
    }
}

/// Fold a stats-collecting [`BatchOutcome`] into the metrics/trace
/// collector: aggregate phases and closure counters, capture per-group
/// timelines, and surface the closure-cache state (the batch's own cache
/// when one was used, the process-wide cache otherwise).
fn collect_batch(schema: &Schema, outcome: &BatchOutcome, col: &mut Collected) {
    for g in &outcome.groups {
        for (name, d) in g.stats.phases.iter() {
            col.phases.add(name, d);
        }
        col.closure.merge(&g.stats.closure);
        col.program_nodes = col.program_nodes.max(g.stats.program_nodes);
        col.occurrences += g.stats.occurrences_checked;
        col.groups.push(GroupTrace {
            user: g.user.to_string(),
            phases: g.stats.phases.clone(),
            terms: g.stats.closure.total_terms(),
            rounds: g.stats.closure.rounds,
            firings: g.stats.closure.firings.clone(),
            checks: g
                .req_indexes
                .iter()
                .zip(&g.check_times)
                .map(|(&i, d)| (schema.requirements[i].to_string(), *d))
                .collect(),
        });
    }
    col.requirements = schema.requirements.len() as u64;
    col.steals = outcome.steals;
    col.cache = Some(cache_snapshot(outcome.cache_stats, outcome.cache_occupancy));
}

/// Build a [`CacheSnapshot`] from a batch's recorded cache state, falling
/// back to the process-wide cache for uncached runs (instrumented batches
/// bypass the cache). The shard layout always comes from the process-wide
/// cache — it is the one every cached `check` run stripes over.
fn cache_snapshot(stats: Option<CacheStats>, occupancy: Option<(usize, usize)>) -> CacheSnapshot {
    let cache = closure_cache();
    let (stats, len, capacity) = match (stats, occupancy) {
        (Some(stats), Some((len, capacity))) => (stats, len, capacity),
        _ => (cache.stats(), cache.len(), cache.capacity()),
    };
    CacheSnapshot {
        stats,
        len,
        capacity,
        shards: cache.shard_count(),
        max_shard_len: cache.max_shard_len(),
    }
}

/// The process-wide closure cache behind plain `check` runs. Repeated
/// checks of the same policy (shell loops, watch modes, editor
/// integrations) skip unfolding and saturation entirely.
fn closure_cache() -> &'static ClosureCache {
    static CACHE: OnceLock<ClosureCache> = OnceLock::new();
    CACHE.get_or_init(ClosureCache::default)
}

/// Run the batch driver over every `require` of the policy. `--explain`
/// needs proof-carrying closures (and keeps them as artifacts so the
/// rendering reuses the group's closure instead of recomputing it per
/// requirement); the plain path runs the demand-driven engine through the
/// process-wide [`ClosureCache`]. `--full-saturation` forces the complete
/// closure (and bypasses the cache of partial ones). `--certify` forces
/// proof recording and kept artifacts — the proof checker needs the whole
/// derivation record — and also bypasses the cache, which holds proof-free
/// partial closures.
fn check_batch(
    schema: &Schema,
    explain: bool,
    jobs: usize,
    full_saturation: bool,
    certify: bool,
    stats: bool,
) -> BatchOutcome {
    let opts = BatchOptions {
        jobs,
        proofs: if explain || certify {
            ProofMode::Full
        } else {
            ProofMode::Off
        },
        keep_artifacts: explain || certify,
        collect_stats: stats,
        full_saturation,
    };
    let cache = (!explain && !certify && !stats && !full_saturation).then(closure_cache);
    analyze_batch_cached(
        schema,
        &schema.requirements,
        &AnalysisConfig::default(),
        &opts,
        cache,
    )
}

/// What the certify pass re-validated: one certificate per kept closure.
/// Displays as the `certified: …` summary line.
struct Certified {
    certs: Vec<secflow::Certificate>,
    derivations: usize,
}

impl std::fmt::Display for Certified {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "certified: {} derivation(s) re-validated across {} closure(s)",
            self.derivations,
            self.certs.len()
        )
    }
}

/// The certify pass shared by `check --certify` and `audit`: run the
/// independent proof checker over every group's kept closure. Groups whose
/// shared phases failed kept none and are skipped (their errors are
/// reported per requirement). On the first rejection, returns the
/// `certification FAILED for user …` line.
fn certify_outcome(outcome: &BatchOutcome) -> Result<Certified, String> {
    let certs = outcome
        .groups
        .iter()
        .filter_map(|g| Some((g, g.artifacts.as_ref()?)))
        .map(|(g, (prog, closure))| {
            closure
                .certify(prog, &secflow::rules::RuleConfig::default())
                .map_err(|e| format!("certification FAILED for user `{}`: {e}", g.user))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let derivations = certs.iter().map(|c| c.terms_checked).sum();
    Ok(Certified { certs, derivations })
}

/// Requirement index → group index, from a batch outcome.
fn group_of(outcome: &BatchOutcome, n_reqs: usize) -> Vec<usize> {
    let mut map = vec![0usize; n_reqs];
    for (gi, g) in outcome.groups.iter().enumerate() {
        for &i in &g.req_indexes {
            map[i] = gi;
        }
    }
    map
}

/// The versioned identifier of the audit JSON report shape. Bump the
/// suffix on any structural change — consumers pin on this string.
pub const AUDIT_SCHEMA: &str = "secflow.audit/1";

/// Rendering options for [`render_audit`].
#[derive(Clone, Debug)]
pub struct AuditOptions {
    /// The policy path echoed in the report header.
    pub policy: String,
    /// Text or versioned JSON.
    pub format: AuditFormat,
    /// Drop paths below this band (verdicts and exit codes unchanged).
    pub severity: Option<Severity>,
    /// Walk mode, depth limit and enumeration cap.
    pub provenance: ProvenanceOptions,
}

/// Run the batch driver configured for auditing: proof recording on,
/// artifacts kept (the certifier and the provenance walk both need them),
/// per-group stats collected for the report. The closure cache is not
/// consulted — it holds proof-free partial closures that cannot back an
/// audit.
pub fn audit_batch(schema: &Schema, jobs: usize) -> BatchOutcome {
    let opts = BatchOptions {
        jobs,
        proofs: ProofMode::Full,
        keep_artifacts: true,
        collect_stats: true,
        full_saturation: false,
    };
    analyze_batch_cached(
        schema,
        &schema.requirements,
        &AnalysisConfig::default(),
        &opts,
        None,
    )
}

/// Render the audit report from a proof-carrying [`BatchOutcome`]:
/// re-certify every group's derivation record, walk each violation
/// witness's proof DAG into flaw paths, and emit either the human-readable
/// listing or the versioned [`AUDIT_SCHEMA`] JSON document. Exit codes
/// reuse the check classes: 0 clean, 1 violations, 3 analysis errors,
/// 4 when certification rejects a derivation (no paths are reported from
/// an uncertified proof store).
pub fn render_audit(schema: &Schema, outcome: &BatchOutcome, opts: &AuditOptions) -> (String, i32) {
    for (i, v) in outcome.verdicts.iter().enumerate() {
        if let Err(e) = v {
            return (
                format!("error {}: {e}\n", schema.requirements[i]),
                exit::INPUT,
            );
        }
    }
    // Certify first: flaw paths are only reported from a derivation record
    // the independent checker accepts.
    let certified = match certify_outcome(outcome) {
        Ok(certified) => certified,
        Err(msg) => return audit_rejected(opts, msg),
    };

    let group_idx = group_of(outcome, schema.requirements.len());
    let min = opts.severity;
    let mut text = String::new();
    let _ = write!(
        text,
        "AUDIT {} — mode {}, max depth {}",
        opts.policy,
        opts.provenance.mode.name(),
        opts.provenance.max_depth
    );
    if let Some(s) = min {
        let _ = write!(text, ", min severity {s}");
    }
    text.push('\n');

    let mut violations_json = Vec::new();
    let mut violated = 0usize;
    let mut total_paths = 0usize;
    let mut by_severity = [0usize; 4]; // indexed by Severity as usize
    let mut max_severity: Option<Severity> = None;

    for (i, req) in schema.requirements.iter().enumerate() {
        let g = &outcome.groups[group_idx[i]];
        let violations = match &outcome.verdicts[i] {
            Ok(Verdict::Satisfied) => {
                let _ = writeln!(text, "ok    {req}");
                continue;
            }
            Ok(Verdict::Violated(v)) => v,
            Err(_) => unreachable!("errors returned above"),
        };
        violated += 1;
        let Some((prog, closure)) = g.artifacts.as_ref() else {
            unreachable!("violated verdicts come from groups whose shared phases succeeded")
        };
        let mut witnesses_json = Vec::new();
        let mut req_score = 0u32;
        let mut witness_text = String::new();
        for v in violations {
            for w in &v.witnesses {
                let mut report = match audit_witness(closure, w, &opts.provenance) {
                    Ok(r) => r,
                    Err(e) => {
                        return audit_rejected(
                            opts,
                            format!("flaw-path walk FAILED for user `{}`: {e}", g.user),
                        )
                    }
                };
                req_score = req_score.max(report.score);
                if let Some(min) = min {
                    report.paths.retain(|p| p.severity >= min);
                }
                total_paths += report.paths.len();
                for p in &report.paths {
                    by_severity[p.severity as usize] += 1;
                    max_severity = Some(max_severity.map_or(p.severity, |m| m.max(p.severity)));
                }
                let _ = writeln!(
                    witness_text,
                    "  witness {}  — {} {} path(s), severity {} (score {})",
                    render_term(prog, w),
                    report.paths.len(),
                    opts.provenance.mode.name(),
                    report.severity,
                    report.score,
                );
                for (pi, p) in report.paths.iter().enumerate() {
                    let _ = writeln!(
                        witness_text,
                        "    path {}: {} (score {}), {} step(s){}",
                        pi + 1,
                        p.severity,
                        p.score,
                        p.steps.len(),
                        if p.truncated { ", truncated" } else { "" },
                    );
                    for line in render_path(prog, p).lines() {
                        let _ = writeln!(witness_text, "      {line}");
                    }
                }
                witnesses_json.push(witness_json(prog, &report));
            }
        }
        let req_severity = Severity::from_score(req_score);
        let _ = writeln!(
            text,
            "FLAW  {req}  ({} occurrence(s), severity {req_severity})",
            violations.len()
        );
        text.push_str(&witness_text);
        violations_json.push(Json::Obj(vec![
            ("requirement".to_owned(), Json::str(&req.to_string())),
            ("user".to_owned(), Json::str(req.user.as_ref())),
            ("severity".to_owned(), Json::str(req_severity.name())),
            ("score".to_owned(), Json::count(req_score as u64)),
            (
                "occurrences".to_owned(),
                Json::count(violations.len() as u64),
            ),
            ("witnesses".to_owned(), Json::Arr(witnesses_json)),
        ]));
    }

    let _ = write!(
        text,
        "{} requirement(s), {violated} violated; {total_paths} flaw path(s)",
        schema.requirements.len()
    );
    if let Some(s) = max_severity {
        let _ = write!(text, "; max severity {s}");
    }
    text.push('\n');
    let _ = writeln!(text, "{certified}");

    let code = if violated > 0 {
        exit::VIOLATION
    } else {
        exit::OK
    };
    match opts.format {
        AuditFormat::Text => (text, code),
        AuditFormat::Json => {
            let cache = match outcome.cache_stats {
                Some(stats) => Json::Obj(vec![
                    ("hits".to_owned(), Json::count(stats.hits)),
                    ("misses".to_owned(), Json::count(stats.misses)),
                    (
                        "union_recomputes".to_owned(),
                        Json::count(stats.union_recomputes),
                    ),
                    (
                        "occupancy".to_owned(),
                        match outcome.cache_occupancy {
                            Some((len, cap)) => {
                                Json::Arr(vec![Json::count(len as u64), Json::count(cap as u64)])
                            }
                            None => Json::Null,
                        },
                    ),
                ]),
                None => Json::Null,
            };
            let groups = outcome
                .groups
                .iter()
                .map(|g| {
                    Json::Obj(vec![
                        ("user".to_owned(), Json::str(g.user.as_ref())),
                        (
                            "requirements".to_owned(),
                            Json::count(g.req_indexes.len() as u64),
                        ),
                        (
                            "closure_terms".to_owned(),
                            Json::count(g.stats.closure.total_terms()),
                        ),
                        ("rounds".to_owned(), Json::count(g.stats.closure.rounds)),
                    ])
                })
                .collect();
            let doc = Json::Obj(vec![
                ("schema".to_owned(), Json::str(AUDIT_SCHEMA)),
                ("policy".to_owned(), Json::str(&opts.policy)),
                ("mode".to_owned(), Json::str(opts.provenance.mode.name())),
                (
                    "max_depth".to_owned(),
                    Json::count(opts.provenance.max_depth as u64),
                ),
                (
                    "max_paths".to_owned(),
                    Json::count(opts.provenance.max_paths as u64),
                ),
                (
                    "min_severity".to_owned(),
                    min.map_or(Json::Null, |s| Json::str(s.name())),
                ),
                (
                    "requirements".to_owned(),
                    Json::count(schema.requirements.len() as u64),
                ),
                ("violated".to_owned(), Json::count(violated as u64)),
                (
                    "certified".to_owned(),
                    Json::Obj(vec![
                        (
                            "closures".to_owned(),
                            Json::count(certified.certs.len() as u64),
                        ),
                        (
                            "derivations".to_owned(),
                            Json::count(certified.derivations as u64),
                        ),
                    ]),
                ),
                ("violations".to_owned(), Json::Arr(violations_json)),
                ("groups".to_owned(), Json::Arr(groups)),
                ("cache".to_owned(), cache),
                (
                    "summary".to_owned(),
                    Json::Obj(vec![
                        ("paths".to_owned(), Json::count(total_paths as u64)),
                        (
                            "max_severity".to_owned(),
                            max_severity.map_or(Json::Null, |s| Json::str(s.name())),
                        ),
                        (
                            "by_severity".to_owned(),
                            Json::Obj(
                                [
                                    Severity::Critical,
                                    Severity::High,
                                    Severity::Medium,
                                    Severity::Low,
                                ]
                                .iter()
                                .map(|s| {
                                    (
                                        s.name().to_owned(),
                                        Json::count(by_severity[*s as usize] as u64),
                                    )
                                })
                                .collect(),
                            ),
                        ),
                    ]),
                ),
            ]);
            (doc.pretty(), code)
        }
    }
}

/// The audit failure surface: certification (or the walk itself) rejected
/// the proof store, so no flaw paths are reported. Exit [`exit::CERTIFY`].
fn audit_rejected(opts: &AuditOptions, msg: String) -> (String, i32) {
    match opts.format {
        AuditFormat::Text => (format!("{msg}\n"), exit::CERTIFY),
        AuditFormat::Json => {
            let doc = Json::Obj(vec![
                ("schema".to_owned(), Json::str(AUDIT_SCHEMA)),
                ("policy".to_owned(), Json::str(&opts.policy)),
                ("certified".to_owned(), Json::Bool(false)),
                ("error".to_owned(), Json::str(&msg)),
            ]);
            (doc.pretty(), exit::CERTIFY)
        }
    }
}

/// One witness's JSON block: the rendered term, its aggregate severity and
/// every flaw path with rendered steps.
fn witness_json(prog: &NProgram, report: &secflow::WitnessReport) -> Json {
    let paths = report
        .paths
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("severity".to_owned(), Json::str(p.severity.name())),
                ("score".to_owned(), Json::count(p.score as u64)),
                (
                    "source".to_owned(),
                    Json::str(&render_term(prog, &p.source)),
                ),
                ("source_kind".to_owned(), Json::str(p.source_kind.name())),
                ("sink".to_owned(), Json::str(&render_term(prog, &p.sink))),
                ("truncated".to_owned(), Json::Bool(p.truncated)),
                (
                    "steps".to_owned(),
                    Json::Arr(
                        p.steps
                            .iter()
                            .map(|s| {
                                Json::Obj(vec![
                                    ("term".to_owned(), Json::str(&render_term(prog, &s.term))),
                                    ("rule".to_owned(), Json::str(s.rule)),
                                    ("depth".to_owned(), Json::count(s.depth as u64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "term".to_owned(),
            Json::str(&render_term(prog, &report.witness)),
        ),
        ("severity".to_owned(), Json::str(report.severity.name())),
        ("score".to_owned(), Json::count(report.score as u64)),
        ("paths_capped".to_owned(), Json::Bool(report.paths_capped)),
        ("paths".to_owned(), Json::Arr(paths)),
    ])
}

/// The buffered `check`: run the batch driver over every `require`, then
/// render the outcome. With `col` the batch collects per-group phase
/// timings and closure counters, which aggregate into the metrics report
/// and the trace timeline.
fn check_report(
    schema: &Schema,
    explain: bool,
    jobs: usize,
    full_saturation: bool,
    certify: bool,
    mut col: Option<&mut Collected>,
) -> (String, i32) {
    if schema.requirements.is_empty() {
        return (
            "no `require` declarations in the policy — nothing to check\n".to_owned(),
            exit::OK,
        );
    }
    let outcome = check_batch(
        schema,
        explain,
        jobs,
        full_saturation,
        certify,
        col.is_some(),
    );
    if let Some(col) = col.as_deref_mut() {
        collect_batch(schema, &outcome, col);
    }
    render_check(schema, &outcome, explain, certify, col)
}

/// Render a buffered check outcome: one line per requirement in policy
/// order (with derivations under `--explain`), the summary line, then under
/// `--certify` the certify summary — or the rejection and
/// [`exit::CERTIFY`]. With `col` the certificates' per-rule check counters
/// join the metrics.
fn render_check(
    schema: &Schema,
    outcome: &BatchOutcome,
    explain: bool,
    certify: bool,
    col: Option<&mut Collected>,
) -> (String, i32) {
    let group_idx = group_of(outcome, schema.requirements.len());
    let mut out = String::new();
    let mut violated = 0usize;
    for (i, req) in schema.requirements.iter().enumerate() {
        match &outcome.verdicts[i] {
            Ok(Verdict::Satisfied) => {
                let _ = writeln!(out, "ok    {req}");
            }
            Ok(Verdict::Violated(violations)) => {
                violated += 1;
                let _ = writeln!(out, "FLAW  {req}  ({} occurrence(s))", violations.len());
                if explain {
                    if let Some((prog, closure)) = outcome.groups[group_idx[i]].artifacts.as_ref() {
                        render_explanations(prog, closure, violations, &mut out);
                    }
                }
            }
            Err(e) => {
                let _ = writeln!(out, "error {req}: {e}");
                return (out, exit::INPUT);
            }
        }
    }
    let _ = writeln!(
        out,
        "{} requirement(s), {} violated",
        schema.requirements.len(),
        violated
    );
    if certify {
        match certify_outcome(outcome) {
            Ok(certified) => {
                let _ = writeln!(out, "{certified}");
                if let Some(col) = col {
                    for cert in &certified.certs {
                        col.closure.absorb_certificate(cert);
                    }
                }
            }
            Err(msg) => {
                let _ = writeln!(out, "{msg}");
                return (out, exit::CERTIFY);
            }
        }
    }
    (out, i32::from(violated > 0))
}

/// One verdict object: `requirement` (policy index), `require` (display
/// form) and `status` of `"satisfied"`, `"violated"` (plus
/// `"occurrences"`) or `"error"` (plus the `"error"` message). The
/// `check --stream --format=ndjson` records and every serve response share
/// this shape.
fn verdict_json(idx: usize, require: &str, status: &ReqStatus) -> Json {
    let mut fields = vec![
        ("requirement".to_owned(), Json::count(idx as u64)),
        ("require".to_owned(), Json::str(require)),
    ];
    match status {
        ReqStatus::Satisfied => fields.push(("status".to_owned(), Json::str("satisfied"))),
        ReqStatus::Violated(n) => {
            fields.push(("status".to_owned(), Json::str("violated")));
            fields.push(("occurrences".to_owned(), Json::count(*n)));
        }
        ReqStatus::Error(e) => {
            fields.push(("status".to_owned(), Json::str("error")));
            fields.push(("error".to_owned(), Json::str(e)));
        }
    }
    Json::Obj(fields)
}

/// A requirement's verdict reduced to what the NDJSON records carry —
/// deliberately witness-free (status + occurrence count), so the resident
/// incremental path and the cached batch path (whose closures pick
/// witnesses in different orders) produce identical records.
#[derive(Clone, PartialEq, Eq)]
enum ReqStatus {
    Satisfied,
    Violated(u64),
    Error(String),
}

impl ReqStatus {
    fn of(v: &Result<Verdict, secflow::algorithm::AnalysisError>) -> ReqStatus {
        match v {
            Ok(Verdict::Satisfied) => ReqStatus::Satisfied,
            Ok(Verdict::Violated(vs)) => ReqStatus::Violated(vs.len() as u64),
            Err(e) => ReqStatus::Error(e.to_string()),
        }
    }
}

/// Render one streamed group record as a compact NDJSON object, returning
/// the object plus the record's `(violated, error)` verdict tallies. Free
/// function so the error arm is unit-testable without provoking a real
/// budget blowout through the binary path (the CLI runs on default budgets,
/// which no test-sized policy exhausts).
fn ndjson_record(schema: &Schema, record: &GroupRecord) -> (Json, usize, usize) {
    let mut violated = 0usize;
    let mut errors = 0usize;
    let verdicts = record
        .verdicts
        .iter()
        .map(|(i, verdict)| {
            let status = ReqStatus::of(verdict);
            match status {
                ReqStatus::Satisfied => {}
                ReqStatus::Violated(_) => violated += 1,
                ReqStatus::Error(_) => errors += 1,
            }
            verdict_json(*i, &schema.requirements[*i].to_string(), &status)
        })
        .collect();
    let obj = Json::Obj(vec![
        ("group".to_owned(), Json::count(record.group_index as u64)),
        ("user".to_owned(), Json::str(record.user.as_str())),
        (
            "occurrences_checked".to_owned(),
            Json::count(record.occurrences_checked),
        ),
        ("verdicts".to_owned(), Json::Arr(verdicts)),
    ]);
    (obj, violated, errors)
}

/// The `--stream` check path: verdict lines are rendered and appended the
/// moment their group completes, so nothing per-group is buffered and
/// memory stays flat however many users the policy holds. Each line is
/// tagged `[g<index>]` with the group's first-seen position (the streaming
/// determinism contract: records may complete in any order under a
/// parallel pool, but the index lets a consumer reassemble input order).
/// Unlike the buffered path, an analysis error does not short-circuit —
/// every group is still reported, and the run exits [`exit::INPUT`] when
/// any error occurred, else 1 on violations as usual. With `col` the run is
/// instrumented: closure stats are collected (which bypasses the cache,
/// like the buffered instrumented path) and the streaming summary is folded
/// into the metrics collector.
///
/// With `ndjson` each group record becomes exactly one compact JSON object
/// per line — `{"group":…,"user":…,"occurrences_checked":…,"verdicts":[…]}`
/// with one [`verdict_json`] object per requirement — followed by one final
/// `{"summary":{…}}` line. The schema is pinned by
/// `ndjson_stream_schema_is_pinned`.
fn check_report_stream(
    schema: &Schema,
    jobs: usize,
    full_saturation: bool,
    ndjson: bool,
    col: Option<&mut Collected>,
) -> (String, i32) {
    if schema.requirements.is_empty() {
        return (
            "no `require` declarations in the policy — nothing to check\n".to_owned(),
            exit::OK,
        );
    }
    let stats = col.is_some();
    let opts = BatchOptions {
        jobs,
        proofs: ProofMode::Off,
        keep_artifacts: false,
        collect_stats: stats,
        full_saturation,
    };
    let cache = (!stats && !full_saturation).then(closure_cache);

    /// Renders each record into verdict lines — or one NDJSON object —
    /// under the sink lock; violation/error tallies ride along in the same
    /// mutex.
    struct LineSink<'a> {
        schema: &'a Schema,
        ndjson: bool,
        out: std::sync::Mutex<(String, usize, usize)>, // (text, violated, errors)
    }
    impl AnalysisSink for LineSink<'_> {
        fn emit(&self, record: GroupRecord) {
            let mut lines = String::new();
            let mut violated = 0usize;
            let mut errors = 0usize;
            let gi = record.group_index;
            if self.ndjson {
                let (obj, v, e) = ndjson_record(self.schema, &record);
                violated += v;
                errors += e;
                let _ = writeln!(lines, "{obj}");
            } else {
                for (i, verdict) in &record.verdicts {
                    let req = &self.schema.requirements[*i];
                    match verdict {
                        Ok(Verdict::Satisfied) => {
                            let _ = writeln!(lines, "[g{gi}] ok    {req}");
                        }
                        Ok(Verdict::Violated(violations)) => {
                            violated += 1;
                            let _ = writeln!(
                                lines,
                                "[g{gi}] FLAW  {req}  ({} occurrence(s))",
                                violations.len()
                            );
                        }
                        Err(e) => {
                            errors += 1;
                            let _ = writeln!(lines, "[g{gi}] error {req}: {e}");
                        }
                    }
                }
            }
            let mut guard = self.out.lock().expect("no panics hold the sink lock");
            guard.0.push_str(&lines);
            guard.1 += violated;
            guard.2 += errors;
        }
    }

    let sink = LineSink {
        schema,
        ndjson,
        out: std::sync::Mutex::new((String::new(), 0, 0)),
    };
    let summary = analyze_batch_streaming(
        schema,
        &schema.requirements,
        &AnalysisConfig::default(),
        &opts,
        cache,
        &sink,
    );
    let (mut out, violated, errors) = sink.out.into_inner().expect("no panics hold the sink lock");
    if ndjson {
        let obj = Json::Obj(vec![(
            "summary".to_owned(),
            Json::Obj(vec![
                (
                    "requirements".to_owned(),
                    Json::count(summary.requirements as u64),
                ),
                ("violated".to_owned(), Json::count(violated as u64)),
                ("errors".to_owned(), Json::count(errors as u64)),
                ("groups".to_owned(), Json::count(summary.groups as u64)),
                ("workers".to_owned(), Json::count(summary.jobs_used as u64)),
            ]),
        )]);
        let _ = writeln!(out, "{obj}");
    } else {
        let _ = writeln!(
            out,
            "{} requirement(s), {} violated — streamed {} group(s) on {} worker(s)",
            summary.requirements, violated, summary.groups, summary.jobs_used
        );
    }
    if let Some(col) = col {
        col.closure.merge(&summary.closure);
        col.occurrences = summary.occurrences;
        col.requirements = summary.requirements as u64;
        col.steals = summary.steals;
        col.cache = Some(cache_snapshot(summary.cache_stats, summary.cache_occupancy));
    }
    let code = if errors > 0 {
        exit::INPUT
    } else {
        i32::from(violated > 0)
    };
    (out, code)
}

/// Print Figure-1 style derivations for every witness of a violated
/// requirement (the `--explain` path), reusing the batch group's
/// proof-carrying program and closure.
fn render_explanations(
    prog: &NProgram,
    closure: &Closure,
    violations: &[secflow::Violation],
    out: &mut String,
) {
    for v in violations {
        for w in &v.witnesses {
            let _ = writeln!(out, "  witness {}", render_term(prog, w));
            let derivation = render_derivation(prog, closure, w);
            for line in derivation.lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
    }
}

fn unfold_report(schema: &Schema, user: &str) -> (String, i32) {
    let Some(caps) = schema.user_str(user) else {
        return (format!("error: unknown user `{user}`\n"), exit::INPUT);
    };
    match NProgram::unfold(schema, caps) {
        Ok(prog) => {
            let mut out = String::new();
            let _ = writeln!(out, "S'(F) for {user} = {caps}:");
            for outer in &prog.outers {
                let _ = writeln!(out, "  {}: {}", outer.fn_ref, prog.render(outer.root));
            }
            let _ = writeln!(out, "{} numbered occurrences", prog.len());
            // Also list the occurrences of every required target for this
            // user, as orientation.
            for req in schema
                .requirements
                .iter()
                .filter(|r| r.user.as_str() == user)
            {
                let occ = occurrences(&prog, &req.target);
                let _ = writeln!(out, "occurrences of {}: {}", req.target, occ.len());
            }
            (out, 0)
        }
        Err(e) => (format!("error: {e}\n"), exit::INPUT),
    }
}

fn attack_report(schema: &Schema, steps: usize) -> (String, i32) {
    let mut out = String::new();
    if schema.requirements.is_empty() {
        let _ = writeln!(out, "no `require` declarations — nothing to attack");
        return (out, 0);
    }
    let cfg = AttackerConfig {
        strategies: StrategySpec {
            max_steps: steps,
            ..StrategySpec::default()
        },
        ..AttackerConfig::default()
    };
    let mut realised = 0usize;
    for req in &schema.requirements {
        match attack_requirement(schema, req, &cfg) {
            Ok(o) if o.achieved => {
                realised += 1;
                let _ = writeln!(
                    out,
                    "REALISED {req}\n  {}",
                    o.witness.map(|w| w.summary).unwrap_or_default()
                );
            }
            Ok(o) => {
                let _ = writeln!(
                    out,
                    "not realised {req}{}",
                    if o.skipped_shapes > 0 {
                        format!("  ({} shapes skipped by bounds)", o.skipped_shapes)
                    } else {
                        String::new()
                    }
                );
            }
            Err(e) => {
                let _ = writeln!(out, "error {req}: {e}");
            }
        }
    }
    let _ = writeln!(
        out,
        "{} requirement(s), {} realised within bounds",
        schema.requirements.len(),
        realised
    );
    (out, i32::from(realised > 0))
}

fn fix_report(schema: &Schema) -> (String, i32) {
    use secflow::advisor::{advise, Advice};
    let mut out = String::new();
    if schema.requirements.is_empty() {
        let _ = writeln!(out, "no `require` declarations — nothing to fix");
        return (out, 0);
    }
    let mut flawed = 0usize;
    for req in &schema.requirements {
        match advise(schema, req) {
            Ok(Advice::AlreadySatisfied) => {
                let _ = writeln!(out, "ok    {req}");
            }
            Ok(Advice::Repairs(repairs)) => {
                flawed += 1;
                let _ = writeln!(out, "FLAW  {req} — minimal repairs:");
                for r in repairs {
                    let _ = writeln!(out, "        {r}");
                }
            }
            Ok(Advice::BudgetExhausted(repairs)) => {
                flawed += 1;
                let _ = writeln!(
                    out,
                    "FLAW  {req} — search budget exhausted; repairs found so far:"
                );
                for r in repairs {
                    let _ = writeln!(out, "        {r}");
                }
            }
            Ok(Advice::Unrepairable) => {
                flawed += 1;
                let _ = writeln!(out, "FLAW  {req} — no revocation subset helps");
            }
            Err(e) => {
                let _ = writeln!(out, "error {req}: {e}");
                return (out, exit::INPUT);
            }
        }
    }
    (out, i32::from(flawed > 0))
}

// ---------------------------------------------------------------------------
// serve — the resident incremental session
// ---------------------------------------------------------------------------

/// Parse one request line into its `(key, value)` fields, preserving order.
/// A request is a flat JSON object whose values are all strings, e.g.
/// `{"op":"grant","user":"clerk","fn":"w_budget"}`. Anything else — nested
/// values, numbers, trailing garbage — is a per-request error; the session
/// keeps running.
fn parse_request(line: &str) -> Result<Vec<(String, String)>, String> {
    let Json::Obj(fields) = Json::parse(line).map_err(|e| format!("bad request: {e}"))? else {
        return Err("bad request: expected a JSON object".into());
    };
    fields
        .into_iter()
        .map(|(key, value)| match value {
            Json::Str(s) => Ok((key, s)),
            _ => Err(format!(
                "bad request value for `{key}` (string values only)"
            )),
        })
        .collect()
}

/// The policy's requirements grouped by user, built once per session so a
/// check touches only its own user's requirements.
struct ReqIndex<'s> {
    /// Each user's run in `order` and `reqs`.
    span: HashMap<&'s UserName, Range<usize>>,
    /// Positions in the policy's requirement list, grouped by user (policy
    /// order within a user).
    order: Vec<usize>,
    /// The same requirements, cloned once in grouped order, so a user's
    /// requirements are one slice for the batch call.
    reqs: Vec<Requirement>,
    /// Each requirement's `require` text by policy position, rendered once.
    text: Vec<String>,
}

impl<'s> ReqIndex<'s> {
    fn new(schema: &'s Schema) -> ReqIndex<'s> {
        let all = &schema.requirements;
        let mut order: Vec<usize> = (0..all.len()).collect();
        order.sort_by(|&a, &b| all[a].user.cmp(&all[b].user));
        let mut span = HashMap::with_capacity(schema.users.len());
        let mut start = 0;
        for run in order.chunk_by(|&a, &b| all[a].user == all[b].user) {
            span.insert(&all[run[0]].user, start..start + run.len());
            start += run.len();
        }
        ReqIndex {
            span,
            reqs: order.iter().map(|&i| all[i].clone()).collect(),
            order,
            text: all.iter().map(ToString::to_string).collect(),
        }
    }

    /// `user`'s requirements with their policy positions (empty when the
    /// user names none).
    fn of(&self, user: &UserName) -> (&[usize], &[Requirement]) {
        let run = self.span.get(user).cloned().unwrap_or_default();
        (&self.order[run.clone()], &self.reqs[run])
    }
}

/// Request latencies of one serve op in fixed log-spaced buckets, so a
/// session of any length holds the same few kilobytes. Bucket 0 holds
/// sub-microsecond requests; above that, each doubling of the latency is
/// split into eight buckets, so a reported percentile overstates the true
/// one by at most 12.5% (and is exact below 16 µs).
struct LatencyHist {
    buckets: [u64; LatencyHist::BUCKETS],
    count: u64,
    max_us: u64,
}

impl LatencyHist {
    const SUB: u32 = 8;
    const BUCKETS: usize = 1 + 64 * Self::SUB as usize;

    fn new() -> LatencyHist {
        LatencyHist {
            buckets: [0; Self::BUCKETS],
            count: 0,
            max_us: 0,
        }
    }

    fn bucket(us: u64) -> usize {
        if us == 0 {
            return 0;
        }
        let exp = 63 - us.leading_zeros();
        // The three bits below the leading one pick the sub-bucket.
        let sub = ((u128::from(us) << 3) >> exp) as u32 & (Self::SUB - 1);
        1 + (exp * Self::SUB + sub) as usize
    }

    /// The largest whole-microsecond latency bucket `b` can hold.
    fn upper_us(b: usize) -> u64 {
        if b == 0 {
            return 0;
        }
        let (exp, sub) = ((b - 1) as u32 / Self::SUB, (b - 1) as u32 % Self::SUB);
        let end = (u128::from(Self::SUB + sub + 1) << exp).div_ceil(u128::from(Self::SUB));
        (end - 1).min(u128::from(u64::MAX)) as u64
    }

    fn record(&mut self, elapsed: std::time::Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket(us)] += 1;
        self.count += 1;
        self.max_us = self.max_us.max(us);
    }

    /// The `q`-quantile (0 < q ≤ 1), as the upper edge of the bucket
    /// holding that rank, capped at the largest latency seen.
    fn quantile_us(&self, q: f64) -> u64 {
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::upper_us(b).min(self.max_us);
            }
        }
        0
    }

    fn json(&self) -> Json {
        Json::Obj(vec![
            ("count".to_owned(), Json::count(self.count)),
            ("p50_us".to_owned(), Json::count(self.quantile_us(0.50))),
            ("p99_us".to_owned(), Json::count(self.quantile_us(0.99))),
            ("max_us".to_owned(), Json::count(self.max_us)),
        ])
    }
}

/// The ops whose latencies `stats` reports.
const TIMED_OPS: [&str; 3] = ["check", "grant", "revoke"];

/// The state behind one `secflow serve` session: per-user incremental
/// closures materialised on first edit, the last-reported statuses the
/// edit deltas are diffed against, and the process-wide [`ClosureCache`]
/// answering checks of users that were never edited.
///
/// A check costs one cache lookup plus the user's own requirements. The
/// two policy-wide structures it reads — the per-user requirement index
/// and the [`CacheScope`] holding the schema fingerprint — are built once,
/// on first use, never before the `ready` line.
struct ServeState<'s> {
    schema: &'s Schema,
    config: &'s AnalysisConfig,
    index: OnceCell<ReqIndex<'s>>,
    scope: OnceCell<CacheScope<'s>>,
    resident: BTreeMap<UserName, IncrementalUser>,
    last: BTreeMap<UserName, Vec<(usize, ReqStatus)>>,
    latency: [LatencyHist; TIMED_OPS.len()],
    requests: u64,
    edits: u64,
}

impl<'s> ServeState<'s> {
    fn new(schema: &'s Schema, config: &'s AnalysisConfig) -> ServeState<'s> {
        ServeState {
            schema,
            config,
            index: OnceCell::new(),
            scope: OnceCell::new(),
            resident: BTreeMap::new(),
            last: BTreeMap::new(),
            latency: std::array::from_fn(|_| LatencyHist::new()),
            requests: 0,
            edits: 0,
        }
    }

    fn index(&self) -> &ReqIndex<'s> {
        self.index.get_or_init(|| ReqIndex::new(self.schema))
    }

    fn ready_line(&self) -> String {
        let obj = Json::Obj(vec![(
            "ready".to_owned(),
            Json::Obj(vec![
                (
                    "users".to_owned(),
                    Json::count(self.schema.users.len() as u64),
                ),
                (
                    "requirements".to_owned(),
                    Json::count(self.schema.requirements.len() as u64),
                ),
            ]),
        )]);
        format!("{obj}\n")
    }

    fn shutdown_line(&self) -> String {
        let obj = Json::Obj(vec![(
            "shutdown".to_owned(),
            Json::Obj(vec![
                ("requests".to_owned(), Json::count(self.requests)),
                ("edits".to_owned(), Json::count(self.edits)),
            ]),
        )]);
        format!("{obj}\n")
    }

    /// Current statuses of every requirement naming `user`: read through
    /// the maintained incremental closure when the user is resident, the
    /// cached batch path otherwise.
    fn statuses(&self, user: &UserName) -> Vec<(usize, ReqStatus)> {
        let (idxs, reqs) = self.index().of(user);
        if let Some(inc) = self.resident.get(user) {
            idxs.iter()
                .zip(reqs)
                .map(|(&i, r)| (i, ReqStatus::of(&Ok(inc.check(r)))))
                .collect()
        } else {
            let scope = self
                .scope
                .get_or_init(|| CacheScope::new(closure_cache(), self.schema, self.config));
            let outcome = scope.analyze_batch(reqs, &BatchOptions::default());
            idxs.iter()
                .zip(&outcome.verdicts)
                .map(|(&i, v)| (i, ReqStatus::of(v)))
                .collect()
        }
    }

    fn field<'a>(fields: &'a [(String, String)], key: &str) -> Option<&'a str> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn need<'a>(fields: &'a [(String, String)], key: &str, op: &str) -> Result<&'a str, String> {
        Self::field(fields, key).ok_or_else(|| format!("`{op}` needs a `{key}` field"))
    }

    fn user_named(&self, name: &str) -> Result<UserName, String> {
        let user = UserName::new(name);
        if self.schema.users.contains_key(&user) {
            Ok(user)
        } else {
            Err(format!("unknown user `{name}`"))
        }
    }

    /// Handle one request line. Returns the response text (empty for blank
    /// lines) and whether the session should end.
    fn handle(&mut self, line: &str) -> (String, bool) {
        if line.trim().is_empty() {
            return (String::new(), false);
        }
        self.requests += 1;
        let seq = self.requests;
        match self.dispatch(line) {
            Ok(resp) => resp,
            Err(msg) => {
                let obj = Json::Obj(vec![
                    ("error".to_owned(), Json::str(&msg)),
                    ("request".to_owned(), Json::count(seq)),
                ]);
                (format!("{obj}\n"), false)
            }
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<(String, bool), String> {
        let start = Instant::now();
        let fields = parse_request(line)?;
        let op = Self::need(&fields, "op", "request")?.to_owned();
        let resp = self.run_op(&op, &fields);
        if let Some(k) = TIMED_OPS.iter().position(|t| *t == op) {
            self.latency[k].record(start.elapsed());
        }
        resp
    }

    fn run_op(&mut self, op: &str, fields: &[(String, String)]) -> Result<(String, bool), String> {
        match op {
            "check" => {
                let user = self.user_named(Self::need(fields, "user", "check")?)?;
                let statuses = self.statuses(&user);
                let verdicts: Vec<Json> = statuses
                    .iter()
                    .map(|(i, st)| verdict_json(*i, &self.index().text[*i], st))
                    .collect();
                let obj = Json::Obj(vec![
                    ("op".to_owned(), Json::str("check")),
                    ("user".to_owned(), Json::str(user.as_str())),
                    ("verdicts".to_owned(), Json::Arr(verdicts)),
                ]);
                self.last.insert(user, statuses);
                Ok((format!("{obj}\n"), false))
            }
            "grant" | "revoke" => {
                let user = self.user_named(Self::need(fields, "user", op)?)?;
                let f: FnRef = Self::need(fields, "fn", op)?.parse()?;
                self.edit(op, user, &f)
            }
            "stats" => Ok((self.stats_line(), false)),
            "shutdown" => Ok((self.shutdown_line(), true)),
            other => Err(format!(
                "unknown op `{other}` (use check, grant, revoke, stats or shutdown)"
            )),
        }
    }

    /// Apply one grant/revoke: materialise the user's incremental state if
    /// this is their first edit, establish the delta baseline, run the
    /// edit, and report only the verdicts that changed.
    fn edit(&mut self, op: &str, user: UserName, f: &FnRef) -> Result<(String, bool), String> {
        if !self.resident.contains_key(&user) {
            let inc = IncrementalUser::new(self.schema, &user, self.config)
                .map_err(|e| format!("cannot materialise `{}`: {e}", user.as_str()))?;
            self.resident.insert(user.clone(), inc);
        }
        // The delta baseline is what this session last reported for the
        // user — computed now, pre-edit, if they were never checked.
        if !self.last.contains_key(&user) {
            let base = self.statuses(&user);
            self.last.insert(user.clone(), base);
        }
        let inc = self.resident.get_mut(&user).expect("resident just ensured");
        let outcome = match op {
            "grant" => inc.grant(self.schema, f),
            _ => inc.revoke(self.schema, f),
        }
        .map_err(|e| format!("{op} {f} failed: {e}"))?;
        if outcome.changed {
            self.edits += 1;
        }
        let terms = inc.closure().len() as u64;
        let now = self.statuses(&user);
        let before = self.last.get(&user).expect("baseline just ensured");
        let deltas: Vec<Json> = now
            .iter()
            .filter(|(i, st)| {
                before
                    .iter()
                    .find(|(j, _)| j == i)
                    .is_none_or(|(_, old)| old != st)
            })
            .map(|(i, st)| verdict_json(*i, &self.index().text[*i], st))
            .collect();
        let obj = Json::Obj(vec![
            ("op".to_owned(), Json::str(op)),
            ("user".to_owned(), Json::str(user.as_str())),
            ("fn".to_owned(), Json::str(&f.to_string())),
            ("changed".to_owned(), Json::Bool(outcome.changed)),
            ("deleted".to_owned(), Json::count(outcome.deleted as u64)),
            (
                "survivors".to_owned(),
                Json::count(outcome.survivors as u64),
            ),
            (
                "rederived".to_owned(),
                Json::count(outcome.rederived as u64),
            ),
            ("terms".to_owned(), Json::count(terms)),
            ("deltas".to_owned(), Json::Arr(deltas)),
        ]);
        self.last.insert(user, now);
        Ok((format!("{obj}\n"), false))
    }

    fn stats_line(&self) -> String {
        let cache = closure_cache();
        let cs = cache.stats();
        let resident_terms: u64 = self
            .resident
            .values()
            .map(|i| i.closure().len() as u64)
            .sum();
        let obj = Json::Obj(vec![(
            "stats".to_owned(),
            Json::Obj(vec![
                ("requests".to_owned(), Json::count(self.requests)),
                ("edits".to_owned(), Json::count(self.edits)),
                (
                    "resident".to_owned(),
                    Json::count(self.resident.len() as u64),
                ),
                ("resident_terms".to_owned(), Json::count(resident_terms)),
                (
                    "cache".to_owned(),
                    Json::Obj(vec![
                        ("entries".to_owned(), Json::count(cache.len() as u64)),
                        ("capacity".to_owned(), Json::count(cache.capacity() as u64)),
                        ("shards".to_owned(), Json::count(cache.shard_count() as u64)),
                        ("hits".to_owned(), Json::count(cs.hits)),
                        ("misses".to_owned(), Json::count(cs.misses)),
                        ("evictions".to_owned(), Json::count(cs.evictions)),
                    ]),
                ),
                (
                    "latency".to_owned(),
                    Json::Obj(
                        TIMED_OPS
                            .iter()
                            .zip(&self.latency)
                            .map(|(op, h)| ((*op).to_owned(), h.json()))
                            .collect(),
                    ),
                ),
            ]),
        )]);
        format!("{obj}\n")
    }
}

/// The one serve loop: the `{"ready":…}` line, one response per request
/// line (each flushed the moment it is written, so a watch mode or editor
/// integration sees a verdict delta as soon as the edit lands), and a
/// closing `{"shutdown":…}` line whether the requests asked for it or
/// simply ran out (EOF). Write errors are ignored: the session keeps
/// serving its requests.
fn serve_to<I>(schema: &Schema, requests: I, out: &mut impl std::io::Write)
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let config = AnalysisConfig::default();
    let mut state = ServeState::new(schema, &config);
    let mut emit = |text: &str| {
        let _ = out.write_all(text.as_bytes());
        let _ = out.flush();
    };
    emit(&state.ready_line());
    for line in requests {
        let (resp, done) = state.handle(line.as_ref());
        emit(&resp);
        if done {
            return;
        }
    }
    emit(&state.shutdown_line());
}

/// Drive a full serve session over an in-memory request script — the
/// unit-testable core of `secflow serve`. Returns the concatenated NDJSON
/// response stream and the exit code.
pub fn serve_session<I>(schema: &Schema, requests: I) -> (String, i32)
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut out = Vec::new();
    serve_to(schema, requests, &mut out);
    (
        String::from_utf8(out).expect("serve responses are UTF-8"),
        exit::OK,
    )
}

/// The real `secflow serve` loop: NDJSON requests from stdin, responses
/// streamed to stdout. The buffered `(report, code)` return stays empty;
/// everything was already streamed.
fn serve_stdin(schema: &Schema) -> (String, i32) {
    use std::io::BufRead as _;
    let requests = std::io::stdin().lock().lines().map_while(Result::ok);
    serve_to(schema, requests, &mut std::io::stdout().lock());
    (String::new(), exit::OK)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit-threshold variant: the attack subcommand's probe domain is
    // {0,1,2}, which can bracket `salary` but not `10 * salary`.
    const POLICY: &str = r#"
        class Broker { salary: int, budget: int }
        fn checkBudget(b: Broker): bool { r_budget(b) >= r_salary(b) }
        user clerk { checkBudget, w_budget }
        user safe_clerk { checkBudget }
        require (clerk, r_salary(x) : ti)
        require (safe_clerk, r_salary(x) : ti)
    "#;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        assert_eq!(parse_args(&[]), Ok(Command::Help));
        assert_eq!(parse_args(&s(&["--help"])), Ok(Command::Help));
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--explain"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: true,
                jobs: 1,
                full_saturation: false,
                certify: false,
                stream: false,
                ndjson: false,
            })
        );
        assert_eq!(
            parse_args(&s(&["unfold", "p.sfl", "--user", "clerk"])),
            Ok(Command::Unfold {
                file: "p.sfl".into(),
                user: "clerk".into()
            })
        );
        assert_eq!(
            parse_args(&s(&["attack", "p.sfl", "--steps", "3"])),
            Ok(Command::Attack {
                file: "p.sfl".into(),
                steps: 3
            })
        );
        assert!(parse_args(&s(&["bogus"])).is_err());
        assert!(parse_args(&s(&["unfold", "p.sfl"])).is_err());
        assert!(parse_args(&s(&["attack", "p.sfl", "--steps", "x"])).is_err());
    }

    #[test]
    fn jobs_flag_parsing() {
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--jobs", "4"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 4,
                full_saturation: false,
                certify: false,
                stream: false,
                ndjson: false,
            })
        );
        assert!(parse_args(&s(&["check", "p.sfl", "--jobs"])).is_err());
        assert!(parse_args(&s(&["check", "p.sfl", "--jobs", "x"])).is_err());
        // 0 is not an error: it asks for auto-detected parallelism.
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--jobs", "0"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 0,
                full_saturation: false,
                certify: false,
                stream: false,
                ndjson: false,
            })
        );
    }

    #[test]
    fn stream_flag_parsing() {
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--stream", "--jobs", "0"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 0,
                full_saturation: false,
                certify: false,
                stream: true,
                ndjson: false,
            })
        );
        // --stream buffers nothing, so the artifact-hungry flags conflict.
        let err = parse_args(&s(&["check", "p.sfl", "--stream", "--explain"])).unwrap_err();
        assert!(err.contains("--stream"), "{err}");
        assert!(parse_args(&s(&["check", "p.sfl", "--stream", "--certify"])).is_err());
    }

    #[test]
    fn ndjson_flag_parsing() {
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--stream", "--format=ndjson"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 1,
                full_saturation: false,
                certify: false,
                stream: true,
                ndjson: true,
            })
        );
        // --format=text is the accepted default spelling.
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--stream", "--format=text"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 1,
                full_saturation: false,
                certify: false,
                stream: true,
                ndjson: false,
            })
        );
        // The record format only exists on the streaming path.
        let err = parse_args(&s(&["check", "p.sfl", "--format=ndjson"])).unwrap_err();
        assert!(err.contains("--stream"), "{err}");
        assert!(parse_args(&s(&["check", "p.sfl", "--format=xml"])).is_err());
    }

    /// The satellite golden test: the NDJSON stream's schema — key names,
    /// key order, status vocabulary, and the trailing summary object — is
    /// pinned byte for byte (serial run, so record order is first-seen
    /// group order).
    #[test]
    fn ndjson_stream_schema_is_pinned() {
        let cmd = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: true,
            ndjson: true,
        };
        let (out, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 1, "{out}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            vec![
                "{\"group\":0,\"user\":\"clerk\",\"occurrences_checked\":1,\"verdicts\":\
                 [{\"requirement\":0,\"require\":\"(clerk, r_salary(x):ti)\",\
                 \"status\":\"violated\",\"occurrences\":1}]}",
                "{\"group\":1,\"user\":\"safe_clerk\",\"occurrences_checked\":1,\"verdicts\":\
                 [{\"requirement\":1,\"require\":\"(safe_clerk, r_salary(x):ti)\",\
                 \"status\":\"satisfied\"}]}",
                "{\"summary\":{\"requirements\":2,\"violated\":1,\"errors\":0,\
                 \"groups\":2,\"workers\":1}}",
            ],
        );
        // Every line is a standalone JSON document (the NDJSON contract),
        // and verdict counts agree with the buffered path's exit code.
        for line in &lines {
            Json::parse(line).expect("each stream line parses as JSON");
        }
    }

    #[test]
    fn ndjson_stream_reports_errors_per_group() {
        // An analysis error surfaces on the verdict object as status
        // "error" plus the error message. Exercised against the renderer
        // directly: the streaming path runs on default budgets, which no
        // test-sized policy can exhaust, so the record is built by hand
        // with a budget-blowout verdict.
        let schema = parse_schema(POLICY).unwrap();
        check_schema(&schema).unwrap();
        let record = GroupRecord {
            group_index: 3,
            worker: 0,
            user: oodb_model::UserName::new("clerk"),
            verdicts: vec![(
                1,
                Err(secflow::algorithm::AnalysisError::Closure(
                    secflow::closure::ClosureError::TermLimit { limit: 64 },
                )),
            )],
            occurrences_checked: 0,
        };
        let (obj, violated, errors) = ndjson_record(&schema, &record);
        assert_eq!((violated, errors), (0, 1));
        let line = obj.to_string();
        let parsed = Json::parse(&line).expect("record renders as one JSON object");
        assert_eq!(parsed.get("group").and_then(Json::as_u64), Some(3));
        let verdicts = parsed.get("verdicts").and_then(Json::as_arr).unwrap();
        assert_eq!(
            verdicts[0].get("status").and_then(Json::as_str),
            Some("error")
        );
        assert_eq!(
            verdicts[0].get("requirement").and_then(Json::as_u64),
            Some(1)
        );
        let msg = verdicts[0].get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("budget of 64 terms"), "{msg}");
    }

    #[test]
    fn streamed_check_matches_buffered_verdicts() {
        let buffered = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let (plain, plain_code) = run_on_source(&buffered, POLICY);
        for jobs in [1usize, 4] {
            let streamed = Command::Check {
                file: "-".into(),
                explain: false,
                jobs,
                full_saturation: false,
                certify: false,
                stream: true,
                ndjson: false,
            };
            let (out, code) = run_on_source(&streamed, POLICY);
            assert_eq!(code, plain_code, "stream must keep the exit code\n{out}");
            // Strip the [g<i>] tags, sort by group index, and the verdict
            // lines must be exactly the buffered ones.
            let mut tagged: Vec<(usize, &str)> = Vec::new();
            let mut lines = out.lines().collect::<Vec<_>>();
            let summary = lines.pop().unwrap();
            assert!(
                summary.contains("2 requirement(s), 1 violated — streamed 2 group(s)"),
                "{summary}"
            );
            for line in lines {
                let rest = line.strip_prefix("[g").unwrap();
                let (gi, rest) = rest.split_once("] ").unwrap();
                tagged.push((gi.parse().unwrap(), rest));
            }
            tagged.sort_by_key(|(gi, _)| *gi);
            let reassembled: Vec<&str> = tagged.iter().map(|(_, l)| *l).collect();
            let buffered_lines: Vec<&str> =
                plain.lines().take_while(|l| !l.starts_with('2')).collect();
            assert_eq!(reassembled, buffered_lines);
        }
        // Instrumented streaming keeps stdout and surfaces batch metrics.
        let streamed = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 2,
            full_saturation: false,
            certify: false,
            stream: true,
            ndjson: false,
        };
        let obs = ObsOptions {
            metrics: Some(MetricsFormat::Json),
            trace: None,
        };
        let out = run_on_source_with_obs(&streamed, POLICY, &obs);
        assert_eq!(out.code, 1);
        assert!(out.stderr.contains("\"batch.steals\""), "{}", out.stderr);
        assert!(
            out.stderr.contains("\"cache.shard.count\""),
            "{}",
            out.stderr
        );
    }

    #[test]
    fn full_saturation_flag_parsing() {
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--full-saturation"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 1,
                full_saturation: true,
                certify: false,
                stream: false,
                ndjson: false,
            })
        );
        // Unknown check flags mention the escape hatch.
        let err = parse_args(&s(&["check", "p.sfl", "--full"])).unwrap_err();
        assert!(err.contains("--full-saturation"), "{err}");
    }

    #[test]
    fn full_saturation_output_is_byte_identical() {
        let demand = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let full = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            full_saturation: true,
            certify: false,
            stream: false,
            ndjson: false,
        };
        assert_eq!(
            run_on_source(&demand, POLICY),
            run_on_source(&full, POLICY),
            "--full-saturation must not change stdout or the exit code"
        );
    }

    #[test]
    fn explain_works_with_full_saturation() {
        let cmd = Command::Check {
            file: "-".into(),
            explain: true,
            jobs: 1,
            full_saturation: true,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 1);
        assert!(report.contains("witness ti["));
        assert!(report.contains("(axiom for =)"));
    }

    #[test]
    fn repeated_checks_share_the_process_cache() {
        let cmd = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let first = run_on_source(&cmd, POLICY);
        let hits_before = closure_cache().stats().hits;
        let second = run_on_source(&cmd, POLICY);
        assert_eq!(first, second);
        assert!(
            closure_cache().stats().hits > hits_before,
            "second identical check must be served from the cache"
        );
    }

    #[test]
    fn parallel_check_is_byte_identical() {
        let serial = Command::Check {
            file: "-".into(),
            explain: true,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let parallel = Command::Check {
            file: "-".into(),
            explain: true,
            jobs: 4,
            full_saturation: false,
            certify: false,
            stream: false,
            ndjson: false,
        };
        assert_eq!(
            run_on_source(&serial, POLICY),
            run_on_source(&parallel, POLICY),
            "--jobs must not change stdout or the exit code"
        );
        // Same under instrumentation (stderr timings differ, stdout not).
        let obs = ObsOptions {
            metrics: Some(MetricsFormat::Json),
            trace: Some(TraceOptions::default()),
        };
        let a = run_on_source_with_obs(&serial, POLICY, &obs);
        let b = run_on_source_with_obs(&parallel, POLICY, &obs);
        assert_eq!(a.stdout, b.stdout);
        assert_eq!(a.code, b.code);
    }

    #[test]
    fn obs_flag_parsing() {
        let (cmd, obs) =
            parse_args_with_obs(&s(&["check", "p.sfl", "--metrics=json", "--trace"])).unwrap();
        assert_eq!(
            cmd,
            Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 1,
                full_saturation: false,
                certify: false,
                stream: false,
                ndjson: false,
            }
        );
        assert_eq!(obs.metrics, Some(MetricsFormat::Json));
        assert_eq!(obs.trace, Some(TraceOptions::default()));

        let (_, obs) = parse_args_with_obs(&s(&["check", "p.sfl", "--metrics"])).unwrap();
        assert_eq!(obs.metrics, Some(MetricsFormat::Text));
        let (_, obs) = parse_args_with_obs(&s(&["check", "p.sfl", "--metrics=text"])).unwrap();
        assert_eq!(obs.metrics, Some(MetricsFormat::Text));

        // --trace=FILE routes to the file; --trace-format selects chrome.
        let (_, obs) = parse_args_with_obs(&s(&[
            "check",
            "p.sfl",
            "--trace=out.trace",
            "--trace-format=chrome",
        ]))
        .unwrap();
        assert_eq!(
            obs.trace,
            Some(TraceOptions {
                file: Some("out.trace".into()),
                format: TraceFormat::Chrome,
            })
        );
        let (_, obs) =
            parse_args_with_obs(&s(&["check", "p.sfl", "--trace", "--trace-format=jsonl"]))
                .unwrap();
        assert_eq!(
            obs.trace,
            Some(TraceOptions {
                file: None,
                format: TraceFormat::Jsonl,
            })
        );

        // No obs flags: defaults off, plain parsing unchanged.
        let (cmd, obs) = parse_args_with_obs(&s(&["--help"])).unwrap();
        assert_eq!(cmd, Command::Help);
        assert!(obs.is_off());

        assert!(parse_args_with_obs(&s(&["check", "p.sfl", "--metrics=xml"])).is_err());
        // An empty file, an unknown format, or --trace-format without
        // --trace are all usage errors.
        assert!(parse_args_with_obs(&s(&["check", "p.sfl", "--trace="])).is_err());
        assert!(
            parse_args_with_obs(&s(&["check", "p.sfl", "--trace", "--trace-format=xml"])).is_err()
        );
        assert!(parse_args_with_obs(&s(&["check", "p.sfl", "--trace-format=chrome"])).is_err());
    }

    #[test]
    fn metrics_go_to_stderr_and_stdout_is_stable() {
        let cmd = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let (plain, plain_code) = run_on_source(&cmd, POLICY);
        // Metrics on + trace without a file: the trace is dropped, stderr
        // holds the metrics report alone — no interleaving.
        let out = run_on_source_with_obs(
            &cmd,
            POLICY,
            &ObsOptions {
                metrics: Some(MetricsFormat::Text),
                trace: Some(TraceOptions::default()),
            },
        );
        assert_eq!(out.stdout, plain, "stdout must stay diff-stable");
        assert_eq!(out.code, plain_code);
        assert!(out.stderr.contains("closure.terms.total"));
        assert!(out.stderr.contains("-- timings"));
        assert!(
            !out.stderr.contains("\"ph\""),
            "trace events must not interleave with metrics:\n{}",
            out.stderr
        );
        assert!(out.trace_output.is_none(), "no file target, no file output");
        // Trace alone (no file): stderr is pure JSONL trace events.
        let traced = run_on_source_with_obs(
            &cmd,
            POLICY,
            &ObsOptions {
                metrics: None,
                trace: Some(TraceOptions::default()),
            },
        );
        assert_eq!(traced.stdout, plain);
        assert!(!traced.stderr.is_empty());
        for line in traced.stderr.lines() {
            let ev = Json::parse(line).expect("each stderr line is one JSON trace event");
            assert!(ev.get("name").is_some() && ev.get("ph").is_some());
        }
        // Trace to a file: stderr empty, events in trace_output instead.
        let to_file = run_on_source_with_obs(
            &cmd,
            POLICY,
            &ObsOptions {
                metrics: Some(MetricsFormat::Text),
                trace: Some(TraceOptions {
                    file: Some("t.jsonl".into()),
                    format: TraceFormat::Jsonl,
                }),
            },
        );
        let blob = to_file
            .trace_output
            .expect("file target captures the trace");
        for line in blob.lines() {
            assert!(Json::parse(line).is_ok(), "bad trace line: {line}");
        }
        assert!(!to_file.stderr.contains("\"ph\""));
        // Off = byte-identical with empty stderr.
        let off = run_on_source_with_obs(&cmd, POLICY, &ObsOptions::default());
        assert_eq!(off.stdout, plain);
        assert!(off.stderr.is_empty());
    }

    #[test]
    fn metrics_json_is_valid_and_complete() {
        use secflow_obs::Json;
        let cmd = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let out = run_on_source_with_obs(
            &cmd,
            POLICY,
            &ObsOptions {
                metrics: Some(MetricsFormat::Json),
                trace: None,
            },
        );
        let doc = Json::parse(&out.stderr).expect("stderr is one valid JSON document");
        let counters = doc.get("counters").expect("counters object");
        // Per-capability term counts, rule firings, fixpoint rounds.
        assert!(
            counters
                .get("closure.terms.ti")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        assert!(
            counters
                .get("closure.terms.eq")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        assert!(
            counters
                .get("closure.rounds")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        assert!(
            counters
                .get("closure.rule.axiom")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        assert_eq!(
            counters.get("analysis.requirements").and_then(Json::as_u64),
            Some(2)
        );
        // Closure-cache counters (lifetime totals), shard layout, batch
        // scheduler steals, and occupancy gauges.
        for counter in [
            "cache.hits",
            "cache.misses",
            "cache.union_recomputes",
            "cache.evictions",
            "cache.shard.count",
            "batch.steals",
        ] {
            assert!(
                counters.get(counter).and_then(Json::as_u64).is_some(),
                "missing counter {counter}"
            );
        }
        assert!(
            counters
                .get("cache.shard.count")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        let gauges = doc.get("gauges").expect("gauges object");
        assert!(gauges.get("cache.occupancy").is_some());
        assert!(gauges.get("cache.capacity").is_some());
        assert!(gauges.get("cache.shard.max_len").is_some());
        // Per-phase timings.
        let spans = doc.get("spans_ms").expect("spans object");
        for phase in ["parse", "typecheck", "unfold", "closure", "check"] {
            assert!(spans.get(phase).is_some(), "missing span {phase}");
        }
    }

    /// Every command shape through the one dispatcher, with observability
    /// off and fully on: stdout and the exit code must not change.
    #[test]
    fn metrics_on_non_check_commands() {
        let check = |explain, certify, stream, ndjson| Command::Check {
            file: "-".into(),
            explain,
            jobs: 1,
            full_saturation: false,
            certify,
            stream,
            ndjson,
        };
        let cases = [
            ("check", check(false, false, false, false), POLICY),
            ("check --explain", check(true, false, false, false), POLICY),
            ("check --certify", check(false, true, false, false), POLICY),
            ("check --stream", check(false, false, true, false), POLICY),
            (
                "check --stream --format=ndjson",
                check(false, false, true, true),
                POLICY,
            ),
            ("audit", audit_cmd(), POLICY),
            (
                "audit --format=json",
                audit_cmd_with(AuditFormat::Json, None),
                POLICY,
            ),
            (
                "unfold",
                Command::Unfold {
                    file: "-".into(),
                    user: "clerk".into(),
                },
                POLICY,
            ),
            (
                "attack",
                Command::Attack {
                    file: "-".into(),
                    steps: 2,
                },
                POLICY,
            ),
            ("fix", Command::Fix { file: "-".into() }, POLICY),
            ("fmt", Command::Fmt { file: "-".into() }, POLICY),
            (
                "parse error",
                check(false, false, false, false),
                "class C { x: bogus_type }",
            ),
        ];
        let obs = ObsOptions {
            metrics: Some(MetricsFormat::Json),
            trace: Some(TraceOptions {
                file: Some("t.json".into()),
                format: TraceFormat::Chrome,
            }),
        };
        for (label, cmd, src) in cases {
            let (plain, plain_code) = run_on_source(&cmd, src);
            let out = run_on_source_with_obs(&cmd, src, &obs);
            assert_eq!(out.stdout, plain, "{label}: stdout changed");
            assert_eq!(out.code, plain_code, "{label}: exit code changed");
            Json::parse(&out.stderr)
                .unwrap_or_else(|e| panic!("{label}: metrics are not one JSON document: {e}"));
        }
        let text = ObsOptions {
            metrics: Some(MetricsFormat::Text),
            trace: None,
        };
        let unfold = Command::Unfold {
            file: "-".into(),
            user: "clerk".into(),
        };
        assert!(run_on_source_with_obs(&unfold, POLICY, &text)
            .stderr
            .contains("unfold"));
        // Parse errors still exit 3 with the metrics facility on.
        let bad = run_on_source_with_obs(
            &Command::Fmt { file: "-".into() },
            "class C { x: bogus_type }",
            &text,
        );
        assert_eq!(bad.code, exit::INPUT);
        assert!(bad.stdout.contains("error"));
    }

    #[test]
    fn check_flags_the_flaw_and_exits_one() {
        let cmd = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 1);
        assert!(report.contains("FLAW  (clerk, r_salary(x):ti)"));
        assert!(report.contains("ok    (safe_clerk, r_salary(x):ti)"));
        assert!(report.contains("2 requirement(s), 1 violated"));
    }

    #[test]
    fn check_explain_prints_a_derivation() {
        let cmd = Command::Check {
            file: "-".into(),
            explain: true,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 1);
        assert!(report.contains("witness ti["));
        assert!(report.contains("(axiom for =)"));
    }

    #[test]
    fn unfold_prints_numbered_program() {
        let cmd = Command::Unfold {
            file: "-".into(),
            user: "clerk".into(),
        };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 0);
        assert!(report.contains("checkBudget: 5>="));
        assert!(report.contains("occurrences of r_salary: 1"));

        let cmd = Command::Unfold {
            file: "-".into(),
            user: "ghost".into(),
        };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, exit::INPUT);
        assert!(report.contains("unknown user"));
    }

    #[test]
    fn attack_realises_the_flaw() {
        // Total inference over unbounded integers needs bracketing probes:
        // two write+probe rounds, i.e. four steps.
        let cmd = Command::Attack {
            file: "-".into(),
            steps: 4,
        };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 1);
        assert!(report.contains("REALISED (clerk, r_salary(x):ti)"));
        assert!(report.contains("not realised (safe_clerk, r_salary(x):ti)"));
    }

    #[test]
    fn fix_suggests_the_papers_repair() {
        let cmd = Command::Fix { file: "-".into() };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 1);
        assert!(report.contains("FLAW  (clerk, r_salary(x):ti)"));
        assert!(report.contains("revoke {w_budget}"));
        assert!(report.contains("ok    (safe_clerk, r_salary(x):ti)"));
    }

    #[test]
    fn fmt_round_trips() {
        let cmd = Command::Fmt { file: "-".into() };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 0);
        // The pretty-printed policy re-parses and re-checks.
        load_str(&report).unwrap();
    }

    #[test]
    fn input_errors_exit_three() {
        let cmd = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let (report, code) = run_on_source(&cmd, "class C { x: bogus_type }");
        assert_eq!(code, exit::INPUT);
        assert!(report.contains("error"));
    }

    #[test]
    fn certify_flag_parsing() {
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--certify"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 1,
                full_saturation: false,
                certify: true,
                stream: false,
                ndjson: false,
            })
        );
        // Unknown check flags mention --certify among the accepted set.
        let err = parse_args(&s(&["check", "p.sfl", "--certify-all"])).unwrap_err();
        assert!(err.contains("--certify"), "{err}");
    }

    #[test]
    fn certify_revalidates_and_appends_a_summary() {
        let plain = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let certified = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: true,
            stream: false,
            ndjson: false,
        };
        let (plain_out, plain_code) = run_on_source(&plain, POLICY);
        let (out, code) = run_on_source(&certified, POLICY);
        // Verdict lines and exit code are unchanged; one summary line is
        // appended.
        assert_eq!(code, plain_code);
        assert!(out.starts_with(&plain_out), "verdict lines must not change");
        assert!(
            out.contains("certified: ") && out.contains("across 2 closure(s)"),
            "missing certify summary: {out}"
        );
        // The instrumented path additionally surfaces per-rule check
        // counters in the metrics report.
        let obs = run_on_source_with_obs(
            &certified,
            POLICY,
            &ObsOptions {
                metrics: Some(MetricsFormat::Json),
                trace: None,
            },
        );
        assert_eq!(obs.stdout, out, "metrics must not change stdout");
        assert!(
            obs.stderr.contains("checker.rule.axiom"),
            "metrics missing checker counters: {}",
            obs.stderr
        );
    }

    #[test]
    fn corrupted_proofs_fail_certification_with_exit_four() {
        let schema = load_str(POLICY).unwrap();
        let mut outcome = check_batch(&schema, false, 1, false, true, false);
        // Corrupt one recorded derivation in the first group's closure: the
        // independent checker must reject it and the CLI must map that to
        // the dedicated exit code.
        let (_, closure) = outcome.groups[0].artifacts.as_mut().unwrap();
        let t = closure
            .iter()
            .find(|t| matches!(t, secflow::Term::Ta(_)))
            .expect("closure has a ta term");
        // `rule for =` can only conclude an equality, never a `ta` term.
        assert!(closure.replace_proof(&t, "rule for =", vec![]));
        let (out, code) = render_check(&schema, &outcome, false, true, None);
        assert_eq!(code, exit::CERTIFY, "corrupted outcome certified: {out}");
        assert!(
            out.contains("certification FAILED for user "),
            "missing failure report: {out}"
        );
    }

    #[test]
    fn certify_composes_with_explain_and_jobs() {
        let cmd = Command::Check {
            file: "-".into(),
            explain: true,
            jobs: 4,
            full_saturation: true,
            certify: true,
            stream: false,
            ndjson: false,
        };
        let (out, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, exit::VIOLATION);
        assert!(out.contains("witness ti["));
        assert!(out.contains("certified: "));
    }

    fn audit_cmd() -> Command {
        audit_cmd_with(AuditFormat::Text, None)
    }

    fn audit_cmd_with(format: AuditFormat, severity: Option<Severity>) -> Command {
        Command::Audit {
            file: "-".into(),
            format,
            severity,
            mode: WalkMode::Backward,
            max_depth: 64,
            max_paths: 16,
            jobs: 1,
        }
    }

    #[test]
    fn audit_flag_parsing() {
        assert_eq!(
            parse_args(&s(&["audit", "p.sfl"])),
            Ok(Command::Audit {
                file: "p.sfl".into(),
                format: AuditFormat::Text,
                severity: None,
                mode: WalkMode::Backward,
                max_depth: 64,
                max_paths: 16,
                jobs: 1,
            })
        );
        assert_eq!(
            parse_args(&s(&[
                "audit",
                "p.sfl",
                "--format=json",
                "--severity=high",
                "--mode=complete",
                "--max-depth",
                "8",
                "--max-paths",
                "4",
                "--jobs",
                "2",
            ])),
            Ok(Command::Audit {
                file: "p.sfl".into(),
                format: AuditFormat::Json,
                severity: Some(Severity::High),
                mode: WalkMode::Complete,
                max_depth: 8,
                max_paths: 4,
                jobs: 2,
            })
        );
        assert!(parse_args(&s(&["audit"])).is_err());
        assert!(parse_args(&s(&["audit", "p.sfl", "--format=yaml"])).is_err());
        assert!(parse_args(&s(&["audit", "p.sfl", "--severity=urgent"])).is_err());
        assert!(parse_args(&s(&["audit", "p.sfl", "--mode=sideways"])).is_err());
        assert!(parse_args(&s(&["audit", "p.sfl", "--jobs", "0"])).is_err());
        let err = parse_args(&s(&["audit", "p.sfl", "--explain"])).unwrap_err();
        assert!(err.contains("--severity"), "{err}");
    }

    #[test]
    fn audit_text_reports_paths_and_exits_one() {
        let (out, code) = run_on_source(&audit_cmd(), POLICY);
        assert_eq!(code, exit::VIOLATION);
        assert!(out.contains("AUDIT"), "{out}");
        assert!(out.contains("FLAW  (clerk, r_salary(x):ti)"));
        assert!(out.contains("ok    (safe_clerk, r_salary(x):ti)"));
        assert!(out.contains("<- sink"));
        assert!(out.contains("<- source"));
        assert!(out.contains("severity "));
        assert!(out.contains("certified: "), "audit must certify: {out}");
    }

    #[test]
    fn audit_clean_policy_exits_zero() {
        let clean = r#"
            class Broker { salary: int, budget: int }
            fn checkBudget(b: Broker): bool { r_budget(b) >= r_salary(b) }
            user safe_clerk { checkBudget }
            require (safe_clerk, r_salary(x) : ti)
        "#;
        let (out, code) = run_on_source(&audit_cmd(), clean);
        assert_eq!(code, exit::OK, "{out}");
        assert!(out.contains("ok    "));
        assert!(out.contains("0 flaw path(s)"));
        // JSON agrees.
        let (out, code) = run_on_source(&audit_cmd_with(AuditFormat::Json, None), clean);
        assert_eq!(code, exit::OK);
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("violated").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn audit_json_is_schema_versioned_and_complete() {
        let (out, code) = run_on_source(&audit_cmd_with(AuditFormat::Json, None), POLICY);
        assert_eq!(code, exit::VIOLATION);
        let doc = Json::parse(&out).expect("stdout is one valid JSON document");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(AUDIT_SCHEMA));
        assert_eq!(doc.get("requirements").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("violated").and_then(Json::as_u64), Some(1));
        let certified = doc.get("certified").expect("certified object");
        assert!(certified.get("derivations").and_then(Json::as_u64).unwrap() > 0);
        let violations = doc.get("violations").and_then(Json::as_arr).unwrap();
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        assert_eq!(
            v.get("requirement").and_then(Json::as_str),
            Some("(clerk, r_salary(x):ti)")
        );
        let witnesses = v.get("witnesses").and_then(Json::as_arr).unwrap();
        assert!(!witnesses.is_empty());
        for w in witnesses {
            let paths = w.get("paths").and_then(Json::as_arr).unwrap();
            assert!(!paths.is_empty(), "violated witness must have provenance");
            for p in paths {
                let steps = p.get("steps").and_then(Json::as_arr).unwrap();
                assert!(!steps.is_empty());
                // Backward mode: first step is the sink, last the source.
                assert_eq!(
                    steps[0].get("term").and_then(Json::as_str),
                    p.get("sink").and_then(Json::as_str)
                );
                assert_eq!(
                    steps[steps.len() - 1].get("term").and_then(Json::as_str),
                    p.get("source").and_then(Json::as_str)
                );
            }
        }
        // The audit bypasses the closure cache, and says so.
        assert_eq!(doc.get("cache"), Some(&Json::Null));
        let summary = doc.get("summary").expect("summary object");
        assert!(summary.get("paths").and_then(Json::as_u64).unwrap() > 0);
    }

    #[test]
    fn audit_severity_filter_drops_paths_not_verdicts() {
        let all = audit_cmd_with(AuditFormat::Json, None);
        let filtered = audit_cmd_with(AuditFormat::Json, Some(Severity::Critical));
        let (out_all, code_all) = run_on_source(&all, POLICY);
        let (out_f, code_f) = run_on_source(&filtered, POLICY);
        assert_eq!(code_all, exit::VIOLATION);
        assert_eq!(code_f, code_all, "the filter must never change exit codes");
        let n = |out: &str| {
            Json::parse(out)
                .unwrap()
                .get("summary")
                .and_then(|s| s.get("paths"))
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert!(n(&out_f) <= n(&out_all));
        assert_eq!(
            Json::parse(&out_f)
                .unwrap()
                .get("violated")
                .and_then(Json::as_u64),
            Some(1),
            "verdicts are unaffected by the path filter"
        );
    }

    #[test]
    fn audit_bad_input_exits_three() {
        let (out, code) = run_on_source(&audit_cmd(), "class C { x: bogus }");
        assert_eq!(code, exit::INPUT);
        assert!(out.contains("error"));
    }

    #[test]
    fn audit_rejects_a_corrupted_proof_store() {
        let schema = load_str(POLICY).unwrap();
        let mut outcome = audit_batch(&schema, 1);
        let (_, closure) = outcome.groups[0].artifacts.as_mut().unwrap();
        let t = closure
            .iter()
            .find(|t| matches!(t, secflow::Term::Ta(_)))
            .expect("closure has a ta term");
        assert!(closure.replace_proof(&t, "rule for =", vec![]));
        let opts = AuditOptions {
            policy: "-".into(),
            format: AuditFormat::Json,
            severity: None,
            provenance: ProvenanceOptions::default(),
        };
        let (out, code) = render_audit(&schema, &outcome, &opts);
        assert_eq!(code, exit::CERTIFY);
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("certified"), Some(&Json::Bool(false)));
        assert!(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("certification FAILED"));
        // No flaw paths may be reported from an uncertified proof store.
        assert!(doc.get("violations").is_none());
    }

    #[test]
    fn audit_emits_trace_and_metrics_without_interleaving() {
        let out = run_on_source_with_obs(
            &audit_cmd(),
            POLICY,
            &ObsOptions {
                metrics: Some(MetricsFormat::Json),
                trace: Some(TraceOptions {
                    file: Some("t.json".into()),
                    format: TraceFormat::Chrome,
                }),
            },
        );
        assert_eq!(out.code, exit::VIOLATION);
        let trace = out.trace_output.expect("chrome trace captured");
        let doc = Json::parse(&trace).expect("chrome trace is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("audit")));
        // Metrics remain a single valid JSON document on stderr.
        let metrics = Json::parse(&out.stderr).expect("stderr is one JSON document");
        assert!(metrics.get("counters").is_some());
    }

    // -----------------------------------------------------------------
    // serve — the resident incremental session
    // -----------------------------------------------------------------

    #[test]
    fn serve_arg_parsing() {
        assert_eq!(
            parse_args(&s(&["serve", "p.sfl"])),
            Ok(Command::Serve {
                file: "p.sfl".into()
            })
        );
        assert!(parse_args(&s(&["serve"])).is_err());
        assert!(parse_args(&s(&["serve", "p.sfl", "--jobs", "2"])).is_err());
        assert!(parse_args(&s(&["serve", "p.sfl", "extra.sfl"])).is_err());
    }

    /// Run a request script through a fresh session, parsing every NDJSON
    /// response line.
    fn serve_lines(requests: &[&str]) -> (Vec<Json>, i32) {
        let schema = load_str(POLICY).expect("test policy loads");
        let (out, code) = serve_session(&schema, requests.iter().copied());
        let lines = out
            .lines()
            .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad NDJSON line `{l}`: {e}")))
            .collect();
        (lines, code)
    }

    fn delta_statuses(obj: &Json, key: &str) -> Vec<(u64, String)> {
        obj.get(key)
            .and_then(Json::as_arr)
            .expect("verdict array")
            .iter()
            .map(|v| {
                (
                    v.get("requirement").and_then(Json::as_u64).expect("index"),
                    v.get("status")
                        .and_then(Json::as_str)
                        .expect("status")
                        .to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn serve_streams_verdict_deltas_for_edits() {
        let (lines, code) = serve_lines(&[
            r#"{"op":"check","user":"clerk"}"#,
            r#"{"op":"revoke","user":"clerk","fn":"w_budget"}"#,
            r#"{"op":"grant","user":"clerk","fn":"w_budget"}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"shutdown"}"#,
        ]);
        assert_eq!(code, exit::OK);
        assert_eq!(lines.len(), 6, "ready + 5 responses");
        assert!(lines[0].get("ready").is_some());

        // clerk holds {checkBudget, w_budget}: requirement 0 is violated.
        assert_eq!(
            delta_statuses(&lines[1], "verdicts"),
            vec![(0, "violated".to_owned())]
        );

        // Revoking w_budget makes clerk identical to safe_clerk: the
        // verdict flips, and the flip is the only delta reported.
        let revoke = &lines[2];
        assert_eq!(revoke.get("changed"), Some(&Json::Bool(true)));
        assert!(revoke.get("deleted").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(
            delta_statuses(revoke, "deltas"),
            vec![(0, "satisfied".to_owned())]
        );

        // Granting it back flips the verdict again, with occurrences.
        let grant = &lines[3];
        assert_eq!(grant.get("changed"), Some(&Json::Bool(true)));
        assert_eq!(
            delta_statuses(grant, "deltas"),
            vec![(0, "violated".to_owned())]
        );
        let delta = &grant.get("deltas").and_then(Json::as_arr).unwrap()[0];
        assert!(delta.get("occurrences").and_then(Json::as_u64).unwrap() > 0);

        let stats = lines[4].get("stats").expect("stats record");
        assert_eq!(stats.get("resident").and_then(Json::as_u64), Some(1));
        assert!(stats.get("resident_terms").and_then(Json::as_u64).unwrap() > 0);
        assert!(stats.get("cache").is_some());

        let shutdown = lines[5].get("shutdown").expect("shutdown record");
        assert_eq!(shutdown.get("requests").and_then(Json::as_u64), Some(5));
        assert_eq!(shutdown.get("edits").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn serve_noop_edit_reports_no_deltas() {
        let (lines, code) = serve_lines(&[
            r#"{"op":"check","user":"clerk"}"#,
            r#"{"op":"grant","user":"clerk","fn":"checkBudget"}"#,
        ]);
        assert_eq!(code, exit::OK);
        let grant = &lines[2];
        assert_eq!(grant.get("changed"), Some(&Json::Bool(false)));
        assert_eq!(grant.get("deltas").and_then(Json::as_arr), Some(&[][..]));
        // EOF without an explicit shutdown request still closes cleanly.
        assert!(lines[3].get("shutdown").is_some());
    }

    #[test]
    fn serve_bad_requests_error_and_session_continues() {
        let (lines, code) = serve_lines(&[
            "not json at all",
            r#"{"op":"zap"}"#,
            r#"{"op":"check"}"#,
            r#"{"op":"check","user":"nobody"}"#,
            r#"{"op":"grant","user":"clerk","fn":"no_such_fn"}"#,
            r#"{"op":"check","user":"clerk","extra":42}"#,
            r#"{"op":"check","user":["clerk"]}"#,
            r#"{"op":"check","user":"clerk"} trailing"#,
            // A `\u` escape is ordinary JSON: `\u0065` is `e`.
            r#"{"op":"check","user":"cl\u0065rk"}"#,
        ]);
        assert_eq!(code, exit::OK, "request errors never kill the session");
        for (i, line) in lines[1..9].iter().enumerate() {
            let msg = line
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("line {} should be an error record", i + 1));
            assert!(!msg.is_empty());
            assert_eq!(
                line.get("request").and_then(Json::as_u64),
                Some(i as u64 + 1),
                "error records carry the request sequence number"
            );
        }
        let msg = lines[7].get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("string values only"), "{msg}");
        // The failed grant was transactional: the follow-up check still
        // answers, and with the original (violated) verdict.
        assert_eq!(
            delta_statuses(&lines[9], "verdicts"),
            vec![(0, "violated".to_owned())]
        );
        assert!(lines[10].get("shutdown").is_some());
    }

    /// `(requirement, status, occurrences)` of every verdict object in a
    /// serve `verdicts` array or an NDJSON stream record.
    fn verdict_records(obj: &Json) -> Vec<(u64, String, Option<u64>)> {
        obj.get("verdicts")
            .and_then(Json::as_arr)
            .expect("verdict array")
            .iter()
            .map(|v| {
                (
                    v.get("requirement").and_then(Json::as_u64).unwrap(),
                    v.get("status").and_then(Json::as_str).unwrap().to_owned(),
                    v.get("occurrences").and_then(Json::as_u64),
                )
            })
            .collect()
    }

    /// The cache key's schema half is computed once per session, so two
    /// sessions over different policies in one process must still never
    /// share entries. The users here have identical names and capability
    /// text (identical `caps` fingerprints) but `checkBudget` reads the
    /// salary in one policy and not in the other.
    #[test]
    fn serve_sessions_over_different_policies_keep_their_own_verdicts() {
        const LEAKY: &str = r#"
            class Broker { salary: int, budget: int }
            fn checkBudget(b: Broker): bool { r_budget(b) >= r_salary(b) }
            user clerk { checkBudget, w_budget }
            require (clerk, r_salary(x) : ti)
        "#;
        const SEALED: &str = r#"
            class Broker { salary: int, budget: int }
            fn checkBudget(b: Broker): bool { r_budget(b) >= 0 }
            user clerk { checkBudget, w_budget }
            require (clerk, r_salary(x) : ti)
        "#;
        let status = |src: &str| {
            let schema = load_str(src).expect("policy loads");
            let (out, _) = serve_session(&schema, [r#"{"op":"check","user":"clerk"}"#]);
            let check = Json::parse(out.lines().nth(1).expect("check response")).unwrap();
            delta_statuses(&check, "verdicts")
        };
        let violated = vec![(0, "violated".to_owned())];
        let satisfied = vec![(0, "satisfied".to_owned())];
        assert_eq!(status(LEAKY), violated);
        assert_eq!(status(SEALED), satisfied);
        assert_eq!(status(LEAKY), violated);
        assert_eq!(status(SEALED), satisfied);
    }

    #[test]
    fn serve_checks_agree_with_the_streamed_batch() {
        const MULTI: &str = r#"
            class Broker { salary: int, budget: int, profit: int }
            fn calcSalary(budget: int, profit: int): int { budget / 10 + profit / 2 }
            fn checkBudget(b: Broker): bool { r_budget(b) >= 10 * r_salary(b) }
            fn updateSalary(b: Broker): null {
              w_salary(b, calcSalary(r_budget(b), r_profit(b)))
            }
            user clerk { checkBudget, w_budget }
            user safe_clerk { checkBudget }
            user payroll { updateSalary, w_budget }
            user auditor { r_salary }
            require (clerk, r_salary(x) : ti)
            require (payroll, w_salary(x, v : ta))
            require (safe_clerk, r_salary(x) : ti)
            require (clerk, r_budget(x) : ti)
            require (payroll, r_salary(x) : ti)
        "#;
        let schema = load_str(MULTI).expect("policy loads");
        let stream = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: true,
            ndjson: true,
        };
        let (out, _) = run_on_source(&stream, MULTI);
        let mut batch: BTreeMap<String, Vec<(u64, String, Option<u64>)>> = BTreeMap::new();
        for line in out.lines() {
            let rec = Json::parse(line).unwrap();
            if let Some(user) = rec.get("user").and_then(Json::as_str) {
                batch.insert(user.to_owned(), verdict_records(&rec));
            }
        }
        let users: Vec<&str> = schema.users.keys().map(|u| u.as_str()).collect();
        assert!(
            !batch.contains_key("auditor"),
            "auditor names no requirement"
        );
        let statuses: Vec<&str> = batch
            .values()
            .flatten()
            .map(|(_, st, _)| st.as_str())
            .collect();
        assert!(statuses.contains(&"violated") && statuses.contains(&"satisfied"));

        let check = |u: &str| format!(r#"{{"op":"check","user":"{u}"}}"#);
        let mut script: Vec<String> = users.iter().map(|u| check(u)).collect();
        script.push(r#"{"op":"revoke","user":"clerk","fn":"w_budget"}"#.to_owned());
        script.extend(users.iter().filter(|u| **u != "clerk").map(|u| check(u)));
        script.push(r#"{"op":"grant","user":"payroll","fn":"r_salary"}"#.to_owned());
        script.extend(
            users
                .iter()
                .filter(|u| !["clerk", "payroll"].contains(*u))
                .map(|u| check(u)),
        );
        let (out, code) = serve_session(&schema, &script);
        assert_eq!(code, exit::OK);
        let mut checks = 0;
        for line in out.lines() {
            let resp = Json::parse(line).unwrap();
            assert!(resp.get("error").is_none(), "{line}");
            if resp.get("op").and_then(Json::as_str) != Some("check") {
                continue;
            }
            let user = resp.get("user").and_then(Json::as_str).unwrap();
            let want = batch.get(user).cloned().unwrap_or_default();
            assert_eq!(verdict_records(&resp), want, "serve vs batch for `{user}`");
            checks += 1;
        }
        assert_eq!(checks, 3 * users.len() - 3);
    }

    #[test]
    fn serve_stats_report_per_op_latency() {
        let (lines, _) = serve_lines(&[
            r#"{"op":"check","user":"clerk"}"#,
            r#"{"op":"check","user":"safe_clerk"}"#,
            r#"{"op":"check","user":"nobody"}"#,
            r#"{"op":"revoke","user":"clerk","fn":"w_budget"}"#,
            r#"{"op":"stats"}"#,
        ]);
        let stats = lines[5].get("stats").expect("stats record");
        let Some(Json::Obj(ops)) = stats.get("latency") else {
            panic!("latency object");
        };
        let keys = |fields: &[(String, Json)]| -> Vec<String> {
            fields.iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(keys(ops), ["check", "grant", "revoke"]);
        for (op, count) in [("check", 3), ("grant", 0), ("revoke", 1)] {
            let Some(Json::Obj(fields)) = stats.get("latency").and_then(|l| l.get(op)) else {
                panic!("{op} latency");
            };
            assert_eq!(keys(fields), ["count", "p50_us", "p99_us", "max_us"]);
            let get = |k: &str| {
                fields
                    .iter()
                    .find(|(f, _)| f == k)
                    .and_then(|(_, v)| v.as_u64())
            };
            assert_eq!(get("count"), Some(count), "{op}");
            assert!(get("p50_us") <= get("p99_us") && get("p99_us") <= get("max_us"));
        }
        // The pre-existing keys keep their names.
        let Some(Json::Obj(cache)) = stats.get("cache") else {
            panic!("cache object");
        };
        for k in ["hits", "misses", "evictions"] {
            assert!(cache.iter().any(|(f, _)| f == k), "cache.{k}");
        }
    }

    #[test]
    fn latency_buckets_are_exact_when_small_and_bounded_above() {
        for us in 0..16 {
            assert_eq!(LatencyHist::upper_us(LatencyHist::bucket(us)), us);
        }
        for us in (16..1_000_000).step_by(997).chain([u64::MAX / 2, u64::MAX]) {
            let upper = LatencyHist::upper_us(LatencyHist::bucket(us));
            assert!(upper >= us, "{us} lands below its bucket's edge {upper}");
            assert!(upper as f64 <= us as f64 * 1.125, "{us} -> {upper}");
        }
        let mut h = LatencyHist::new();
        for us in 1..=100 {
            h.record(std::time::Duration::from_micros(us));
        }
        assert_eq!(h.count, 100);
        assert_eq!(h.quantile_us(1.0), 100);
        let p50 = h.quantile_us(0.5);
        assert!((50..=56).contains(&p50), "{p50}");
        assert_eq!(LatencyHist::new().quantile_us(0.5), 0);
    }

    #[test]
    fn serve_edits_match_batch_verdicts_for_edited_caps() {
        // A session that revokes w_budget from clerk must report exactly
        // the statuses a from-scratch batch run over the edited policy
        // reports (safe_clerk *is* that edited policy, statically).
        let (lines, _) = serve_lines(&[
            r#"{"op":"revoke","user":"clerk","fn":"w_budget"}"#,
            r#"{"op":"check","user":"clerk"}"#,
            r#"{"op":"check","user":"safe_clerk"}"#,
        ]);
        let clerk = delta_statuses(&lines[2], "verdicts");
        let safe = delta_statuses(&lines[3], "verdicts");
        assert_eq!(clerk[0].1, safe[0].1, "edited clerk ≡ safe_clerk");
        assert_eq!(clerk[0].1, "satisfied");
    }
}
