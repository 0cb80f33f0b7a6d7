//! The traced run: the workload's path driven through the layers' public
//! functions, with a span around each call.
//!
//! *Top-level* spans (`lang.parse`, `lang.typeck`, `algorithm`, the
//! `incremental.*` calls of a serve session, `cli.render`) tile the path
//! the `secflow` binary runs, with the same `--jobs` and a fresh
//! `ClosureCache` of the CLI's capacity; the driver subtracts their sum
//! from the binary's wall time to get `cli.unattributed.ms`. The path runs
//! untraced and traced in turn, twice each; the difference of the mean
//! walls is the tracing overhead.
//!
//! *Breakdown* spans (`unfold`, `demand`, `closure.saturate`,
//! `algorithm.check`, `checker.certify`, `provenance.walk`) come from
//! serial replays of the groups the top-level run computed — every group
//! on `check`, the cache misses on `stream` and `serve`, the proof-carrying
//! closures on `audit` — so they split the top-level time by layer without
//! being part of its sum.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use oodb_lang::{Requirement, Schema};
use oodb_model::{FnRef, UserName};
use secflow::algorithm::{
    analyze_batch_cached, analyze_batch_streaming, check_with_occurrences, occurrences,
    AnalysisError, AnalysisSink, BatchOptions, BatchOutcome, GroupRecord,
};
use secflow::closure::ClosureError;
use secflow::report::Occurrence;
use secflow::rules::RuleConfig;
use secflow::{
    audit_witness, AnalysisConfig, Closure, ClosureCache, DemandPlan, IncrementalUser, NProgram,
    ProvenanceOptions, Verdict,
};
use secflow_cli::{audit_batch, render_audit, AuditFormat, AuditOptions};

use crate::json_str;

/// `--jobs` of every one-shot path: the benchmark host has two cores.
const JOBS: usize = 2;

/// Every per-layer metric the traced run reports, zero where the
/// workload's path never calls the layer. The driver adds
/// `cli.output_bytes`, `cli.unattributed.ms` and `trace.overhead.ms`.
const METRICS: [&str; 39] = [
    "lang.parse.ms",
    "lang.parse.mb_per_s",
    "lang.typeck.ms",
    "unfold.ms",
    "unfold.nodes",
    "demand.ms",
    "demand.slice_nodes",
    "demand.slice_ratio",
    "closure.saturate.ms",
    "closure.terms",
    "closure.derive_calls",
    "closure.useful_ratio",
    "closure.term_limit_aborts",
    "algorithm.ms",
    "algorithm.check.ms",
    "algorithm.occurrences",
    "algorithm.cache.hits",
    "algorithm.cache.misses",
    "algorithm.cache.evictions",
    "algorithm.cache.hit_rate",
    "algorithm.cache.hit_us",
    "algorithm.cache.miss_us",
    "algorithm.pool.jobs_used",
    "algorithm.pool.steals",
    "algorithm.pool.speedup",
    "incremental.materialize.ms",
    "incremental.grant.ms",
    "incremental.revoke.ms",
    "incremental.check.ms",
    "incremental.survivors",
    "incremental.deleted",
    "incremental.rederived",
    "incremental.survivor_ratio",
    "checker.certify.ms",
    "checker.terms_checked",
    "provenance.walk.ms",
    "provenance.paths",
    "cli.render.ms",
    "trace.untraced_wall.ms",
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Span and metric recorder. A disabled tracer only runs the closures,
/// which is the untraced run the overhead is measured against.
struct Tracer {
    enabled: bool,
    spans: BTreeMap<&'static str, Duration>,
    metrics: BTreeMap<&'static str, f64>,
    /// Terms the closures inserted, over `closure.derive_calls`.
    new_terms: f64,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: BTreeMap::new(),
            metrics: METRICS.iter().map(|&m| (m, 0.0)).collect(),
            new_terms: 0.0,
        }
    }

    /// A top-level span.
    fn top<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        *self.spans.entry(name).or_default() += start.elapsed();
        out
    }

    /// A breakdown span, accumulated into the metric `name` in ms.
    fn sub<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, ms(start.elapsed()));
        out
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self
            .metrics
            .get_mut(name)
            .unwrap_or_else(|| panic!("unlisted metric {name}")) += v;
    }

    fn set(&mut self, name: &'static str, v: f64) {
        *self
            .metrics
            .get_mut(name)
            .unwrap_or_else(|| panic!("unlisted metric {name}")) = v;
    }

    fn span_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |d| ms(*d))
    }
}

fn status(v: &Result<Verdict, AnalysisError>) -> &'static str {
    match v {
        Ok(Verdict::Satisfied) => "satisfied",
        Ok(Verdict::Violated(_)) => "violated",
        Err(_) => "error",
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_unstable_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// What one pass of a path produced, compared between the untraced and
/// traced passes and handed to the driver.
#[derive(PartialEq, Debug)]
struct PathResult {
    /// One JSON array per verdict-bearing unit: per requirement for the
    /// one-shot paths, per request for serve.
    statuses: Vec<String>,
    /// `(hits, misses, evictions)` of the path's closure cache.
    cache: (u64, u64, u64),
}

/// Serial replay of whole groups through unfold → demand slice →
/// saturation → check, with breakdown spans, then an untimed pass with
/// closure statistics for the work counters.
fn replay_groups(
    tr: &mut Tracer,
    schema: &Schema,
    config: &AnalysisConfig,
    groups: &[Vec<usize>],
) -> Result<(), String> {
    let (mut nodes, mut slice) = (0.0, 0.0);
    for idxs in groups {
        let reqs: Vec<&Requirement> = idxs.iter().map(|&i| &schema.requirements[i]).collect();
        let caps = schema.user(&reqs[0].user).ok_or("unknown user")?;
        let prog = tr
            .sub("unfold.ms", || {
                NProgram::unfold_with_limit(schema, caps, config.node_limit)
            })
            .map_err(|e| e.to_string())?;
        nodes += prog.len() as f64;
        let occs: Vec<Vec<Occurrence>> = tr.sub("algorithm.check.ms", || {
            reqs.iter().map(|r| occurrences(&prog, &r.target)).collect()
        });
        let plan = tr.sub("demand.ms", || {
            DemandPlan::build(
                &prog,
                reqs.iter().zip(&occs).map(|(r, o)| (*r, o.as_slice())),
            )
        });
        slice += plan.slice_len() as f64;
        let closure = tr.sub("closure.saturate.ms", || {
            Closure::compute_demand_saturation(
                &prog,
                &config.rules,
                config.term_limit,
                &plan,
                config.saturation,
            )
        });
        let closure = match closure {
            Ok(c) => c,
            Err(ClosureError::TermLimit { .. }) => {
                tr.add("closure.term_limit_aborts", 1.0);
                continue;
            }
        };
        tr.add("closure.terms", closure.len() as f64);
        let n_occs: usize = occs.iter().map(Vec::len).sum();
        tr.add("algorithm.occurrences", n_occs as f64);
        tr.sub("algorithm.check.ms", || {
            for (r, o) in reqs.iter().zip(&occs) {
                std::hint::black_box(check_with_occurrences(&prog, &closure, r, o));
            }
        });
        let (_, stats) = Closure::compute_demand_with_stats_saturation(
            &prog,
            &config.rules,
            config.term_limit,
            &plan,
            config.saturation,
        );
        add_closure_stats(tr, &stats);
    }
    tr.add("unfold.nodes", nodes);
    tr.add("demand.slice_nodes", slice);
    tr.set(
        "demand.slice_ratio",
        if nodes > 0.0 { slice / nodes } else { 0.0 },
    );
    Ok(())
}

fn add_closure_stats(tr: &mut Tracer, s: &secflow::ClosureStats) {
    tr.add("closure.derive_calls", s.derive_calls as f64);
    tr.new_terms +=
        (s.terms_ta + s.terms_pa + s.terms_ti + s.terms_pi + s.terms_pistar + s.terms_eq) as f64;
}

fn set_cache(tr: &mut Tracer, (hits, misses, evictions): (u64, u64, u64)) {
    tr.set("algorithm.cache.hits", hits as f64);
    tr.set("algorithm.cache.misses", misses as f64);
    tr.set("algorithm.cache.evictions", evictions as f64);
    let total = (hits + misses) as f64;
    tr.set(
        "algorithm.cache.hit_rate",
        if total > 0.0 {
            hits as f64 / total
        } else {
            0.0
        },
    );
}

fn cache_counts(cache: &ClosureCache) -> (u64, u64, u64) {
    let s = cache.stats();
    (s.hits, s.misses, s.evictions)
}

fn load(tr: &mut Tracer, src: &str) -> Result<Schema, String> {
    let schema = tr
        .top("lang.parse", || oodb_lang::parse_schema(src))
        .map_err(|e| e.to_string())?;
    tr.top("lang.typeck", || oodb_lang::check_schema(&schema))
        .map_err(|e| e.to_string())?;
    Ok(schema)
}

fn batch_opts(jobs: usize) -> BatchOptions {
    BatchOptions {
        jobs,
        ..BatchOptions::default()
    }
}

fn outcome_statuses(outcome: &BatchOutcome) -> Vec<String> {
    outcome
        .verdicts
        .iter()
        .map(|v| json_str(status(v)))
        .collect()
}

// ---- check -------------------------------------------------------------

fn check_path(tr: &mut Tracer, src: &str) -> Result<(Schema, PathResult), String> {
    let schema = load(tr, src)?;
    let cache = ClosureCache::default();
    let outcome = tr.top("algorithm", || {
        analyze_batch_cached(
            &schema,
            &schema.requirements,
            &AnalysisConfig::default(),
            &batch_opts(JOBS),
            Some(&cache),
        )
    });
    tr.set("algorithm.pool.jobs_used", outcome.jobs_used as f64);
    tr.set("algorithm.pool.steals", outcome.steals as f64);
    let result = PathResult {
        statuses: outcome_statuses(&outcome),
        cache: cache_counts(&cache),
    };
    Ok((schema, result))
}

fn check_breakdown(tr: &mut Tracer, schema: &Schema, result: &PathResult) -> Result<(), String> {
    let config = AnalysisConfig::default();
    let cache = ClosureCache::default();
    let start = Instant::now();
    let serial = analyze_batch_cached(
        schema,
        &schema.requirements,
        &config,
        &batch_opts(1),
        Some(&cache),
    );
    tr.set(
        "algorithm.pool.speedup",
        ms(start.elapsed()) / tr.span_ms("algorithm"),
    );
    if outcome_statuses(&serial) != result.statuses || cache_counts(&cache) != result.cache {
        return Err("--jobs 1 replay disagrees with the --jobs 2 run".into());
    }
    set_cache(tr, result.cache);
    let groups: Vec<Vec<usize>> = serial
        .groups
        .iter()
        .map(|g| g.req_indexes.clone())
        .collect();
    replay_groups(tr, schema, &config, &groups)
}

// ---- stream ------------------------------------------------------------

/// Collects every verdict; with `timing`, also each group's time (the gap
/// since the previous emit), classified by how the cache's hit counter
/// moved across it.
struct Sink<'c> {
    cache: &'c ClosureCache,
    timing: bool,
    state: Mutex<SinkState>,
}

struct SinkState {
    statuses: Vec<(usize, &'static str)>,
    last: Instant,
    hits: u64,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    missed: Vec<Vec<usize>>,
}

impl<'c> Sink<'c> {
    fn new(cache: &'c ClosureCache, timing: bool) -> Sink<'c> {
        Sink {
            cache,
            timing,
            state: Mutex::new(SinkState {
                statuses: Vec::new(),
                last: Instant::now(),
                hits: 0,
                hit_us: Vec::new(),
                miss_us: Vec::new(),
                missed: Vec::new(),
            }),
        }
    }

    fn into_state(self) -> SinkState {
        self.state
            .into_inner()
            .expect("no panics hold the sink lock")
    }
}

impl AnalysisSink for Sink<'_> {
    fn emit(&self, record: GroupRecord) {
        let mut st = self.state.lock().expect("no panics hold the sink lock");
        if self.timing {
            let now = Instant::now();
            let us = (now - st.last).as_secs_f64() * 1e6;
            st.last = now;
            let hits = self.cache.stats().hits;
            if hits > st.hits {
                st.hit_us.push(us);
            } else {
                st.miss_us.push(us);
                st.missed
                    .push(record.verdicts.iter().map(|(i, _)| *i).collect());
            }
            st.hits = hits;
        }
        for (i, v) in &record.verdicts {
            st.statuses.push((*i, status(v)));
        }
    }
}

fn sorted_statuses(mut s: Vec<(usize, &'static str)>) -> Vec<String> {
    s.sort_unstable();
    s.into_iter().map(|(_, st)| json_str(st)).collect()
}

fn stream_path(tr: &mut Tracer, src: &str) -> Result<(Schema, PathResult), String> {
    let schema = load(tr, src)?;
    let cache = ClosureCache::default();
    let sink = Sink::new(&cache, false);
    let summary = tr.top("algorithm", || {
        analyze_batch_streaming(
            &schema,
            &schema.requirements,
            &AnalysisConfig::default(),
            &batch_opts(JOBS),
            Some(&cache),
            &sink,
        )
    });
    tr.set("algorithm.pool.jobs_used", summary.jobs_used as f64);
    tr.set("algorithm.pool.steals", summary.steals as f64);
    let result = PathResult {
        statuses: sorted_statuses(sink.into_state().statuses),
        cache: cache_counts(&cache),
    };
    Ok((schema, result))
}

/// `--jobs 1` replays: one untraced, one with the timing sink. Their
/// verdicts and cache counters must agree with each other and their
/// verdicts with the `--jobs 2` run (whose counters can differ: two
/// workers may miss on the same key concurrently).
fn stream_breakdown(tr: &mut Tracer, schema: &Schema, result: &PathResult) -> Result<(), String> {
    let config = AnalysisConfig::default();
    let run = |timing: bool| {
        let cache = ClosureCache::default();
        let sink = Sink::new(&cache, timing);
        let start = Instant::now();
        analyze_batch_streaming(
            schema,
            &schema.requirements,
            &config,
            &batch_opts(1),
            Some(&cache),
            &sink,
        );
        let wall = start.elapsed();
        (wall, cache_counts(&cache), sink.into_state())
    };
    let (wall, plain_counts, plain) = run(false);
    let (_, counts, timed) = run(true);
    tr.set("algorithm.pool.speedup", ms(wall) / tr.span_ms("algorithm"));
    if counts != plain_counts {
        return Err(format!(
            "traced cache counters {counts:?} differ from untraced {plain_counts:?}"
        ));
    }
    if sorted_statuses(plain.statuses) != result.statuses
        || sorted_statuses(timed.statuses) != result.statuses
    {
        return Err("--jobs 1 replay verdicts disagree with the --jobs 2 run".into());
    }
    set_cache(tr, counts);
    tr.set("algorithm.cache.hit_us", median(&timed.hit_us));
    tr.set("algorithm.cache.miss_us", median(&timed.miss_us));
    replay_groups(tr, schema, &config, &timed.missed)
}

// ---- serve -------------------------------------------------------------

/// The `secflow serve` session logic over the same public calls: checks of
/// users never edited go through `analyze_batch_cached` with the session
/// cache, edits through a resident `IncrementalUser` per edited user.
struct Session<'s> {
    schema: &'s Schema,
    config: AnalysisConfig,
    reqs_of: BTreeMap<UserName, Vec<usize>>,
    resident: BTreeMap<UserName, IncrementalUser>,
    last: BTreeMap<UserName, Vec<(usize, &'static str)>>,
    data: SessionData,
}

/// What a session leaves for the breakdown.
#[derive(Default)]
struct SessionData {
    cache: ClosureCache,
    /// Per-check times of the cached path, by whether the cache hit.
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    /// Requirement indexes of each check that missed.
    missed: Vec<Vec<usize>>,
    /// Closure terms after each edit, summed.
    terms: f64,
}

impl<'s> Session<'s> {
    fn new(schema: &'s Schema) -> Session<'s> {
        let mut reqs_of: BTreeMap<UserName, Vec<usize>> = BTreeMap::new();
        for (i, r) in schema.requirements.iter().enumerate() {
            reqs_of.entry(r.user.clone()).or_default().push(i);
        }
        Session {
            schema,
            config: AnalysisConfig::default(),
            reqs_of,
            resident: BTreeMap::new(),
            last: BTreeMap::new(),
            data: SessionData::default(),
        }
    }

    fn statuses(&mut self, tr: &mut Tracer, user: &UserName) -> Vec<(usize, &'static str)> {
        let idxs = self.reqs_of.get(user).cloned().unwrap_or_default();
        let schema = self.schema;
        if let Some(inc) = self.resident.get(user) {
            return tr.top("incremental.check", || {
                idxs.iter()
                    .map(|&i| (i, status(&Ok(inc.check(&schema.requirements[i])))))
                    .collect()
            });
        }
        let reqs: Vec<Requirement> = idxs
            .iter()
            .map(|&i| schema.requirements[i].clone())
            .collect();
        let hits = self.data.cache.stats().hits;
        let start = Instant::now();
        let outcome = tr.top("algorithm", || {
            analyze_batch_cached(
                schema,
                &reqs,
                &self.config,
                &BatchOptions::default(),
                Some(&self.data.cache),
            )
        });
        let us = start.elapsed().as_secs_f64() * 1e6;
        if self.data.cache.stats().hits > hits {
            self.data.hit_us.push(us);
        } else {
            self.data.miss_us.push(us);
            self.data.missed.push(idxs.clone());
        }
        idxs.into_iter()
            .zip(&outcome.verdicts)
            .map(|(i, v)| (i, status(v)))
            .collect()
    }

    fn request(
        &mut self,
        tr: &mut Tracer,
        line: &str,
    ) -> Result<Vec<(usize, &'static str)>, String> {
        let fields: Vec<&str> = line.split('"').collect();
        let (op, user) = match fields.as_slice() {
            [_, "op", _, op, _, "user", _, user, ..] => (*op, UserName::new(*user)),
            _ => return Err(format!("unexpected request `{line}`")),
        };
        if op == "check" {
            let now = self.statuses(tr, &user);
            self.last.insert(user, now.clone());
            return Ok(now);
        }
        let f: FnRef = fields.get(11).ok_or("edit without fn")?.parse()?;
        if !self.resident.contains_key(&user) {
            let (schema, config) = (self.schema, self.config);
            let inc = tr
                .top("incremental.materialize", || {
                    IncrementalUser::new(schema, &user, &config)
                })
                .map_err(|e| e.to_string())?;
            self.resident.insert(user.clone(), inc);
        }
        if !self.last.contains_key(&user) {
            let base = self.statuses(tr, &user);
            self.last.insert(user.clone(), base);
        }
        let schema = self.schema;
        let inc = self.resident.get_mut(&user).expect("resident just ensured");
        let outcome = if op == "grant" {
            tr.top("incremental.grant", || inc.grant(schema, &f))
        } else {
            tr.top("incremental.revoke", || inc.revoke(schema, &f))
        }
        .map_err(|e| e.to_string())?;
        if tr.enabled {
            tr.add("incremental.survivors", outcome.survivors as f64);
            tr.add("incremental.deleted", outcome.deleted as f64);
            tr.add("incremental.rederived", outcome.rederived as f64);
            self.data.terms += inc.closure().len() as f64;
        }
        let now = self.statuses(tr, &user);
        let before = self
            .last
            .insert(user, now.clone())
            .expect("baseline just ensured");
        Ok(now.into_iter().filter(|s| !before.contains(s)).collect())
    }
}

fn serve_path(
    tr: &mut Tracer,
    src: &str,
    script: &str,
) -> Result<(Schema, PathResult, SessionData), String> {
    let schema = load(tr, src)?;
    let mut session = Session::new(&schema);
    let mut statuses = Vec::new();
    for line in script.lines() {
        let verdicts = session.request(tr, line)?;
        let items: Vec<String> = verdicts
            .iter()
            .map(|(i, st)| format!("[{i}, {}]", json_str(st)))
            .collect();
        statuses.push(format!("[{}]", items.join(", ")));
    }
    let data = session.data;
    let result = PathResult {
        statuses,
        cache: cache_counts(&data.cache),
    };
    Ok((schema, result, data))
}

fn serve_breakdown(tr: &mut Tracer, schema: &Schema, session: &SessionData) -> Result<(), String> {
    set_cache(tr, cache_counts(&session.cache));
    tr.set("algorithm.cache.hit_us", median(&session.hit_us));
    tr.set("algorithm.cache.miss_us", median(&session.miss_us));
    tr.set("algorithm.pool.jobs_used", 1.0);
    tr.set("algorithm.pool.speedup", 1.0);
    for (span, metric) in [
        ("incremental.materialize", "incremental.materialize.ms"),
        ("incremental.grant", "incremental.grant.ms"),
        ("incremental.revoke", "incremental.revoke.ms"),
        ("incremental.check", "incremental.check.ms"),
    ] {
        tr.set(metric, tr.span_ms(span));
    }
    let survivors = tr.metrics["incremental.survivors"];
    tr.set(
        "incremental.survivor_ratio",
        if session.terms > 0.0 {
            survivors / session.terms
        } else {
            0.0
        },
    );
    replay_groups(tr, schema, &AnalysisConfig::default(), &session.missed)
}

// ---- audit -------------------------------------------------------------

fn audit_options(policy: &str) -> AuditOptions {
    AuditOptions {
        policy: policy.to_owned(),
        format: AuditFormat::Json,
        severity: None,
        provenance: ProvenanceOptions::default(),
    }
}

fn audit_path(
    tr: &mut Tracer,
    src: &str,
    policy: &str,
) -> Result<(Schema, PathResult, BatchOutcome), String> {
    let schema = load(tr, src)?;
    let outcome = tr.top("algorithm", || audit_batch(&schema, JOBS));
    let (report, code) = tr.top("cli.render", || {
        render_audit(&schema, &outcome, &audit_options(policy))
    });
    if code != 1 {
        return Err(format!("render_audit exit code {code}, expected 1"));
    }
    std::hint::black_box(report);
    tr.set("algorithm.pool.jobs_used", outcome.jobs_used as f64);
    tr.set("algorithm.pool.steals", outcome.steals as f64);
    let result = PathResult {
        statuses: outcome_statuses(&outcome),
        cache: (0, 0, 0),
    };
    Ok((schema, result, outcome))
}

/// Layer split of an audit: the batch driver's own per-group phase
/// timings and closure statistics (`audit_batch` collects them in
/// production), then the certifier and the provenance walk replayed on the
/// kept proof-carrying closures.
fn audit_breakdown(tr: &mut Tracer, schema: &Schema, outcome: &BatchOutcome) -> Result<(), String> {
    let start = Instant::now();
    std::hint::black_box(audit_batch(schema, 1));
    tr.set(
        "algorithm.pool.speedup",
        ms(start.elapsed()) / tr.span_ms("algorithm"),
    );
    let mut nodes = 0.0;
    for g in &outcome.groups {
        for (phase, metric) in [
            ("unfold", "unfold.ms"),
            ("closure", "closure.saturate.ms"),
            ("check", "algorithm.check.ms"),
        ] {
            tr.add(metric, g.stats.phases.get(phase).map_or(0.0, ms));
        }
        nodes += g.stats.program_nodes as f64;
        tr.add("algorithm.occurrences", g.stats.occurrences_checked as f64);
        tr.add(
            "closure.term_limit_aborts",
            f64::from(u8::from(g.stats.closure.aborted)),
        );
        add_closure_stats(tr, &g.stats.closure);
        let Some((prog, closure)) = &g.artifacts else {
            continue;
        };
        tr.add("closure.terms", closure.len() as f64);
        let cert = tr
            .sub("checker.certify.ms", || {
                closure.certify(prog, &RuleConfig::default())
            })
            .map_err(|e| format!("certification failed: {e}"))?;
        tr.add("checker.terms_checked", cert.terms_checked as f64);
        for &i in &g.req_indexes {
            let Ok(Verdict::Violated(violations)) = &outcome.verdicts[i] else {
                continue;
            };
            for w in violations.iter().flat_map(|v| &v.witnesses) {
                let report = tr
                    .sub("provenance.walk.ms", || {
                        audit_witness(closure, w, &ProvenanceOptions::default())
                    })
                    .map_err(|e| format!("provenance walk failed: {e}"))?;
                tr.add("provenance.paths", report.paths.len() as f64);
            }
        }
    }
    tr.add("unfold.nodes", nodes);
    // Includes the certification and walk render_audit runs itself.
    tr.set("cli.render.ms", tr.span_ms("cli.render"));
    Ok(())
}

// ---- driver ------------------------------------------------------------

/// Run one workload's traced pass and its breakdown; returns the JSON
/// object the driver reads.
pub fn run(workload: &str, dir: &str) -> Result<String, String> {
    let path = format!("{dir}/policy.sfl");
    let src = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let script = std::fs::read_to_string(format!("{dir}/script.ndjson")).unwrap_or_default();

    // The same pass four times, alternating untraced (spans off) and
    // traced, so warm-up does not count as overhead. Spans are the mean of
    // the two traced passes.
    let mut results = Vec::new();
    let mut walls = [0.0, 0.0];
    let mut spans: BTreeMap<&'static str, Duration> = BTreeMap::new();
    let mut tr = Tracer::new(false);
    let mut kept = None;
    for enabled in [false, true, false, true] {
        tr = Tracer::new(enabled);
        let start = Instant::now();
        let pass = match workload {
            "policy_check" => check_path(&mut tr, &src).map(|(s, r)| (s, r, None, None)),
            "population_stream" => stream_path(&mut tr, &src).map(|(s, r)| (s, r, None, None)),
            "serve_edit_storm" => {
                serve_path(&mut tr, &src, &script).map(|(s, r, sess)| (s, r, Some(sess), None))
            }
            "policy_audit" => {
                audit_path(&mut tr, &src, &path).map(|(s, r, o)| (s, r, None, Some(o)))
            }
            other => Err(format!("unknown workload `{other}`")),
        }?;
        walls[usize::from(enabled)] += ms(start.elapsed()) / 2.0;
        for (name, d) in &tr.spans {
            *spans.entry(name).or_default() += *d / 2;
        }
        results.push(pass.1.statuses.clone());
        kept = Some(pass);
    }
    if results.iter().any(|r| *r != results[0]) {
        return Err("traced and untraced passes disagree".into());
    }
    let (schema, result, session, outcome) = kept.expect("two passes ran");
    tr.spans = spans;
    tr.set("trace.untraced_wall.ms", walls[0]);

    let parse = tr.span_ms("lang.parse");
    tr.set("lang.parse.ms", parse);
    tr.set(
        "lang.parse.mb_per_s",
        src.len() as f64 / 1e6 / (parse / 1e3),
    );
    tr.set("lang.typeck.ms", tr.span_ms("lang.typeck"));
    tr.set("algorithm.ms", tr.span_ms("algorithm"));
    match workload {
        "policy_check" => check_breakdown(&mut tr, &schema, &result)?,
        "population_stream" => stream_breakdown(&mut tr, &schema, &result)?,
        "serve_edit_storm" => {
            serve_breakdown(&mut tr, &schema, session.as_ref().expect("serve session"))?
        }
        _ => audit_breakdown(&mut tr, &schema, outcome.as_ref().expect("audit outcome"))?,
    }
    let calls = tr.metrics["closure.derive_calls"];
    if calls > 0.0 {
        tr.set("closure.useful_ratio", tr.new_terms / calls);
    }

    let spans: Vec<String> = tr
        .spans
        .iter()
        .map(|(k, d)| format!("{}: {}", json_str(k), ms(*d)))
        .collect();
    let metrics: Vec<String> = tr
        .metrics
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    Ok(format!(
        "{{\"wall_ms\": {}, \"spans_ms\": {{{}}}, \"metrics\": {{{}}}, \"cache\": [{}, {}, {}], \"statuses\": [{}]}}",
        walls[1],
        spans.join(", "),
        metrics.join(", "),
        result.cache.0,
        result.cache.1,
        result.cache.2,
        result.statuses.join(", ")
    ))
}
