//! The E1–E8 experiment implementations and the gated engine experiments.
//!
//! The paper has no measurement tables; its reproducible artefacts are
//! Figure 1 (a derivation), the two running examples, and the claims of
//! soundness (Theorem 1), pessimism (§4 closing remark) and tractability
//! (§1 "reasonable amount of computation"). Each E-experiment regenerates
//! one of those; EXPERIMENTS.md records the outcomes. The `saturation`,
//! `certify`, `population` and `incremental` experiments carry
//! deterministic gates (derive-attempt ceilings, oracle and term-set
//! identity, certificate completeness, cache hit rate and critical-path
//! bounds).

use oodb_engine::exec::run_query;
use oodb_engine::Database;
use oodb_lang::{parse_query, parse_requirement};
use oodb_model::{UserName, Value};
use secflow::algorithm::{
    analyze, analyze_batch_streaming, analyze_with_config, AnalysisConfig, AnalysisSink,
    BatchOptions, ClosureCache, GroupRecord,
};
use secflow::closure::{Closure, ClosureOptions, ProofMode, DEFAULT_TERM_LIMIT};
use secflow::reference::RefClosure;
use secflow::report::render_derivation;
use secflow::rules::RuleConfig;
use secflow::term::Term;
use secflow::unfold::NProgram;
use secflow_dynamic::differential::{classify, DiffReport};
use secflow_dynamic::infer::{infer, Probe};
use secflow_dynamic::strategy::{assignments, shapes, ArgChoice, StrategySpec};
use secflow_dynamic::worlds::{enumerate_worlds, WorldSpec};
use secflow_dynamic::{attack_requirement, AttackerConfig};
use secflow_workloads::random::{random_case, RandomSpec};
use secflow_workloads::scale::{
    attr_fanout, call_chain, clustered_giants, deep_expr, dense_equalities, wide_grants,
    zipf_population, ScaleCase,
};
use secflow_workloads::{fixtures, stockbroker};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// --------------------------------------------------------------------- E1

/// E1 result: the regenerated Figure-1 derivation plus structural checks.
pub struct Figure1 {
    /// The unfolded program rendered in the paper's numbered notation.
    pub unfolded: Vec<String>,
    /// The derivation text.
    pub derivation: String,
    /// The judgments of the paper's Figure 1, with whether each was
    /// derived.
    pub judgments: Vec<(String, bool)>,
    /// Wall time of each `A(R)` phase on the clerk's program — `unfold`,
    /// `closure` (proof-carrying full saturation) and `check` — in
    /// microseconds, the mean of [`E1_REPS`] back-to-back runs.
    pub phase_micros: Vec<(&'static str, f64)>,
}

/// Runs behind each [`Figure1::phase_micros`] entry: the phases take
/// single-digit microseconds or less, below the timer's useful
/// resolution for one run, so each is timed as a batch.
pub const E1_REPS: u32 = 1000;

/// Mean wall time of `f` over [`E1_REPS`] runs, in microseconds, with the
/// last result.
fn mean_micros<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    for _ in 1..E1_REPS {
        std::hint::black_box(f());
    }
    let out = f();
    (
        start.elapsed().as_secs_f64() * 1e6 / f64::from(E1_REPS),
        out,
    )
}

/// Best-of-`reps` wall time of `f`, in microseconds, with the last result.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (u128, T) {
    let mut best = u128::MAX;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let v = f();
        best = best.min(start.elapsed().as_micros());
        out = Some(v);
    }
    (best, out.expect("reps >= 1"))
}

/// E1 — regenerate Figure 1: the derivation showing `ti` on
/// `5r_salary(4broker)` for the clerk.
pub fn e1_figure1() -> Figure1 {
    let schema = stockbroker();
    let caps = schema.user_str("clerk").expect("fixture has clerk");
    let req = parse_requirement("(clerk, r_salary(x) : ti)").expect("fixture requirement parses");
    let (unfold_us, prog) =
        mean_micros(|| NProgram::unfold(&schema, caps).expect("fixture unfolds"));
    let (closure_us, closure) =
        mean_micros(|| Closure::compute(&prog).expect("closure within budget"));
    let (check_us, verdict) =
        mean_micros(|| secflow::algorithm::check_against(&prog, &closure, &req));
    assert!(verdict.is_violated(), "Figure 1's requirement is violated");

    let unfolded = prog
        .outers
        .iter()
        .map(|o| format!("{}: {}", o.fn_ref, prog.render(o.root)))
        .collect();

    // The paper's Figure 1 judgments, in its order. Node numbering for the
    // fixture (which also grants calcSalary-free checkBudget): verified by
    // the unfold tests: 1broker 2r_budget 3:10 4broker 5r_salary 6* 7>=,
    // then w_budget: 8a1 9a2 10w_budget.
    let judgments: Vec<(String, bool)> = [
        ("=[8o, 1broker]", closure.contains(&secflow::Term::Eq(1, 8))),
        (
            "=[9v, 2r_budget(1broker)]",
            closure.contains(&secflow::Term::Eq(2, 9)),
        ),
        ("ti[9v]", closure.has_ti(9)),
        ("ti[2r_budget(1broker)]", closure.has_ti(2)),
        ("pa[9v]", closure.has_pa(9)),
        ("pa[2r_budget(1broker)]", closure.has_pa(2)),
        ("ti[7>=(...)]", closure.has_ti(7)),
        ("ti[6*(10, 5r_salary(4broker))]", closure.has_ti(6)),
        ("ti[3:10]", closure.has_ti(3)),
        ("ti[5r_salary(4broker)]  <-- the flaw", closure.has_ti(5)),
    ]
    .into_iter()
    .map(|(s, b)| (s.to_owned(), b))
    .collect();

    let goal = closure.ti_witness(5).expect("figure 1 goal derivable");
    let derivation = render_derivation(&prog, &closure, &goal);
    Figure1 {
        unfolded,
        derivation,
        judgments,
        phase_micros: vec![
            ("unfold", unfold_us),
            ("closure", closure_us),
            ("check", check_us),
        ],
    }
}

// --------------------------------------------------------------------- E2

/// One E2 row: a fixture requirement with expected and computed verdicts.
pub struct E2Row {
    /// Scenario name.
    pub scenario: &'static str,
    /// Requirement text.
    pub requirement: String,
    /// Paper-expected verdict (true = flaw).
    pub expected_flaw: bool,
    /// Verdict computed by `A(R)`.
    pub got_flaw: bool,
}

/// E2 — the running examples: flawed policies flagged, repaired policies
/// pass.
pub fn e2_running_examples() -> Vec<E2Row> {
    let mut rows = Vec::new();
    let stock = fixtures::stockbroker();
    let person = fixtures::person();
    let hospital = fixtures::hospital();
    let expectations: [(&str, &oodb_lang::Schema, &[bool]); 3] = [
        ("stockbroker", &stock, &[true, true, false, false]),
        ("person", &person, &[false]),
        ("hospital", &hospital, &[true, false, false]),
    ];
    for (name, schema, expected) in expectations {
        for (req, &expected_flaw) in schema.requirements.iter().zip(expected) {
            let verdict = analyze(schema, req).expect("fixture analyses run");
            rows.push(E2Row {
                scenario: name,
                requirement: req.to_string(),
                expected_flaw,
                got_flaw: verdict.is_violated(),
            });
        }
    }
    rows
}

// --------------------------------------------------------------- E3 / E4

/// E3/E4 — differential soundness and pessimism over a seeded corpus.
/// Returns the aggregate report; `dynamic_only == 0` is the soundness
/// check, `realised_alarm_rate` the pessimism measure.
pub fn e3_e4_differential(cases: usize) -> DiffReport {
    let spec = RandomSpec::default();
    let cfg = AttackerConfig {
        strategies: StrategySpec {
            max_steps: 2,
            max_assignments: 2048,
            max_shapes: 64,
            ..StrategySpec::default()
        },
        ..AttackerConfig::default()
    };
    let mut report = DiffReport::default();
    for seed in 0..cases as u64 {
        let case = random_case(seed, &spec);
        for req in &case.requirements {
            report.record(seed, &case.schema, classify(&case.schema, req, &cfg));
        }
    }
    report
}

// --------------------------------------------------------------------- E5

/// Per-family E5 descriptor: name, generator, parameter list.
type ScaleFamily<'a> = (&'static str, fn(usize) -> ScaleCase, &'a [usize]);

/// One scaling measurement.
pub struct E5Row {
    /// Schema family.
    pub family: &'static str,
    /// Size parameter.
    pub param: usize,
    /// Unfolded program size (numbered occurrences).
    pub nodes: usize,
    /// Closure size (terms).
    pub terms: usize,
    /// Wall time of unfold + closure + check, microseconds.
    pub micros: u128,
}

/// E5 — closure scaling across the four schema families (full sweep; use
/// release mode — the biggest instances saturate large equality cliques).
pub fn e5_scaling() -> Vec<E5Row> {
    // The chain and deep-expression families grow superlinearly (origin
    // proliferation over long equality chains — see EXPERIMENTS.md E5);
    // the sweeps stop where a single run stays within ~10 s.
    e5_scaling_sized(
        &[1, 2, 4, 8, 16],
        &[1, 2, 4, 8, 16, 32, 64],
        &[1, 2, 3, 4, 5],
        &[1, 2, 4, 8, 16],
    )
}

/// E5 with explicit size lists per family (tests use small instances).
pub fn e5_scaling_sized(
    chain: &[usize],
    wide: &[usize],
    deep: &[usize],
    fanout: &[usize],
) -> Vec<E5Row> {
    let mut rows = Vec::new();
    let families: [ScaleFamily<'_>; 4] = [
        ("call_chain", call_chain, chain),
        ("wide_grants", wide_grants, wide),
        ("deep_expr", deep_expr, deep),
        ("attr_fanout", attr_fanout, fanout),
    ];
    for (family, gen, params) in families {
        for &param in params {
            let case = gen(param);
            let caps = case.schema.user_str("u").expect("scale user");
            let start = Instant::now();
            let prog = NProgram::unfold(&case.schema, caps).expect("scale unfolds");
            let closure = Closure::compute(&prog).expect("scale closure");
            let verdict = secflow::algorithm::check_against(&prog, &closure, &case.requirement);
            let micros = start.elapsed().as_micros();
            let _ = verdict;
            rows.push(E5Row {
                family,
                param,
                nodes: prog.len(),
                terms: closure.len(),
                micros,
            });
        }
    }
    rows
}

// --------------------------------------------------------------------- E6

/// One engine-throughput measurement.
pub struct E6Row {
    /// Number of brokers in the extent.
    pub objects: usize,
    /// Rows the query produced.
    pub rows: usize,
    /// Wall time, microseconds.
    pub micros: u128,
}

/// Build a stockbroker database with `n` brokers (deterministic values).
pub fn seeded_db(n: usize) -> Database {
    let mut db = Database::new(stockbroker()).expect("fixture checks");
    for i in 0..n {
        db.create(
            "Broker",
            vec![
                Value::str(format!("b{i}")),
                Value::Int((i as i64 % 200) + 1),
                Value::Int((i as i64 * 7) % 3000),
                Value::Int((i as i64 * 13) % 500 - 250),
            ],
        )
        .expect("seeding fits");
    }
    db
}

/// E6 — substrate sanity: probe-query throughput over growing extents.
pub fn e6_engine(sizes: &[usize]) -> Vec<E6Row> {
    let query =
        parse_query("select checkBudget(b), r_name(b) from b in Broker where r_salary(b) > 100")
            .expect("query parses");
    let admin = UserName::new("admin");
    sizes
        .iter()
        .map(|&n| {
            let mut db = seeded_db(n);
            let start = Instant::now();
            let out = run_query(&mut db, Some(&admin), &query).expect("query runs");
            E6Row {
                objects: n,
                rows: out.rows.len(),
                micros: start.elapsed().as_micros(),
            }
        })
        .collect()
}

// --------------------------------------------------------------------- E8

/// E8 aggregate: the three inferability deciders compared over a seeded
/// corpus — the finite Table-1 engine (bounded priors), the idealized
/// engine (ℤ-valid deductions) and the static `A(R)`.
///
/// Invariants: `ideal ⊆ finite` (less information can only deduce less)
/// and `ideal ⊆ static` (Theorem 1 against the honest attacker). The
/// finite engine may exceed both — exactly the finite-domain truncation
/// artefacts the idealized engine exists to filter; their count is the
/// measured size of that effect.
pub struct E8Report {
    /// Requirement checks performed.
    pub cases: usize,
    /// Cases the bounded Table-1 engine (`secflow_dynamic::infer`) realises.
    pub finite_flags: usize,
    /// Cases the idealized engine realises.
    pub ideal_flags: usize,
    /// Cases `A(R)` flags.
    pub static_flags: usize,
    /// Idealized successes the finite engine misses — must be 0.
    pub ideal_not_finite: usize,
    /// Idealized successes `A(R)` misses — must be 0 (Theorem 1).
    pub ideal_not_static: usize,
    /// Finite-engine successes `A(R)` does not flag: truncation artefacts.
    pub finite_artifacts: usize,
}

/// Does the bounded I(E) engine realise the requirement's inferability
/// capability at any occurrence, for any probe sequence within the bounds?
fn ie_achieves(
    schema: &oodb_lang::Schema,
    req: &oodb_lang::Requirement,
    spec: &StrategySpec,
    world_spec: &WorldSpec,
) -> bool {
    use secflow::algorithm::occurrences;
    use secflow::unfold::NProgram;
    let Some(caps) = schema.user(&req.user) else {
        return false;
    };
    let Ok(prog) = NProgram::unfold(schema, caps) else {
        return false;
    };
    let occs = occurrences(&prog, &req.target);
    if occs.is_empty() {
        return false;
    }
    let Ok(worlds) = enumerate_worlds(schema, world_spec) else {
        return false;
    };
    let want_total = req.ret_caps.contains(&oodb_lang::Cap::Ti);
    for shape in shapes(&prog, spec) {
        let Some(asgs) = assignments(&prog, &shape, spec) else {
            continue;
        };
        for asg in asgs {
            for world in &worlds {
                let probes: Vec<Probe> = shape
                    .iter()
                    .zip(&asg)
                    .map(|(&outer, choices)| Probe {
                        outer,
                        args: choices
                            .iter()
                            .map(|c| match c {
                                ArgChoice::Val(v) => v.clone(),
                                ArgChoice::Object(class, idx) => world
                                    .extent(class)
                                    .get(*idx)
                                    .copied()
                                    .map(Value::Obj)
                                    .unwrap_or(Value::Null),
                            })
                            .collect(),
                    })
                    .collect();
                let d = infer(&prog, &probes, world, &worlds);
                for occ in &occs {
                    let Some(outer_idx) = prog.outer_index_of(occ.ret) else {
                        continue;
                    };
                    for (t, &o) in shape.iter().enumerate() {
                        if o != outer_idx {
                            continue;
                        }
                        let site = (t, occ.ret);
                        let hit = if want_total {
                            d.is_total(site)
                        } else {
                            d.is_partial(site) || d.is_total(site)
                        };
                        if hit {
                            return true;
                        }
                    }
                }
            }
        }
    }
    false
}

/// E8 — run the three deciders over the inferability half of the corpus.
pub fn e8_containment(cases: usize) -> E8Report {
    let spec = RandomSpec::default();
    let strategy = StrategySpec {
        max_steps: 2,
        max_assignments: 512,
        max_shapes: 32,
        ..StrategySpec::default()
    };
    let world_spec = WorldSpec {
        objects_per_class: 1,
        int_domain: vec![0, 1, 2],
        max_worlds: 512,
    };
    // The idealized decider is the inferability arbiter inside
    // attack_requirement (the corpus requirement's caps are inferability
    // only, so the alterability arm never runs).
    let attacker = AttackerConfig {
        strategies: strategy.clone(),
        worlds: world_spec.clone(),
        ..AttackerConfig::default()
    };
    let mut report = E8Report {
        cases: 0,
        finite_flags: 0,
        ideal_flags: 0,
        static_flags: 0,
        ideal_not_finite: 0,
        ideal_not_static: 0,
        finite_artifacts: 0,
    };
    for seed in 0..cases as u64 {
        let case = random_case(seed, &spec);
        // Only the inferability requirement (the first one) — I(E) has no
        // alterability notion.
        let req = &case.requirements[0];
        let finite = ie_achieves(&case.schema, req, &strategy, &world_spec);
        let ideal = attack_requirement(&case.schema, req, &attacker)
            .map(|o| o.achieved)
            .unwrap_or(false);
        let st = analyze(&case.schema, req)
            .map(|v| v.is_violated())
            .unwrap_or(false);
        report.cases += 1;
        report.finite_flags += finite as usize;
        report.ideal_flags += ideal as usize;
        report.static_flags += st as usize;
        report.ideal_not_finite += (ideal && !finite) as usize;
        report.ideal_not_static += (ideal && !st) as usize;
        report.finite_artifacts += (finite && !st) as usize;
    }
    report
}

// --------------------------------------------------------------------- E7

/// One ablation row.
pub struct E7Row {
    /// Which rule group was disabled.
    pub disabled: &'static str,
    /// Of the E2 fixture flaws, how many were still detected.
    pub detected: usize,
    /// Total expected detections.
    pub total: usize,
    /// False alarms introduced on the repaired policies.
    pub false_alarms: usize,
    /// Wall time of the variant's analyses over every fixture requirement,
    /// microseconds (best of [`E7_REPS`] sweeps).
    pub micros: u128,
}

/// Sweeps behind each [`E7Row::micros`].
pub const E7_REPS: usize = 10;

/// The rule-config variants for E7.
pub fn ablation_variants() -> Vec<(&'static str, RuleConfig)> {
    let full = RuleConfig::default();
    vec![
        ("none (full rules)", full),
        (
            "eq_transfer",
            RuleConfig {
                eq_transfer: false,
                ..full
            },
        ),
        (
            "pi_join",
            RuleConfig {
                pi_join: false,
                ..full
            },
        ),
        (
            "pi_star",
            RuleConfig {
                pi_star: false,
                ..full
            },
        ),
        (
            "write_read",
            RuleConfig {
                write_read: false,
                ..full
            },
        ),
        (
            "basic_rules",
            RuleConfig {
                basic_rules: false,
                ..full
            },
        ),
        (
            "feedback_guard",
            RuleConfig {
                feedback_guard: false,
                ..full
            },
        ),
    ]
}

/// A policy whose flaw is only derivable through the pi-join rule: two
/// probes against *different constants* each halve the secret; two
/// different partial inferences join to a total one.
fn pi_join_case() -> oodb_lang::Schema {
    let s = oodb_lang::parse_schema(
        r#"
        class C { a: int }
        fn atLeastOne(c: C): bool { r_a(c) >= 1 }
        fn exactlyTwo(c: C): bool { r_a(c) == 2 }
        user probes { atLeastOne, exactlyTwo }
        require (probes, r_a(x) : ti)
        "#,
    )
    .expect("pi-join fixture parses");
    oodb_lang::check_schema(&s).expect("pi-join fixture checks");
    s
}

/// A policy whose flaw is only derivable through the pi* joint-constraint
/// machinery: the comparison's left side is `a1*a0 - (a1+a0)` with `a1`
/// readable. Partial inferability cannot flow *down* into the subtraction
/// (knowing one operand of `-` constrains nothing), so the only route to
/// `pi[a0]` is the chain of joint constraints
/// `(a0, +) ∘ (+, lhs) ∘ (lhs, a0')` collapsed on the equal pair
/// `(a0, a0')` — found by the differential experiment E3.
fn pi_star_case() -> oodb_lang::Schema {
    let s = oodb_lang::parse_schema(
        r#"
        class C { a0: int, a1: int }
        fn skew(c: C): bool {
          r_a1(c) * r_a0(c) - (r_a1(c) + r_a0(c)) >= r_a0(c)
        }
        user watcher { skew, r_a1 }
        require (watcher, r_a0(x) : pi)
        "#,
    )
    .expect("pi* fixture parses");
    oodb_lang::check_schema(&s).expect("pi* fixture checks");
    s
}

/// E7 — disable one rule group at a time and re-run the fixture
/// requirements: every group except the guard loses detections; disabling
/// the guard adds false alarms instead.
pub fn e7_ablation() -> Vec<E7Row> {
    // (schema, requirement, expected flaw) — the E2 set plus the pi-join
    // fixture.
    let stock = fixtures::stockbroker();
    let hospital = fixtures::hospital();
    let pijoin = pi_join_case();
    let mut cases: Vec<(&oodb_lang::Schema, String, bool)> = Vec::new();
    for (req, expect) in stock.requirements.iter().zip([true, true, false, false]) {
        cases.push((&stock, req.to_string(), expect));
    }
    for (req, expect) in hospital.requirements.iter().zip([true, false, false]) {
        cases.push((&hospital, req.to_string(), expect));
    }
    for req in &pijoin.requirements {
        cases.push((&pijoin, req.to_string(), true));
    }
    let pistar = pi_star_case();
    for req in &pistar.requirements {
        cases.push((&pistar, req.to_string(), true));
    }

    ablation_variants()
        .into_iter()
        .map(|(name, rules)| {
            let config = AnalysisConfig {
                rules,
                ..AnalysisConfig::default()
            };
            let reqs: Vec<_> = cases
                .iter()
                .map(|(_, req_text, _)| parse_requirement(req_text).expect("round-trip"))
                .collect();
            let (micros, verdicts) = best_of(E7_REPS, || {
                cases
                    .iter()
                    .zip(&reqs)
                    .map(|((schema, _, _), req)| {
                        analyze_with_config(schema, req, &config).expect("ablation analyses run")
                    })
                    .collect::<Vec<_>>()
            });
            let mut detected = 0;
            let mut total = 0;
            let mut false_alarms = 0;
            for ((_, _, expect), verdict) in cases.iter().zip(&verdicts) {
                if *expect {
                    total += 1;
                    if verdict.is_violated() {
                        detected += 1;
                    }
                } else if verdict.is_violated() {
                    false_alarms += 1;
                }
            }
            E7Row {
                disabled: name,
                detected,
                total,
                false_alarms,
                micros,
            }
        })
        .collect()
}

// ------------------------------------------------------------- saturation

/// Membership-only full saturation under `rules` and the default budget —
/// the configuration the timed closure rows measure.
fn proofs_off(rules: RuleConfig) -> ClosureOptions<'static> {
    ClosureOptions {
        rules,
        proofs: ProofMode::Off,
        ..ClosureOptions::default()
    }
}

/// Per-rule derive attempts and insertions for one [`SaturationRow`].
pub struct SaturationRuleRow {
    /// Table-2 rule label.
    pub label: &'static str,
    /// Derive attempts the rule made.
    pub attempts: u64,
    /// The pinned ceiling on `attempts` ([`DERIVE_CEILINGS`]); `None` for a
    /// rule the pinned row never fired.
    pub ceiling: Option<u64>,
    /// New terms the rule inserted.
    pub new_terms: u64,
}

/// One saturation measurement: the engine's closure time and derive
/// attempts on one instance, checked against the reference engine and
/// against the pinned attempt ceilings.
pub struct SaturationRow {
    /// Schema family.
    pub family: &'static str,
    /// Size parameter.
    pub param: usize,
    /// Unfolded program size (numbered occurrences).
    pub nodes: usize,
    /// Closure size (terms).
    pub terms: usize,
    /// Closure time (proofs off), microseconds, best of several runs.
    pub micros: u128,
    /// Total derive attempts.
    pub derives: u64,
    /// The pinned ceiling on `derives` ([`DERIVE_CEILINGS`]); `None` for an
    /// unpinned instance.
    pub derive_ceiling: Option<u64>,
    /// Whether the closure matched [`RefClosure`] term for term, round for
    /// round, witness for witness and proof for proof — `None` past the
    /// sizes where the reference engine stays affordable.
    pub identical: Option<bool>,
    /// Per-rule counters, sorted by attempts, descending.
    pub rules: Vec<SaturationRuleRow>,
}

impl SaturationRow {
    /// Closure terms per second.
    pub fn terms_per_sec(&self) -> f64 {
        self.terms as f64 * 1e6 / self.micros.max(1) as f64
    }

    /// Every attempt count — total and per rule — at or under its pinned
    /// ceiling, and no rule attempted that the pinned row never fired.
    /// Unpinned instances pass vacuously.
    pub fn within_ceilings(&self) -> bool {
        let Some(total) = self.derive_ceiling else {
            return true;
        };
        self.derives <= total
            && self
                .rules
                .iter()
                .all(|r| r.ceiling.is_some_and(|c| r.attempts <= c))
    }
}

/// Pinned derive attempts of one saturation instance.
pub struct DeriveCeiling {
    /// Schema family.
    pub family: &'static str,
    /// Size parameter.
    pub param: usize,
    /// Total derive attempts.
    pub total: u64,
    /// Derive attempts per Table-2 rule label.
    pub rules: &'static [(&'static str, u64)],
}

/// The derive attempts of every `saturation` instance, total and per rule,
/// as the engine made them when it was pinned. Attempt counts are
/// deterministic — a function of the program and the rule set alone — so
/// a run may match them or fall below them (a sharper prefilter) but never
/// exceed them: a prefilter or dirty-mask regression shows up here as
/// extra attempts before it shows up as time.
pub const DERIVE_CEILINGS: &[DeriveCeiling] = &[
    DeriveCeiling {
        family: "wide_grants",
        param: 8,
        total: 228,
        rules: &[
            ("axiom for =", 36),
            ("implication", 34),
            ("inferability based on =", 33),
            ("axiom", 27),
            ("basic function: comparison half-plane", 22),
            ("basic function: comparison partial alterability", 16),
            ("read receiver alterability", 16),
            ("basic function: comparison joint constraint", 10),
            ("join of partial inferences", 10),
            ("joint constraint from =", 9),
            ("basic function: comparison from ranges", 3),
            ("join of joint constraints", 3),
            ("basic function: comparison alterability", 2),
            ("basic function: comparison search", 2),
            ("basic function: compute", 2),
            ("alterability based on =", 1),
            ("basic function: comparison from joint constraint", 1),
            ("rule for =", 1),
        ],
    },
    DeriveCeiling {
        family: "wide_grants",
        param: 64,
        total: 5044,
        rules: &[
            ("axiom for =", 2080),
            ("inferability based on =", 2021),
            ("implication", 202),
            ("axiom", 195),
            ("basic function: comparison half-plane", 134),
            ("basic function: comparison partial alterability", 128),
            ("read receiver alterability", 128),
            ("basic function: comparison joint constraint", 66),
            ("joint constraint from =", 65),
            ("join of partial inferences", 10),
            ("basic function: comparison from ranges", 3),
            ("join of joint constraints", 3),
            ("basic function: comparison alterability", 2),
            ("basic function: comparison search", 2),
            ("basic function: compute", 2),
            ("alterability based on =", 1),
            ("basic function: comparison from joint constraint", 1),
            ("rule for =", 1),
        ],
    },
    DeriveCeiling {
        family: "wide_grants",
        param: 128,
        total: 18228,
        rules: &[
            ("axiom for =", 8256),
            ("inferability based on =", 8133),
            ("implication", 394),
            ("axiom", 387),
            ("basic function: comparison half-plane", 262),
            ("basic function: comparison partial alterability", 256),
            ("read receiver alterability", 256),
            ("basic function: comparison joint constraint", 130),
            ("joint constraint from =", 129),
            ("join of partial inferences", 10),
            ("basic function: comparison from ranges", 3),
            ("join of joint constraints", 3),
            ("basic function: comparison alterability", 2),
            ("basic function: comparison search", 2),
            ("basic function: compute", 2),
            ("alterability based on =", 1),
            ("basic function: comparison from joint constraint", 1),
            ("rule for =", 1),
        ],
    },
    DeriveCeiling {
        family: "wide_grants",
        param: 192,
        total: 39604,
        rules: &[
            ("axiom for =", 18528),
            ("inferability based on =", 18341),
            ("implication", 586),
            ("axiom", 579),
            ("basic function: comparison half-plane", 390),
            ("basic function: comparison partial alterability", 384),
            ("read receiver alterability", 384),
            ("basic function: comparison joint constraint", 194),
            ("joint constraint from =", 193),
            ("join of partial inferences", 10),
            ("basic function: comparison from ranges", 3),
            ("join of joint constraints", 3),
            ("basic function: comparison alterability", 2),
            ("basic function: comparison search", 2),
            ("basic function: compute", 2),
            ("alterability based on =", 1),
            ("basic function: comparison from joint constraint", 1),
            ("rule for =", 1),
        ],
    },
    DeriveCeiling {
        family: "wide_grants",
        param: 512,
        total: 269364,
        rules: &[
            ("axiom for =", 131328),
            ("inferability based on =", 130821),
            ("implication", 1546),
            ("axiom", 1539),
            ("basic function: comparison half-plane", 1030),
            ("basic function: comparison partial alterability", 1024),
            ("read receiver alterability", 1024),
            ("basic function: comparison joint constraint", 514),
            ("joint constraint from =", 513),
            ("join of partial inferences", 10),
            ("basic function: comparison from ranges", 3),
            ("join of joint constraints", 3),
            ("basic function: comparison alterability", 2),
            ("basic function: comparison search", 2),
            ("basic function: compute", 2),
            ("alterability based on =", 1),
            ("basic function: comparison from joint constraint", 1),
            ("rule for =", 1),
        ],
    },
    DeriveCeiling {
        family: "dense_equalities",
        param: 8,
        total: 16089,
        rules: &[
            ("join of joint constraints", 7922),
            ("inferability based on =", 1521),
            ("join of partial inferences", 1170),
            ("basic function: affine partial inversion", 919),
            (
                "basic function: affine partial inversion (partial anchor)",
                670,
            ),
            ("basic function: affine inversion", 668),
            ("implication", 651),
            ("basic function: compute", 448),
            ("rule for =", 331),
            ("basic function: comparison from joint constraint", 307),
            ("joint constraint on equals", 272),
            ("basic function: affine range constraint", 180),
            ("basic function: affine joint constraint", 172),
            ("basic function: affine range inversion", 164),
            ("basic function: affine range compute", 148),
            ("basic function: diagonal inversion", 112),
            ("basic function: comparison half-plane", 96),
            ("axiom for =", 72),
            ("axiom", 43),
            ("basic function: affine alterability", 32),
            ("basic function: affine partial alterability", 32),
            ("basic function: comparison joint constraint", 32),
            ("basic function: comparison from ranges", 24),
            ("basic function: comparison search", 24),
            ("joint constraint from =", 23),
            ("basic function: comparison alterability", 16),
            ("basic function: comparison partial alterability", 16),
            ("read receiver alterability", 16),
            ("alterability based on =", 8),
        ],
    },
    DeriveCeiling {
        family: "dense_equalities",
        param: 12,
        total: 44349,
        rules: &[
            ("join of joint constraints", 26452),
            ("inferability based on =", 4031),
            ("join of partial inferences", 2522),
            ("basic function: affine partial inversion", 1955),
            (
                "basic function: affine partial inversion (partial anchor)",
                1486,
            ),
            ("basic function: affine inversion", 1484),
            ("implication", 1359),
            ("basic function: compute", 960),
            ("rule for =", 783),
            ("basic function: comparison from joint constraint", 655),
            ("joint constraint on equals", 600),
            ("basic function: affine range constraint", 320),
            ("basic function: affine joint constraint", 308),
            ("basic function: affine range inversion", 296),
            ("basic function: affine range compute", 272),
            ("basic function: diagonal inversion", 168),
            ("axiom for =", 156),
            ("basic function: comparison half-plane", 144),
            ("axiom", 63),
            ("basic function: affine alterability", 48),
            ("basic function: affine partial alterability", 48),
            ("basic function: comparison joint constraint", 48),
            ("basic function: comparison from ranges", 36),
            ("basic function: comparison search", 36),
            ("joint constraint from =", 35),
            ("basic function: comparison alterability", 24),
            ("basic function: comparison partial alterability", 24),
            ("read receiver alterability", 24),
            ("alterability based on =", 12),
        ],
    },
    DeriveCeiling {
        family: "dense_equalities",
        param: 16,
        total: 94273,
        rules: &[
            ("join of joint constraints", 62374),
            ("inferability based on =", 8221),
            ("join of partial inferences", 4386),
            ("basic function: affine partial inversion", 3375),
            (
                "basic function: affine partial inversion (partial anchor)",
                2622,
            ),
            ("basic function: affine inversion", 2620),
            ("implication", 2323),
            ("basic function: compute", 1664),
            ("rule for =", 1427),
            ("basic function: comparison from joint constraint", 1131),
            ("joint constraint on equals", 1056),
            ("basic function: affine range constraint", 492),
            ("basic function: affine joint constraint", 476),
            ("basic function: affine range inversion", 460),
            ("basic function: affine range compute", 428),
            ("axiom for =", 272),
            ("basic function: diagonal inversion", 224),
            ("basic function: comparison half-plane", 192),
            ("axiom", 83),
            ("basic function: affine alterability", 64),
            ("basic function: affine partial alterability", 64),
            ("basic function: comparison joint constraint", 64),
            ("basic function: comparison from ranges", 48),
            ("basic function: comparison search", 48),
            ("joint constraint from =", 47),
            ("basic function: comparison alterability", 32),
            ("basic function: comparison partial alterability", 32),
            ("read receiver alterability", 32),
            ("alterability based on =", 16),
        ],
    },
    DeriveCeiling {
        family: "dense_equalities",
        param: 32,
        total: 633489,
        rules: &[
            ("join of joint constraints", 495182),
            ("inferability based on =", 49461),
            ("join of partial inferences", 16962),
            ("basic function: affine partial inversion", 12895),
            (
                "basic function: affine partial inversion (partial anchor)",
                10366,
            ),
            ("basic function: affine inversion", 10364),
            ("implication", 8739),
            ("basic function: compute", 6400),
            ("rule for =", 5923),
            ("basic function: comparison from joint constraint", 4315),
            ("joint constraint on equals", 4160),
            ("basic function: affine range constraint", 1500),
            ("basic function: affine joint constraint", 1468),
            ("basic function: affine range inversion", 1436),
            ("basic function: affine range compute", 1372),
            ("axiom for =", 1056),
            ("basic function: diagonal inversion", 448),
            ("basic function: comparison half-plane", 384),
            ("axiom", 163),
            ("basic function: affine alterability", 128),
            ("basic function: affine partial alterability", 128),
            ("basic function: comparison joint constraint", 128),
            ("basic function: comparison from ranges", 96),
            ("basic function: comparison search", 96),
            ("joint constraint from =", 95),
            ("basic function: comparison alterability", 64),
            ("basic function: comparison partial alterability", 64),
            ("read receiver alterability", 64),
            ("alterability based on =", 32),
        ],
    },
    DeriveCeiling {
        family: "dense_equalities",
        param: 48,
        total: 2010849,
        rules: &[
            ("join of joint constraints", 1667062),
            ("inferability based on =", 148301),
            ("join of partial inferences", 37730),
            ("basic function: affine partial inversion", 28559),
            (
                "basic function: affine partial inversion (partial anchor)",
                23230,
            ),
            ("basic function: affine inversion", 23228),
            ("implication", 19251),
            ("basic function: compute", 14208),
            ("rule for =", 13491),
            ("basic function: comparison from joint constraint", 9547),
            ("joint constraint on equals", 9312),
            ("basic function: affine range constraint", 3020),
            ("basic function: affine joint constraint", 2972),
            ("basic function: affine range inversion", 2924),
            ("basic function: affine range compute", 2828),
            ("axiom for =", 2352),
            ("basic function: diagonal inversion", 672),
            ("basic function: comparison half-plane", 576),
            ("axiom", 243),
            ("basic function: affine alterability", 192),
            ("basic function: affine partial alterability", 192),
            ("basic function: comparison joint constraint", 192),
            ("basic function: comparison from ranges", 144),
            ("basic function: comparison search", 144),
            ("joint constraint from =", 143),
            ("basic function: comparison alterability", 96),
            ("basic function: comparison partial alterability", 96),
            ("read receiver alterability", 96),
            ("alterability based on =", 48),
        ],
    },
];

/// Instances past these sizes skip the reference-engine identity check:
/// the reference engine re-evaluates every rule on every pop and blows up
/// super-linearly on the equality-clique family.
const ORACLE_CAP: [(&str, usize); 2] = [("wide_grants", 192), ("dense_equalities", 16)];

/// Does the engine's closure match the reference engine's — term set,
/// rounds, witnesses and per-term proofs?
fn matches_oracle(prog: &NProgram, rules: &RuleConfig) -> bool {
    let closure = Closure::compute_with(
        prog,
        &ClosureOptions {
            rules: *rules,
            ..ClosureOptions::default()
        },
    )
    .expect("proof-carrying closure");
    let oracle = RefClosure::compute_with(prog, rules, DEFAULT_TERM_LIMIT).expect("oracle");
    let mut tc: Vec<Term> = closure.iter().collect();
    let mut to: Vec<Term> = oracle.iter().collect();
    tc.sort_unstable();
    to.sort_unstable();
    tc == to
        && closure.rounds() == oracle.rounds()
        && (1..=prog.len() as secflow::unfold::ExprId).all(|e| {
            closure.ti_witness(e) == oracle.ti_witness(e)
                && closure.pi_witness(e) == oracle.pi_witness(e)
        })
        && tc.iter().all(|t| closure.proof(t) == oracle.proof(t))
}

/// `saturation` — time the saturation engine on the two re-firing-heavy
/// families (`wide_grants` and `dense_equalities`) and count its derive
/// attempts, total and per rule, against the pinned [`DERIVE_CEILINGS`].
/// Up to the [`ORACLE_CAP`] sizes every closure is also checked against
/// the reference engine: same term set, round count, witnesses and
/// proofs. The timed runs are uninstrumented (`ProofMode::Off`, best of
/// several); the counters come from a separate stats-collecting run.
///
/// `smoke` shrinks both families to CI-sized instances.
pub fn saturation_engine(smoke: bool) -> Vec<SaturationRow> {
    type Gen = fn(usize) -> ScaleCase;
    let families: [(&'static str, Gen, &'static [usize]); 2] = if smoke {
        [
            ("wide_grants", wide_grants, &[8]),
            ("dense_equalities", dense_equalities, &[8]),
        ]
    } else {
        [
            ("wide_grants", wide_grants, &[64, 128, 192, 512]),
            ("dense_equalities", dense_equalities, &[8, 12, 16, 32, 48]),
        ]
    };
    let rules = RuleConfig::default();
    let mut rows = Vec::new();
    for (family, gen, params) in families {
        for &param in params {
            let case = gen(param);
            let caps = case.schema.user_str("u").expect("scale user");
            let prog = NProgram::unfold(&case.schema, caps).expect("scale unfolds");

            // Small rows finish in ~1 ms, where a single descheduling event
            // swamps the measurement; take the best of more repetitions
            // there (large rows amortize the noise on their own).
            let reps = if prog.len() < 1000 { 7 } else { 3 };
            let (micros, closure) = best_of(reps, || {
                Closure::compute_with(&prog, &proofs_off(rules)).expect("scale closure")
            });
            let (stats_run, stats) = Closure::compute_with_stats(&prog, &proofs_off(rules));
            stats_run.expect("stats closure");

            let pinned = DERIVE_CEILINGS
                .iter()
                .find(|c| c.family == family && c.param == param);
            let mut rule_rows: Vec<SaturationRuleRow> = stats
                .rule_attempts
                .iter()
                .map(|&(label, attempts)| SaturationRuleRow {
                    label,
                    attempts,
                    ceiling: pinned
                        .and_then(|p| p.rules.iter().find(|(l, _)| *l == label).map(|(_, n)| *n)),
                    new_terms: stats.firings_of(label),
                })
                .collect();
            rule_rows.sort_by_key(|r| std::cmp::Reverse(r.attempts));

            let affordable = ORACLE_CAP
                .iter()
                .any(|&(f, cap)| f == family && param <= cap);
            rows.push(SaturationRow {
                family,
                param,
                nodes: prog.len(),
                terms: closure.len(),
                micros,
                derives: stats.derive_calls,
                derive_ceiling: pinned.map(|p| p.total),
                identical: affordable.then(|| matches_oracle(&prog, &rules)),
                rules: rule_rows,
            });
        }
    }
    rows
}

/// One proof-checker overhead measurement: analysis (proof-carrying
/// saturation) against the independent certification pass over the same
/// closure.
pub struct CertifyRow {
    /// Schema family.
    pub family: &'static str,
    /// Size parameter.
    pub param: usize,
    /// Unfolded program size (numbered occurrences).
    pub nodes: usize,
    /// Closure size = derivations certified.
    pub terms: usize,
    /// Terms justified by axiom schemas.
    pub axioms: usize,
    /// Proof-carrying saturation time, microseconds.
    pub analyze_micros: u128,
    /// Certification time over the recorded proofs, microseconds.
    pub certify_micros: u128,
    /// Whether the certificate covered every term of the closure.
    pub complete: bool,
}

impl CertifyRow {
    /// Certification time as a fraction of analysis time.
    pub fn overhead(&self) -> f64 {
        if self.analyze_micros == 0 {
            f64::INFINITY
        } else {
            self.certify_micros as f64 / self.analyze_micros as f64
        }
    }
}

/// `certify` — the cost of re-validating every recorded derivation with
/// the independent proof checker, against the cost of deriving them in the
/// first place, across the four scaling families. The analysis runs are
/// proof-carrying (`ProofMode::Full`) full saturation — the exact
/// configuration `secflow check --certify` uses.
///
/// `smoke` shrinks the sweep to CI-sized instances.
pub fn certify_overhead(smoke: bool) -> Vec<CertifyRow> {
    type Gen = fn(usize) -> ScaleCase;
    let families: [(&'static str, Gen, &'static [usize]); 4] = if smoke {
        [
            ("call_chain", call_chain, &[8]),
            ("wide_grants", wide_grants, &[8]),
            ("deep_expr", deep_expr, &[3]),
            ("attr_fanout", attr_fanout, &[8]),
        ]
    } else {
        [
            ("call_chain", call_chain, &[8, 12]),
            ("wide_grants", wide_grants, &[32, 64, 128]),
            ("deep_expr", deep_expr, &[4, 5]),
            ("attr_fanout", attr_fanout, &[8, 16]),
        ]
    };
    let rules = RuleConfig::default();
    let mut rows = Vec::new();
    for (family, gen, params) in families {
        for &param in params {
            let case = gen(param);
            let caps = case.schema.user_str("u").expect("scale user");
            let prog = NProgram::unfold(&case.schema, caps).expect("scale unfolds");

            // Best-of-three on both phases: single-shot micro timings on
            // the smoke sizes are dominated by allocator/cache warm-up,
            // which would make the overhead ratio flake under load.
            let (analyze_micros, closure) = best_of(3, || {
                Closure::compute(&prog).expect("proof-carrying closure")
            });
            let (certify_micros, cert) = best_of(3, || {
                closure
                    .certify(&prog, &rules)
                    .unwrap_or_else(|e| panic!("{family}({param}): certification failed: {e}"))
            });

            rows.push(CertifyRow {
                family,
                param,
                nodes: prog.len(),
                terms: closure.len(),
                axioms: cert.axioms,
                analyze_micros,
                certify_micros,
                complete: cert.terms_checked == closure.len()
                    && cert.axioms + cert.derived == cert.terms_checked,
            });
        }
    }
    rows
}

// ----------------------------------------------------------- population

/// One Zipf-population streaming throughput measurement: verdicts/sec is
/// the headline metric (the ROADMAP north-star is population-scale
/// serving), with the closure-cache hit rate and the scheduler's steal
/// count recorded alongside.
pub struct PopulationRow {
    /// Users in the population (= groups = verdicts, one requirement each).
    pub users: usize,
    /// Distinct capability fingerprints the Zipf draw collapses onto.
    pub fingerprints: usize,
    /// Users sharing the most popular fingerprint.
    pub peak_group: usize,
    /// Worker threads requested.
    pub jobs: usize,
    /// Wall time for the streamed batch, microseconds.
    pub micros: u128,
    /// Verdicts emitted through the sink.
    pub verdicts: u64,
    /// Verdicts that flagged a flaw.
    pub violated: u64,
    /// Steal operations performed by the work-stealing pool.
    pub steals: u64,
    /// Closure-cache hits over the run.
    pub cache_hits: u64,
    /// Closure-cache misses over the run (= distinct fingerprints seen).
    pub cache_misses: u64,
    /// Closure-cache evictions over the run.
    pub cache_evictions: u64,
}

impl PopulationRow {
    /// Fraction of group analyses served from the closure cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Verdicts delivered per second of wall time.
    pub fn verdicts_per_sec(&self) -> f64 {
        if self.micros == 0 {
            f64::INFINITY
        } else {
            self.verdicts as f64 * 1e6 / self.micros as f64
        }
    }
}

/// The work-stealing pool against the static partition it starts from,
/// on the clustered-giants skew workload: the heavy groups sit
/// contiguously in worker 0's seed chunk, so without stealing that worker
/// would run them back to back while its neighbours idle.
///
/// Both schedules are scored by their *critical path*: every group is
/// priced at its measured serial cost and the critical path is the
/// loaded-est worker's total. That is exactly the batch's wall time on a
/// machine with one core per worker — and unlike raw wall time it stays
/// meaningful on a core-starved CI container, where the OS timeshares all
/// eight workers onto the same core and wall time degenerates to total work
/// for *any* schedule. The stealing path is priced over the groups each
/// worker actually executed (the pool tags every streamed record with its
/// worker index); the static path is computed arithmetically from the
/// contiguous seed chunks `w·n/jobs .. (w+1)·n/jobs` the pool hands out.
pub struct SkewRow {
    /// Groups in the workload.
    pub users: usize,
    /// Heavy groups, clustered at the front of group order.
    pub giants: usize,
    /// Probe width of each giant group (closure cost grows ~width²).
    pub giant_width: usize,
    /// Probe width of every other group.
    pub tiny_width: usize,
    /// Worker threads requested.
    pub jobs: usize,
    /// Critical path if every worker ran only its seed chunk,
    /// microseconds: max over workers of the summed serial cost of the
    /// chunk.
    pub fixed_critical_micros: u128,
    /// Critical path under the work-stealing pool, microseconds.
    pub stealing_critical_micros: u128,
    /// Measured wall time of the work-stealing run, microseconds.
    pub stealing_wall_micros: u128,
    /// Steals performed by the best work-stealing run.
    pub steals: u64,
}

impl SkewRow {
    /// Work-stealing speedup over the static partition, by critical path.
    pub fn speedup(&self) -> f64 {
        if self.stealing_critical_micros == 0 {
            f64::INFINITY
        } else {
            self.fixed_critical_micros as f64 / self.stealing_critical_micros as f64
        }
    }
}

/// `population` part 1 — stream a Zipf-distributed population through
/// `analyze_batch_streaming` with a fresh sharded cache and count verdicts
/// without buffering anything per-group. `smoke` is the CI size (10^4
/// users); the full run peaks at a million users over 4000 fingerprints.
pub fn population_throughput(smoke: bool) -> Vec<PopulationRow> {
    // Fingerprint counts leave the >99% hit-rate bar attainable: misses
    // are at least one per distinct fingerprint, so users/fingerprints
    // must exceed 100 with margin for racy duplicate misses under the
    // parallel pool.
    let sizes: &[(usize, usize)] = if smoke {
        &[(10_000, 100)]
    } else {
        &[(100_000, 500), (1_000_000, 4_000)]
    };
    let config = AnalysisConfig::default();
    let mut rows = Vec::new();
    for &(users, fingerprints) in sizes {
        let case = zipf_population(users, fingerprints, 0xF1A7);
        // Popularity of the hottest fingerprint, from the per-user
        // requirement goals (each names its profile's probed attribute).
        let mut popularity: HashMap<String, usize> = HashMap::new();
        for r in &case.requirements {
            *popularity.entry(r.target.to_string()).or_default() += 1;
        }
        let peak_group = popularity.values().copied().max().unwrap_or(0);

        /// Counts verdicts as they stream past — the population run keeps
        /// nothing per-group, which is what lets memory stay flat.
        struct CountingSink {
            verdicts: AtomicU64,
            violated: AtomicU64,
        }
        impl AnalysisSink for CountingSink {
            fn emit(&self, record: GroupRecord) {
                for (_, verdict) in &record.verdicts {
                    let v = verdict.as_ref().expect("population verdict");
                    self.verdicts.fetch_add(1, Ordering::Relaxed);
                    if v.is_violated() {
                        self.violated.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }

        let jobs = 8usize;
        let opts = BatchOptions {
            jobs,
            ..BatchOptions::default()
        };
        // Fresh cache per row: the hit rate must reflect this population
        // alone. Two entries of headroom per fingerprint, 16 stripes.
        let cache = ClosureCache::with_shards(2 * fingerprints, 16);
        let sink = CountingSink {
            verdicts: AtomicU64::new(0),
            violated: AtomicU64::new(0),
        };
        let start = Instant::now();
        let summary = analyze_batch_streaming(
            &case.schema,
            &case.requirements,
            &config,
            &opts,
            Some(&cache),
            &sink,
        );
        let micros = start.elapsed().as_micros();
        let stats = cache.stats();
        let verdicts = sink.verdicts.load(Ordering::Relaxed);
        assert_eq!(verdicts as usize, users, "every user gets one verdict");
        assert_eq!(summary.groups, users, "one group per user");
        rows.push(PopulationRow {
            users,
            fingerprints,
            peak_group,
            jobs,
            micros,
            verdicts,
            violated: sink.violated.load(Ordering::Relaxed),
            steals: summary.steals,
            cache_hits: stats.hits,
            cache_misses: stats.misses,
            cache_evictions: stats.evictions,
        });
    }
    rows
}

/// `population` part 2 — what the work-stealing pool buys: a cluster of
/// giant groups seeded into one worker's static chunk, run best-of-three
/// at `--jobs 8` (uncached, so the cost model is real closure work). Each
/// run streams through [`analyze_batch_streaming`] with a sink that
/// records which worker executed each group; its score is the critical
/// path over that *actual* assignment, priced by per-group serial cost
/// measured up front. The static-partition critical path prices the same
/// costs over the pool's seed chunks (see [`SkewRow`]). Every run's
/// verdicts are asserted equal to per-requirement analysis.
pub fn skew_critical_paths(smoke: bool) -> SkewRow {
    // `giants == users / jobs` puts the whole cluster in worker 0's chunk.
    let (users, giants, giant_width, tiny_width) = if smoke {
        (64, 8, 48, 6)
    } else {
        (128, 16, 96, 8)
    };
    let case = clustered_giants(users, giants, giant_width, tiny_width);
    let config = AnalysisConfig::default();
    let jobs = 8usize;

    // Price each group by its serial analysis cost (best of two). Every
    // user holds exactly one requirement, so group i is requirement i.
    let (cost, expected): (Vec<u128>, Vec<Vec<bool>>) = case
        .requirements
        .iter()
        .map(|r| {
            let (us, v) = best_of(2, || analyze(&case.schema, r).expect("skew verdict"));
            (us, vec![v.is_violated()])
        })
        .unzip();
    // The seed chunks `run_pool` hands each worker before any stealing.
    let fixed_critical = (0..jobs)
        .map(|w| {
            cost[w * users / jobs..(w + 1) * users / jobs]
                .iter()
                .sum::<u128>()
        })
        .max()
        .unwrap_or(0);

    /// One group's assignment trace: the worker that executed it and its
    /// violation flags.
    type Assignment = (usize, Vec<bool>);

    /// Records, per group, the worker that executed it and its violation
    /// flags — the assignment trace the critical path is computed from.
    struct AssignSink {
        slots: Mutex<Vec<Option<Assignment>>>,
    }
    impl AnalysisSink for AssignSink {
        fn emit(&self, record: GroupRecord) {
            let flags = record
                .verdicts
                .iter()
                .map(|(_, v)| v.as_ref().expect("skew verdict").is_violated())
                .collect();
            let mut slots = self.slots.lock().expect("sink lock");
            let slot = &mut slots[record.group_index];
            assert!(slot.is_none(), "group {} emitted twice", record.group_index);
            *slot = Some((record.worker, flags));
        }
    }

    let opts = BatchOptions {
        jobs,
        ..BatchOptions::default()
    };
    let mut best_wall = u128::MAX;
    let mut best_critical = u128::MAX;
    let mut best_steals = 0u64;
    for _ in 0..3 {
        let sink = AssignSink {
            slots: Mutex::new((0..users).map(|_| None).collect()),
        };
        let start = Instant::now();
        let summary = analyze_batch_streaming(
            &case.schema,
            &case.requirements,
            &config,
            &opts,
            None,
            &sink,
        );
        let wall = start.elapsed().as_micros();
        let slots = sink.slots.into_inner().expect("sink lock");
        let mut per_worker = vec![0u128; jobs];
        let mut run_flags = Vec::with_capacity(users);
        for (gi, slot) in slots.into_iter().enumerate() {
            let (worker, group_flags) = slot.expect("every group emitted");
            per_worker[worker] += cost[gi];
            run_flags.push(group_flags);
        }
        let critical = per_worker.iter().copied().max().unwrap_or(0);
        best_wall = best_wall.min(wall);
        if critical < best_critical {
            best_critical = critical;
            best_steals = summary.steals;
        }
        assert_eq!(
            run_flags, expected,
            "pooled verdicts disagree with per-requirement analysis"
        );
    }
    SkewRow {
        users,
        giants,
        giant_width,
        tiny_width,
        jobs,
        fixed_critical_micros: fixed_critical,
        stealing_critical_micros: best_critical,
        stealing_wall_micros: best_wall,
        steals: best_steals,
    }
}

// --------------------------------------------------- incremental edits

/// One edit-trace measurement: a grant/revoke script replayed against a
/// maintained incremental closure ([`secflow::IncrementalUser`]) vs a
/// from-scratch recompute after every edit.
pub struct IncrementalRow {
    /// Family label: `sparse` ([`edit_trace`]-only probes — absorb-bound,
    /// the honest worst case) or `dense` (an always-granted
    /// equality-clique core under the probes — the small-edit/large-closure
    /// regime the maintenance path is built for).
    pub family: &'static str,
    /// Probe-pool width of the `edit_trace` family.
    pub width: usize,
    /// Dense-core size (`0` for the sparse family).
    pub core: usize,
    /// Edits in the script.
    pub edits: usize,
    /// Unfolded program size (numbered occurrences) before the first edit.
    pub nodes: usize,
    /// Closure size (terms) before the first edit.
    pub terms: usize,
    /// Total incremental maintenance time across the script, microseconds.
    pub incremental_micros: u128,
    /// Total re-unfold + full-recompute time across the script,
    /// microseconds (proof-carrying, like the maintained closure).
    pub scratch_micros: u128,
    /// Did every edit leave the maintained closure identical (as a sorted
    /// term set) to the from-scratch recompute?
    pub identical: bool,
    /// Terms removed by deletion cascades, summed over the script.
    pub deleted: u64,
    /// Terms re-derived by warm restarts, summed over the script.
    pub rederived: u64,
    /// Terms carried over by absorption, summed over the script.
    pub survivors: u64,
}

impl IncrementalRow {
    /// From-scratch time over incremental time — the headline speedup of
    /// maintenance over recompute.
    pub fn speedup(&self) -> f64 {
        self.scratch_micros as f64 / self.incremental_micros.max(1) as f64
    }

    /// Edits maintained per second.
    pub fn edits_per_sec(&self) -> f64 {
        self.edits as f64 * 1e6 / self.incremental_micros.max(1) as f64
    }
}

/// `incremental` — time incremental grant/revoke maintenance against
/// from-scratch recomputation on the edit-trace families: scripts of
/// single-capability toggles against a standing closure. The `sparse`
/// family (probes only) is the absorb-bound floor — scratch saturation
/// there is mostly successful derives, which absorption merely replays, so
/// maintenance roughly breaks even. The `dense` family parks an
/// equality-clique core ([`secflow_workloads::scale::edit_trace_dense`])
/// under the probes: from-scratch saturation re-pays the `O(core²)`
/// equality/transfer attempt storm on every edit, the maintenance path
/// absorbs those terms without re-attempting a single rule, and the
/// speedup grows with the core — modestly, because the engine's derive
/// prefilters already skip most of the attempt storm from scratch, and
/// maintenance still re-unfolds and re-absorbs the whole closure on every
/// edit. After every edit the maintained closure is
/// checked identical — as a sorted term set — to a fresh proof-carrying
/// saturation of the edited capability list, so the timing rows can never
/// drift from a correctness bug silently.
///
/// `smoke` shrinks both families to CI-sized instances.
pub fn incremental_maintenance(smoke: bool) -> Vec<IncrementalRow> {
    use secflow::incremental::IncrementalUser;
    use secflow_workloads::scale::{edit_trace_dense, EditOp};

    // (family, probe width, dense core, edits). The sparse rows measure the
    // absorb-bound floor; the dense rows are the headline regime, where
    // from-scratch saturation re-pays the equality-clique attempt storm on
    // every edit and maintenance does not.
    let fams: &[(&'static str, usize, usize, usize)] = if smoke {
        &[("sparse", 8, 0, 6), ("dense", 4, 6, 6)]
    } else {
        &[
            ("sparse", 64, 0, 12),
            ("dense", 8, 12, 12),
            ("dense", 8, 16, 12),
            ("dense", 8, 20, 12),
        ]
    };
    let config = AnalysisConfig::default();
    let mut rows = Vec::new();
    for &(family, width, core, edits) in fams {
        let case = edit_trace_dense(width, core, edits, 0xED17 + width as u64);
        let mut inc = IncrementalUser::new(&case.schema, &case.requirement.user, &config)
            .expect("edit_trace materializes");
        let nodes = inc.program().len();
        let terms = inc.closure().len();
        let mut caps = inc.caps().clone();

        let mut incremental_micros = 0u128;
        let mut scratch_micros = 0u128;
        let mut identical = true;
        let (mut deleted, mut rederived, mut survivors) = (0u64, 0u64, 0u64);
        for op in &case.edits {
            let start = Instant::now();
            let outcome = match op {
                EditOp::Grant(f) => inc.grant(&case.schema, f),
                EditOp::Revoke(f) => inc.revoke(&case.schema, f),
            }
            .expect("edit_trace edits apply");
            incremental_micros += start.elapsed().as_micros();
            deleted += outcome.deleted as u64;
            rederived += outcome.rederived as u64;
            survivors += outcome.survivors as u64;

            // The from-scratch contender re-does what maintenance
            // avoided: unfold the edited list and saturate with proofs.
            match op {
                EditOp::Grant(f) => caps.grant(f.clone()),
                EditOp::Revoke(f) => caps.revoke(f),
            };
            let start = Instant::now();
            let prog = NProgram::unfold(&case.schema, &caps).expect("edit_trace unfolds");
            let scratch =
                Closure::compute_with(&prog, &config.closure_options(ProofMode::Full, None))
                    .expect("edit_trace saturates");
            scratch_micros += start.elapsed().as_micros();

            let mut a: Vec<Term> = inc.closure().iter().collect();
            let mut b: Vec<Term> = scratch.iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            identical &= a == b;
        }
        rows.push(IncrementalRow {
            family,
            width,
            core,
            edits,
            nodes,
            terms,
            incremental_micros,
            scratch_micros,
            identical,
            deleted,
            rederived,
            survivors,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_smoke_stays_identical_to_scratch() {
        for r in incremental_maintenance(true) {
            assert!(
                r.identical,
                "edit_trace({}): maintained closure diverged from scratch",
                r.width
            );
            assert!(r.terms > 0, "edit_trace({}): empty closure", r.width);
            assert!(
                r.deleted + r.rederived > 0,
                "edit_trace({}): the script never exercised retraction or re-derivation",
                r.width
            );
            assert!(
                r.survivors > 0,
                "edit_trace({}): edits never carried terms over",
                r.width
            );
        }
    }

    #[test]
    fn population_smoke_hits_cache_and_steals() {
        let rows = population_throughput(true);
        for r in &rows {
            assert!(
                r.hit_rate() > 0.95,
                "{} users / {} fingerprints: hit rate {:.4} too low",
                r.users,
                r.fingerprints,
                r.hit_rate()
            );
            assert!(
                r.violated > 0 && r.violated < r.verdicts,
                "Zipf population must mix verdicts ({} / {} violated)",
                r.violated,
                r.verdicts
            );
        }
        // Uniform Zipf groups can drain without ever opening a steal
        // window, so the non-zero-steal guarantee comes from the skewed
        // batch: the giant cluster pins worker 0 while the other seven
        // drain their tiny chunks, and the pool must steal the pinned
        // worker's queued giants.
        let skew = skew_critical_paths(true);
        assert!(skew.steals > 0, "work-stealing idle on the skewed batch");
        assert!(
            skew.stealing_critical_micros <= skew.fixed_critical_micros,
            "stealing must not lengthen the critical path (fixed {} us, stealing {} us)",
            skew.fixed_critical_micros,
            skew.stealing_critical_micros
        );
        let total: u64 = rows.iter().map(|r| r.steals).sum::<u64>() + skew.steals;
        assert!(total > 0, "population smoke never engaged the stealer");
    }

    #[test]
    fn saturation_smoke_matches_the_oracle_within_ceilings() {
        for r in saturation_engine(true) {
            assert_eq!(r.identical, Some(true), "{} {} diverged", r.family, r.param);
            assert!(r.terms > 0, "{} {} empty closure", r.family, r.param);
            assert!(
                r.derive_ceiling.is_some(),
                "{} {}: smoke rows are pinned",
                r.family,
                r.param
            );
            assert!(
                r.within_ceilings(),
                "{} {}: derive attempts exceed the pinned ceilings",
                r.family,
                r.param
            );
            let total: u64 = r.rules.iter().map(|x| x.attempts).sum();
            assert_eq!(total, r.derives, "per-rule rows partition attempts");
            for rule in &r.rules {
                assert!(rule.new_terms <= rule.attempts);
            }
        }
    }

    #[test]
    fn certify_smoke_validates_every_closure_within_budget() {
        for r in certify_overhead(true) {
            assert!(
                r.complete,
                "{} {}: certificate incomplete",
                r.family, r.param
            );
            assert!(r.terms > 0, "{} {} empty closure", r.family, r.param);
            assert!(r.axioms > 0, "{} {}: no axioms?", r.family, r.param);
            // The release harness enforces the acceptance bound of 2×; the
            // unoptimised test profile skews against the checker's
            // index-heavy inner loop, so allow 3× here, with a floor so
            // millisecond-scale timer noise cannot flake the assertion.
            assert!(
                r.certify_micros <= 3 * r.analyze_micros || r.certify_micros < 5_000,
                "{} {}: certify {}us > 3x analyze {}us",
                r.family,
                r.param,
                r.certify_micros,
                r.analyze_micros
            );
        }
    }

    #[test]
    fn e1_reproduces_every_judgment() {
        let f = e1_figure1();
        for (j, ok) in &f.judgments {
            assert!(ok, "judgment not derived: {j}");
        }
        assert!(f.derivation.lines().count() >= 8);
        assert_eq!(f.unfolded.len(), 2);
        let phases: Vec<&str> = f.phase_micros.iter().map(|(p, _)| *p).collect();
        assert_eq!(phases, ["unfold", "closure", "check"]);
    }

    #[test]
    fn e2_matches_paper_expectations() {
        for row in e2_running_examples() {
            assert_eq!(
                row.got_flaw, row.expected_flaw,
                "{}: {}",
                row.scenario, row.requirement
            );
        }
    }

    #[test]
    fn e3_small_corpus_is_sound() {
        let report = e3_e4_differential(10);
        assert!(report.is_sound(), "soundness violations: {report}");
        assert!(report.total() > 0);
    }

    #[test]
    fn e5_rows_monotone_nodes() {
        let rows = e5_scaling_sized(&[1, 2, 4], &[1, 2, 4], &[1, 2, 3], &[1, 2, 4]);
        assert!(!rows.is_empty());
        // Within each family, nodes grow with the parameter.
        for f in ["call_chain", "wide_grants", "deep_expr", "attr_fanout"] {
            let fam: Vec<&E5Row> = rows.iter().filter(|r| r.family == f).collect();
            for w in fam.windows(2) {
                assert!(w[0].nodes <= w[1].nodes, "{f} nodes not monotone");
            }
        }
    }

    #[test]
    fn e6_counts_rows() {
        let rows = e6_engine(&[10, 100]);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].rows <= 10);
        assert!(rows[1].rows <= 100);
    }

    #[test]
    fn e8_containment_chain_holds() {
        let r = e8_containment(15);
        assert_eq!(
            r.ideal_not_finite, 0,
            "the idealized engine must not out-deduce the finite one"
        );
        assert_eq!(r.ideal_not_static, 0, "Theorem 1 over the E8 corpus");
        assert!(r.static_flags >= r.ideal_flags);
    }

    #[test]
    fn e7_full_rules_detect_everything() {
        let rows = e7_ablation();
        let full = &rows[0];
        assert_eq!(full.detected, full.total);
        assert_eq!(full.false_alarms, 0);
        // Each non-guard ablation loses at least one detection.
        for row in &rows[1..] {
            if row.disabled != "feedback_guard" {
                assert!(
                    row.detected < row.total,
                    "disabling {} lost nothing — not load-bearing?",
                    row.disabled
                );
            }
        }
    }
}
