//! The experiment harness: regenerates the paper's artefacts (E1–E8) and
//! holds the deterministic gates of the engine experiments. It prints
//! tables to stdout and writes no files; wall-clock timing of the user
//! paths, layer by layer, is perfbench's job (`python3 perfbench/run.py`).
//!
//! ```text
//! cargo run -p secflow-bench --release --bin harness                         # all
//! cargo run -p secflow-bench --release --bin harness -- e1 e3                # subset
//! cargo run -p secflow-bench --release --bin harness -- e3=500               # corpus size
//! cargo run -p secflow-bench --release --bin harness -- saturation --smoke   # CI-sized
//! ```
//!
//! The gated experiments (`--smoke` shrinks each to CI-sized instances):
//!
//! * `saturation` — closure time and derive attempts on the re-firing-heavy
//!   families (`wide_grants`, `dense_equalities`); every row asserts its
//!   attempts, total and per rule, stay within the pinned ceilings, and
//!   every row the reference engine can afford asserts identity with it.
//! * `certify` — proof-carrying analysis time against the independent proof
//!   checker's, asserting certificate completeness and `certify ≤ 2×
//!   analyze` per row.
//! * `population` — streamed Zipf-population throughput (closure-cache hit
//!   rate, steals, evictions) and the work-stealing critical path on the
//!   clustered-giants skew against the static seed partition's; full runs
//!   assert the >99% hit rate and the ≥1.5× stealing speedup.
//! * `incremental` — grant/revoke maintenance against from-scratch
//!   recomputation on the `edit_trace` family, asserting per-edit term-set
//!   identity; full runs also assert ≥1.5× on the largest dense row.
//!
//! An unknown experiment name or flag prints the valid ones on stderr and
//! exits 2.

use secflow_bench::*;

/// Every experiment name, in run order. `e3` and `e4` share one run;
/// `tables` runs only when named.
const EXPERIMENTS: &[&str] = &[
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "e6",
    "e7",
    "e8",
    "tables",
    "saturation",
    "certify",
    "population",
    "incremental",
];

/// What one invocation runs.
struct Plan {
    /// The experiments named on the command line; none named runs every
    /// experiment but `tables`.
    named: Vec<&'static str>,
    /// CI-sized instances for the gated experiments.
    smoke: bool,
    /// Random policies in the E3/E4 corpus (`e3=N`).
    e3_cases: usize,
    /// Random policies in the E8 corpus (`e8=N`).
    e8_cases: usize,
}

impl Plan {
    fn wants(&self, name: &str) -> bool {
        if self.named.is_empty() {
            name != "tables"
        } else {
            self.named.contains(&name)
        }
    }
}

/// Parse the harness arguments: experiment names (`e3=N` and `e8=N` set a
/// corpus size) and the `--smoke` flag. Anything else is an error.
fn parse_args(args: &[String]) -> Result<Plan, String> {
    let mut plan = Plan {
        named: Vec::new(),
        smoke: false,
        e3_cases: 500,
        e8_cases: 60,
    };
    for arg in args {
        if arg == "--smoke" {
            plan.smoke = true;
            continue;
        }
        let (name, count) = match arg.split_once('=') {
            Some((name, count)) => (name, Some(count)),
            None => (arg.as_str(), None),
        };
        let Some(&name) = EXPERIMENTS.iter().find(|&&e| e == name) else {
            return Err(format!("unknown experiment or flag `{arg}`"));
        };
        if let Some(count) = count {
            let n = count
                .parse()
                .map_err(|_| format!("`{arg}`: the case count must be a number"))?;
            match name {
                "e3" => plan.e3_cases = n,
                "e8" => plan.e8_cases = n,
                _ => return Err(format!("`{name}` takes no case count")),
            }
        }
        plan.named.push(name);
    }
    Ok(plan)
}

fn usage() -> String {
    format!(
        "usage: harness [EXPERIMENT...] [--smoke]\nexperiments: {} (e3=N and e8=N set the corpus size)",
        EXPERIMENTS.join(" ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("harness: {e}");
        eprintln!("{}", usage());
        std::process::exit(2);
    });
    if plan.wants("e1") {
        run_e1();
    }
    if plan.wants("e2") {
        run_e2();
    }
    if plan.wants("e3") || plan.wants("e4") {
        run_e3_e4(plan.e3_cases);
    }
    if plan.wants("e5") {
        run_e5();
    }
    if plan.wants("e6") {
        run_e6();
    }
    if plan.wants("e7") {
        run_e7();
    }
    if plan.wants("e8") {
        run_e8(plan.e8_cases);
    }
    if plan.wants("tables") {
        run_tables();
    }
    if plan.wants("saturation") {
        run_saturation(plan.smoke);
    }
    if plan.wants("certify") {
        run_certify(plan.smoke);
    }
    if plan.wants("population") {
        run_population(plan.smoke);
    }
    if plan.wants("incremental") {
        run_incremental(plan.smoke);
    }
}

fn banner(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

fn run_e1() {
    banner("E1 — Figure 1: derivation of the stockbroker flaw");
    let f = e1_figure1();
    println!("S'(F) for clerk = {{checkBudget, w_budget}}:");
    for u in &f.unfolded {
        println!("  {u}");
    }
    println!();
    println!("judgments of the paper's Figure 1:");
    for (j, ok) in &f.judgments {
        println!("  [{}] {}", if *ok { "ok" } else { "MISSING" }, j);
    }
    println!();
    println!("machine-checked derivation of the goal:");
    print!("{}", f.derivation);
    println!();
    println!("A(R) phases on the clerk's program (mean of {E1_REPS} runs):");
    println!("{:<10} {:>10}", "phase", "time (us)");
    for (phase, us) in &f.phase_micros {
        println!("{phase:<10} {us:>10.2}");
    }
}

fn run_e2() {
    banner("E2 — running examples (flawed policies flagged, repairs pass)");
    println!(
        "{:<12} {:<46} {:>8} {:>8} {:>6}",
        "scenario", "requirement", "expected", "got", "match"
    );
    for r in e2_running_examples() {
        println!(
            "{:<12} {:<46} {:>8} {:>8} {:>6}",
            r.scenario,
            r.requirement,
            if r.expected_flaw { "flaw" } else { "ok" },
            if r.got_flaw { "flaw" } else { "ok" },
            if r.expected_flaw == r.got_flaw {
                "yes"
            } else {
                "NO"
            },
        );
    }
}

fn run_e3_e4(cases: usize) {
    banner(&format!(
        "E3/E4 — differential soundness & pessimism ({cases} random policies, 2 requirements each)"
    ));
    let report = e3_e4_differential(cases);
    print!("{report}");
    println!(
        "soundness (Theorem 1): {}",
        if report.is_sound() {
            "HOLDS (0 dynamic-only cases)"
        } else {
            "VIOLATED — see cases below"
        }
    );
    for v in &report.violations {
        println!(
            "  !! seed {}: {} — {:?}",
            v.seed, v.case.requirement, v.case.witness
        );
        for line in v.schema.lines() {
            println!("     {line}");
        }
    }
}

fn run_e5() {
    banner("E5 — closure scaling (A(R) = unfold + closure + check)");
    println!(
        "{:<12} {:>6} {:>8} {:>10} {:>12}",
        "family", "param", "nodes", "terms", "time (us)"
    );
    for r in e5_scaling() {
        println!(
            "{:<12} {:>6} {:>8} {:>10} {:>12}",
            r.family, r.param, r.nodes, r.terms, r.micros
        );
    }
}

fn run_e6() {
    banner("E6 — engine probe-query throughput");
    println!(
        "{:>10} {:>10} {:>12} {:>14}",
        "objects", "rows", "time (us)", "objs/ms"
    );
    for r in e6_engine(&[10, 100, 1_000, 10_000]) {
        let per_ms = if r.micros == 0 {
            f64::INFINITY
        } else {
            r.objects as f64 * 1000.0 / r.micros as f64
        };
        println!(
            "{:>10} {:>10} {:>12} {:>14.1}",
            r.objects, r.rows, r.micros, per_ms
        );
    }
}

fn run_e8(cases: usize) {
    banner(&format!(
        "E8 — inferability deciders: idealized ⊆ finite-I(E), idealized ⊆ A(R) ({cases} cases)"
    ));
    let r = e8_containment(cases);
    println!("cases                : {}", r.cases);
    println!(
        "finite I(E) realises : {}  (bounded Table-1 engine)",
        r.finite_flags
    );
    println!(
        "idealized realises   : {}  (Z-valid deductions)",
        r.ideal_flags
    );
    println!("A(R) flags           : {}", r.static_flags);
    println!(
        "idealized \\ finite   : {}  (must be 0)",
        r.ideal_not_finite
    );
    println!(
        "idealized \\ A(R)     : {}  (must be 0 — Theorem 1)",
        r.ideal_not_static
    );
    println!(
        "finite \\ A(R)        : {}  (finite-domain truncation artefacts)",
        r.finite_artifacts
    );
}

fn run_tables() {
    banner("Table 2 (reconstructed) — the rules of F(F)");
    println!("structural axioms and rules (see secflow::rules for the");
    println!("reconstruction notes):");
    println!("  -> ta[x]                         x an outer argument variable");
    println!("  -> ti[c, l, +]                   basic-typed constants");
    println!("  -> ti[x, l, +]                   basic-typed outer arguments");
    println!("  -> ti[e, 0, -]                   observed results (outer body/read)");
    println!("  -> =[x1, x2]                     outer argument variables, same type");
    println!("  -> =[z, e]                       let-bound occurrence and binding");
    println!("  -> =[e, let ... in e end]");
    println!("  =[e1,e2], =[e2,e3] -> =[e1,e3]   (symmetry is structural)");
    println!("  =[e1,e2] -> =[r_att(e1), r_att(e2)]");
    println!("  =[e1,e2] -> =[e3, r_att(e2)]     when w_att(e1, e3) in S'(F)");
    println!("  =[n,e2]  -> =[a_j, r_att_j(e2)]  when n = new C(..., a_j, ...)");
    println!("  ta[e] -> pa[e]    ti[e,n,d] -> pi[e,n,d]");
    println!("  =[e1,e2] + any capability on e1 -> same capability on e2");
    println!("  ta/pa[recv] -> pa[r_att(recv)]   receiver alterability");
    println!("  pi[e,n1,d1], pi[e,n2,d2] -> ti[e,n2,d2]        (n1,d1) != (n2,d2)");
    println!("  pi*[(a,b),n1,d1], pi*[(b,c),n2,d2] -> pi*[(a,c),n1,d1]");
    println!("  =[e1,e2] -> pi*[(e1,e2), 0, +]");
    println!("  =[e1,e2], pi*[(e1,e2),n,d] -> pi[e1,n,d], pi[e2,n,d]   (n,d) != axiom");
    println!("  =[e1,e2], ti/pi[e1 (+|*|++) e2] -> ti/pi[e1], ti/pi[e2]  (diagonal)");
    println!();
    println!("per-basic-function rules (generated by the §4.1 metarules):");
    println!();
    for op in oodb_lang::BasicOp::ALL {
        print!("{}", secflow::basics::render_rules(op));
        println!();
    }
}

fn run_saturation(smoke: bool) {
    banner(&format!(
        "saturation — closure time and derive attempts against pinned ceilings{}",
        if smoke { " (smoke sizes)" } else { "" }
    ));
    println!(
        "{:<16} {:>6} {:>6} {:>9} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "family",
        "param",
        "nodes",
        "terms",
        "time (us)",
        "terms/sec",
        "derives",
        "ceiling",
        "identical"
    );
    let rows = saturation_engine(smoke);
    for r in &rows {
        println!(
            "{:<16} {:>6} {:>6} {:>9} {:>10} {:>12.0} {:>12} {:>12} {:>10}",
            r.family,
            r.param,
            r.nodes,
            r.terms,
            r.micros,
            r.terms_per_sec(),
            r.derives,
            r.derive_ceiling
                .map_or_else(|| "-".to_owned(), |c| c.to_string()),
            match r.identical {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "-",
            },
        );
        // Identity with the reference engine — term set, rounds,
        // witnesses, proofs — on every row it can afford.
        assert_ne!(
            r.identical,
            Some(false),
            "{}/{}: closure diverged from the reference engine",
            r.family,
            r.param
        );
        // Derive attempts are deterministic: more than the pinned count,
        // in total or for any rule, is a prefilter or dirty-mask
        // regression.
        assert!(
            r.within_ceilings(),
            "{}/{}: derive attempts exceed the pinned ceilings",
            r.family,
            r.param
        );
    }
    if let Some(last) = rows.last() {
        println!();
        println!(
            "per-rule derive attempts, {}({}) — attempted vs derived-new:",
            last.family, last.param
        );
        println!(
            "{:<44} {:>12} {:>12} {:>10}",
            "rule", "fired", "ceiling", "new"
        );
        for rule in last.rules.iter().take(8) {
            println!(
                "{:<44} {:>12} {:>12} {:>10}",
                rule.label,
                rule.attempts,
                rule.ceiling
                    .map_or_else(|| "-".to_owned(), |c| c.to_string()),
                rule.new_terms
            );
        }
    }
}

fn run_certify(smoke: bool) {
    banner(&format!(
        "certify — independent proof checker vs proof-carrying analysis{}",
        if smoke { " (smoke sizes)" } else { "" }
    ));
    println!(
        "{:<16} {:>6} {:>8} {:>8} {:>8} {:>12} {:>12} {:>9} {:>9}",
        "family",
        "param",
        "nodes",
        "terms",
        "axioms",
        "analyze (us)",
        "certify (us)",
        "overhead",
        "complete"
    );
    let rows = certify_overhead(smoke);
    for r in &rows {
        println!(
            "{:<16} {:>6} {:>8} {:>8} {:>8} {:>12} {:>12} {:>8.2}x {:>9}",
            r.family,
            r.param,
            r.nodes,
            r.terms,
            r.axioms,
            r.analyze_micros,
            r.certify_micros,
            r.overhead(),
            if r.complete { "yes" } else { "NO" },
        );
        assert!(
            r.complete,
            "{}/{}: certificate does not cover the closure",
            r.family, r.param
        );
        // Acceptance bound: re-checking proofs must cost at most 2× the
        // proof-carrying analysis itself (small floor for timer noise on
        // sub-millisecond instances).
        assert!(
            r.certify_micros <= 2 * r.analyze_micros || r.certify_micros < 2_000,
            "{}/{}: certify {}us exceeds 2x analyze {}us",
            r.family,
            r.param,
            r.certify_micros,
            r.analyze_micros
        );
    }
    println!();
    println!("every closure re-validated by the checker; `complete` asserts the");
    println!("certificate accounts for every recorded term (axioms + derived).");
}

fn run_population(smoke: bool) {
    banner(&format!(
        "population — streamed Zipf batches and the skewed-batch critical path{}",
        if smoke { " (smoke sizes)" } else { "" }
    ));
    println!(
        "{:<12} {:>12} {:>10} {:>6} {:>12} {:>14} {:>9} {:>8} {:>10}",
        "users",
        "fingerprints",
        "peak group",
        "jobs",
        "wall (us)",
        "verdicts/sec",
        "hit rate",
        "steals",
        "evictions"
    );
    let rows = population_throughput(smoke);
    for r in &rows {
        println!(
            "{:<12} {:>12} {:>10} {:>6} {:>12} {:>14.0} {:>8.2}% {:>8} {:>10}",
            r.users,
            r.fingerprints,
            r.peak_group,
            r.jobs,
            r.micros,
            r.verdicts_per_sec(),
            100.0 * r.hit_rate(),
            r.steals,
            r.cache_evictions,
        );
        if !smoke {
            // Acceptance: the million-user Zipf batch collapses onto its
            // fingerprints — hit rate above 99%.
            assert!(
                r.hit_rate() > 0.99,
                "{} users: hit rate {:.4} below the 99% bar",
                r.users,
                r.hit_rate()
            );
        }
    }

    let skew = skew_critical_paths(smoke);
    println!();
    println!(
        "clustered giants ({} users, {} giants of width {} in worker 0's chunk, tiny width {}, jobs {}):",
        skew.users, skew.giants, skew.giant_width, skew.tiny_width, skew.jobs
    );
    println!(
        "  critical path: seed chunks {:>9} us   work-stealing {:>9} us   speedup {:.2}x   steals {}",
        skew.fixed_critical_micros,
        skew.stealing_critical_micros,
        skew.speedup(),
        skew.steals
    );
    println!(
        "  measured wall: work-stealing {:>9} us   (degenerates to total work on a core-starved host)",
        skew.stealing_wall_micros
    );
    if !smoke {
        // Acceptance: stealing beats the static seed partition by >= 1.5x
        // on the clustered-giants skew at --jobs 8. Both scores are
        // critical paths over per-group serial costs (the wall time on one
        // core per worker): the stealing one over the recorded worker
        // assignment, the static one over the pool's contiguous seed
        // chunks — the schedule-sensitive quantity that raw wall time
        // stops being once the host timeshares the workers.
        assert!(
            skew.speedup() >= 1.5,
            "work-stealing speedup {:.2}x below the 1.5x bar",
            skew.speedup()
        );
    }
    println!();
    println!("streamed verdicts buffer nothing per-group; the cache hit rate is");
    println!("the fraction of users served from an already-saturated fingerprint.");
}

fn run_incremental(smoke: bool) {
    banner(&format!(
        "incremental — grant/revoke maintenance vs from-scratch recompute{}",
        if smoke { " (smoke sizes)" } else { "" }
    ));
    println!(
        "{:<8} {:>6} {:>5} {:>6} {:>7} {:>9} {:>11} {:>12} {:>8} {:>9} {:>9} {:>10}",
        "family",
        "width",
        "core",
        "edits",
        "nodes",
        "terms",
        "incr (us)",
        "scratch (us)",
        "speedup",
        "deleted",
        "rederived",
        "identical"
    );
    let rows = incremental_maintenance(smoke);
    for r in &rows {
        println!(
            "{:<8} {:>6} {:>5} {:>6} {:>7} {:>9} {:>11} {:>12} {:>7.2}x {:>9} {:>9} {:>10}",
            r.family,
            r.width,
            r.core,
            r.edits,
            r.nodes,
            r.terms,
            r.incremental_micros,
            r.scratch_micros,
            r.speedup(),
            r.deleted,
            r.rederived,
            if r.identical { "yes" } else { "NO" },
        );
    }
    for r in &rows {
        // Per-row from-scratch identity: every edit's maintained closure
        // was compared term-for-term against a fresh saturation.
        assert!(
            r.identical,
            "{} edit_trace({},{}): maintained closure diverged from scratch",
            r.family, r.width, r.core
        );
        // Full runs pin the maintenance win where it is largest: small
        // edits against the biggest dense closure (core >= 20) are
        // maintained at least 1.5x faster than recomputing it. The
        // engine's derive prefilters already skip most of the recompute
        // attempt storm, and maintenance still re-unfolds and re-absorbs
        // the whole closure per edit, so the ratio sits near 2x; the
        // smaller dense rows and the absorb-bound sparse floor (where
        // break-even is the honest result) are reported only. Smoke sizes
        // are too small for stable ratios, so CI checks identity only.
        if !smoke && r.family == "dense" && r.core >= 20 {
            assert!(
                r.speedup() >= 1.5,
                "dense edit_trace({},{}): maintenance speedup {:.2}x fell below 1.5x",
                r.width,
                r.core,
                r.speedup()
            );
        }
    }
}

fn run_e7() {
    banner("E7 — rule-group ablation over the fixture requirements");
    println!(
        "{:<20} {:>10} {:>14} {:>10}",
        "disabled group", "detected", "false alarms", "time (us)"
    );
    for r in e7_ablation() {
        println!(
            "{:<20} {:>6}/{:<3} {:>14} {:>10}",
            r.disabled, r.detected, r.total, r.false_alarms, r.micros
        );
    }
    println!("(time: every fixture requirement analysed once, best of {E7_REPS})");
    println!();
    println!("every group except the feedback guard is load-bearing for");
    println!("detection; removing the guard instead adds false alarms.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Plan, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn unknown_names_and_flags_are_rejected() {
        for args in [
            &["bogus"][..],
            &["fastpath", "--smoke"],
            &["demand"],
            &["audit"],
            &["e1", "--no-obs"],
            &["e9"],
            &["e1=3"],
            &["e3=many"],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
        // The rejection message lists every valid experiment.
        let text = usage();
        for name in EXPERIMENTS {
            assert!(text.contains(name), "{name} missing from usage");
        }
    }

    #[test]
    fn named_experiments_and_corpus_sizes_parse() {
        let plan = parse(&["e3=50", "e8=20", "saturation", "--smoke"]).unwrap();
        assert_eq!(plan.named, ["e3", "e8", "saturation"]);
        assert!(plan.smoke);
        assert_eq!((plan.e3_cases, plan.e8_cases), (50, 20));
        assert!(plan.wants("e3") && !plan.wants("e1") && !plan.wants("tables"));
    }

    #[test]
    fn no_names_run_everything_but_tables() {
        let plan = parse(&["--smoke"]).unwrap();
        for name in EXPERIMENTS {
            assert_eq!(plan.wants(name), *name != "tables", "{name}");
        }
        assert!(parse(&["tables"]).unwrap().wants("tables"));
    }
}
