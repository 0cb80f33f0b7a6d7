//! Differential soundness (experiment E3 in miniature): across a seeded
//! corpus of random policies, every capability the bounded concrete
//! attacker realises must have been flagged by `A(R)` — Theorem 1.
//!
//! Plus mutation testing of the certifying proof checker: corrupting any
//! recorded derivation must make [`Closure::certify`] fail with a
//! structured [`CheckError`] naming the bad step — no corruption may slip
//! through as a valid certificate.

use secflow::checker::CheckError;
use secflow::closure::Closure;
use secflow::rules::RuleConfig;
use secflow::term::Term;
use secflow::unfold::NProgram;
use secflow_dynamic::differential::{classify, DiffOutcome, DiffReport};
use secflow_dynamic::strategy::StrategySpec;
use secflow_dynamic::AttackerConfig;
use secflow_workloads::random::{random_case, RandomSpec};

fn config() -> AttackerConfig {
    AttackerConfig {
        strategies: StrategySpec {
            max_steps: 2,
            max_assignments: 2048,
            max_shapes: 64,
            ..StrategySpec::default()
        },
        ..AttackerConfig::default()
    }
}

#[test]
fn no_dynamic_only_cases_in_corpus() {
    let spec = RandomSpec::default();
    let cfg = config();
    let mut report = DiffReport::default();
    for seed in 0..120u64 {
        let case = random_case(seed, &spec);
        for req in &case.requirements {
            let res = classify(&case.schema, req, &cfg);
            if let Ok(c) = &res {
                assert_ne!(
                    c.outcome,
                    DiffOutcome::DynamicOnly,
                    "SOUNDNESS VIOLATION seed {seed}: {} ({:?})",
                    c.requirement,
                    c.witness
                );
            }
            report.record(seed, &case.schema, res);
        }
    }
    // The corpus must be non-trivial: some true positives and some
    // negatives, or the test proves nothing.
    assert!(report.both > 0, "corpus has no realised flaws: {report}");
    assert!(report.neither > 0, "corpus has no safe cases: {report}");
    assert!(report.is_sound());
}

/// The paper's stockbroker fixture, unfolded for the flawed clerk.
fn clerk_program() -> NProgram {
    let schema = oodb_lang::parse_schema(
        r#"
        class Broker { name: string, salary: int, budget: int, profit: int }
        fn checkBudget(broker: Broker): bool {
          r_budget(broker) >= 10 * r_salary(broker)
        }
        user clerk { checkBudget, w_budget }
        "#,
    )
    .unwrap();
    oodb_lang::check_schema(&schema).unwrap();
    let caps = schema.user_str("clerk").unwrap();
    NProgram::unfold(&schema, caps).unwrap()
}

/// Mutation sweep: for *every* term of the closure, corrupt its derivation
/// by making the term its own (only) premise. No rule of Table 2 admits
/// its conclusion among the premises in that slot, so each mutant must be
/// rejected — as a malformed step or, if the shape happens to fit, as a
/// proof cycle. The original derivation is restored before the next mutant
/// so exactly one corruption is live at a time.
#[test]
fn every_corrupted_derivation_is_rejected() {
    let prog = clerk_program();
    let cfg = RuleConfig::default();
    let mut closure = Closure::compute(&prog).unwrap();
    closure
        .certify(&prog, &cfg)
        .expect("pristine closure certifies");
    let terms: Vec<Term> = closure.iter().collect();
    assert!(!terms.is_empty());
    for t in &terms {
        let orig = closure.proof(t).expect("every term has a proof").clone();
        assert!(closure.replace_proof(t, orig.rule, vec![*t]));
        let err = closure
            .certify(&prog, &cfg)
            .expect_err(&format!("self-premise mutant of {t} certified"));
        match &err {
            CheckError::BadStep { term, .. } => assert_eq!(term, t, "wrong step blamed"),
            CheckError::Cyclic { .. } => {}
            other => panic!("mutant of {t}: unexpected error class {other}"),
        }
        assert!(closure.replace_proof(t, orig.rule, orig.premises.clone()));
    }
    // All mutants restored: the closure certifies again.
    closure
        .certify(&prog, &cfg)
        .expect("restored closure certifies");
}

/// Targeted corruptions hit each structured error class by name.
#[test]
fn corruption_classes_map_to_structured_errors() {
    let prog = clerk_program();
    let cfg = RuleConfig::default();

    // A derived (non-axiom) term relabelled as an axiom: BadStep naming it.
    let mut c = Closure::compute(&prog).unwrap();
    let derived = c
        .iter()
        .find(|t| !c.proof(t).unwrap().premises.is_empty() || matches!(t, Term::Pa(_)))
        .expect("closure has a derived term");
    assert!(c.replace_proof(&derived, "axiom", vec![]));
    match c.certify(&prog, &cfg).unwrap_err() {
        CheckError::BadStep { term, .. } => assert_eq!(term, derived),
        other => panic!("expected BadStep, got {other}"),
    }

    // A premise outside the closure: DanglingPremise naming both terms.
    let mut c = Closure::compute(&prog).unwrap();
    let ghost = Term::Ta(9_999);
    assert!(!c.contains(&ghost));
    let victim = c.iter().next().unwrap();
    let rule = c.proof(&victim).unwrap().rule;
    assert!(c.replace_proof(&victim, rule, vec![ghost]));
    match c.certify(&prog, &cfg).unwrap_err() {
        CheckError::DanglingPremise { term, premise } => {
            assert_eq!(term, victim);
            assert_eq!(premise, ghost);
        }
        other => panic!("expected DanglingPremise, got {other}"),
    }

    // A two-term proof cycle between equal-shaped steps: Cyclic (or the
    // step check fires first — either way certification fails).
    let mut c = Closure::compute(&prog).unwrap();
    let eqs: Vec<Term> = c
        .iter()
        .filter(|t| matches!(t, Term::Eq(_, _)))
        .take(2)
        .collect();
    if let [a, b] = eqs[..] {
        let (ra, rb) = (c.proof(&a).unwrap().rule, c.proof(&b).unwrap().rule);
        assert!(c.replace_proof(&a, ra, vec![b]));
        assert!(c.replace_proof(&b, rb, vec![a]));
        assert!(
            c.certify(&prog, &cfg).is_err(),
            "cyclic proof pair certified"
        );
    }
}

#[test]
fn deeper_probes_stay_sound_on_small_corpus() {
    let spec = RandomSpec {
        attrs: 2,
        functions: 2,
        depth: 1,
        ..RandomSpec::default()
    };
    let cfg = AttackerConfig {
        strategies: StrategySpec {
            max_steps: 3,
            max_assignments: 4096,
            max_shapes: 128,
            ..StrategySpec::default()
        },
        ..AttackerConfig::default()
    };
    for seed in 1000..1020u64 {
        let case = random_case(seed, &spec);
        for req in &case.requirements {
            if let Ok(c) = classify(&case.schema, req, &cfg) {
                assert_ne!(
                    c.outcome,
                    DiffOutcome::DynamicOnly,
                    "seed {seed}: {} ({:?})",
                    c.requirement,
                    c.witness
                );
            }
        }
    }
}
