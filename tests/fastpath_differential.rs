//! Differential testing of the fast-path closure engine against the
//! retained slow-path reference (`secflow::reference`).
//!
//! The fast engine interns terms, uses dense capability tables and an Fx
//! hasher, and skips proof recording on `analyze`; the reference keeps the
//! historical hash-map representation with SipHash and always-on proofs.
//! Both are supposed to run the *same* deterministic traversal, so on every
//! workload the closure term sets, rounds, witnesses and recorded proofs
//! must be identical — not merely equal as sets of verdicts — and every
//! `analyze` verdict (including witness terms inside violations) must
//! match exactly. The engine's prefilters and dirty masks may only skip
//! derive calls that would dedup; these checks are what hold them to it.

use proptest::prelude::*;
use secflow::algorithm::{analyze_with_config, AnalysisConfig};
use secflow::closure::{Closure, ClosureOptions, ProofMode};
use secflow::reference::{analyze_ref, RefClosure};
use secflow::rules::RuleConfig;
use secflow::term::Term;
use secflow::unfold::{ExprId, NProgram};
use secflow_workloads::random::{random_case, RandomSpec};
use secflow_workloads::scale;

/// Both engines on one unfolded program: identical term sets, rounds,
/// per-occurrence witnesses and per-term proofs — and the engine's proofs
/// certify.
fn assert_closures_identical(prog: &NProgram, label: &str) {
    let fast = Closure::compute(prog).unwrap_or_else(|e| panic!("{label}: fast engine: {e}"));
    let slow = RefClosure::compute(prog).unwrap_or_else(|e| panic!("{label}: reference: {e}"));
    assert_eq!(fast.len(), slow.len(), "{label}: term counts differ");
    assert_eq!(fast.rounds(), slow.rounds(), "{label}: rounds differ");
    let mut tf: Vec<Term> = fast.iter().collect();
    let mut ts: Vec<Term> = slow.iter().collect();
    tf.sort();
    ts.sort();
    assert_eq!(tf, ts, "{label}: closure term sets differ");
    for e in 1..=prog.len() as ExprId {
        assert_eq!(
            fast.ti_witness(e),
            slow.ti_witness(e),
            "{label}: ti witness differs at {e}"
        );
        assert_eq!(
            fast.pi_witness(e),
            slow.pi_witness(e),
            "{label}: pi witness differs at {e}"
        );
        assert_eq!(fast.has_ta(e), slow.has_ta(e), "{label}: ta differs at {e}");
        assert_eq!(fast.has_pa(e), slow.has_pa(e), "{label}: pa differs at {e}");
    }
    for t in &tf {
        assert_eq!(
            fast.proof(t),
            slow.proof(t),
            "{label}: proof differs for {t}"
        );
    }
    // Every derivation re-validates against the Table-2 schemas
    // independently of either engine.
    let cert = fast
        .certify(prog, &RuleConfig::default())
        .unwrap_or_else(|e| panic!("{label}: closure fails certification: {e}"));
    assert_eq!(
        cert.terms_checked,
        fast.len(),
        "{label}: certificate covers every term"
    );
}

/// Proof recording must not move the traversal: a membership-only run
/// inserts exactly the proof-carrying run's terms in the same order, with
/// the same rounds and witnesses.
fn assert_proof_modes_identical(prog: &NProgram, label: &str) {
    let full = Closure::compute(prog).unwrap_or_else(|e| panic!("{label}: proofs on: {e}"));
    let off = Closure::compute_with(
        prog,
        &ClosureOptions {
            proofs: ProofMode::Off,
            ..ClosureOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("{label}: proofs off: {e}"));
    assert_eq!(
        full.iter().collect::<Vec<Term>>(),
        off.iter().collect::<Vec<Term>>(),
        "{label}: proof mode changed the insertion order"
    );
    assert_eq!(full.rounds(), off.rounds(), "{label}: rounds differ");
    for e in 1..=prog.len() as ExprId {
        assert_eq!(
            full.ti_witness(e),
            off.ti_witness(e),
            "{label}: ti witness differs at {e}"
        );
        assert_eq!(
            full.pi_witness(e),
            off.pi_witness(e),
            "{label}: pi witness differs at {e}"
        );
    }
}

/// A schema whose probe bodies repeat one subexpression (`r_a0(c) + x`)
/// `reuse` times across `fns` functions: after unfolding, the same shape
/// occurs at many distinct `ExprId`s with cross-occurrence equalities —
/// the case where delta-frontier bookkeeping diverges from full re-firing
/// if a dirty mark is dropped or double-cleared.
fn shared_subexpr_case(fns: usize, reuse: usize, grant_write: bool) -> oodb_lang::Schema {
    use std::fmt::Write as _;
    let mut src = String::from("class C { a0: int, a1: int }\n");
    for i in 0..fns {
        let mut body = String::from("(r_a0(c) + x)");
        for _ in 1..reuse {
            body = format!("({body} + (r_a0(c) + x))");
        }
        writeln!(src, "fn f{i}(x: int, c: C): bool {{ {body} >= {i} }}").unwrap();
    }
    let grants: Vec<String> = (0..fns)
        .map(|i| format!("f{i}"))
        .chain(grant_write.then(|| "w_a0".to_owned()))
        .collect();
    writeln!(src, "user u {{ {} }}", grants.join(", ")).unwrap();
    let schema = oodb_lang::parse_schema(&src).expect("generated schema parses");
    oodb_lang::check_schema(&schema).expect("generated schema checks");
    schema
}

#[test]
fn scale_families_are_engine_identical() {
    let cases = [
        ("call_chain", scale::call_chain(8)),
        ("wide_grants", scale::wide_grants(16)),
        ("deep_expr", scale::deep_expr(4)),
        ("attr_fanout", scale::attr_fanout(8)),
    ];
    let config = AnalysisConfig::default();
    for (label, case) in cases {
        let caps = case.schema.user_str("u").unwrap();
        let prog = NProgram::unfold(&case.schema, caps).unwrap();
        assert_closures_identical(&prog, label);
        assert_proof_modes_identical(&prog, label);
        // End-to-end verdicts agree, witnesses included (Verdict: PartialEq).
        let fast = analyze_with_config(&case.schema, &case.requirement, &config);
        let slow = analyze_ref(&case.schema, &case.requirement, &config);
        assert_eq!(fast, slow, "{label}: verdicts differ");
    }
}

#[test]
fn refiring_heavy_families_are_mode_identical() {
    // The two saturation-experiment families, at sizes past the smoke
    // tier: wide equality fan-out and dense `=`-cliques with multi-origin
    // joint constraints — the workloads the prefilters skip the most
    // derive calls on. Identical to the oracle, and across proof modes.
    for (label, case) in [
        ("wide_grants", scale::wide_grants(24)),
        ("dense_equalities", scale::dense_equalities(6)),
    ] {
        let caps = case.schema.user_str("u").unwrap();
        let prog = NProgram::unfold(&case.schema, caps).unwrap();
        assert_closures_identical(&prog, label);
        assert_proof_modes_identical(&prog, label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random corpus: the interned dense engine and the reference engine
    /// derive byte-identical closures and verdicts.
    #[test]
    fn random_cases_are_engine_identical(seed in 0u64..2000) {
        let case = random_case(seed, &RandomSpec::default());
        let caps = case.schema.user_str(&case.user).unwrap();
        let prog = NProgram::unfold(&case.schema, caps).unwrap();
        let fast = Closure::compute(&prog).unwrap();
        let slow = RefClosure::compute(&prog).unwrap();
        let mut tf: Vec<Term> = fast.iter().collect();
        let mut ts: Vec<Term> = slow.iter().collect();
        tf.sort();
        ts.sort();
        prop_assert_eq!(tf, ts, "closure term sets differ for seed {}", seed);
        prop_assert_eq!(fast.rounds(), slow.rounds());
        let config = AnalysisConfig::default();
        for req in &case.requirements {
            let vf = analyze_with_config(&case.schema, req, &config);
            let vs = analyze_ref(&case.schema, req, &config);
            prop_assert_eq!(&vf, &vs, "verdict differs for seed {} req {}", seed, req);
        }
    }

}

proptest! {
    // Each case saturates the engine twice and the reference once over a
    // shared-subexpression clique; the instances grow fast, so fewer,
    // smaller cases than the random corpus above.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shared-subexpression corpus: one subexpression repeated across
    /// occurrences and functions, shrinkable over repetition count, fan-out
    /// and the write grant — the case where delta bookkeeping diverges from
    /// full re-firing if a dirty mark is dropped or double-cleared. The
    /// engine must agree with the reference engine, proofs included, in
    /// both proof modes.
    #[test]
    fn shared_subexpr_cases_are_engine_and_mode_identical(
        fns in 1usize..3,
        reuse in 1usize..4,
        grant_write in any::<bool>(),
    ) {
        let schema = shared_subexpr_case(fns, reuse, grant_write);
        let caps = schema.user_str("u").unwrap();
        let prog = NProgram::unfold(&schema, caps).unwrap();
        let label = format!("fns={fns} reuse={reuse} grant={grant_write}");
        assert_closures_identical(&prog, &label);
        assert_proof_modes_identical(&prog, &label);
    }
}
