//! The repair advisor and the dynamic guard both run `A(R)` through the one
//! group body (`analyze_caps`). These suites hold each against the way it
//! used to be computed: a cloned schema with the trial capability list
//! installed, analysed by the independent reference engine
//! (`reference::analyze_ref`).

use oodb_engine::Database;
use oodb_lang::{check_schema, parse_query, parse_schema, Requirement, Schema};
use oodb_model::{CapabilityList, FnRef};
use proptest::prelude::*;
use secflow::advisor::{advise, Advice, Repair};
use secflow::algorithm::{AnalysisConfig, AnalysisError};
use secflow::reference::analyze_ref;
use secflow_guard::{GuardError, GuardedSession};
use secflow_workloads::fixtures;
use secflow_workloads::random::{random_case, RandomSpec};

/// `A(R)` for `req` with `caps` installed as its user's list, the old way.
fn violated_ref(schema: &Schema, caps: &CapabilityList, req: &Requirement) -> bool {
    let mut s = schema.clone();
    s.users.insert(req.user.clone(), caps.clone());
    analyze_ref(&s, req, &AnalysisConfig::default())
        .expect("the reference engine completes on these inputs")
        .is_violated()
}

/// The exhaustive minimal-revocation search as it ran before probes went
/// through `analyze_caps`: same sweep, same 512-probe budget, same
/// three-grant cap, every probe on a cloned schema.
fn advise_ref(schema: &Schema, req: &Requirement) -> Result<Advice, AnalysisError> {
    const PROBE_BUDGET: usize = 512;
    const MAX_REVOCATIONS: usize = 3;
    let caps = schema
        .user(&req.user)
        .ok_or_else(|| AnalysisError::UnknownUser(req.user.to_string()))?;
    let probes = std::cell::Cell::new(0usize);
    let run = |list: &CapabilityList| {
        probes.set(probes.get() + 1);
        violated_ref(schema, list, req)
    };
    if !run(caps) {
        return Ok(Advice::AlreadySatisfied);
    }
    if run(&CapabilityList::new()) {
        return Ok(Advice::Unrepairable);
    }
    let grants: Vec<FnRef> = caps.iter().cloned().collect();
    let mut repairs: Vec<Repair> = Vec::new();
    let mut exhausted = false;
    'sizes: for size in 1..=MAX_REVOCATIONS.min(grants.len()) {
        for combo in subsets_of_size(grants.len(), size) {
            if probes.get() >= PROBE_BUDGET {
                exhausted = true;
                break 'sizes;
            }
            let revoke: Vec<FnRef> = combo.iter().map(|&i| grants[i].clone()).collect();
            if repairs
                .iter()
                .any(|r| r.revoke.iter().all(|f| revoke.contains(f)))
            {
                continue;
            }
            let mut trial = caps.clone();
            for f in &revoke {
                trial.revoke(f);
            }
            if !run(&trial) {
                repairs.push(Repair { revoke });
            }
        }
    }
    Ok(match (repairs.is_empty(), exhausted) {
        (true, true) => Advice::BudgetExhausted(Vec::new()),
        (true, false) => Advice::Repairs(vec![Repair { revoke: grants }]),
        (false, true) => Advice::BudgetExhausted(repairs),
        (false, false) => Advice::Repairs(repairs),
    })
}

/// `size`-element index subsets of `0..n` in lexicographic order (the
/// order the advisor enumerates its candidates in).
fn subsets_of_size(n: usize, size: usize) -> Vec<Vec<usize>> {
    let mut all: Vec<Vec<usize>> = (0u32..1 << n)
        .filter(|m| m.count_ones() as usize == size)
        .map(|m| (0..n).filter(|i| m & (1 << i) != 0).collect())
        .collect();
    all.sort();
    all
}

proptest! {
    // The reference engine saturates fully on every probe, which costs
    // seconds on the larger cases in a debug build: 32 seeds keep this
    // suite within the tier-1 budget.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn advise_matches_the_cloned_schema_search(seed in 0u64..1000) {
        let case = random_case(seed, &RandomSpec::default());
        for req in &case.requirements {
            prop_assert_eq!(
                advise(&case.schema, req),
                advise_ref(&case.schema, req),
                "seed {} requirement {}", seed, req
            );
        }
    }
}

/// One select item invoking `f` on the bound object `x`.
fn item(f: &FnRef) -> String {
    match f {
        FnRef::Write(_) => format!("{f}(x, 1)"),
        _ => format!("{f}(x)"),
    }
}

fn query_text(fns: &[FnRef], class: &str) -> String {
    let items: Vec<String> = fns.iter().map(item).collect();
    format!("select {} from x in {class}", items.join(", "))
}

/// Every subset of `caps`, smallest first.
fn subsets(caps: &[FnRef]) -> Vec<Vec<FnRef>> {
    (0..=caps.len())
        .flat_map(|k| subsets_of_size(caps.len(), k))
        .map(|idx| idx.into_iter().map(|i| caps[i].clone()).collect())
        .collect()
}

/// For every flawed user of a fixture, every reachable exercised set `E`
/// and every non-empty query set `Q` drawn from the user's list: the guard
/// denies `Q` exactly when some protected requirement is violated over
/// `E ∪ Q` under the reference engine, naming the first such requirement.
fn guard_matches_reference(schema: Schema, class: &str) {
    check_schema(&schema).expect("fixture checks");
    let mut flawed_users = 0;
    for (user, caps) in &schema.users {
        let protected: Vec<&Requirement> = schema
            .requirements
            .iter()
            .filter(|r| &r.user == user)
            .collect();
        let first_violated = |set: &[FnRef]| {
            let list: CapabilityList = set.iter().cloned().collect();
            protected
                .iter()
                .find(|r| violated_ref(&schema, &list, r))
                .map(|r| r.to_string())
        };
        let grants: Vec<FnRef> = caps.iter().cloned().collect();
        if first_violated(&grants).is_none() {
            continue;
        }
        flawed_users += 1;
        for exercised in subsets(&grants) {
            let mut db = Database::new(schema.clone()).expect("fixture checks");
            let mut session = GuardedSession::open_from_schema(&mut db, user.clone());
            if !exercised.is_empty() {
                let grown = session.query(&query_text(&exercised, class));
                if let Some(req) = first_violated(&exercised) {
                    match grown {
                        Err(GuardError::FlawDenied { requirement, .. }) => {
                            assert_eq!(requirement, req)
                        }
                        other => panic!("{user} {exercised:?}: expected a denial, got {other:?}"),
                    }
                    continue;
                }
                grown.unwrap_or_else(|e| panic!("{user} {exercised:?}: {e}"));
            }
            for query in subsets(&grants).into_iter().filter(|q| !q.is_empty()) {
                let q = parse_query(&query_text(&query, class)).expect("query parses");
                let mut union = exercised.clone();
                union.extend(query.iter().cloned());
                let decision = session.would_allow(&q);
                match (first_violated(&union), decision) {
                    (None, Ok(())) => {}
                    (Some(req), Err(GuardError::FlawDenied { requirement, .. })) => {
                        assert_eq!(requirement, req, "{user} E={exercised:?} Q={query:?}")
                    }
                    (expected, got) => panic!(
                        "{user} E={exercised:?} Q={query:?}: reference {expected:?}, guard {got:?}"
                    ),
                }
            }
        }
    }
    assert!(flawed_users > 0, "the fixture has flawed users");
}

#[test]
fn guard_matches_reference_on_bank() {
    let src = include_str!("../policies/bank.sfl");
    guard_matches_reference(parse_schema(src).expect("policy parses"), "Account");
}

#[test]
fn guard_matches_reference_on_hospital() {
    guard_matches_reference(fixtures::hospital(), "Patient");
}

#[test]
fn guard_matches_reference_on_stockbroker() {
    guard_matches_reference(fixtures::stockbroker(), "Broker");
}
