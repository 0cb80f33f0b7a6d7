//! Policy repair: which grants to revoke to satisfy a violated requirement.
//!
//! The paper's §4.2 example ends with the observation that the repaired
//! policy keeps `checkBudget` and drops `w_budget` — the *useful* function
//! survives, the *enabling* one goes. This module mechanises that step:
//! for a violated requirement it searches for **minimal revocation sets** —
//! inclusion-minimal subsets of the user's capability list whose removal
//! makes `A(R)` report *satisfied*.
//!
//! Because `A(R)` is monotone in the capability list (granting more can
//! only add violations — property P8), the satisfied region is downward
//! closed and minimal revocation sets are well-defined. The search is a
//! breadth-first sweep over revocation-set size, with two pruning rules:
//!
//! * a revocation set is only interesting if it intersects every
//!   previously-found minimal set's *complement*… more simply: supersets
//!   of known repairs are skipped;
//! * sizes are tried in increasing order, so every reported set is
//!   inclusion-minimal.
//!
//! Capability lists are small (this is a per-user policy review, not a
//! search over the schema), so the exponential worst case is irrelevant in
//! practice; a budget caps pathological inputs.

use crate::algorithm::{analyze_caps, AnalysisConfig, AnalysisError};
use oodb_lang::requirement::Requirement;
use oodb_lang::Schema;
use oodb_model::{CapabilityList, FnRef};

/// One repair option: revoke exactly these grants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Repair {
    /// The grants to revoke (inclusion-minimal).
    pub revoke: Vec<FnRef>,
}

impl std::fmt::Display for Repair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "revoke {{")?;
        for (i, r) in self.revoke.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

/// Advisor outcome for one requirement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Advice {
    /// The requirement is already satisfied — nothing to do.
    AlreadySatisfied,
    /// Minimal revocation sets, smallest first.
    Repairs(Vec<Repair>),
    /// No subset of revocations helps (the flaw survives even an empty
    /// capability list — only possible for vacuous or special-target
    /// requirements).
    Unrepairable,
    /// The search budget was exhausted before completing the sweep; the
    /// repairs found so far are still valid.
    BudgetExhausted(Vec<Repair>),
}

/// Maximum number of `A(R)` probes per requirement.
const PROBE_BUDGET: usize = 512;
/// Largest revocation set considered.
const MAX_REVOCATIONS: usize = 3;

/// Find minimal revocation sets for `req` against `schema`. Each probe is
/// one [`analyze_caps`] call on the trial capability list, under the
/// default analysis configuration.
///
/// ```
/// use oodb_lang::{check_schema, parse_requirement, parse_schema};
/// use secflow::advisor::{advise, Advice};
/// use oodb_model::FnRef;
///
/// let schema = parse_schema(r#"
///     class Broker { salary: int, budget: int }
///     fn checkBudget(b: Broker): bool { r_budget(b) >= 10 * r_salary(b) }
///     user clerk { checkBudget, w_budget }
/// "#).unwrap();
/// check_schema(&schema).unwrap();
///
/// let req = parse_requirement("(clerk, r_salary(x) : ti)").unwrap();
/// match advise(&schema, &req).unwrap() {
///     Advice::Repairs(repairs) => {
///         // The paper's own repair: drop the budget write.
///         assert!(repairs.iter().any(|r| r.revoke == vec![FnRef::write("budget")]));
///     }
///     other => panic!("expected repairs, got {other:?}"),
/// }
/// ```
pub fn advise(schema: &Schema, req: &Requirement) -> Result<Advice, AnalysisError> {
    let caps = schema
        .user(&req.user)
        .ok_or_else(|| AnalysisError::UnknownUser(req.user.to_string()))?;
    let config = AnalysisConfig::default();
    let probes = std::cell::Cell::new(0usize);
    let run = |list: &CapabilityList| -> Result<bool, AnalysisError> {
        probes.set(probes.get() + 1);
        let verdicts = analyze_caps(schema, list, std::slice::from_ref(req), &config)?;
        Ok(verdicts[0].is_violated())
    };

    if !run(caps)? {
        return Ok(Advice::AlreadySatisfied);
    }
    // If even revoking everything does not help, give up early.
    if run(&CapabilityList::new())? {
        return Ok(Advice::Unrepairable);
    }

    let grants: Vec<FnRef> = caps.iter().cloned().collect();
    let mut repairs: Vec<Repair> = Vec::new();
    let mut exhausted = false;

    'sizes: for size in 1..=MAX_REVOCATIONS.min(grants.len()) {
        for combo in combinations(grants.len(), size) {
            if probes.get() >= PROBE_BUDGET {
                exhausted = true;
                break 'sizes;
            }
            let revoke: Vec<FnRef> = combo.iter().map(|&i| grants[i].clone()).collect();
            // Skip supersets of already-found repairs (not minimal).
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
            if !run(&trial)? {
                repairs.push(Repair { revoke });
            }
        }
    }

    if repairs.is_empty() {
        // Nothing within MAX_REVOCATIONS; the full revocation works but is
        // not minimal within the budget.
        if exhausted {
            Ok(Advice::BudgetExhausted(Vec::new()))
        } else {
            Ok(Advice::Repairs(vec![Repair { revoke: grants }]))
        }
    } else if exhausted {
        Ok(Advice::BudgetExhausted(repairs))
    } else {
        Ok(Advice::Repairs(repairs))
    }
}

/// All `size`-element index combinations of `0..n`, lexicographic.
fn combinations(n: usize, size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if size > n {
        return out;
    }
    let mut idx: Vec<usize> = (0..size).collect();
    loop {
        out.push(idx.clone());
        // Advance.
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - size {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in i + 1..size {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_lang::{parse_requirement, parse_schema};

    fn schema() -> Schema {
        let s = parse_schema(
            r#"
            class Broker { name: string, salary: int, budget: int, profit: int }
            fn calcSalary(budget: int, profit: int): int { budget / 10 + profit / 2 }
            fn checkBudget(b: Broker): bool { r_budget(b) >= 10 * r_salary(b) }
            fn updateSalary(b: Broker): null {
              w_salary(b, calcSalary(r_budget(b), r_profit(b)))
            }
            user clerk { checkBudget, w_budget, r_name }
            user reader { r_salary, r_name }
            "#,
        )
        .unwrap();
        oodb_lang::check_schema(&s).unwrap();
        s
    }

    #[test]
    fn combinations_enumerate() {
        assert_eq!(combinations(3, 1), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(combinations(3, 2), vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
        assert_eq!(combinations(2, 3), Vec::<Vec<usize>>::new());
        assert_eq!(combinations(4, 4), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn clerk_repair_is_the_papers_repair() {
        // The paper's fix: drop w_budget, keep checkBudget (and r_name).
        let s = schema();
        let req = parse_requirement("(clerk, r_salary(x) : ti)").unwrap();
        let advice = advise(&s, &req).unwrap();
        match advice {
            Advice::Repairs(repairs) => {
                // Minimal single revocations: w_budget alone or checkBudget
                // alone both break the chain; both are size-1 minimal.
                assert!(repairs
                    .iter()
                    .any(|r| r.revoke == vec![FnRef::write("budget")]));
                assert!(repairs
                    .iter()
                    .any(|r| r.revoke == vec![FnRef::access("checkBudget")]));
                // r_name alone does nothing.
                assert!(!repairs
                    .iter()
                    .any(|r| r.revoke == vec![FnRef::read("name")]));
                // All reported repairs are size 1 (minimality).
                assert!(repairs.iter().all(|r| r.revoke.len() == 1));
            }
            other => panic!("expected repairs, got {other:?}"),
        }
    }

    #[test]
    fn satisfied_requirement_needs_nothing() {
        let s = schema();
        let req = parse_requirement("(clerk, r_name(x) : ti)").unwrap();
        // r_name is granted… so this IS violated (direct grant). Use a
        // requirement the clerk really satisfies:
        let _ = req;
        let req = parse_requirement("(clerk, w_salary(x, v: ta))").unwrap();
        let advice = advise(&s, &req).unwrap();
        assert_eq!(advice, Advice::AlreadySatisfied);
    }

    #[test]
    fn direct_grant_repairs_to_revoking_it() {
        let s = schema();
        let req = parse_requirement("(reader, r_salary(x) : ti)").unwrap();
        let advice = advise(&s, &req).unwrap();
        match advice {
            Advice::Repairs(repairs) => {
                assert_eq!(
                    repairs,
                    vec![Repair {
                        revoke: vec![FnRef::read("salary")]
                    }]
                );
            }
            other => panic!("expected repairs, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // checkBudget, w_budget and 20 irrelevant reads: 2 + 22 + 190 probes
        // by size 2 (supersets of the two size-1 repairs are skipped), then
        // 1 140 size-3 candidates — more than the 512-probe budget allows.
        let attrs: Vec<String> = (0..20).map(|i| format!("a{i}: int")).collect();
        let reads: Vec<String> = (0..20).map(|i| format!("r_a{i}")).collect();
        let s = parse_schema(&format!(
            r#"
            class Broker {{ salary: int, budget: int, {} }}
            fn checkBudget(b: Broker): bool {{ r_budget(b) >= 10 * r_salary(b) }}
            user clerk {{ checkBudget, w_budget, {} }}
            "#,
            attrs.join(", "),
            reads.join(", ")
        ))
        .unwrap();
        oodb_lang::check_schema(&s).unwrap();
        let req = parse_requirement("(clerk, r_salary(x) : ti)").unwrap();
        match advise(&s, &req).unwrap() {
            Advice::BudgetExhausted(repairs) => {
                let mut revoked: Vec<FnRef> = repairs.into_iter().flat_map(|r| r.revoke).collect();
                revoked.sort();
                let mut expected = vec![FnRef::access("checkBudget"), FnRef::write("budget")];
                expected.sort();
                assert_eq!(revoked, expected, "the size-1 repairs survive exhaustion");
            }
            other => panic!("expected an exhausted budget, got {other:?}"),
        }
    }

    #[test]
    fn repair_display() {
        let r = Repair {
            revoke: vec![FnRef::write("budget"), FnRef::access("f")],
        };
        assert_eq!(r.to_string(), "revoke {w_budget, f}");
    }
}
