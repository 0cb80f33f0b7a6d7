//! Differential validation: static `A(R)` vs. the bounded concrete
//! attacker.
//!
//! For every (schema, requirement) case we obtain two verdicts and
//! classify:
//!
//! | static | dynamic | meaning |
//! |--------|---------|---------|
//! | flaw   | attack  | **BothFlag** — true positive |
//! | flaw   | no      | **StaticOnly** — pessimism (or attacker bounds) |
//! | no     | attack  | **DynamicOnly** — *soundness violation*: must be 0 (Theorem 1, experiment E3) |
//! | no     | no      | **Neither** — true negative |

use crate::attack::{attack_requirement, AttackError, AttackerConfig};
use oodb_lang::requirement::Requirement;
use oodb_lang::Schema;
use secflow::algorithm::{analyze, AnalysisError};
use std::fmt;

/// Classification of one differential case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffOutcome {
    /// Static flags, attacker realises.
    BothFlag,
    /// Static flags, bounded attacker does not realise.
    StaticOnly,
    /// Attacker realises, static missed — a soundness violation.
    DynamicOnly,
    /// Neither flags.
    Neither,
}

impl fmt::Display for DiffOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DiffOutcome::BothFlag => "both-flag",
            DiffOutcome::StaticOnly => "static-only",
            DiffOutcome::DynamicOnly => "DYNAMIC-ONLY (unsound!)",
            DiffOutcome::Neither => "neither",
        })
    }
}

/// One case's result.
#[derive(Clone, Debug)]
pub struct DiffCase {
    /// The requirement checked.
    pub requirement: String,
    /// Classification.
    pub outcome: DiffOutcome,
    /// Attack witness summary, when the attacker succeeded.
    pub witness: Option<String>,
}

/// A recorded soundness violation: the dynamic-only case plus what it
/// takes to reproduce it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The corpus seed the case was generated from.
    pub seed: u64,
    /// The case's schema, rendered in the policy language.
    pub schema: String,
    /// The dynamic-only case.
    pub case: DiffCase,
}

/// Errors from either side.
#[derive(Clone, Debug)]
pub enum DiffError {
    /// Static analysis failed.
    Static(AnalysisError),
    /// Attack failed.
    Dynamic(AttackError),
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Static(e) => write!(f, "static: {e}"),
            DiffError::Dynamic(e) => write!(f, "dynamic: {e}"),
        }
    }
}

impl std::error::Error for DiffError {}

/// Classify one (schema, requirement) case.
pub fn classify(
    schema: &Schema,
    req: &Requirement,
    cfg: &AttackerConfig,
) -> Result<DiffCase, DiffError> {
    let static_verdict = analyze(schema, req).map_err(DiffError::Static)?;
    let dynamic = attack_requirement(schema, req, cfg).map_err(DiffError::Dynamic)?;
    let outcome = match (static_verdict.is_violated(), dynamic.achieved) {
        (true, true) => DiffOutcome::BothFlag,
        (true, false) => DiffOutcome::StaticOnly,
        (false, true) => DiffOutcome::DynamicOnly,
        (false, false) => DiffOutcome::Neither,
    };
    Ok(DiffCase {
        requirement: req.to_string(),
        outcome,
        witness: dynamic.witness.map(|w| w.summary),
    })
}

/// Aggregate over a corpus.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// True positives.
    pub both: usize,
    /// Pessimistic alarms.
    pub static_only: usize,
    /// Soundness violations (must be 0).
    pub dynamic_only: usize,
    /// True negatives.
    pub neither: usize,
    /// Cases that errored out (bounds) — excluded from the rates.
    pub errors: usize,
    /// The dynamic-only cases, each with its seed and schema.
    pub violations: Vec<Violation>,
}

impl DiffReport {
    /// Record one case of `schema`, generated from corpus seed `seed`.
    pub fn record(&mut self, seed: u64, schema: &Schema, case: Result<DiffCase, DiffError>) {
        match case {
            Ok(c) => match c.outcome {
                DiffOutcome::BothFlag => self.both += 1,
                DiffOutcome::StaticOnly => self.static_only += 1,
                DiffOutcome::DynamicOnly => {
                    self.dynamic_only += 1;
                    self.violations.push(Violation {
                        seed,
                        schema: schema.to_string(),
                        case: c,
                    });
                }
                DiffOutcome::Neither => self.neither += 1,
            },
            Err(_) => self.errors += 1,
        }
    }

    /// Total classified cases.
    pub fn total(&self) -> usize {
        self.both + self.static_only + self.dynamic_only + self.neither
    }

    /// Fraction of static alarms the bounded attacker realises
    /// (experiment E4's precision measure).
    pub fn realised_alarm_rate(&self) -> f64 {
        let alarms = self.both + self.static_only;
        if alarms == 0 {
            0.0
        } else {
            self.both as f64 / alarms as f64
        }
    }

    /// Is the soundness invariant intact?
    pub fn is_sound(&self) -> bool {
        self.dynamic_only == 0
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "differential: {} cases ({} errors excluded)",
            self.total(),
            self.errors
        )?;
        writeln!(f, "  both-flag    : {}", self.both)?;
        writeln!(f, "  static-only  : {}", self.static_only)?;
        writeln!(
            f,
            "  dynamic-only : {}  (soundness violations)",
            self.dynamic_only
        )?;
        writeln!(f, "  neither      : {}", self.neither)?;
        writeln!(
            f,
            "  realised-alarm rate: {:.1}%",
            100.0 * self.realised_alarm_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_lang::{parse_requirement, parse_schema};

    #[test]
    fn paper_example_is_both_flag() {
        let s = parse_schema(
            r#"
            class Broker { salary: int, budget: int }
            fn checkBudget(broker: Broker): bool {
              r_budget(broker) >= r_salary(broker)
            }
            user clerk { checkBudget, w_budget }
            "#,
        )
        .unwrap();
        oodb_lang::check_schema(&s).unwrap();
        let req = parse_requirement("(clerk, r_salary(x) : ti)").unwrap();
        let cfg = AttackerConfig {
            strategies: crate::strategy::StrategySpec {
                max_steps: 4,
                max_shapes: 64,
                ..Default::default()
            },
            ..Default::default()
        };
        let case = classify(&s, &req, &cfg).unwrap();
        assert_eq!(case.outcome, DiffOutcome::BothFlag);
    }

    #[test]
    fn true_negative_is_neither() {
        let s = parse_schema(
            r#"
            class C { a: int, b: int }
            fn getA(c: C): int { r_a(c) }
            user u { getA }
            "#,
        )
        .unwrap();
        oodb_lang::check_schema(&s).unwrap();
        let req = parse_requirement("(u, r_b(x) : pi)").unwrap();
        let case = classify(&s, &req, &AttackerConfig::small()).unwrap();
        assert_eq!(case.outcome, DiffOutcome::Neither);
    }

    #[test]
    fn report_aggregation() {
        let schema = Schema::default();
        let mut r = DiffReport::default();
        r.record(
            0,
            &schema,
            Ok(DiffCase {
                requirement: "x".into(),
                outcome: DiffOutcome::BothFlag,
                witness: None,
            }),
        );
        r.record(
            1,
            &schema,
            Ok(DiffCase {
                requirement: "y".into(),
                outcome: DiffOutcome::StaticOnly,
                witness: None,
            }),
        );
        assert_eq!(r.total(), 2);
        assert!(r.is_sound());
        r.record(
            7,
            &schema,
            Ok(DiffCase {
                requirement: "z".into(),
                outcome: DiffOutcome::DynamicOnly,
                witness: Some("w".into()),
            }),
        );
        assert!(!r.is_sound());
        assert_eq!(r.violations[0].seed, 7, "a violation carries its seed");
        assert!((r.realised_alarm_rate() - 0.5).abs() < 1e-9);
        let text = r.to_string();
        assert!(text.contains("both-flag    : 1"));
    }
}
