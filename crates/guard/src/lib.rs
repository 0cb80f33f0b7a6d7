//! # secflow-guard
//!
//! The paper's §5 sketch of an *alternative* to static detection:
//!
//! > *"Another alternative is to develop a mechanism to dynamically detect
//! > security flaws during execution of queries."*
//!
//! This crate implements that mechanism as a drop-in session layer. The
//! guard tracks, per session, the set of functions the user has **actually
//! exercised** (not merely been granted). Before executing a query it runs
//! the same `A(R)` analysis as the static checker — but over
//! `F = exercised ∪ functions(query)` instead of the full capability list —
//! and denies the query whose addition would make a protected requirement
//! violated.
//!
//! The precision/latency trade the paper anticipates falls out directly:
//!
//! * **more precise than static**: a user whose capability *list* combines
//!   dangerously but who never exercises both halves in one session is
//!   never blocked (`A(R)` over the exercised subset stays satisfied);
//! * **fail-stop, not fail-silent**: the flaw is stopped at the first query
//!   that would complete the dangerous combination — *before* it executes,
//!   since the analysis is per function-set, not per observed value;
//! * **cost**: one demand-driven `A(R)` run per query that grows the
//!   exercised set, paid at query time through the same pipeline as the
//!   static check ([`analyze_caps`]). A query that adds no function to a
//!   non-empty exercised set costs no analysis: that exact set was analysed
//!   and allowed when it last grew. Nothing is cached per set, so a
//!   session's memory is its exercised set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use oodb_engine::exec::{authorize, run_query, QueryOutput};
use oodb_engine::{Database, RuntimeError};
use oodb_lang::requirement::Requirement;
use oodb_lang::typeck::check_query;
use oodb_lang::{parse_query, ParseError, Query, TypeError};
use oodb_model::{CapabilityList, FnRef, UserName};
use secflow::algorithm::{analyze_caps, AnalysisConfig, AnalysisError};
use std::collections::BTreeSet;
use std::fmt;

/// Why a query was denied or failed.
#[derive(Clone, Debug)]
pub enum GuardError {
    /// The query text did not parse.
    Parse(ParseError),
    /// The query did not type-check.
    Type(TypeError),
    /// Ordinary authorization failure (a function outside the capability
    /// list) — same as the unguarded engine.
    Runtime(RuntimeError),
    /// The guard denied the query: executing it would give the session a
    /// function set under which a protected requirement is violated.
    FlawDenied {
        /// The requirement that would become violated.
        requirement: String,
        /// The functions whose combination triggers the flaw.
        function_set: Vec<String>,
    },
    /// The analysis itself failed (budget exceeded, malformed schema).
    Analysis(AnalysisError),
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardError::Parse(e) => write!(f, "{e}"),
            GuardError::Type(e) => write!(f, "{e}"),
            GuardError::Runtime(e) => write!(f, "{e}"),
            GuardError::FlawDenied {
                requirement,
                function_set,
            } => write!(
                f,
                "query denied: with session functions {{{}}} the requirement {requirement} \
                 would be violated",
                function_set.join(", ")
            ),
            GuardError::Analysis(e) => write!(f, "analysis failure: {e}"),
        }
    }
}

impl std::error::Error for GuardError {}

impl From<ParseError> for GuardError {
    fn from(e: ParseError) -> Self {
        GuardError::Parse(e)
    }
}

impl From<TypeError> for GuardError {
    fn from(e: TypeError) -> Self {
        GuardError::Type(e)
    }
}

impl From<RuntimeError> for GuardError {
    fn from(e: RuntimeError) -> Self {
        GuardError::Runtime(e)
    }
}

/// A guarded session: like [`oodb_engine::Session`], plus dynamic flaw
/// detection against a set of protected requirements.
///
/// ```
/// use oodb_engine::Database;
/// use oodb_model::Value;
/// use secflow_guard::{GuardedSession, GuardError};
///
/// let schema = oodb_lang::parse_schema(r#"
///     class Broker { salary: int, budget: int }
///     fn checkBudget(b: Broker): bool { r_budget(b) >= r_salary(b) }
///     user clerk { checkBudget, w_budget }
///     require (clerk, r_salary(x) : ti)
/// "#).unwrap();
/// let mut db = Database::new(schema).unwrap();
/// db.create("Broker", vec![Value::Int(2), Value::Int(5)]).unwrap();
///
/// let mut session = GuardedSession::open_from_schema(&mut db, "clerk");
/// // Probing alone is fine…
/// session.query("select checkBudget(b) from b in Broker").unwrap();
/// // …but combining it with the budget write is denied before execution.
/// let err = session
///     .query("select w_budget(b, 1), checkBudget(b) from b in Broker")
///     .unwrap_err();
/// assert!(matches!(err, GuardError::FlawDenied { .. }));
/// ```
#[derive(Debug)]
pub struct GuardedSession<'db> {
    db: &'db mut Database,
    user: UserName,
    requirements: Vec<Requirement>,
    exercised: BTreeSet<FnRef>,
    denied: usize,
}

impl<'db> GuardedSession<'db> {
    /// Open a session protecting the given requirements (typically the
    /// schema's `require` declarations for this user).
    pub fn open(
        db: &'db mut Database,
        user: impl Into<UserName>,
        requirements: Vec<Requirement>,
    ) -> GuardedSession<'db> {
        GuardedSession {
            db,
            user: user.into(),
            requirements,
            exercised: BTreeSet::new(),
            denied: 0,
        }
    }

    /// Open a session protecting every schema requirement that names this
    /// user.
    pub fn open_from_schema(
        db: &'db mut Database,
        user: impl Into<UserName>,
    ) -> GuardedSession<'db> {
        let user = user.into();
        let requirements = db
            .schema()
            .requirements
            .iter()
            .filter(|r| r.user == user)
            .cloned()
            .collect();
        GuardedSession::open(db, user, requirements)
    }

    /// The functions this session has exercised so far.
    pub fn exercised(&self) -> &BTreeSet<FnRef> {
        &self.exercised
    }

    /// Queries denied by the guard so far.
    pub fn denied_count(&self) -> usize {
        self.denied
    }

    /// Parse, type-check, authorize, *guard*, and (if allowed) execute.
    pub fn query(&mut self, text: &str) -> Result<QueryOutput, GuardError> {
        let q = parse_query(text)?;
        check_query(self.db.schema(), &q)?;
        authorize(self.db, &self.user, &q)?;
        self.guard(&q)?;
        let out = run_query(self.db, Some(&self.user), &q)?;
        for inv in q.invocations() {
            self.exercised.insert(inv.target.clone());
        }
        Ok(out)
    }

    /// The guard decision for a query, without executing it.
    pub fn would_allow(&self, q: &Query) -> Result<(), GuardError> {
        self.guard(q)
    }

    fn guard(&self, q: &Query) -> Result<(), GuardError> {
        if self.requirements.is_empty() {
            return Ok(());
        }
        let mut set: CapabilityList = self.exercised.iter().cloned().collect();
        for inv in q.invocations() {
            set.grant(inv.target.clone());
        }
        // The exercised set only grows through `query`, after the guard
        // allowed exactly the grown set.
        if !self.exercised.is_empty() && set.len() == self.exercised.len() {
            return Ok(());
        }
        let verdicts = analyze_caps(
            self.db.schema(),
            &set,
            &self.requirements,
            &AnalysisConfig::default(),
        )
        .map_err(GuardError::Analysis)?;
        match verdicts.iter().position(|v| v.is_violated()) {
            None => Ok(()),
            Some(i) => Err(GuardError::FlawDenied {
                requirement: self.requirements[i].to_string(),
                function_set: set.iter().map(|f| f.to_string()).collect(),
            }),
        }
    }

    /// Record a denial (used by callers that want to keep statistics while
    /// mapping errors).
    pub fn note_denied(&mut self) {
        self.denied += 1;
    }
}

/// Convenience: run a query under the guard, tracking denial statistics.
pub fn guarded_query(
    session: &mut GuardedSession<'_>,
    text: &str,
) -> Result<QueryOutput, GuardError> {
    match session.query(text) {
        Err(e @ GuardError::FlawDenied { .. }) => {
            session.note_denied();
            Err(e)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_lang::parse_schema;
    use oodb_model::Value;

    fn db() -> Database {
        let schema = parse_schema(
            r#"
            class Broker { name: string, salary: int, budget: int }
            fn checkBudget(b: Broker): bool { r_budget(b) >= 10 * r_salary(b) }
            user clerk { checkBudget, w_budget, r_name }
            require (clerk, r_salary(x) : ti)
            "#,
        )
        .unwrap();
        let mut db = Database::new(schema).unwrap();
        db.create(
            "Broker",
            vec![Value::str("John"), Value::Int(150), Value::Int(1000)],
        )
        .unwrap();
        db
    }

    #[test]
    fn benign_queries_pass() {
        let mut db = db();
        let mut s = GuardedSession::open_from_schema(&mut db, "clerk");
        // Reading names and probing alone are fine — the flaw needs the
        // write capability to be exercised too.
        s.query("select r_name(b), checkBudget(b) from b in Broker")
            .unwrap();
        s.query("select checkBudget(b) from b in Broker").unwrap();
        assert_eq!(s.exercised().len(), 2);
        assert_eq!(s.denied_count(), 0);
    }

    #[test]
    fn the_probing_attack_is_denied_before_execution() {
        let mut db = db();
        {
            let mut s = GuardedSession::open_from_schema(&mut db, "clerk");
            let err = s
                .query("select w_budget(b, 1500), checkBudget(b) from b in Broker")
                .unwrap_err();
            assert!(matches!(err, GuardError::FlawDenied { .. }));
            // The write must NOT have happened (fail-stop before execution).
            assert!(s.exercised().is_empty());
        }
        let john = Value::Obj(db.extent(&"Broker".into())[0]);
        assert_eq!(
            db.read_attr(&john, &"budget".into()).unwrap(),
            Value::Int(1000),
            "budget untouched"
        );
    }

    #[test]
    fn split_across_queries_is_still_denied() {
        // Exercising the halves in separate queries doesn't evade the
        // guard: the session's exercised set accumulates.
        let mut db = db();
        let mut s = GuardedSession::open_from_schema(&mut db, "clerk");
        s.query("select w_budget(b, 42) from b in Broker").unwrap();
        let err = s
            .query("select checkBudget(b) from b in Broker")
            .unwrap_err();
        assert!(matches!(err, GuardError::FlawDenied { .. }));
    }

    #[test]
    fn guard_is_more_precise_than_static() {
        // Statically the clerk's LIST is flawed; dynamically, a session
        // that only ever writes budgets (never probes) is never blocked.
        let mut db = db();
        let statically = secflow::algorithm::analyze_batch(
            db.schema(),
            &db.schema().requirements,
            &AnalysisConfig::default(),
            &secflow::algorithm::BatchOptions::default(),
        );
        assert!(
            statically
                .verdicts
                .iter()
                .any(|v| v.as_ref().unwrap().is_violated()),
            "list is flawed"
        );

        let mut s = GuardedSession::open_from_schema(&mut db, "clerk");
        for v in [1, 2, 3] {
            s.query(&format!("select w_budget(b, {v}) from b in Broker"))
                .unwrap();
        }
        assert_eq!(s.denied_count(), 0);
    }

    #[test]
    fn ordinary_authorization_still_applies() {
        let mut db = db();
        let mut s = GuardedSession::open_from_schema(&mut db, "clerk");
        let err = s.query("select r_salary(b) from b in Broker").unwrap_err();
        assert!(matches!(err, GuardError::Runtime(_)));
    }

    #[test]
    fn would_allow_is_side_effect_free() {
        let mut db = db();
        let s = GuardedSession::open_from_schema(&mut db, "clerk");
        let q = parse_query("select w_budget(b, 1), checkBudget(b) from b in Broker").unwrap();
        assert!(s.would_allow(&q).is_err());
        assert!(s.exercised().is_empty());
    }

    #[test]
    fn repeated_queries_keep_their_decision() {
        let mut db = db();
        let mut s = GuardedSession::open_from_schema(&mut db, "clerk");
        // An allowed query stays allowed once its functions are exercised…
        s.query("select checkBudget(b) from b in Broker").unwrap();
        s.query("select checkBudget(b) from b in Broker").unwrap();
        // …and a denied one stays denied: a denial never grows the set.
        for v in [1, 2] {
            let err = s
                .query(&format!(
                    "select w_budget(b, {v}), checkBudget(b) from b in Broker"
                ))
                .unwrap_err();
            assert!(matches!(err, GuardError::FlawDenied { .. }));
        }
        assert_eq!(s.exercised().len(), 1);
    }

    #[test]
    fn guarded_query_counts_denials() {
        let mut db = db();
        let mut s = GuardedSession::open_from_schema(&mut db, "clerk");
        let _ = guarded_query(
            &mut s,
            "select w_budget(b, 1), checkBudget(b) from b in Broker",
        );
        assert_eq!(s.denied_count(), 1);
    }
}
