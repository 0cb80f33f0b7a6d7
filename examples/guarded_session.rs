//! The paper's §5 future-work alternative, running: **dynamic flaw
//! detection** with `secflow-guard`.
//!
//! The static analysis says the clerk's capability *list* is flawed. The
//! guard takes the other trade: let the session run, track which functions
//! the user actually exercises, and deny — before execution — the query
//! that would complete a forbidden capability combination.
//!
//! ```text
//! cargo run --example guarded_session
//! ```

use oodb_engine::Database;
use oodb_lang::parse_schema;
use oodb_model::Value;
use secflow::algorithm::{analyze_batch, AnalysisConfig, BatchOptions};
use secflow_guard::GuardedSession;

fn main() {
    let schema = parse_schema(
        r#"
        class Broker { name: string, salary: int, budget: int }

        fn checkBudget(b: Broker): bool { r_budget(b) >= 10 * r_salary(b) }

        user clerk { checkBudget, w_budget, r_name }

        require (clerk, r_salary(x) : ti)
        "#,
    )
    .expect("schema parses");

    println!("== static verdicts over the capability LIST ==");
    let outcome = analyze_batch(
        &schema,
        &schema.requirements,
        &AnalysisConfig::default(),
        &BatchOptions::default(),
    );
    for (req, verdict) in schema.requirements.iter().zip(outcome.verdicts) {
        let flawed = verdict.expect("analysis runs").is_violated();
        println!("  {} -> {}", req, if flawed { "FLAW" } else { "ok" });
    }
    println!();

    let mut db = Database::new(schema).expect("schema checks");
    db.create(
        "Broker",
        vec![Value::str("John"), Value::Int(150), Value::Int(1000)],
    )
    .expect("seed");

    println!("== a guarded session: benign use passes ==");
    let mut s = GuardedSession::open_from_schema(&mut db, "clerk");
    for q in [
        "select r_name(b) from b in Broker",
        "select checkBudget(b) from b in Broker",
        "select checkBudget(b) from b in Broker",
    ] {
        match s.query(q) {
            Ok(out) => println!("  ok    {q}  => {}", out.render()),
            Err(e) => println!("  DENY  {q}\n        {e}"),
        }
    }
    println!(
        "  exercised so far: {:?}",
        s.exercised()
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
    );
    println!();

    println!("== the probing attack is denied before it executes ==");
    for q in [
        // Direct combination in one query…
        "select w_budget(b, 1500), checkBudget(b) from b in Broker",
        // …and the split version: the write alone would be fine for a
        // fresh session, but this session has already exercised the probe.
        "select w_budget(b, 1500) from b in Broker",
    ] {
        match s.query(q) {
            Ok(out) => println!("  ok    {q}  => {}", out.render()),
            Err(e) => println!("  DENY  {q}\n        {e}"),
        }
    }
    println!();
    println!("John's budget is untouched — the guard is fail-stop:");
    drop(s);
    let john = Value::Obj(db.extent(&"Broker".into())[0]);
    println!(
        "  budget = {}",
        db.read_attr(&john, &"budget".into()).expect("read")
    );
    println!();
    println!("Trade-off vs. the static check (paper §5): the static analysis");
    println!("rejects the POLICY once, offline; the guard permits more");
    println!("sessions (write-only sessions above would never be blocked)");
    println!("but pays an analysis per query that grows the session's");
    println!("function set and only stops flaws at the last moment.");
}
