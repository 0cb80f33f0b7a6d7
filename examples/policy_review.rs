//! A complete policy-review workflow, the way a database administrator
//! would use the library:
//!
//! 1. load a database from a text snapshot,
//! 2. statically check every `require` declaration (`A(R)`),
//! 3. print the Figure-1 style explanation for each flaw,
//! 4. ask the advisor for minimal revocations,
//! 5. verify the repaired policy passes — and still runs the intended
//!    queries.
//!
//! ```text
//! cargo run --example policy_review
//! ```

use oodb_engine::{snapshot, Session};
use oodb_lang::parse_schema;
use secflow::advisor::{advise, Advice};
use secflow::algorithm::analyze;
use secflow::closure::Closure;
use secflow::report::render_derivation;
use secflow::unfold::NProgram;

const POLICY: &str = r#"
    class Broker { name: string, salary: int, budget: int, profit: int }

    fn calcSalary(budget: int, profit: int): int { budget / 10 + profit / 2 }
    fn checkBudget(b: Broker): bool { r_budget(b) >= 10 * r_salary(b) }
    fn updateSalary(b: Broker): null {
      w_salary(b, calcSalary(r_budget(b), r_profit(b)))
    }

    user clerk { checkBudget, w_budget, r_name }

    require (clerk, r_salary(x) : ti)
"#;

const SNAPSHOT: &str = r#"
object 0 Broker { name = "John", salary = 150, budget = 1000, profit = 50 }
object 1 Broker { name = "Jane", salary = 90, budget = 2000, profit = 120 }
"#;

fn main() {
    // 1. Load.
    let schema = parse_schema(POLICY).expect("policy parses");
    oodb_lang::check_schema(&schema).expect("policy checks");
    let db = snapshot::load(schema.clone(), SNAPSHOT).expect("snapshot loads");
    println!("loaded {} brokers from the snapshot", db.object_count());

    // 2. Check.
    let req = &schema.requirements[0];
    let verdict = analyze(&schema, req).expect("analysis runs");
    println!("{req}: {verdict}");

    // 3. Explain.
    if verdict.is_violated() {
        let caps = schema.user_str("clerk").expect("clerk exists");
        let prog = NProgram::unfold(&schema, caps).expect("unfolds");
        let closure = Closure::compute(&prog).expect("closure");
        if let Some(goal) = closure.ti_witness(5) {
            println!("\nwhy (Figure-1 style):");
            print!("{}", render_derivation(&prog, &closure, &goal));
        }
    }

    // 4. Repair.
    println!("\nadvisor:");
    match advise(&schema, req).expect("advisor runs") {
        Advice::Repairs(repairs) => {
            for r in &repairs {
                println!("  option: {r}");
            }
            // 5. Apply the paper's repair (drop w_budget) and re-verify.
            let mut repaired = schema.clone();
            let mut caps = repaired.user_str("clerk").expect("clerk").clone();
            caps.revoke(&oodb_model::FnRef::write("budget"));
            repaired.users.insert("clerk".into(), caps);
            let verdict = analyze(&repaired, req).expect("analysis runs");
            println!("\nafter revoking w_budget: {verdict}");

            // The clerk's intended workflow still runs.
            let mut db2 = oodb_engine::Database::new(repaired).expect("checks");
            let text = snapshot::save(&db);
            db2 = snapshot::load(db2.schema().clone(), &text).expect("reload");
            let mut session = Session::open(&mut db2, "clerk");
            let out = session
                .query("select r_name(b), checkBudget(b) from b in Broker")
                .expect("the probe still works");
            println!("clerk's regulation report still runs: {}", out.render());
        }
        other => println!("  {other:?}"),
    }
}
