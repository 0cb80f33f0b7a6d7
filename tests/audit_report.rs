//! The audit report contract: the JSON shape is pinned by a golden file
//! (versioned `secflow.audit/1`), every reported path is backed by a
//! certifier-accepted derivation, and the trace stream is valid Chrome
//! `trace_event` JSON.

use secflow::{ProvenanceOptions, Term, WalkMode};
use secflow_cli::{
    audit_batch, exit, render_audit, run_on_source_with_obs, AuditFormat, AuditOptions, Command,
    MetricsFormat, ObsOptions, TraceOptions,
};
use secflow_obs::{Json, TraceFormat};

const GOLDEN: &str = include_str!("golden/audit_stockbroker.json");

fn stockbroker_source() -> String {
    std::fs::read_to_string(format!(
        "{}/policies/stockbroker.sfl",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap()
}

fn stockbroker_opts() -> AuditOptions {
    AuditOptions {
        // Pinned relative path: the report echoes it, and the golden file
        // must not depend on where the checkout lives.
        policy: "policies/stockbroker.sfl".into(),
        format: AuditFormat::Json,
        severity: None,
        provenance: ProvenanceOptions::default(),
    }
}

#[test]
fn audit_json_matches_the_golden_file() {
    let schema = secflow_cli::load_str(&stockbroker_source()).unwrap();
    let outcome = audit_batch(&schema, 1);
    let (out, code) = render_audit(&schema, &outcome, &stockbroker_opts());
    assert_eq!(code, exit::VIOLATION);
    assert_eq!(
        out, GOLDEN,
        "audit JSON drifted from tests/golden/audit_stockbroker.json; \
         if the change is intentional, bump the schema version and \
         regenerate with: cargo run -p secflow-cli -- audit \
         policies/stockbroker.sfl --format=json"
    );
}

#[test]
fn golden_file_is_valid_and_schema_versioned() {
    let doc = Json::parse(GOLDEN).expect("golden file parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(secflow_cli::AUDIT_SCHEMA)
    );
    assert_eq!(doc.get("violated").and_then(Json::as_u64), Some(2));
    // Every path walks sink-to-source with contiguous depths.
    let violations = doc.get("violations").and_then(Json::as_arr).unwrap();
    assert_eq!(violations.len(), 2);
    for v in violations {
        for w in v.get("witnesses").and_then(Json::as_arr).unwrap() {
            for p in w.get("paths").and_then(Json::as_arr).unwrap() {
                let steps = p.get("steps").and_then(Json::as_arr).unwrap();
                for (i, s) in steps.iter().enumerate() {
                    assert_eq!(s.get("depth").and_then(Json::as_u64), Some(i as u64));
                }
            }
        }
    }
}

#[test]
fn every_reported_path_is_backed_by_accepted_derivations() {
    let mut multi = secflow_workloads::scale::multi_user(4, 4);
    multi.schema.requirements = multi.requirements.clone();
    let cases = [
        (
            "stockbroker",
            secflow_cli::load_str(&stockbroker_source()).unwrap(),
        ),
        ("hospital", secflow_workloads::fixtures::hospital()),
        ("multi_user_4x4", multi.schema),
    ];
    for (name, schema) in cases {
        let outcome = audit_batch(&schema, 1);
        let mut checked = 0usize;
        for (i, verdict) in outcome.verdicts.iter().enumerate() {
            let Ok(secflow::Verdict::Violated(violations)) = verdict else {
                continue;
            };
            let g = outcome
                .groups
                .iter()
                .find(|g| g.req_indexes.contains(&i))
                .unwrap();
            let (prog, closure) = g.artifacts.as_ref().unwrap();
            // The certifier accepts the whole store…
            closure
                .certify(prog, &secflow::rules::RuleConfig::default())
                .expect("audit closures certify");
            // …and each path's consecutive steps follow recorded premise edges.
            for v in violations {
                for w in &v.witnesses {
                    let paths =
                        secflow::flaw_paths(closure, w, &ProvenanceOptions::default()).unwrap();
                    assert!(!paths.is_empty(), "{name}: witness without paths");
                    for p in &paths {
                        for pair in p.steps.windows(2) {
                            let d = closure.proof(&pair[0].term).unwrap();
                            assert!(d.premises.contains(&pair[1].term));
                            checked += 1;
                        }
                    }
                }
            }
        }
        if name == "stockbroker" {
            assert!(checked > 0, "the stockbroker policy has flaw paths");
        }

        // The rendered report is valid JSON, audits something, and backs
        // every violation with at least one flaw path.
        let opts = AuditOptions {
            policy: name.into(),
            ..stockbroker_opts()
        };
        let (report, _) = render_audit(&schema, &outcome, &opts);
        assert!(!report.is_empty(), "{name}: empty report");
        let doc = Json::parse(&report).unwrap_or_else(|e| panic!("{name}: invalid JSON: {e}"));
        let field = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap();
        let paths = doc
            .get("summary")
            .and_then(|s| s.get("paths"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(field("requirements") > 0, "{name}: nothing audited");
        assert!(
            field("violated") == 0 || paths > 0,
            "{name}: violations without provenance"
        );
    }
}

#[test]
fn corrupting_one_proof_rejects_the_whole_report() {
    let schema = secflow_cli::load_str(&stockbroker_source()).unwrap();
    let mut outcome = audit_batch(&schema, 1);
    let (_, closure) = outcome.groups[0].artifacts.as_mut().unwrap();
    let t = closure
        .iter()
        .find(|t| matches!(t, Term::Ta(_)))
        .expect("closure has a ta term");
    assert!(closure.replace_proof(&t, "rule for =", vec![]));
    let (out, code) = render_audit(&schema, &outcome, &stockbroker_opts());
    assert_eq!(code, exit::CERTIFY);
    let doc = Json::parse(&out).unwrap();
    assert_eq!(doc.get("certified"), Some(&Json::Bool(false)));
    assert!(
        doc.get("violations").is_none(),
        "an uncertified store must not yield flaw paths"
    );
}

#[test]
fn forward_mode_report_reverses_the_steps() {
    let schema = secflow_cli::load_str(&stockbroker_source()).unwrap();
    let outcome = audit_batch(&schema, 1);
    let mut opts = stockbroker_opts();
    opts.provenance.mode = WalkMode::Forward;
    let (out, code) = render_audit(&schema, &outcome, &opts);
    assert_eq!(code, exit::VIOLATION);
    let doc = Json::parse(&out).unwrap();
    assert_eq!(doc.get("mode").and_then(Json::as_str), Some("forward"));
    for v in doc.get("violations").and_then(Json::as_arr).unwrap() {
        for w in v.get("witnesses").and_then(Json::as_arr).unwrap() {
            for p in w.get("paths").and_then(Json::as_arr).unwrap() {
                let steps = p.get("steps").and_then(Json::as_arr).unwrap();
                assert_eq!(
                    steps[0].get("term").and_then(Json::as_str),
                    p.get("source").and_then(Json::as_str),
                    "forward paths start at the source"
                );
            }
        }
    }
}

#[test]
fn chrome_trace_is_valid_trace_event_json() {
    let out = run_on_source_with_obs(
        &Command::Audit {
            file: "-".into(),
            format: AuditFormat::Json,
            severity: None,
            mode: WalkMode::Backward,
            max_depth: 64,
            max_paths: 16,
            jobs: 2,
        },
        &stockbroker_source(),
        &ObsOptions {
            metrics: Some(MetricsFormat::Json),
            trace: Some(TraceOptions {
                file: Some("audit.trace.json".into()),
                format: TraceFormat::Chrome,
            }),
        },
    );
    assert_eq!(out.code, exit::VIOLATION);
    let trace = out
        .trace_output
        .expect("trace captured for the file target");
    let doc = Json::parse(&trace).expect("chrome trace parses");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(!events.is_empty());
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap();
        assert!(matches!(ph, "X" | "i"), "unexpected phase {ph}");
        assert!(ev.get("name").and_then(Json::as_str).is_some());
        assert!(ev.get("ts").and_then(Json::as_u64).is_some());
        assert_eq!(ev.get("pid").and_then(Json::as_u64), Some(1));
        assert!(ev.get("tid").and_then(Json::as_u64).is_some());
        match ph {
            "X" => assert!(ev.get("dur").and_then(Json::as_u64).is_some()),
            _ => assert_eq!(ev.get("s").and_then(Json::as_str), Some("t")),
        }
    }
    // One lane per analysis group plus the driver lane.
    let lanes: std::collections::BTreeSet<u64> = events
        .iter()
        .filter_map(|e| e.get("tid").and_then(Json::as_u64))
        .collect();
    assert!(lanes.len() >= 2, "driver lane plus at least one group lane");
    // The metrics stream stays a separate, valid document.
    assert!(Json::parse(&out.stderr).is_ok());
}
