//! End-to-end CLI runs over the checked-in policy files in `policies/`.

use secflow_cli::{run, Command};

fn policy(name: &str) -> String {
    format!("{}/policies/{name}.sfl", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn check_stockbroker_policy_file() {
    let (report, code) = run(&Command::Check {
        file: policy("stockbroker"),
        explain: true,
        jobs: 1,
        full_saturation: false,
        certify: false,
        stream: false,
        ndjson: false,
    });
    assert_eq!(code, 1);
    assert!(report.contains("FLAW  (clerk, r_salary(x):ti)"));
    assert!(report.contains("ok    (safe_clerk, r_salary(x):ti)"));
    assert!(report.contains("FLAW  (payroll, w_salary(x, v:ta))"));
    assert!(report.contains("ok    (safe_payroll, w_salary(x, v:ta))"));
    // --explain prints a Figure-1 style derivation.
    assert!(report.contains("(axiom for =)"));
    assert!(report.contains("4 requirement(s), 2 violated"));
}

#[test]
fn check_hospital_policy_file() {
    let (report, code) = run(&Command::Check {
        file: policy("hospital"),
        explain: false,
        jobs: 1,
        full_saturation: false,
        certify: false,
        stream: false,
        ndjson: false,
    });
    assert_eq!(code, 1);
    assert!(report.contains("FLAW  (auditor, r_bill(x):ti)"));
    assert!(report.contains("ok    (safe_auditor, r_bill(x):ti)"));
}

#[test]
fn bank_policy_shows_pessimism() {
    // The static check flags the self-referential bumpLimit (the paper's
    // §3.3 always-equal assumption)…
    let (report, code) = run(&Command::Check {
        file: policy("bank"),
        explain: false,
        jobs: 1,
        full_saturation: false,
        certify: false,
        stream: false,
        ndjson: false,
    });
    assert_eq!(code, 1);
    assert!(report.contains("FLAW  (teller, r_balance(x):ti)"));
    assert!(report.contains("FLAW  (flawed_teller, r_balance(x):ti)"));
    assert!(report.contains("ok    (teller, w_limit(x, v:ta))"));

    // …while the bounded attacker only realises the raw-write variant.
    let (report, code) = run(&Command::Attack {
        file: policy("bank"),
        steps: 4,
    });
    assert_eq!(code, 1);
    assert!(report.contains("not realised (teller, r_balance(x):ti)"));
    assert!(report.contains("REALISED (flawed_teller, r_balance(x):ti)"));
}

#[test]
fn unfold_stockbroker_policy_file() {
    let (report, code) = run(&Command::Unfold {
        file: policy("stockbroker"),
        user: "clerk".into(),
    });
    assert_eq!(code, 0);
    assert!(report.contains("7>=(2r_budget(1broker), 6*(3:10, 5r_salary(4broker)))"));
}

#[test]
fn fix_matches_the_golden_files() {
    // Recorded from the release binary's stdout; the minimal repairs and
    // their order are part of the contract (the paper's §4.2 repair for
    // the clerk is `revoke {w_budget}`).
    for (name, golden, expected_code) in [
        ("bank", include_str!("golden/fix_bank.txt"), 1),
        ("hospital", include_str!("golden/fix_hospital.txt"), 1),
        ("stockbroker", include_str!("golden/fix_stockbroker.txt"), 1),
        (
            "stockbroker_safe",
            include_str!("golden/fix_stockbroker_safe.txt"),
            0,
        ),
    ] {
        let (report, code) = run(&Command::Fix { file: policy(name) });
        assert_eq!(code, expected_code, "fix {name}");
        assert_eq!(
            report, golden,
            "fix {name} drifted from tests/golden/fix_{name}.txt"
        );
    }
}

#[test]
fn missing_file_exits_three() {
    // Input errors get their own exit code, distinct from usage errors (2)
    // and policy violations (1).
    let (report, code) = run(&Command::Check {
        file: policy("does_not_exist"),
        explain: false,
        jobs: 1,
        full_saturation: false,
        certify: false,
        stream: false,
        ndjson: false,
    });
    assert_eq!(code, secflow_cli::exit::INPUT);
    assert!(report.contains("cannot read"));
}

#[test]
fn exit_codes_are_distinct_per_outcome_class() {
    use secflow_cli::exit;
    // 0: a policy whose requirements are all satisfied.
    let (_, ok) = run(&Command::Check {
        file: policy("stockbroker_safe"),
        explain: false,
        jobs: 1,
        full_saturation: false,
        certify: false,
        stream: false,
        ndjson: false,
    });
    // 1: a policy with a flaw.
    let (_, violated) = run(&Command::Check {
        file: policy("stockbroker"),
        explain: false,
        jobs: 1,
        full_saturation: false,
        certify: false,
        stream: false,
        ndjson: false,
    });
    // 2: a usage error (unknown flag) — rejected at parse time; the binary
    // shim maps this to exit::USAGE.
    let usage = secflow_cli::parse_args(&["check".into(), "p.sfl".into(), "--bogus-flag".into()]);
    // 3: an unreadable input file.
    let (_, input) = run(&Command::Check {
        file: policy("does_not_exist"),
        explain: false,
        jobs: 1,
        full_saturation: false,
        certify: false,
        stream: false,
        ndjson: false,
    });
    assert_eq!(ok, exit::OK);
    assert_eq!(violated, exit::VIOLATION);
    assert!(usage.is_err(), "unknown flags must be usage errors");
    assert_eq!(input, exit::INPUT);
    // The five documented codes are pairwise distinct.
    let codes = [
        exit::OK,
        exit::VIOLATION,
        exit::USAGE,
        exit::INPUT,
        exit::CERTIFY,
    ];
    for (i, a) in codes.iter().enumerate() {
        for b in &codes[i + 1..] {
            assert_ne!(a, b, "exit codes must stay distinct");
        }
    }
}

#[test]
fn certify_passes_on_every_policy_file() {
    for name in ["stockbroker", "hospital", "bank"] {
        let plain = run(&Command::Check {
            file: policy(name),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: false,
            ndjson: false,
        });
        let (report, code) = run(&Command::Check {
            file: policy(name),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: true,
            stream: false,
            ndjson: false,
        });
        assert_eq!(code, plain.1, "{name}: --certify changed the exit code");
        assert!(
            report.starts_with(&plain.0),
            "{name}: --certify changed the verdict lines"
        );
        assert!(
            report.contains("certified: "),
            "{name}: missing certify summary"
        );
    }
}

#[test]
fn full_saturation_matches_demand_on_policy_files() {
    for name in ["stockbroker", "hospital", "bank"] {
        let demand = run(&Command::Check {
            file: policy(name),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: false,
            ndjson: false,
        });
        let full = run(&Command::Check {
            file: policy(name),
            explain: false,
            jobs: 1,
            full_saturation: true,
            certify: false,
            stream: false,
            ndjson: false,
        });
        assert_eq!(demand, full, "{name}: --full-saturation changed the output");
    }
}

#[test]
fn usage_documents_full_saturation() {
    assert!(secflow_cli::USAGE.contains("--full-saturation"));
}

#[test]
fn fmt_policy_files_round_trip() {
    for name in ["stockbroker", "hospital", "bank"] {
        let (report, code) = run(&Command::Fmt { file: policy(name) });
        assert_eq!(code, 0, "{name}");
        // The pretty-printed output re-parses and re-checks.
        secflow_cli::load_str(&report).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

fn audit(file: String, format: secflow_cli::AuditFormat) -> (String, i32) {
    run(&Command::Audit {
        file,
        format,
        severity: None,
        mode: secflow::WalkMode::Backward,
        max_depth: 64,
        max_paths: 16,
        jobs: 1,
    })
}

#[test]
fn audit_exit_codes_cover_every_outcome_class() {
    use secflow_cli::{exit, AuditFormat};
    // 0: clean policy, nothing to report.
    let (out, clean) = audit(policy("stockbroker_safe"), AuditFormat::Text);
    assert_eq!(clean, exit::OK, "{out}");
    assert!(out.contains("0 flaw path(s)"));
    // 1: the paper's flawed policy, with rendered provenance.
    let (out, flawed) = audit(policy("stockbroker"), AuditFormat::Text);
    assert_eq!(flawed, exit::VIOLATION);
    assert!(out.contains("FLAW  (clerk, r_salary(x):ti)"));
    assert!(out.contains("<- sink"));
    assert!(out.contains("<- source"));
    // 3: unreadable input.
    let (out, missing) = audit(policy("no_such_policy"), AuditFormat::Text);
    assert_eq!(missing, exit::INPUT);
    assert!(out.contains("error"));
    // 4: a corrupted proof store (driven through the library surface, the
    // only way to corrupt memory between analysis and rendering).
    let src = std::fs::read_to_string(policy("stockbroker")).unwrap();
    let schema = secflow_cli::load_str(&src).unwrap();
    let mut outcome = secflow_cli::audit_batch(&schema, 1);
    let (_, closure) = outcome.groups[0].artifacts.as_mut().unwrap();
    let t = closure
        .iter()
        .find(|t| matches!(t, secflow::Term::Ta(_)))
        .expect("closure has a ta term");
    assert!(closure.replace_proof(&t, "rule for =", vec![]));
    let opts = secflow_cli::AuditOptions {
        policy: policy("stockbroker"),
        format: AuditFormat::Text,
        severity: None,
        provenance: secflow::ProvenanceOptions::default(),
    };
    let (out, corrupted) = secflow_cli::render_audit(&schema, &outcome, &opts);
    assert_eq!(corrupted, exit::CERTIFY);
    assert!(out.contains("certification FAILED"));
    assert!(!out.contains("<- sink"), "no paths from uncertified proofs");
}

#[test]
fn audit_agrees_with_check_on_every_policy_file() {
    use secflow_cli::AuditFormat;
    for name in ["stockbroker", "stockbroker_safe", "hospital", "bank"] {
        let (_, check_code) = run(&Command::Check {
            file: policy(name),
            explain: false,
            jobs: 1,
            full_saturation: false,
            certify: false,
            stream: false,
            ndjson: false,
        });
        let (_, audit_code) = audit(policy(name), AuditFormat::Text);
        assert_eq!(
            audit_code, check_code,
            "{name}: audit and check verdicts diverge"
        );
    }
}

#[test]
fn usage_documents_audit() {
    assert!(secflow_cli::USAGE.contains("audit"));
    assert!(secflow_cli::USAGE.contains("--severity"));
    assert!(secflow_cli::USAGE.contains("--trace"));
}

#[test]
fn stream_ndjson_artifact_flags_stay_usage_errors() {
    // `--stream --format=ndjson` buffers no per-group artifacts, so the
    // artifact-hungry flags must keep being rejected at parse time — the
    // binary shim maps these to exit 2 (USAGE), never to a late runtime
    // failure with a different class.
    fn args(extra: &str) -> Vec<String> {
        ["check", "p.sfl", "--stream", "--format=ndjson", extra]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }
    let explain = secflow_cli::parse_args(&args("--explain"));
    let certify = secflow_cli::parse_args(&args("--certify"));
    assert!(explain.is_err(), "--stream --explain must be a usage error");
    assert!(certify.is_err(), "--stream --certify must be a usage error");
    // The message names the conflicting flag so scripts fail loudly.
    assert!(explain.unwrap_err().contains("--stream"));
    assert!(certify.unwrap_err().contains("--stream"));
    // `--format=ndjson` without `--stream` is equally a parse-time reject.
    let bare: Vec<String> = ["check", "p.sfl", "--format=ndjson"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(secflow_cli::parse_args(&bare).is_err());
}

#[test]
fn serve_exit_code_classes_are_preserved() {
    use secflow_cli::exit;
    // Usage errors (exit 2 via the shim): missing file, stray flag.
    assert!(secflow_cli::parse_args(&["serve".into()]).is_err());
    assert!(secflow_cli::parse_args(&["serve".into(), "p.sfl".into(), "--jobs".into()]).is_err());
    // Input error (exit 3): unreadable policy file.
    let (report, code) = run(&Command::Serve {
        file: policy("does_not_exist"),
    });
    assert_eq!(code, exit::INPUT);
    assert!(report.contains("cannot read"));
    // A bad *request* is not a process failure: the session answers with an
    // error record and still exits 0 on shutdown.
    let src = std::fs::read_to_string(policy("stockbroker")).unwrap();
    let schema = secflow_cli::load_str(&src).unwrap();
    let (out, code) =
        secflow_cli::serve_session(&schema, [r#"{"op":"frobnicate"}"#, r#"{"op":"shutdown"}"#]);
    assert_eq!(code, exit::OK);
    assert!(out.contains("\"error\":"));
    assert!(out.contains("\"shutdown\":"));
}

#[test]
fn serve_session_maintains_stockbroker_verdicts() {
    // Drive the real stockbroker policy through a grant/revoke session:
    // revoking the flaw-carrying capability flips the verdict delta, and
    // re-granting it flips it back — the scripted CI smoke runs the same
    // session through the binary.
    let src = std::fs::read_to_string(policy("stockbroker")).unwrap();
    let schema = secflow_cli::load_str(&src).unwrap();
    let (out, code) = secflow_cli::serve_session(
        &schema,
        [
            r#"{"op":"check","user":"clerk"}"#,
            r#"{"op":"revoke","user":"clerk","fn":"w_budget"}"#,
            r#"{"op":"grant","user":"clerk","fn":"w_budget"}"#,
            r#"{"op":"shutdown"}"#,
        ],
    );
    assert_eq!(code, secflow_cli::exit::OK);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 5, "ready + 4 responses:\n{out}");
    assert!(lines[1].contains("\"status\":\"violated\""));
    assert!(lines[2].contains("\"changed\":true"));
    assert!(lines[2].contains("\"status\":\"satisfied\""));
    assert!(lines[3].contains("\"status\":\"violated\""));
}

#[test]
fn usage_documents_serve() {
    assert!(secflow_cli::USAGE.contains("serve"));
    assert!(secflow_cli::USAGE.contains("shutdown"));
}
