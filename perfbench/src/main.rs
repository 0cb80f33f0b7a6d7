//! Input generator and traced pipeline of the secflow benchmark. The
//! driver is `run.py` next to this package; it calls:
//!
//! * `perfbench gen <workload> <seed> <dir>` — writes `policy.sfl`,
//!   `script.ndjson` (the `serve` requests) and `expected.json` (the known
//!   answer for every verdict) into `<dir>`;
//! * `perfbench trace <workload> <dir>` — runs the workload's path through
//!   the layers' public functions with a span around each call and prints
//!   one JSON object of spans, per-layer metrics and statuses.

mod gen;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_gen(workload: &str, seed: u64, dir: &str) -> Result<(), String> {
    let g = gen::generate(workload, seed).ok_or_else(|| {
        format!(
            "unknown workload `{workload}` (one of {})",
            gen::WORKLOADS.join(", ")
        )
    })?;
    let schema = oodb_lang::parse_schema(&g.policy).map_err(|e| e.to_string())?;
    oodb_lang::check_schema(&schema).map_err(|e| e.to_string())?;
    let mut expected = String::from("{\"requirements\": [");
    for (i, (req, st)) in schema.requirements.iter().zip(&g.expected).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            expected,
            "{sep}\n  {{\"require\": {}, \"user\": {}, \"status\": \"{}\"}}",
            json_str(&req.to_string()),
            json_str(req.user.as_str()),
            st.name()
        );
    }
    expected.push_str("\n], \"script\": [");
    let mut script = String::new();
    for (i, req) in g.script.iter().enumerate() {
        let verdicts: Vec<String> = req
            .verdicts
            .iter()
            .map(|(r, st)| format!("[{r}, \"{}\"]", st.name()))
            .collect();
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            expected,
            "{sep}\n  {{\"op\": \"{}\", \"verdicts\": [{}]}}",
            req.op,
            verdicts.join(", ")
        );
        script.push_str(&req.line);
        script.push('\n');
    }
    expected.push_str("\n]}\n");
    let write = |name: &str, text: &str| {
        std::fs::write(format!("{dir}/{name}"), text)
            .map_err(|e| format!("cannot write {dir}/{name}: {e}"))
    };
    write("policy.sfl", &g.policy)?;
    write("script.ndjson", &script)?;
    write("expected.json", &expected)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["gen", workload, seed, dir] => seed
            .parse()
            .map_err(|e| format!("bad seed `{seed}`: {e}"))
            .and_then(|seed| write_gen(workload, seed, dir)),
        ["trace", workload, dir] => trace::run(workload, dir).map(|json| println!("{json}")),
        _ => Err(
            "usage: perfbench gen <workload> <seed> <dir> | perfbench trace <workload> <dir>"
                .into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
