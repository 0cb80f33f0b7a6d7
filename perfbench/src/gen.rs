//! Seeded workload generators. Each workload is policy text (what
//! `secflow` reads), an optional `serve` request script, and the known
//! answer for every verdict.
//!
//! Every shape has an answer by construction, so no oracle runs at
//! benchmark time; the `tests` module checks each rule against
//! `reference::RefClosure` on small instances of the same shapes:
//!
//! * a wide user (`width` probes `r_a(c) >= k` over its own attributes)
//!   violates `r_a(head) : ti` iff it holds the write `w_a(head)`;
//! * a deep user (a `+`-tree of `2^depth` reads of one attribute compared
//!   with a constant) always violates `r_a : ti`;
//! * a Zipf population user violates `r_a{k} : ti` iff its profile `k` is
//!   even (even profiles carry the write);
//! * a hot user violates `r_{a_i} : pi` iff it currently holds probe `i`,
//!   and always violates `r_b0 : ti` through its dense core.

use std::fmt::Write as _;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "policy_check",
    "population_stream",
    "serve_edit_storm",
    "policy_audit",
];

/// A requirement's verdict as the benchmark checks it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Status {
    /// No occurrence violates the requirement.
    Satisfied,
    /// At least one occurrence violates it.
    Violated,
}

impl Status {
    /// The status string `secflow` prints in NDJSON records.
    pub fn name(self) -> &'static str {
        match self {
            Status::Satisfied => "satisfied",
            Status::Violated => "violated",
        }
    }
}

/// One `serve` request and the response the benchmark expects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The NDJSON request line (no newline).
    pub line: String,
    /// `check`, `grant` or `revoke`.
    pub op: &'static str,
    /// For a check, the status of every requirement of the user; for an
    /// edit, only the requirements whose status the edit changed.
    pub verdicts: Vec<(usize, Status)>,
}

/// A generated workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Generated {
    /// Policy text.
    pub policy: String,
    /// Known status of every `require`, in policy order.
    pub expected: Vec<Status>,
    /// The `serve` request script (empty for the one-shot paths).
    pub script: Vec<Request>,
}

/// The production-sized instance of a workload.
pub fn generate(workload: &str, seed: u64) -> Option<Generated> {
    Some(match workload {
        "policy_check" => policy_check(seed, 50, 8, 14, 48),
        "population_stream" => population(seed, 100_000, 1000),
        "serve_edit_storm" => serve_storm(seed, 5000, 1000, &[12, 13, 14, 16], 16, 1000, 200),
        "policy_audit" => policy_audit(seed, 64, 128),
        _ => return None,
    })
}

/// SplitMix64: a small, fixed PRNG, so a seed names the same inputs on
/// every commit whatever the repository's own random shims do.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x05ee_d5ec_f10e)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf sampler over ranks `0..n` with exponent 1.07 — the skew of
/// `secflow_workloads::scale::zipf_population`.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        Zipf(
            (0..n)
                .map(|k| {
                    total += 1.0 / ((k + 1) as f64).powf(1.07);
                    total
                })
                .collect(),
        )
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let r = rng.unit() * self.0[self.0.len() - 1];
        self.0.partition_point(|&c| c < r).min(self.0.len() - 1)
    }
}

/// Policy text under construction: one shared class `C` of int
/// attributes, extra classes, functions, users and requirements.
#[derive(Default)]
struct Policy {
    attrs: usize,
    classes: Vec<String>,
    fns: Vec<String>,
    users: Vec<String>,
    reqs: Vec<(String, Status)>,
}

impl Policy {
    fn attr(&mut self) -> usize {
        self.attrs += 1;
        self.attrs - 1
    }

    /// A wide user: `width` probes over fresh attributes, the write on the
    /// first when `write`; requires `r_a(head) : ti`.
    fn wide_user(&mut self, rng: &mut Rng, user: &str, width: usize, write: bool) {
        let head = self.attrs;
        let mut caps = Vec::new();
        for i in 0..width {
            let a = self.attr();
            let k = rng.below(1000);
            self.fns
                .push(format!("fn {user}p{i}(c: C): bool {{ r_a{a}(c) >= {k} }}"));
            caps.push(format!("{user}p{i}"));
        }
        if write {
            caps.push(format!("w_a{head}"));
        }
        self.users
            .push(format!("user {user} {{ {} }}", caps.join(", ")));
        let status = if write {
            Status::Violated
        } else {
            Status::Satisfied
        };
        self.reqs
            .push((format!("require ({user}, r_a{head}(x) : ti)"), status));
    }

    /// A deep user: one probe whose body is a `+`-tree of `2^depth` reads
    /// of a fresh attribute, plus the write on it; requires `r_a : ti`.
    fn deep_user(&mut self, rng: &mut Rng, user: &str, depth: usize) {
        fn tree(out: &mut String, a: usize, d: usize) {
            if d == 0 {
                let _ = write!(out, "r_a{a}(c)");
            } else {
                out.push('(');
                tree(out, a, d - 1);
                out.push_str(" + ");
                tree(out, a, d - 1);
                out.push(')');
            }
        }
        let a = self.attr();
        let mut body = String::new();
        tree(&mut body, a, depth);
        let k = rng.below(1000);
        self.fns
            .push(format!("fn {user}d(c: C): bool {{ {body} >= {k} }}"));
        self.users
            .push(format!("user {user} {{ {user}d, w_a{a} }}"));
        self.reqs.push((
            format!("require ({user}, r_a{a}(x) : ti)"),
            Status::Violated,
        ));
    }

    fn text(&self) -> String {
        let mut out = String::new();
        let attrs: Vec<String> = (0..self.attrs.max(1))
            .map(|a| format!("a{a}: int"))
            .collect();
        let _ = writeln!(out, "class C {{ {} }}", attrs.join(", "));
        for section in [&self.classes, &self.fns, &self.users] {
            for line in section {
                out.push_str(line);
                out.push('\n');
            }
        }
        for (line, _) in &self.reqs {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    fn finish(self, script: Vec<Request>) -> Generated {
        Generated {
            policy: self.text(),
            expected: self.reqs.iter().map(|(_, s)| *s).collect(),
            script,
        }
    }
}

/// `deep` deep users (closure-heavy, goal-directed slicing pays) mixed in
/// seeded order with `wide` wide users, half of which hold the write.
/// Every capability list is distinct, so the closure cache never hits.
pub fn policy_check(seed: u64, deep: usize, depth: usize, wide: usize, width: usize) -> Generated {
    let mut rng = Rng::new(seed);
    let mut kinds: Vec<Option<bool>> = (0..wide).map(|i| Some(i < wide / 2)).collect();
    kinds.extend((0..deep).map(|_| None));
    rng.shuffle(&mut kinds);
    let mut p = Policy::default();
    for (j, kind) in kinds.into_iter().enumerate() {
        match kind {
            Some(write) => p.wide_user(&mut rng, &format!("u{j}"), width, write),
            None => p.deep_user(&mut rng, &format!("u{j}"), depth),
        }
    }
    p.finish(Vec::new())
}

/// `users` wide users of `width` probes, half of them holding the write,
/// in seeded order: every user saturates fully with proofs under `audit`.
pub fn policy_audit(seed: u64, users: usize, width: usize) -> Generated {
    let mut rng = Rng::new(seed);
    let mut writes: Vec<bool> = (0..users).map(|i| i < users / 2).collect();
    rng.shuffle(&mut writes);
    let mut p = Policy::default();
    for (j, write) in writes.into_iter().enumerate() {
        p.wide_user(&mut rng, &format!("u{j}"), width, write);
    }
    p.finish(Vec::new())
}

/// Adds `profiles` probe functions and `users` users, each a clone of a
/// Zipf-drawn profile, with one requirement each. Returns every user's
/// known status.
fn zipf_users(p: &mut Policy, rng: &mut Rng, users: usize, profiles: usize) -> Vec<Status> {
    for k in 0..profiles {
        let a = p.attr();
        let c = rng.below(1000);
        p.fns
            .push(format!("fn p{k}(c: C): bool {{ r_a{a}(c) >= {c} }}"));
    }
    let zipf = Zipf::new(profiles);
    (0..users)
        .map(|j| {
            let k = zipf.draw(rng);
            let (caps, status) = if k.is_multiple_of(2) {
                (format!("p{k}, w_a{k}"), Status::Violated)
            } else {
                (format!("p{k}"), Status::Satisfied)
            };
            p.users.push(format!("user u{j} {{ {caps} }}"));
            p.reqs
                .push((format!("require (u{j}, r_a{k}(x) : ti)"), status));
            status
        })
        .collect()
}

/// `users` users over `profiles` Zipf-popular grant profiles.
pub fn population(seed: u64, users: usize, profiles: usize) -> Generated {
    let mut rng = Rng::new(seed);
    let mut p = Policy::default();
    zipf_users(&mut p, &mut rng, users, profiles);
    p.finish(Vec::new())
}

/// One hot user of the edit storm: its probe pool, which probes it holds
/// and the requirements the benchmark tracks.
struct Hot {
    name: String,
    granted: Vec<bool>,
    /// `(requirement index, probe index)`; the probe's `pi` requirement.
    probe_reqs: Vec<(usize, usize)>,
    /// The core's `r_b0 : ti` requirement (always violated).
    core_req: usize,
}

impl Hot {
    fn statuses(&self) -> Vec<(usize, Status)> {
        let mut out: Vec<(usize, Status)> = self
            .probe_reqs
            .iter()
            .map(|&(r, i)| {
                (
                    r,
                    if self.granted[i] {
                        Status::Violated
                    } else {
                        Status::Satisfied
                    },
                )
            })
            .collect();
        out.push((self.core_req, Status::Violated));
        out.sort_unstable();
        out
    }
}

/// A `users`-user Zipf population plus one hot user per entry of `cores`:
/// `width` probes held out of a pool half again as large and a dense core
/// of that many `q(x: int, d: D) = (x + r_b0(d)) >= j` functions on a
/// class of its own (the `edit_trace_dense` shape). The script sends
/// `checks` Zipf-spread checks over every user and `edits` probe toggles
/// on the hot users, each followed by a check of the edited user.
pub fn serve_storm(
    seed: u64,
    users: usize,
    profiles: usize,
    cores: &[usize],
    width: usize,
    checks: usize,
    edits: usize,
) -> Generated {
    let mut rng = Rng::new(seed);
    let mut p = Policy::default();
    let status_of = zipf_users(&mut p, &mut rng, users, profiles);
    let pool = width + width / 2 + 1;
    let mut hots = Vec::new();
    for (h, &core) in cores.iter().enumerate() {
        let name = format!("hot{h}");
        let attrs: Vec<String> = (0..pool).map(|i| format!("h{h}a{i}: int")).collect();
        p.classes
            .push(format!("class H{h} {{ {} }}", attrs.join(", ")));
        p.classes.push(format!("class D{h} {{ h{h}b0: int }}"));
        let mut caps = Vec::new();
        for i in 0..pool {
            let k = rng.below(1000);
            p.fns.push(format!(
                "fn h{h}p{i}(c: H{h}): bool {{ r_h{h}a{i}(c) >= {k} }}"
            ));
            if i < width {
                caps.push(format!("h{h}p{i}"));
            }
        }
        for j in 0..core {
            p.fns.push(format!(
                "fn h{h}q{j}(x: int, d: D{h}): bool {{ (x + r_h{h}b0(d)) >= {j} }}"
            ));
            caps.push(format!("h{h}q{j}"));
        }
        p.users
            .push(format!("user {name} {{ {} }}", caps.join(", ")));
        let mut probes: Vec<usize> = (0..pool).collect();
        rng.shuffle(&mut probes);
        let mut hot = Hot {
            name,
            granted: (0..pool).map(|i| i < width).collect(),
            probe_reqs: Vec::new(),
            core_req: 0,
        };
        for &i in &probes[..4] {
            hot.probe_reqs.push((p.reqs.len(), i));
            p.reqs.push((
                format!("require ({}, r_h{h}a{i}(x) : pi)", hot.name),
                Status::Violated,
            ));
        }
        hot.core_req = p.reqs.len();
        p.reqs.push((
            format!("require ({}, r_h{h}b0(x) : ti)", hot.name),
            Status::Violated,
        ));
        hots.push(hot);
    }
    for hot in &hots {
        for (r, st) in hot.statuses() {
            p.reqs[r].1 = st;
        }
    }

    // Checks are Zipf-spread over a seeded ranking of every user, hot
    // users included.
    let total = users + hots.len();
    let mut ranking: Vec<usize> = (0..total).collect();
    rng.shuffle(&mut ranking);
    let zipf = Zipf::new(total);
    let mut steps: Vec<bool> = (0..checks + edits).map(|i| i < edits).collect();
    rng.shuffle(&mut steps);
    let check = |user: usize, hots: &[Hot]| -> Request {
        let (name, verdicts) = if user < users {
            (format!("u{user}"), vec![(user, status_of[user])])
        } else {
            let hot = &hots[user - users];
            (hot.name.clone(), hot.statuses())
        };
        Request {
            line: format!(r#"{{"op":"check","user":"{name}"}}"#),
            op: "check",
            verdicts,
        }
    };
    let mut script = Vec::with_capacity(checks + 2 * edits);
    for is_edit in steps {
        if !is_edit {
            script.push(check(ranking[zipf.draw(&mut rng)], &hots));
            continue;
        }
        let h = rng.below(hots.len());
        let i = rng.below(pool);
        let hot = &mut hots[h];
        let before = hot.statuses();
        hot.granted[i] = !hot.granted[i];
        let op = if hot.granted[i] { "grant" } else { "revoke" };
        let deltas = hot
            .statuses()
            .into_iter()
            .filter(|s| !before.contains(s))
            .collect();
        script.push(Request {
            line: format!(r#"{{"op":"{op}","user":"{}","fn":"h{h}p{i}"}}"#, hot.name),
            op,
            verdicts: deltas,
        });
        script.push(check(users + h, &hots));
    }
    p.finish(script)
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow::algorithm::{check_against, AnalysisConfig};
    use secflow::{NProgram, RefClosure, Verdict};

    /// Every requirement's by-construction status, recomputed with the
    /// reference engine (full saturation, no shared code with the
    /// production closure).
    fn oracle(policy: &str) -> Vec<Status> {
        let schema = oodb_lang::parse_schema(policy).expect("generated policy parses");
        oodb_lang::check_schema(&schema).expect("generated policy type-checks");
        let config = AnalysisConfig::default();
        schema
            .requirements
            .iter()
            .map(|req| {
                let caps = schema.user(&req.user).expect("user exists");
                let prog =
                    NProgram::unfold_with_limit(&schema, caps, config.node_limit).expect("unfolds");
                let closure = RefClosure::compute_with(&prog, &config.rules, config.term_limit)
                    .expect("saturates");
                match check_against(&prog, &closure, req) {
                    Verdict::Satisfied => Status::Satisfied,
                    Verdict::Violated(_) => Status::Violated,
                }
            })
            .collect()
    }

    #[test]
    fn check_and_audit_answers_match_the_reference_engine() {
        for seed in 0..3 {
            let g = policy_check(seed, 3, 3, 4, 3);
            assert_eq!(g.expected, oracle(&g.policy));
            assert!(g.expected.contains(&Status::Satisfied));
            let g = policy_audit(seed, 4, 3);
            assert_eq!(g.expected, oracle(&g.policy));
        }
    }

    #[test]
    fn population_answers_match_the_reference_engine() {
        let g = population(7, 60, 9);
        assert_eq!(g.expected, oracle(&g.policy));
        assert!(g.expected.contains(&Status::Satisfied));
        assert!(g.expected.contains(&Status::Violated));
    }

    /// Replays the script's edits on the policy text and checks every
    /// expected check response against the reference engine.
    #[test]
    fn serve_script_answers_match_the_reference_engine() {
        let g = serve_storm(3, 20, 6, &[2, 3], 4, 30, 12);
        assert_eq!(g.expected, oracle(&g.policy));
        let mut policy = g.policy.clone();
        for req in &g.script {
            let fields: Vec<&str> = req.line.split('"').collect();
            let user = fields[7];
            if req.op != "check" {
                let f = fields[11];
                let header = format!("user {user} {{ ");
                let start = policy.find(&header).expect("user line") + header.len();
                let end = start + policy[start..].find(" }").expect("closing brace");
                let mut caps: Vec<String> =
                    policy[start..end].split(", ").map(str::to_owned).collect();
                if req.op == "grant" {
                    caps.push(f.to_owned());
                } else {
                    caps.retain(|c| c != f);
                }
                policy.replace_range(start..end, &caps.join(", "));
                continue;
            }
            let now = oracle(&policy);
            for &(r, st) in &req.verdicts {
                assert_eq!(now[r], st, "{} after edits", req.line);
            }
        }
        assert_eq!(g.script.iter().filter(|r| r.op != "check").count(), 12);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in WORKLOADS {
            let small = |seed| match w {
                "policy_check" => policy_check(seed, 2, 2, 2, 2),
                "population_stream" => population(seed, 50, 5),
                "serve_edit_storm" => serve_storm(seed, 20, 5, &[2], 3, 20, 5),
                _ => policy_audit(seed, 3, 3),
            };
            assert_eq!(small(1), small(1), "{w}");
            assert_ne!(small(1).policy, small(2).policy, "{w}");
        }
        let a = serve_storm(1, 20, 5, &[2], 3, 20, 5);
        let b = serve_storm(2, 20, 5, &[2], 3, 20, 5);
        assert_ne!(a.script, b.script);
    }
}
