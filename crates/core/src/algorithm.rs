//! Algorithm `A(R)` (§4.1, Definition 6).
//!
//! > *"Given `R = (u, f(x1:c…,…,xn:c…):c…)`, `A(R)` calculates the closure
//! > set of all inferable terms of `F(F)` where `F` is a set of all
//! > functions in the capability list of `u`. Then, if there exists some
//! > `let(f) x1=e1,…,xn=en in … end ∈ S'(F)` for which all terms
//! > corresponding to capabilities specified in `R` are included in the
//! > closure set, `A(R)` determines that `R` is not satisfied."*
//!
//! Occurrences of the target function are:
//!
//! * every `let(f) …` node produced by unfolding an inner invocation —
//!   argument position `i` maps to the binding expression `e_i`, the
//!   returned value to the `let` node itself;
//! * every `r_att` / `w_att` / `new C` node when the target is a special
//!   function — arguments are the node's children, the returned value the
//!   node itself (the paper: *"`let(f) … end` is replaced by
//!   `f(e1,…,en)`"*);
//! * the *outer-most* entry when the target is itself in the capability
//!   list: the user invokes it directly from a query, so capabilities on
//!   its arguments are achievable axiomatically (the user supplies them:
//!   `ta`/`pa` always, `ti`/`pi` exactly for basic-typed parameters) and
//!   capabilities on the returned value are read off the body root.

use crate::closure::{
    Closure, ClosureError, ClosureOptions, ProofMode, SaturationMode, DEFAULT_TERM_LIMIT,
};
use crate::demand::{goal_exprs, DemandPlan};
use crate::report::{Occurrence, OccurrenceKind, Verdict, Violation};
use crate::rules::RuleConfig;
use crate::stats::ClosureStats;
use crate::term::Term;
use crate::unfold::{ExprId, NKind, NProgram, UnfoldError, DEFAULT_NODE_LIMIT};
use oodb_lang::requirement::{Cap, Requirement};
use oodb_lang::Schema;
use oodb_model::{CapabilityList, FnRef, Type, UserName};
use secflow_obs::Phases;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables for one analysis run.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisConfig {
    /// Rule groups (ablation).
    pub rules: RuleConfig,
    /// Closure term budget.
    pub term_limit: usize,
    /// Unfolding node budget.
    pub node_limit: usize,
    /// The saturation engine. There is one, so nothing reads this; the
    /// field is kept only because the standalone `perfbench` crate, built
    /// unchanged against every revision it compares, passes it to
    /// [`Closure::compute_demand_saturation`]. It is not part of the cache
    /// identity ([`semantic_fingerprint`]).
    pub saturation: SaturationMode,
}

impl AnalysisConfig {
    /// The [`ClosureOptions`] of one saturation under this configuration's
    /// rule groups and term budget.
    pub fn closure_options<'d>(
        &self,
        proofs: ProofMode,
        demand: Option<&'d DemandPlan>,
    ) -> ClosureOptions<'d> {
        ClosureOptions {
            rules: self.rules,
            limit: self.term_limit,
            proofs,
            demand,
        }
    }
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            rules: RuleConfig::default(),
            term_limit: DEFAULT_TERM_LIMIT,
            node_limit: DEFAULT_NODE_LIMIT,
            saturation: SaturationMode::default(),
        }
    }
}

/// Fingerprint of exactly the [`AnalysisConfig`] fields that can change
/// closure *contents*: the rule-group toggles and the two budgets. Spelled
/// out field by field — earlier revisions hashed `format!("{config:?}")`,
/// so any `Debug`-visible but semantically neutral addition silently
/// changed cache identity and spuriously invalidated every entry.
fn semantic_fingerprint(config: &AnalysisConfig) -> (u64, u64) {
    let r = &config.rules;
    let text = format!(
        "eq_transfer={} pi_join={} pi_star={} write_read={} basic_rules={} \
         feedback_guard={} printable_oids={} term_limit={} node_limit={}",
        r.eq_transfer,
        r.pi_join,
        r.pi_star,
        r.write_read,
        r.basic_rules,
        r.feedback_guard,
        r.printable_oids,
        config.term_limit,
        config.node_limit,
    );
    fingerprint("config", &text)
}

/// Analysis failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// The requirement references an unknown user.
    UnknownUser(String),
    /// Unfolding failed.
    Unfold(UnfoldError),
    /// The closure exceeded its budget.
    Closure(ClosureError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::UnknownUser(u) => write!(f, "unknown user `{u}`"),
            AnalysisError::Unfold(e) => write!(f, "{e}"),
            AnalysisError::Closure(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<UnfoldError> for AnalysisError {
    fn from(e: UnfoldError) -> Self {
        AnalysisError::Unfold(e)
    }
}

impl From<ClosureError> for AnalysisError {
    fn from(e: ClosureError) -> Self {
        AnalysisError::Closure(e)
    }
}

/// Run `A(R)` with default configuration.
///
/// ```
/// use oodb_lang::{check_schema, parse_requirement, parse_schema};
/// use secflow::algorithm::analyze;
///
/// let schema = parse_schema(r#"
///     class Broker { salary: int, budget: int }
///     fn checkBudget(b: Broker): bool { r_budget(b) >= 10 * r_salary(b) }
///     user clerk { checkBudget, w_budget }
/// "#).unwrap();
/// check_schema(&schema).unwrap();
///
/// let req = parse_requirement("(clerk, r_salary(x) : ti)").unwrap();
/// assert!(analyze(&schema, &req).unwrap().is_violated());
/// ```
pub fn analyze(schema: &Schema, req: &Requirement) -> Result<Verdict, AnalysisError> {
    analyze_with_config(schema, req, &AnalysisConfig::default())
}

/// Run `A(R)` with explicit configuration. The schema must already be
/// type-checked (see [`oodb_lang::check_schema`]).
///
/// A one-requirement [`analyze_batch`]: saturation is restricted to the
/// requirement's relevance slice ([`DemandPlan`]) and stops as soon as
/// every target occurrence's verdict is decided. Verdicts — including
/// witness terms — are identical to full saturation
/// ([`BatchOptions::full_saturation`]).
pub fn analyze_with_config(
    schema: &Schema,
    req: &Requirement,
    config: &AnalysisConfig,
) -> Result<Verdict, AnalysisError> {
    analyze_batch(
        schema,
        std::slice::from_ref(req),
        config,
        &BatchOptions::default(),
    )
    .verdicts
    .pop()
    .expect("one requirement, one verdict")
}

/// Run `A(R)` for every requirement in `reqs` against an explicit
/// capability list; the requirements' user field is not consulted. One
/// uncached, demand-driven group through the body behind every batch:
/// verdicts come back in `reqs` order, and a failure of the shared phases
/// (unfold or closure budget) fails the call. The repair advisor's probes
/// and the dynamic guard's exercised sets run through here.
pub fn analyze_caps(
    schema: &Schema,
    caps: &CapabilityList,
    reqs: &[Requirement],
    config: &AnalysisConfig,
) -> Result<Vec<Verdict>, AnalysisError> {
    let reqs: Vec<&Requirement> = reqs.iter().collect();
    // The group's bookkeeping is discarded, so it names no user.
    let mut group = BatchGroup::new(UserName::new(""), Vec::new());
    let opts = BatchOptions::default();
    run_group(schema, config, &opts, None, caps, &reqs, &mut group)
}

/// Everything measured during one group's run: per-phase wall-clock
/// (unfold → closure → check) plus the closure's own counters.
#[derive(Clone, Debug, Default)]
pub struct AnalysisStats {
    /// Wall-clock per analysis phase, in execution order.
    pub phases: Phases,
    /// Closure counters (defaulted when unfolding failed before closure).
    pub closure: ClosureStats,
    /// Unfolded program size in nodes (0 when unfolding failed).
    pub program_nodes: u64,
    /// Occurrences of the target function that were checked.
    pub occurrences_checked: u64,
}

/// The capability queries `A(R)`'s verdict check needs from a closure.
///
/// Both closure engines implement this — the fast dense engine
/// ([`Closure`]) and the retained slow-path oracle
/// ([`crate::reference::RefClosure`]) — so [`check_against`] produces
/// verdicts from either, which is what lets the differential tests compare
/// end-to-end `analyze` results rather than just term sets.
pub trait CapabilityView {
    /// Is `ta[e]` in the closure?
    fn has_ta(&self, e: ExprId) -> bool;
    /// Is `pa[e]` in the closure?
    fn has_pa(&self, e: ExprId) -> bool;
    /// A `ti` term on `e`, deterministic (first origin derived).
    fn ti_witness(&self, e: ExprId) -> Option<Term>;
    /// A `pi` term on `e`, deterministic.
    fn pi_witness(&self, e: ExprId) -> Option<Term>;
}

impl CapabilityView for Closure {
    fn has_ta(&self, e: ExprId) -> bool {
        Closure::has_ta(self, e)
    }
    fn has_pa(&self, e: ExprId) -> bool {
        Closure::has_pa(self, e)
    }
    fn ti_witness(&self, e: ExprId) -> Option<Term> {
        Closure::ti_witness(self, e)
    }
    fn pi_witness(&self, e: ExprId) -> Option<Term> {
        Closure::pi_witness(self, e)
    }
}

/// Check a requirement against an already-computed closure (used when many
/// requirements share one capability list — the common case in the bench
/// harness and the batch driver).
pub fn check_against<C: CapabilityView>(
    prog: &NProgram,
    closure: &C,
    req: &Requirement,
) -> Verdict {
    check_with_occurrences(prog, closure, req, &occurrences(prog, &req.target))
}

/// [`check_against`] when the target's occurrence list is already known —
/// the batch driver memoizes `occurrences(prog, target)` per group so that
/// many requirements on the same target enumerate the program once.
pub fn check_with_occurrences<C: CapabilityView>(
    prog: &NProgram,
    closure: &C,
    req: &Requirement,
    occs: &[Occurrence],
) -> Verdict {
    let mut violations = Vec::new();
    for occ in occs {
        if let Some(witnesses) = occurrence_violates(prog, closure, req, occ) {
            violations.push(Violation {
                occurrence: occ.clone(),
                witnesses,
            });
        }
    }
    if violations.is_empty() {
        Verdict::Satisfied
    } else {
        Verdict::Violated(violations)
    }
}

/// All occurrences of a target function in the unfolded program.
pub fn occurrences(prog: &NProgram, target: &FnRef) -> Vec<Occurrence> {
    let mut out = Vec::new();
    // Outer-most direct grants.
    for (idx, outer) in prog.outers.iter().enumerate() {
        // Outer special functions are plain nodes; the generic node scan
        // below picks them up with their ArgVar children.
        if &outer.fn_ref == target && outer.root != 0 {
            if let FnRef::Access(_) = target {
                out.push(Occurrence {
                    kind: OccurrenceKind::OuterAccess { outer: idx },
                    args: Vec::new(),
                    ret: outer.root,
                });
            }
        }
    }
    // Inner (and outer-special) occurrences: scan nodes.
    for e in prog.iter() {
        match (&e.kind, target) {
            (
                NKind::Let {
                    origin: Some(f),
                    bindings,
                    ..
                },
                FnRef::Access(name),
            ) if f == name => {
                out.push(Occurrence {
                    kind: OccurrenceKind::Inner { node: e.id },
                    args: bindings.iter().map(|(_, id)| *id).collect(),
                    ret: e.id,
                });
            }
            (NKind::Read(attr, recv), FnRef::Read(a)) if attr == a => {
                out.push(Occurrence {
                    kind: OccurrenceKind::Inner { node: e.id },
                    args: vec![*recv],
                    ret: e.id,
                });
            }
            (NKind::Write(attr, recv, val), FnRef::Write(a)) if attr == a => {
                out.push(Occurrence {
                    kind: OccurrenceKind::Inner { node: e.id },
                    args: vec![*recv, *val],
                    ret: e.id,
                });
            }
            (NKind::New(class, args), FnRef::New(c)) if class == c => {
                out.push(Occurrence {
                    kind: OccurrenceKind::Inner { node: e.id },
                    args: args.iter().map(|(_, id)| *id).collect(),
                    ret: e.id,
                });
            }
            _ => {}
        }
    }
    out
}

/// If the occurrence achieves every capability of the requirement, return
/// the witness terms (in requirement order).
fn occurrence_violates<C: CapabilityView>(
    prog: &NProgram,
    closure: &C,
    req: &Requirement,
    occ: &Occurrence,
) -> Option<Vec<Term>> {
    let mut witnesses = Vec::new();
    match occ.kind {
        OccurrenceKind::OuterAccess { outer } => {
            let o = &prog.outers[outer];
            for (i, caps) in req.arg_caps.iter().enumerate() {
                let ty = o
                    .params
                    .get(i)
                    .map(|(_, t)| t)
                    .cloned()
                    .unwrap_or(Type::Null);
                for cap in caps {
                    // The user supplies the argument directly: alterability
                    // is free; inferability is free exactly for basic types.
                    let achieved = match cap {
                        Cap::Ta | Cap::Pa => true,
                        Cap::Ti | Cap::Pi => ty.is_basic(),
                    };
                    if !achieved {
                        return None;
                    }
                    // No closure witness — mark with the body root's terms
                    // where possible; use a synthetic Ta/Ti on the root to
                    // keep the report non-empty.
                }
            }
            for cap in &req.ret_caps {
                let w = cap_witness(closure, occ.ret, *cap)?;
                witnesses.push(w);
            }
            Some(witnesses)
        }
        OccurrenceKind::Inner { .. } => {
            for (i, caps) in req.arg_caps.iter().enumerate() {
                let arg = *occ.args.get(i)?;
                for cap in caps {
                    let w = cap_witness(closure, arg, *cap)?;
                    witnesses.push(w);
                }
            }
            for cap in &req.ret_caps {
                let w = cap_witness(closure, occ.ret, *cap)?;
                witnesses.push(w);
            }
            Some(witnesses)
        }
    }
}

fn cap_witness<C: CapabilityView>(closure: &C, e: ExprId, cap: Cap) -> Option<Term> {
    match cap {
        Cap::Ta => closure.has_ta(e).then_some(Term::Ta(e)),
        Cap::Pa => closure.has_pa(e).then_some(Term::Pa(e)),
        Cap::Ti => closure.ti_witness(e),
        Cap::Pi => closure.pi_witness(e),
    }
}

/// Options for [`analyze_batch`].
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Worker threads for the group fan-out. `0` auto-detects the machine
    /// parallelism ([`std::thread::available_parallelism`], falling back to
    /// 1 when the platform cannot say); `1` runs serially on the calling
    /// thread; larger values are clamped to the group count.
    pub jobs: usize,
    /// Proof mode for the shared closures. [`ProofMode::Full`] is only
    /// needed when something will print derivations from the kept
    /// artifacts (the CLI `--explain` path).
    pub proofs: ProofMode,
    /// Keep each group's `(NProgram, Closure)` on [`BatchGroup::artifacts`]
    /// so callers can render explanations without recomputing.
    pub keep_artifacts: bool,
    /// Collect [`ClosureStats`] and per-phase timings per group.
    pub collect_stats: bool,
    /// Force full saturation even when the group is eligible for the
    /// demand-driven engine. Verdicts are identical either way; this is the
    /// escape hatch (CLI `--full-saturation`) and the oracle mode for the
    /// demand differential tests. Groups needing proofs or kept artifacts
    /// saturate fully regardless — a partial closure cannot back
    /// `--explain`-style derivation rendering for arbitrary terms.
    pub full_saturation: bool,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            jobs: 1,
            proofs: ProofMode::Off,
            keep_artifacts: false,
            collect_stats: false,
            full_saturation: false,
        }
    }
}

/// One unit of shared work in a batch run: all requirements naming the same
/// user (and therefore sharing one unfolding and one closure).
#[derive(Debug)]
pub struct BatchGroup {
    /// The user whose capability list this group analyzed.
    pub user: UserName,
    /// Indexes into the input requirement slice, in input order.
    pub req_indexes: Vec<usize>,
    /// Phase timings and closure counters (zeroed unless
    /// [`BatchOptions::collect_stats`]; `occurrences_checked` sums over the
    /// group's requirements).
    pub stats: AnalysisStats,
    /// Wall-clock of each requirement's check phase, aligned with
    /// `req_indexes`.
    pub check_times: Vec<Duration>,
    /// Occurrences checked per requirement, aligned with `req_indexes`.
    pub check_occurrences: Vec<u64>,
    /// The shared unfolding and closure, when
    /// [`BatchOptions::keep_artifacts`] and the shared phases succeeded.
    pub artifacts: Option<(NProgram, Closure)>,
}

impl BatchGroup {
    fn new(user: UserName, req_indexes: Vec<usize>) -> BatchGroup {
        BatchGroup {
            user,
            check_times: Vec::with_capacity(req_indexes.len()),
            check_occurrences: Vec::with_capacity(req_indexes.len()),
            req_indexes,
            stats: AnalysisStats::default(),
            artifacts: None,
        }
    }
}

/// The result of [`analyze_batch`].
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-requirement verdicts, in input order. A failure in a group's
    /// shared phase (unknown user, unfold or closure budget) is reported on
    /// every requirement of that group — exactly what per-requirement
    /// [`analyze`] calls would have returned.
    pub verdicts: Vec<Result<Verdict, AnalysisError>>,
    /// Per-group bookkeeping, in first-seen order of the users.
    pub groups: Vec<BatchGroup>,
    /// Worker threads actually used (after resolving `jobs == 0` and
    /// clamping to the group count).
    pub jobs_used: usize,
    /// Steal operations performed by the work-stealing pool: 0 for serial
    /// runs.
    pub steals: u64,
    /// `(len, capacity)` of the [`ClosureCache`] after this batch, when one
    /// was passed to [`analyze_batch_cached`]; `None` for uncached runs.
    pub cache_occupancy: Option<(usize, usize)>,
    /// Lifetime hit/miss counters of the cache after this batch, when one
    /// was passed; `None` for uncached runs. Lifetime, not per-batch: the
    /// cache is shared across calls, so consumers report the running
    /// totals (monotone counters).
    pub cache_stats: Option<CacheStats>,
}

/// A double-hash fingerprint of a canonical text rendering. Two 64-bit
/// `DefaultHasher` runs with different seeds: collisions would require both
/// to collide simultaneously, which is good enough for a cache key derived
/// from exact pretty-printed inputs.
fn fingerprint(tag: &str, text: &str) -> (u64, u64) {
    let mut h1 = DefaultHasher::new();
    tag.hash(&mut h1);
    text.hash(&mut h1);
    let mut h2 = DefaultHasher::new();
    0x9e37_79b9_7f4a_7c15_u64.hash(&mut h2);
    tag.hash(&mut h2);
    text.hash(&mut h2);
    (h1.finish(), h2.finish())
}

/// Cache key: schema, capability-list and configuration fingerprints. The
/// user's *name* is deliberately excluded — two users granted identical
/// capability lists unfold to the same `S'(F)` and saturate to the same
/// closure, so they share an entry.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CacheKey {
    schema_fp: (u64, u64),
    caps_fp: (u64, u64),
    config_fp: (u64, u64),
}

/// One cached partial closure: the shared unfolding, the slice-restricted
/// closure, which requirement shapes it was computed for, and the
/// occurrence memo accumulated so far.
#[derive(Clone)]
struct CacheEntry {
    prog: Arc<NProgram>,
    closure: Arc<Closure>,
    /// Requirement shapes the plan was built from (user field ignored).
    covered: Vec<Requirement>,
    /// Memoized `occurrences(prog, target)` results.
    occs: Vec<(FnRef, Arc<Vec<Occurrence>>)>,
    /// The plan the closure was computed under, for slice-coverage hits.
    plan: Arc<DemandPlan>,
    /// Did the sliced worklist drain (no early exit)? A drained closure
    /// answers *every* query whose goals lie inside the slice; an
    /// early-exited one only answers the goals it was tracking.
    drained: bool,
}

/// One lock-striped segment of a [`ClosureCache`]: entries tagged with a
/// last-touch tick, evicted least-recently-touched first.
#[derive(Default)]
struct CacheShard {
    entries: Vec<(CacheKey, CacheEntry, u64)>,
    tick: u64,
}

impl CacheShard {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Lifetime counters of a [`ClosureCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Groups served without any saturation.
    pub hits: u64,
    /// Groups that had to saturate: cold misses plus union recomputes.
    pub misses: u64,
    /// The subset of `misses` that found a cached entry for the key but
    /// could not cover the new goals, so the closure was recomputed —
    /// against the cached unfolding — with the union of old and new goal
    /// sets.
    pub union_recomputes: u64,
    /// Entries dropped because a shard exceeded its capacity; the
    /// least-recently-touched entry of the full shard goes first.
    pub evictions: u64,
}

/// A cross-call cache of demand-driven closures, keyed by
/// `(schema, capability list, analysis config)` fingerprints.
///
/// `A(R)`'s expensive phases depend only on that triple plus the goal set;
/// repeated [`analyze_batch_cached`] calls against the same policy (a
/// REPL-style CLI session, a watch loop, the advisor's repair search)
/// rediscover the same closures. A hit requires the cached run to *cover*
/// the new requirements: either the same requirement shape was analyzed
/// before, or the cached worklist drained and every new goal expression
/// lies inside the cached slice (the partial closure then already contains
/// every term the verdict can observe). Anything else recomputes — against
/// the cached unfolding — with the union of old and new goals, and the
/// refreshed entry replaces the old one.
///
/// Bounded LRU, lock-striped: entries are spread over `shard_count()`
/// independently locked segments keyed by the capability-list fingerprint,
/// so concurrent hits on different keys never contend on one mutex. Each
/// shard evicts its least-recently-touched entry past its share of the
/// capacity (a hit refreshes recency). Lookups hold a shard lock only
/// briefly and saturation runs outside it (concurrent misses on one key may
/// duplicate work, last writer wins).
pub struct ClosureCache {
    shards: Vec<Mutex<CacheShard>>,
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    union_recomputes: AtomicU64,
    evictions: AtomicU64,
}

impl ClosureCache {
    /// A cache holding at most `capacity` closures (minimum 1), striped
    /// over `capacity / 8` lock shards (clamped to 1..=16). Small caches
    /// (capacity < 16) keep a single shard, which preserves exact global
    /// LRU order; the striped layout approximates it per shard.
    pub fn new(capacity: usize) -> ClosureCache {
        let capacity = capacity.max(1);
        ClosureCache::with_shards(capacity, (capacity / 8).clamp(1, 16))
    }

    /// A cache with an explicit shard count. The capacity is rounded up to
    /// a multiple of the shard count: each shard holds at most
    /// `capacity.div_ceil(shards)` entries.
    pub fn with_shards(capacity: usize, shards: usize) -> ClosureCache {
        let shards = shards.max(1);
        let per_shard = capacity.max(1).div_ceil(shards);
        ClosureCache {
            shards: (0..shards)
                .map(|_| Mutex::new(CacheShard::default()))
                .collect(),
            per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            union_recomputes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Lifetime counters. A "hit" means a group was served without any
    /// saturation; recompute-with-union counts as a miss even though it
    /// reuses the cached unfolding, and is additionally tallied in
    /// [`CacheStats::union_recomputes`].
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            union_recomputes: self.union_recomputes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of cached closures across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_shard(s).entries.len())
            .sum()
    }

    /// Maximum number of closures the cache retains (per-shard LRU eviction
    /// past each shard's share).
    pub fn capacity(&self) -> usize {
        self.per_shard * self.shards.len()
    }

    /// Number of lock-striped shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Occupancy of the fullest shard — the striping diagnostic behind the
    /// CLI's `cache.shard.max_len` gauge.
    pub fn max_shard_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_shard(s).entries.len())
            .max()
            .unwrap_or(0)
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_for(&self, key: &CacheKey) -> &Mutex<CacheShard> {
        // Stripe on every key component. Within one batch the schema and
        // config fingerprints are constant, but the cache outlives batches:
        // a resident process serving several policies (or re-checking one
        // policy under different budgets) holds entries whose keys differ
        // *only* in those components, and striping on `caps_fp` alone
        // pigeonholed all of them onto a single shard — one mutex carrying
        // every lookup and one shard's LRU share bounding the whole cache.
        // The rotations keep the three double-hashes from cancelling.
        let mix = key.caps_fp.0
            ^ key.caps_fp.1.rotate_left(11)
            ^ key.schema_fp.0.rotate_left(23)
            ^ key.schema_fp.1.rotate_left(31)
            ^ key.config_fp.0.rotate_left(43)
            ^ key.config_fp.1.rotate_left(53);
        let idx = mix as usize % self.shards.len();
        &self.shards[idx]
    }

    fn lookup(&self, key: &CacheKey) -> Option<CacheEntry> {
        let mut shard = lock_shard(self.shard_for(key));
        let tick = shard.touch();
        shard
            .entries
            .iter_mut()
            .find(|(k, _, _)| k == key)
            .map(|(_, e, stamp)| {
                *stamp = tick;
                e.clone()
            })
    }

    fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn note_miss(&self, union_recompute: bool) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if union_recompute {
            self.union_recomputes.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn store(&self, key: CacheKey, entry: CacheEntry) {
        let mut shard = lock_shard(self.shard_for(&key));
        let tick = shard.touch();
        if let Some(slot) = shard.entries.iter_mut().find(|(k, _, _)| *k == key) {
            slot.1 = entry;
            slot.2 = tick;
            return;
        }
        shard.entries.push((key, entry, tick));
        if shard.entries.len() > self.per_shard {
            let oldest = shard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, stamp))| *stamp)
                .map(|(i, _)| i)
                .expect("a full shard is non-empty");
            shard.entries.remove(oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn lock_shard(shard: &Mutex<CacheShard>) -> std::sync::MutexGuard<'_, CacheShard> {
    shard.lock().expect("no panics hold a cache shard lock")
}

impl Default for ClosureCache {
    fn default() -> ClosureCache {
        ClosureCache::new(64)
    }
}

impl fmt::Debug for ClosureCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("ClosureCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("shards", &self.shard_count())
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("union_recomputes", &stats.union_recomputes)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

/// Do two requirements ask the same question of the closure? The user is
/// ignored: within one cache entry the capability list is already fixed.
fn same_goals(a: &Requirement, b: &Requirement) -> bool {
    a.target == b.target && a.arg_caps == b.arg_caps && a.ret_caps == b.ret_caps
}

/// Can this entry answer all of `reqs` without recomputing?
fn entry_covers(entry: &CacheEntry, reqs: &[&Requirement]) -> bool {
    reqs.iter().all(|r| {
        if entry.covered.iter().any(|c| same_goals(c, r)) {
            return true;
        }
        if !entry.drained {
            return false;
        }
        // Drained closure: correct for any goal inside the cached slice.
        let occs = entry
            .occs
            .iter()
            .find(|(t, _)| *t == r.target)
            .map(|(_, o)| Arc::clone(o))
            .unwrap_or_else(|| Arc::new(occurrences(&entry.prog, &r.target)));
        goal_exprs(&entry.prog, r, &occs)
            .iter()
            .all(|&e| entry.plan.covers_expr(e))
    })
}

/// The policy-invariant half of a [`ClosureCache`] key, bound to the policy
/// it describes.
///
/// A cache key is `(schema, capability list, config)` fingerprints. Only the
/// capability list varies between groups; the schema fingerprint renders
/// and hashes the whole policy, so it costs O(policy) while a group's own
/// work is O(user). A one-shot batch builds a scope per call (what
/// [`analyze_batch_cached`] does); a resident checker builds one per loaded
/// policy and answers every request through it, so a cache hit costs one
/// lookup plus the user's own requirements.
///
/// The scope borrows the schema and configuration it fingerprints, so a
/// key can never be formed against a different policy than the one being
/// analyzed.
pub struct CacheScope<'a> {
    cache: &'a ClosureCache,
    schema: &'a Schema,
    config: &'a AnalysisConfig,
    schema_fp: (u64, u64),
    config_fp: (u64, u64),
}

impl<'a> CacheScope<'a> {
    /// Fingerprint `schema` and `config` once, for every batch run through
    /// `cache` against them.
    pub fn new(
        cache: &'a ClosureCache,
        schema: &'a Schema,
        config: &'a AnalysisConfig,
    ) -> CacheScope<'a> {
        CacheScope {
            cache,
            schema,
            config,
            schema_fp: fingerprint("schema", &schema.to_string()),
            config_fp: semantic_fingerprint(config),
        }
    }

    /// [`analyze_batch_cached`] against this scope's policy and cache,
    /// without re-fingerprinting the policy.
    pub fn analyze_batch(&self, reqs: &[Requirement], opts: &BatchOptions) -> BatchOutcome {
        batch_outcome(self.schema, self.config, Some(self), reqs, opts)
    }

    /// [`analyze_batch_streaming`] against this scope's policy and cache,
    /// without re-fingerprinting the policy.
    pub fn analyze_batch_streaming(
        &self,
        reqs: &[Requirement],
        opts: &BatchOptions,
        sink: &dyn AnalysisSink,
    ) -> StreamSummary {
        stream_summary(self.schema, self.config, Some(self), reqs, opts, sink)
    }

    /// The full key for one capability list.
    fn key(&self, caps_fp: (u64, u64)) -> CacheKey {
        CacheKey {
            schema_fp: self.schema_fp,
            caps_fp,
            config_fp: self.config_fp,
        }
    }

    fn occupancy(&self) -> (usize, usize) {
        (self.cache.len(), self.cache.capacity())
    }
}

/// Serve one group's shared phases through the cache: return the unfolding,
/// the closure and the occurrence memo, recomputing (with the union of
/// cached and new goals) only when the cached entry cannot cover the
/// group's requirements.
fn demand_shared_cached(
    scope: &CacheScope<'_>,
    caps: &CapabilityList,
    group_reqs: &[&Requirement],
) -> Result<(Arc<NProgram>, Arc<Closure>, OccMemo), AnalysisError> {
    let (schema, config, cache) = (scope.schema, scope.config, scope.cache);
    let key = scope.key(fingerprint("caps", &caps.to_string()));
    let prior = cache.lookup(&key);
    if let Some(entry) = &prior {
        if entry_covers(entry, group_reqs) {
            cache.note_hit();
            return Ok((
                Arc::clone(&entry.prog),
                Arc::clone(&entry.closure),
                OccMemo::from_entries(entry.occs.clone()),
            ));
        }
    }
    cache.note_miss(prior.is_some());
    let (prog, mut memo, mut covered) = match prior {
        Some(entry) => (entry.prog, OccMemo::from_entries(entry.occs), entry.covered),
        None => (
            Arc::new(unfold(schema, caps, config)?),
            OccMemo::default(),
            Vec::new(),
        ),
    };
    for r in group_reqs {
        if !covered.iter().any(|c| same_goals(c, r)) {
            covered.push((*r).clone());
        }
    }
    let plan = demand_plan(&prog, &mut memo, &covered);
    let closure = Arc::new(saturate(
        &prog,
        &config.closure_options(ProofMode::Off, Some(&plan)),
        None,
    )?);
    let drained = !closure.early_exited();
    cache.store(
        key,
        CacheEntry {
            prog: Arc::clone(&prog),
            closure: Arc::clone(&closure),
            covered,
            occs: memo.entries().to_vec(),
            plan: Arc::new(plan),
            drained,
        },
    );
    Ok((prog, closure, memo))
}

/// Per-group occurrence memo: `occurrences(prog, target)` depends only on
/// the program and the target, so requirements sharing a target share one
/// enumeration. Linear scan — a group rarely names more than a handful of
/// distinct targets.
#[derive(Default)]
struct OccMemo {
    entries: Vec<(FnRef, Arc<Vec<Occurrence>>)>,
}

impl OccMemo {
    fn from_entries(entries: Vec<(FnRef, Arc<Vec<Occurrence>>)>) -> OccMemo {
        OccMemo { entries }
    }

    fn entries(&self) -> &[(FnRef, Arc<Vec<Occurrence>>)] {
        &self.entries
    }

    fn get(&mut self, prog: &NProgram, target: &FnRef) -> Arc<Vec<Occurrence>> {
        if let Some((_, occs)) = self.entries.iter().find(|(t, _)| t == target) {
            return Arc::clone(occs);
        }
        let occs = Arc::new(occurrences(prog, target));
        self.entries.push((target.clone(), Arc::clone(&occs)));
        occs
    }
}

/// Analyze a batch of requirements, unfolding and saturating **once per
/// user** instead of once per requirement.
///
/// `A(R)`'s expensive phases — unfolding `S'(F)` and the `F(F)` closure —
/// depend only on the requirement's user (its capability list) and the
/// analysis configuration, which is shared by the whole call. Requirements
/// are therefore grouped by user in first-seen order; each group runs
/// unfold → closure once and then the cheap per-requirement verdict check.
/// Groups fan out across a hand-rolled `std::thread::scope` work-stealing
/// pool ([`BatchOptions::jobs`] workers over per-worker deques), so a
/// policy file with many users saturates in
/// parallel even when group sizes are heavily skewed.
///
/// Verdicts are identical to per-requirement [`analyze_with_config`] calls,
/// in input order, regardless of `jobs` — groups are independent and each
/// group's work is deterministic.
pub fn analyze_batch(
    schema: &Schema,
    reqs: &[Requirement],
    config: &AnalysisConfig,
    opts: &BatchOptions,
) -> BatchOutcome {
    analyze_batch_cached(schema, reqs, config, opts, None)
}

/// [`analyze_batch`] with an optional cross-call [`ClosureCache`].
///
/// Cache reuse applies only to groups that run demand-driven without stats
/// collection (`!full_saturation`, `proofs == Off`, `!keep_artifacts`,
/// `!collect_stats`) — full closures, proof-carrying closures and
/// per-group counters are request-specific and bypass it. Passing `None`
/// is exactly [`analyze_batch`].
pub fn analyze_batch_cached(
    schema: &Schema,
    reqs: &[Requirement],
    config: &AnalysisConfig,
    opts: &BatchOptions,
    cache: Option<&ClosureCache>,
) -> BatchOutcome {
    match cache {
        Some(cache) => CacheScope::new(cache, schema, config).analyze_batch(reqs, opts),
        None => batch_outcome(schema, config, None, reqs, opts),
    }
}

/// The buffered batch: every group's bookkeeping kept and its verdicts
/// reassembled in input order.
fn batch_outcome(
    schema: &Schema,
    config: &AnalysisConfig,
    scope: Option<&CacheScope<'_>>,
    reqs: &[Requirement],
    opts: &BatchOptions,
) -> BatchOutcome {
    type GroupOut = (usize, BatchGroup, GroupVerdicts);
    let run = run_batch(
        schema,
        config,
        scope,
        reqs,
        opts,
        |_| Vec::<GroupOut>::new(),
        |done, gi, group, vs| done.push((gi, group, vs)),
    );
    // Results are placed by group index, so the pool's nondeterministic
    // group→worker assignment never reaches the output.
    let mut slots: Vec<Option<BatchGroup>> = (0..run.groups).map(|_| None).collect();
    let mut verdicts: Vec<Option<Result<Verdict, AnalysisError>>> =
        reqs.iter().map(|_| None).collect();
    for (gi, group, vs) in run.states.into_iter().flatten() {
        for (i, v) in vs {
            verdicts[i] = Some(v);
        }
        slots[gi] = Some(group);
    }
    BatchOutcome {
        verdicts: verdicts
            .into_iter()
            .map(|v| v.expect("every requirement belongs to exactly one group"))
            .collect(),
        groups: slots
            .into_iter()
            .map(|g| g.expect("every group index was claimed by a worker"))
            .collect(),
        jobs_used: run.jobs,
        steals: run.steals,
        cache_occupancy: scope.map(CacheScope::occupancy),
        cache_stats: scope.map(|s| s.cache.stats()),
    }
}

/// What [`run_batch`] leaves once every group has been handed on.
struct BatchRun<S> {
    /// Per-worker states, in worker-index order.
    states: Vec<S>,
    groups: usize,
    jobs: usize,
    steals: u64,
}

/// The one batch body behind both the buffered and the streaming drivers:
/// group by user, run every group (serially, or on the work-stealing pool),
/// and pass each finished group to `done` with its worker's private state.
fn run_batch<S, I, D>(
    schema: &Schema,
    config: &AnalysisConfig,
    scope: Option<&CacheScope<'_>>,
    reqs: &[Requirement],
    opts: &BatchOptions,
    init: I,
    done: D,
) -> BatchRun<S>
where
    S: Send,
    I: Fn(usize) -> S + Sync,
    D: Fn(&mut S, usize, BatchGroup, GroupVerdicts) + Sync,
{
    let grouped = group_by_user(reqs);
    let n_groups = grouped.len();
    let jobs = effective_jobs(opts.jobs).min(n_groups.max(1));
    let work = |state: &mut S, gi: usize| {
        let (user, idxs) = &grouped[gi];
        let mut group = BatchGroup::new(user.clone(), idxs.clone());
        let outcome = match schema.user(user) {
            Some(caps) => {
                let group_reqs: Vec<&Requirement> = idxs.iter().map(|&i| &reqs[i]).collect();
                run_group(schema, config, opts, scope, caps, &group_reqs, &mut group)
            }
            None => Err(AnalysisError::UnknownUser(user.to_string())),
        };
        let verdicts: GroupVerdicts = match outcome {
            Ok(vs) => idxs.iter().copied().zip(vs.into_iter().map(Ok)).collect(),
            Err(e) => idxs.iter().map(|&i| (i, Err(e.clone()))).collect(),
        };
        done(state, gi, group, verdicts);
    };
    let (states, steals) = if jobs <= 1 {
        let mut state = init(0);
        for gi in 0..n_groups {
            work(&mut state, gi);
        }
        (vec![state], 0)
    } else {
        run_pool(n_groups, jobs, init, work)
    };
    BatchRun {
        states,
        groups: n_groups,
        jobs,
        steals,
    }
}

/// Group requirement indexes by user, first-seen order — the unit of shared
/// work for both the buffered and streaming batch drivers.
fn group_by_user(reqs: &[Requirement]) -> Vec<(UserName, Vec<usize>)> {
    let mut group_of: HashMap<UserName, usize> = HashMap::new();
    let mut grouped: Vec<(UserName, Vec<usize>)> = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        let gi = *group_of.entry(r.user.clone()).or_insert_with(|| {
            grouped.push((r.user.clone(), Vec::new()));
            grouped.len() - 1
        });
        grouped[gi].1.push(i);
    }
    grouped
}

/// Resolve a requested job count: `0` auto-detects the machine's
/// [`std::thread::available_parallelism`], falling back to 1 when the
/// platform cannot say. Any other value passes through unchanged.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// The batch worker pool. Spawns `jobs` scoped workers over group indexes
/// `0..n_groups`, each seeded with a contiguous chunk of the index space in
/// a per-worker deque. A worker whose deque drains steals the back half of
/// the first non-empty victim deque it finds (scanning from its right
/// neighbour) instead of exiting — so one giant group does not strand the
/// rest of a skewed batch on a single worker. Results are written into
/// slots indexed by group, so scheduling order never reaches the output.
///
/// Every group index is processed exactly once: indexes only ever move
/// between deques under a victim's lock, and a worker drains its own deque
/// before exiting. Each worker threads a private state value (`init` →
/// `work` → returned at join), which is how the streaming path folds
/// per-worker [`ClosureStats`] without a shared lock. Returns the worker
/// states in worker-index order plus the number of steals performed.
fn run_pool<S, I, W>(n_groups: usize, jobs: usize, init: I, work: W) -> (Vec<S>, u64)
where
    S: Send,
    I: Fn(usize) -> S + Sync,
    W: Fn(&mut S, usize) + Sync,
{
    let steals = AtomicU64::new(0);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..jobs)
        .map(|w| {
            let start = w * n_groups / jobs;
            let end = (w + 1) * n_groups / jobs;
            Mutex::new((start..end).collect())
        })
        .collect();
    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let (queues, steals, init, work) = (&queues, &steals, &init, &work);
                scope.spawn(move || {
                    let lock = |v: usize| queues[v].lock().expect("no panics hold a queue lock");
                    let mut state = init(w);
                    loop {
                        if let Some(gi) = lock(w).pop_front() {
                            work(&mut state, gi);
                            continue;
                        }
                        let mut stolen = VecDeque::new();
                        for off in 1..jobs {
                            let mut q = lock((w + off) % jobs);
                            let len = q.len();
                            if len > 0 {
                                stolen = q.split_off(len - len.div_ceil(2));
                                break;
                            }
                        }
                        if stolen.is_empty() {
                            // Every deque was empty when scanned; any group
                            // still in flight is owned by the worker running
                            // it, so there is nothing left to take.
                            break;
                        }
                        steals.fetch_add(1, Ordering::Relaxed);
                        *lock(w) = stolen;
                    }
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });
    (states, steals.load(Ordering::Relaxed))
}

/// One completed group, as delivered to an [`AnalysisSink`]. Records may
/// arrive in any order under a parallel pool — `group_index` (the group's
/// position in first-seen user order) lets a consumer reassemble input
/// order, and each verdict is tagged with its requirement's index in the
/// caller's input slice.
#[derive(Debug)]
pub struct GroupRecord {
    /// Index of the group in first-seen user order.
    pub group_index: usize,
    /// Index of the pool worker that analyzed this group (0 on the serial
    /// path): the worker that *executed* the group, which may differ from
    /// the worker whose chunk it was seeded into — the trace of how the
    /// pool balanced the batch.
    pub worker: usize,
    /// The user whose capability list this group analyzed.
    pub user: UserName,
    /// `(requirement index, verdict)` pairs, input order within the group.
    pub verdicts: Vec<(usize, Result<Verdict, AnalysisError>)>,
    /// Occurrences checked across the group's requirements.
    pub occurrences_checked: u64,
}

/// A consumer of streamed batch results. Implementations must be
/// thread-safe: under a parallel pool, `emit` is called concurrently from
/// worker threads as groups complete.
pub trait AnalysisSink: Sync {
    /// Called exactly once per group, the moment its verdicts are ready.
    /// Ordering is unspecified when `jobs > 1`.
    fn emit(&self, record: GroupRecord);
}

/// The simplest sink: buffer every record in completion order (tests, and
/// consumers that want to reassemble input order themselves).
impl AnalysisSink for Mutex<Vec<GroupRecord>> {
    fn emit(&self, record: GroupRecord) {
        self.lock()
            .expect("no panics hold the sink lock")
            .push(record);
    }
}

/// What [`analyze_batch_streaming`] returns once the last record has been
/// emitted: aggregate counters only — nothing per-requirement or per-group
/// is buffered, which is the point.
#[derive(Debug)]
pub struct StreamSummary {
    /// Groups analyzed (= records emitted).
    pub groups: usize,
    /// Requirements across all groups.
    pub requirements: usize,
    /// Worker threads actually used (after resolving `jobs == 0` and
    /// clamping to the group count).
    pub jobs_used: usize,
    /// Steal operations performed by the work-stealing pool.
    pub steals: u64,
    /// Closure counters folded across all groups (zeroed unless
    /// [`BatchOptions::collect_stats`]). Each worker merges its own groups'
    /// stats locally and the cross-worker fold happens once at join, in
    /// worker-index order — one merge per worker instead of one lock
    /// round-trip per group. Totals, maxima and sticky flags are identical
    /// to a serial fold; only the row order of the per-label tables can
    /// differ (the merge contract sums labels wherever they sit).
    pub closure: ClosureStats,
    /// Total occurrences checked.
    pub occurrences: u64,
    /// `(len, capacity)` of the cache after this batch, when one was passed.
    pub cache_occupancy: Option<(usize, usize)>,
    /// Lifetime cache counters after this batch, when one was passed.
    pub cache_stats: Option<CacheStats>,
}

/// [`analyze_batch_cached`], streaming: each group's verdicts are handed to
/// `sink.emit` the moment the group completes, and nothing per-group is
/// retained — memory stays flat no matter how many users the batch holds.
/// Grouping, cache eligibility and the verdicts themselves are identical to
/// the buffered path (the differential suite reassembles records by
/// `group_index` and compares byte-for-byte).
pub fn analyze_batch_streaming(
    schema: &Schema,
    reqs: &[Requirement],
    config: &AnalysisConfig,
    opts: &BatchOptions,
    cache: Option<&ClosureCache>,
    sink: &dyn AnalysisSink,
) -> StreamSummary {
    match cache {
        Some(cache) => {
            CacheScope::new(cache, schema, config).analyze_batch_streaming(reqs, opts, sink)
        }
        None => stream_summary(schema, config, None, reqs, opts, sink),
    }
}

/// The streaming batch: each finished group goes straight to `sink`, and
/// only per-worker totals are kept.
fn stream_summary(
    schema: &Schema,
    config: &AnalysisConfig,
    scope: Option<&CacheScope<'_>>,
    reqs: &[Requirement],
    opts: &BatchOptions,
    sink: &dyn AnalysisSink,
) -> StreamSummary {
    #[derive(Default)]
    struct WorkerAcc {
        worker: usize,
        closure: ClosureStats,
        occurrences: u64,
    }

    let run = run_batch(
        schema,
        config,
        scope,
        reqs,
        opts,
        |w| WorkerAcc {
            worker: w,
            ..WorkerAcc::default()
        },
        |acc, gi, group, verdicts| {
            acc.closure.merge(&group.stats.closure);
            acc.occurrences += group.stats.occurrences_checked;
            sink.emit(GroupRecord {
                group_index: gi,
                worker: acc.worker,
                user: group.user,
                verdicts,
                occurrences_checked: group.stats.occurrences_checked,
            });
        },
    );

    let mut closure = ClosureStats::default();
    let mut occurrences = 0;
    for acc in &run.states {
        closure.merge(&acc.closure);
        occurrences += acc.occurrences;
    }
    StreamSummary {
        groups: run.groups,
        requirements: reqs.len(),
        jobs_used: run.jobs,
        steals: run.steals,
        closure,
        occurrences,
        cache_occupancy: scope.map(CacheScope::occupancy),
        cache_stats: scope.map(|s| s.cache.stats()),
    }
}

/// Per-requirement verdicts from one group run, tagged with each
/// requirement's index in the caller's input order.
type GroupVerdicts = Vec<(usize, Result<Verdict, AnalysisError>)>;

/// A group's shared unfolding and closure: owned when computed for this
/// group alone, `Arc`-shared when served from a [`ClosureCache`]. The
/// owned pair is boxed to keep the variants a pointer apart in size.
enum SharedArtifacts {
    Owned(Box<(NProgram, Closure)>),
    Shared(Arc<NProgram>, Arc<Closure>),
}

impl SharedArtifacts {
    fn prog(&self) -> &NProgram {
        match self {
            SharedArtifacts::Owned(b) => &b.0,
            SharedArtifacts::Shared(p, _) => p,
        }
    }

    fn closure(&self) -> &Closure {
        match self {
            SharedArtifacts::Owned(b) => &b.1,
            SharedArtifacts::Shared(_, c) => c,
        }
    }

    fn into_owned(self) -> Option<(NProgram, Closure)> {
        match self {
            SharedArtifacts::Owned(b) => Some(*b),
            // keep_artifacts disables both the demand and cache paths, so
            // a Shared group never has artifacts requested.
            SharedArtifacts::Shared(..) => None,
        }
    }
}

/// Unfold `S'(F)` for one capability list under the configured node
/// budget — the only unfolding behind `A(R)`, cached or not.
fn unfold(
    schema: &Schema,
    caps: &CapabilityList,
    config: &AnalysisConfig,
) -> Result<NProgram, AnalysisError> {
    Ok(NProgram::unfold_with_limit(
        schema,
        caps,
        config.node_limit,
    )?)
}

/// Saturate `F(F)` over `prog` — the only closure construction behind
/// `A(R)`. With `stats`, the run also records its counters there, even when
/// it aborts on the term budget.
fn saturate(
    prog: &NProgram,
    options: &ClosureOptions<'_>,
    stats: Option<&mut ClosureStats>,
) -> Result<Closure, AnalysisError> {
    match stats {
        Some(stats) => {
            let (closure, counters) = Closure::compute_with_stats(prog, options);
            *stats = counters;
            Ok(closure?)
        }
        None => Ok(Closure::compute_with(prog, options)?),
    }
}

/// The relevance slice of `reqs` over `prog`, enumerating each target's
/// occurrences through the group's memo.
fn demand_plan<'r>(
    prog: &NProgram,
    memo: &mut OccMemo,
    reqs: impl IntoIterator<Item = &'r Requirement>,
) -> DemandPlan {
    let pairs: Vec<(&Requirement, Arc<Vec<Occurrence>>)> = reqs
        .into_iter()
        .map(|r| (r, memo.get(prog, &r.target)))
        .collect();
    DemandPlan::build(prog, pairs.iter().map(|(r, o)| (*r, o.as_slice())))
}

/// `A(R)` for one group's capability list — the body behind every analysis
/// entry point: serve the group from the cache when it is eligible;
/// otherwise unfold, build the demand plan (demand-driven groups only), and
/// saturate. Then check every requirement of `reqs` against the shared
/// closure, recording the group's bookkeeping on `group`. Verdicts are in
/// `reqs` order; a failure of the shared phases fails the whole group.
fn run_group(
    schema: &Schema,
    config: &AnalysisConfig,
    opts: &BatchOptions,
    scope: Option<&CacheScope<'_>>,
    caps: &CapabilityList,
    reqs: &[&Requirement],
    group: &mut BatchGroup,
) -> Result<Vec<Verdict>, AnalysisError> {
    // Demand-driven saturation answers exactly the goal queries the checks
    // below will make; anything that inspects the closure beyond those
    // queries (proof rendering, kept artifacts) needs the full fixpoint.
    let demand = !opts.full_saturation && opts.proofs == ProofMode::Off && !opts.keep_artifacts;
    // Per-group counters are request-specific: only stats-free demand
    // groups share closures through the cache.
    let scope = scope.filter(|_| demand && !opts.collect_stats);
    let mut memo = OccMemo::default();
    let stats = &mut group.stats;
    let shared = if let Some(scope) = scope {
        let (prog, closure, cached_memo) = stats
            .phases
            .time("closure", || demand_shared_cached(scope, caps, reqs))?;
        stats.program_nodes = prog.len() as u64;
        memo = cached_memo;
        SharedArtifacts::Shared(prog, closure)
    } else {
        let prog = stats
            .phases
            .time("unfold", || unfold(schema, caps, config))?;
        stats.program_nodes = prog.len() as u64;
        let closure = stats.phases.time("closure", || {
            let plan = demand.then(|| demand_plan(&prog, &mut memo, reqs.iter().copied()));
            saturate(
                &prog,
                &config.closure_options(opts.proofs, plan.as_ref()),
                opts.collect_stats.then_some(&mut stats.closure),
            )
        })?;
        SharedArtifacts::Owned(Box::new((prog, closure)))
    };

    let (prog, closure) = (shared.prog(), shared.closure());
    let mut verdicts = Vec::with_capacity(reqs.len());
    let mut check_total = Duration::ZERO;
    for req in reqs {
        let start = Instant::now();
        let occs = memo.get(prog, &req.target);
        group.check_occurrences.push(occs.len() as u64);
        group.stats.occurrences_checked += occs.len() as u64;
        verdicts.push(check_with_occurrences(prog, closure, req, &occs));
        let elapsed = start.elapsed();
        check_total += elapsed;
        group.check_times.push(elapsed);
    }
    group.stats.phases.add("check", check_total);
    if opts.keep_artifacts {
        group.artifacts = shared.into_owned();
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_lang::{parse_requirement, parse_schema};

    const STOCKBROKER: &str = r#"
        class Broker { name: string, salary: int, budget: int, profit: int }

        fn calcSalary(budget: int, profit: int): int {
          budget / 10 + profit / 2
        }

        fn checkBudget(broker: Broker): bool {
          r_budget(broker) >= 10 * r_salary(broker)
        }

        fn updateSalary(broker: Broker): null {
          w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)))
        }

        user clerk { checkBudget, w_budget }
        user safe_clerk { checkBudget }
        user payroll { updateSalary, w_budget }
        user safe_payroll { updateSalary }
        user reader { r_salary }
    "#;

    fn schema() -> Schema {
        let s = parse_schema(STOCKBROKER).unwrap();
        oodb_lang::check_schema(&s).unwrap();
        s
    }

    #[test]
    fn clerk_salary_inference_flaw_detected() {
        // §4.2: (clerk, r_salary(x):ti) is NOT satisfied.
        let s = schema();
        let r = parse_requirement("(clerk, r_salary(x) : ti)").unwrap();
        let v = analyze(&s, &r).unwrap();
        assert!(v.is_violated(), "Figure 1 flaw must be detected");
    }

    #[test]
    fn safe_clerk_is_satisfied() {
        let s = schema();
        let r = parse_requirement("(safe_clerk, r_salary(x) : ti)").unwrap();
        let v = analyze(&s, &r).unwrap();
        assert!(!v.is_violated(), "checkBudget alone leaks nothing total");
    }

    #[test]
    fn payroll_alterability_flaw_detected() {
        // §3.1's second example: with w_budget the payroll user controls
        // the new salary — (payroll, w_salary(x, v:ta)) is violated.
        let s = schema();
        let r = parse_requirement("(payroll, w_salary(x, v: ta))").unwrap();
        let v = analyze(&s, &r).unwrap();
        assert!(v.is_violated());
    }

    #[test]
    fn safe_payroll_keeps_salary_uncontrolled() {
        let s = schema();
        let r = parse_requirement("(safe_payroll, w_salary(x, v: ta))").unwrap();
        let v = analyze(&s, &r).unwrap();
        assert!(!v.is_violated());
    }

    #[test]
    fn direct_grant_is_flagged_via_outer_occurrence() {
        // A user holding r_salary outright trivially violates ti-on-return.
        let s = schema();
        let r = parse_requirement("(reader, r_salary(x) : ti)").unwrap();
        let v = analyze(&s, &r).unwrap();
        assert!(v.is_violated());
    }

    #[test]
    fn unknown_user_is_an_error() {
        let s = schema();
        let r = parse_requirement("(ghost, r_salary(x) : ti)").unwrap();
        assert!(matches!(
            analyze(&s, &r),
            Err(AnalysisError::UnknownUser(_))
        ));
    }

    #[test]
    fn unreachable_target_is_satisfied() {
        // safe_payroll never touches `name`.
        let s = schema();
        let r = parse_requirement("(safe_payroll, r_name(x) : ti)").unwrap();
        let v = analyze(&s, &r).unwrap();
        assert!(!v.is_violated());
    }

    #[test]
    fn monotonicity_in_capabilities() {
        // Granting more functions can only add violations (P8).
        let s = schema();
        let weak = parse_requirement("(safe_clerk, r_salary(x) : pi)").unwrap();
        let strong = parse_requirement("(clerk, r_salary(x) : pi)").unwrap();
        let vw = analyze(&s, &weak).unwrap();
        let vs = analyze(&s, &strong).unwrap();
        if vw.is_violated() {
            assert!(vs.is_violated());
        }
    }

    /// One requirement through the stats-collecting batch driver: its
    /// single group carries the verdict's phase timings and counters.
    fn stats_run(
        s: &Schema,
        req: &str,
        config: &AnalysisConfig,
    ) -> (Result<Verdict, AnalysisError>, AnalysisStats) {
        let r = parse_requirement(req).unwrap();
        let opts = BatchOptions {
            collect_stats: true,
            ..BatchOptions::default()
        };
        let mut out = analyze_batch(s, std::slice::from_ref(&r), config, &opts);
        let group = out.groups.pop().expect("one requirement, one group");
        (out.verdicts.pop().unwrap(), group.stats)
    }

    #[test]
    fn batch_stats_report_phases_and_counters() {
        let s = schema();
        let (v, stats) = stats_run(&s, "(clerk, r_salary(x) : ti)", &AnalysisConfig::default());
        assert!(v.unwrap().is_violated(), "same verdict as analyze()");
        for phase in ["unfold", "closure", "check"] {
            assert!(stats.phases.get(phase).is_some(), "missing phase {phase}");
        }
        assert!(stats.program_nodes > 0);
        assert!(stats.occurrences_checked > 0);
        assert!(stats.closure.total_terms() > 0);
        assert!(!stats.closure.aborted);
    }

    #[test]
    fn batch_stats_round_trip_through_json() {
        use secflow_obs::{Json, MetricsReport, MetricsSink, Recorder};
        let s = schema();
        let (_, stats) = stats_run(&s, "(clerk, r_salary(x) : ti)", &AnalysisConfig::default());
        let mut rec = Recorder::new();
        stats.phases.record_to(&mut rec);
        stats.closure.record_to(&mut rec);
        rec.counter("analysis.program_nodes", stats.program_nodes);
        rec.counter("analysis.occurrences", stats.occurrences_checked);
        let report = rec.into_report();
        let text = report.to_json().pretty();
        let back = MetricsReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        for name in [
            "closure.terms.total",
            "closure.rounds",
            "analysis.program_nodes",
            "analysis.occurrences",
        ] {
            assert_eq!(back.counter(name), report.counter(name), "{name}");
            assert!(report.counter(name).unwrap() > 0, "{name} is zero");
        }
        assert!(back.span("closure").is_some());
    }

    #[test]
    fn batch_stats_report_partial_runs() {
        // Unknown user: no phases ran, stats stay default but come back.
        let s = schema();
        let (v, stats) = stats_run(&s, "(ghost, r_salary(x) : ti)", &AnalysisConfig::default());
        assert!(matches!(v, Err(AnalysisError::UnknownUser(_))));
        assert!(stats.phases.is_empty());
        // Closure budget abort: unfold + closure phases ran, check did not.
        let config = AnalysisConfig {
            term_limit: 5,
            ..AnalysisConfig::default()
        };
        let (v, stats) = stats_run(&s, "(clerk, r_salary(x) : ti)", &config);
        assert!(matches!(v, Err(AnalysisError::Closure(_))));
        assert!(stats.closure.aborted);
        assert!(stats.phases.get("unfold").is_some());
        assert!(stats.phases.get("closure").is_some());
        assert!(stats.phases.get("check").is_none());
    }

    #[test]
    fn occurrences_enumerated() {
        let s = schema();
        let caps = s.user_str("payroll").unwrap();
        let prog = NProgram::unfold(&s, caps).unwrap();
        // w_salary appears once (inside updateSalary); r_budget twice is a
        // read, not the target.
        let occ = occurrences(&prog, &FnRef::write("salary"));
        assert_eq!(occ.len(), 1);
        assert_eq!(occ[0].args.len(), 2);
        // calcSalary appears as one inner let(f).
        let occ = occurrences(&prog, &FnRef::access("calcSalary"));
        assert_eq!(occ.len(), 1);
        assert_eq!(occ[0].args.len(), 2);
        // updateSalary is an outer grant.
        let occ = occurrences(&prog, &FnRef::access("updateSalary"));
        assert_eq!(occ.len(), 1);
        assert!(matches!(occ[0].kind, OccurrenceKind::OuterAccess { .. }));
    }

    fn batch_reqs() -> Vec<Requirement> {
        [
            "(clerk, r_salary(x) : ti)",
            "(safe_clerk, r_salary(x) : ti)",
            "(payroll, w_salary(x, v: ta))",
            "(clerk, r_salary(x) : pi)",
            "(safe_payroll, w_salary(x, v: ta))",
        ]
        .iter()
        .map(|s| parse_requirement(s).unwrap())
        .collect()
    }

    #[test]
    fn batch_matches_per_requirement_analyze() {
        let s = schema();
        let reqs = batch_reqs();
        let expected: Vec<_> = reqs.iter().map(|r| analyze(&s, r)).collect();
        // `analyze` is itself a one-group batch; the reference engine is
        // the independent side.
        let oracle: Vec<_> = reqs
            .iter()
            .map(|r| crate::reference::analyze_ref(&s, r, &AnalysisConfig::default()))
            .collect();
        assert_eq!(expected, oracle);
        for jobs in [1, 4] {
            let opts = BatchOptions {
                jobs,
                ..BatchOptions::default()
            };
            let out = analyze_batch(&s, &reqs, &AnalysisConfig::default(), &opts);
            assert_eq!(out.verdicts, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn batch_groups_by_user_in_first_seen_order() {
        let s = schema();
        let reqs = batch_reqs();
        let out = analyze_batch(
            &s,
            &reqs,
            &AnalysisConfig::default(),
            &BatchOptions::default(),
        );
        let users: Vec<&str> = out.groups.iter().map(|g| g.user.as_str()).collect();
        assert_eq!(users, ["clerk", "safe_clerk", "payroll", "safe_payroll"]);
        // clerk's two requirements share one group.
        assert_eq!(out.groups[0].req_indexes, [0, 3]);
        assert_eq!(out.jobs_used, 1);
    }

    #[test]
    fn batch_reports_group_errors_per_requirement() {
        let s = schema();
        let reqs: Vec<_> = [
            "(ghost, r_salary(x) : ti)",
            "(clerk, r_salary(x) : ti)",
            "(ghost, r_budget(x) : ti)",
        ]
        .iter()
        .map(|r| parse_requirement(r).unwrap())
        .collect();
        let out = analyze_batch(
            &s,
            &reqs,
            &AnalysisConfig::default(),
            &BatchOptions::default(),
        );
        assert!(matches!(
            out.verdicts[0],
            Err(AnalysisError::UnknownUser(_))
        ));
        assert!(out.verdicts[1].as_ref().unwrap().is_violated());
        assert!(matches!(
            out.verdicts[2],
            Err(AnalysisError::UnknownUser(_))
        ));
    }

    #[test]
    fn batch_keeps_artifacts_and_stats_when_asked() {
        let s = schema();
        let reqs = batch_reqs();
        let opts = BatchOptions {
            jobs: 2,
            proofs: ProofMode::Full,
            keep_artifacts: true,
            collect_stats: true,
            full_saturation: false,
        };
        let out = analyze_batch(&s, &reqs, &AnalysisConfig::default(), &opts);
        assert_eq!(out.jobs_used, 2);
        for g in &out.groups {
            let (prog, closure) = g.artifacts.as_ref().expect("artifacts kept");
            assert!(!prog.is_empty());
            assert_eq!(closure.proof_mode(), ProofMode::Full);
            assert!(g.stats.phases.get("unfold").is_some());
            assert!(g.stats.phases.get("closure").is_some());
            assert!(g.stats.phases.get("check").is_some());
            assert!(g.stats.closure.total_terms() as usize == closure.len());
            assert_eq!(g.check_times.len(), g.req_indexes.len());
            assert_eq!(g.check_occurrences.len(), g.req_indexes.len());
        }
        // Proof-carrying artifacts can render derivations (the --explain
        // path reuses them instead of recomputing).
        let (_, clerk_closure) = out.groups[0].artifacts.as_ref().unwrap();
        let witness = clerk_closure.ti_witness(5).expect("Figure 1 ti");
        assert!(clerk_closure.proof(&witness).is_some());
    }

    #[test]
    fn analyze_matches_full_saturation_on_the_fixture() {
        let s = schema();
        for req in [
            "(clerk, r_salary(x) : ti)",
            "(safe_clerk, r_salary(x) : ti)",
            "(payroll, w_salary(x, v: ta))",
            "(safe_payroll, w_salary(x, v: ta))",
            "(reader, r_salary(x) : ti)",
            "(safe_payroll, r_name(x) : ti)",
        ] {
            let r = parse_requirement(req).unwrap();
            let demand = analyze(&s, &r).unwrap();
            let full = analyze_batch(
                &s,
                std::slice::from_ref(&r),
                &AnalysisConfig::default(),
                &BatchOptions {
                    full_saturation: true,
                    ..BatchOptions::default()
                },
            )
            .verdicts
            .pop()
            .unwrap()
            .unwrap();
            assert_eq!(demand, full, "{req}");
        }
    }

    #[test]
    fn batch_full_saturation_matches_demand_default() {
        let s = schema();
        let reqs = batch_reqs();
        let demand = analyze_batch(
            &s,
            &reqs,
            &AnalysisConfig::default(),
            &BatchOptions::default(),
        );
        let full = analyze_batch(
            &s,
            &reqs,
            &AnalysisConfig::default(),
            &BatchOptions {
                full_saturation: true,
                ..BatchOptions::default()
            },
        );
        assert_eq!(demand.verdicts, full.verdicts);
        assert_eq!(
            demand.cache_occupancy, None,
            "uncached batches report no occupancy"
        );
    }

    #[test]
    fn cache_serves_repeat_batches_without_recomputing() {
        let s = schema();
        let reqs = batch_reqs();
        let cache = ClosureCache::new(8);
        let config = AnalysisConfig::default();
        let opts = BatchOptions::default();
        let first = analyze_batch_cached(&s, &reqs, &config, &opts, Some(&cache));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 4), "four users, all cold");
        assert_eq!(stats.union_recomputes, 0, "cold misses are not recomputes");
        assert_eq!(cache.len(), 4);
        assert_eq!(
            first.cache_occupancy,
            Some((4, 8)),
            "occupancy reported after a cached batch"
        );
        let second = analyze_batch_cached(&s, &reqs, &config, &opts, Some(&cache));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (4, 4),
            "identical batch fully served"
        );
        assert_eq!(first.verdicts, second.verdicts);
        let expected: Vec<_> = reqs.iter().map(|r| analyze(&s, r)).collect();
        assert_eq!(second.verdicts, expected);
    }

    #[test]
    fn cache_unions_goals_for_new_requirements() {
        let s = schema();
        let config = AnalysisConfig::default();
        let opts = BatchOptions::default();
        let cache = ClosureCache::new(8);
        let first = [parse_requirement("(clerk, r_salary(x) : ti)").unwrap()];
        analyze_batch_cached(&s, &first, &config, &opts, Some(&cache));
        // A different goal on the same user: recompute against the cached
        // unfolding with the union of goal sets, then serve both shapes.
        let second = [parse_requirement("(clerk, r_budget(x) : ta)").unwrap()];
        let out = analyze_batch_cached(&s, &second, &config, &opts, Some(&cache));
        assert_eq!(
            out.verdicts[0],
            analyze(&s, &second[0]),
            "union recompute keeps verdicts identical"
        );
        assert_eq!(cache.len(), 1, "same key, refreshed entry");
        assert_eq!(
            cache.stats().union_recomputes,
            1,
            "second goal shape recomputed against the cached entry"
        );
        let both: Vec<_> = ["(clerk, r_salary(x) : ti)", "(clerk, r_budget(x) : ta)"]
            .iter()
            .map(|r| parse_requirement(r).unwrap())
            .collect();
        let before = cache.stats();
        let out = analyze_batch_cached(&s, &both, &config, &opts, Some(&cache));
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 1, "union entry hits");
        assert_eq!(after.misses, before.misses, "no further misses");
        assert_eq!(after.union_recomputes, before.union_recomputes);
        let expected: Vec<_> = both.iter().map(|r| analyze(&s, r)).collect();
        assert_eq!(out.verdicts, expected);
    }

    #[test]
    fn cache_shares_entries_between_identically_granted_users() {
        // The key fingerprints the capability list, not the user name:
        // payroll and a clone user with the same grants share one entry.
        let text = format!("{STOCKBROKER}\n user payroll_twin {{ updateSalary, w_budget }}");
        let s = parse_schema(&text).unwrap();
        oodb_lang::check_schema(&s).unwrap();
        let config = AnalysisConfig::default();
        let opts = BatchOptions::default();
        let cache = ClosureCache::new(8);
        let a = [parse_requirement("(payroll, w_salary(x, v: ta))").unwrap()];
        analyze_batch_cached(&s, &a, &config, &opts, Some(&cache));
        let b = [parse_requirement("(payroll_twin, w_salary(x, v: ta))").unwrap()];
        let out = analyze_batch_cached(&s, &b, &config, &opts, Some(&cache));
        assert_eq!(cache.stats().hits, 1, "twin user hits payroll's entry");
        assert_eq!(out.verdicts[0], analyze(&s, &b[0]));
    }

    #[test]
    fn cache_evicts_least_recently_used_past_capacity() {
        let s = schema();
        let config = AnalysisConfig::default();
        let opts = BatchOptions::default();
        let cache = ClosureCache::new(2);
        assert_eq!(cache.shard_count(), 1, "small caches keep exact LRU order");
        for user in ["clerk", "safe_clerk"] {
            let r = [parse_requirement(&format!("({user}, r_salary(x) : ti)")).unwrap()];
            analyze_batch_cached(&s, &r, &config, &opts, Some(&cache));
        }
        // Touch clerk so safe_clerk becomes least-recently-used; a FIFO
        // cache would evict clerk (the oldest insert) regardless.
        let r = [parse_requirement("(clerk, r_salary(x) : ti)").unwrap()];
        analyze_batch_cached(&s, &r, &config, &opts, Some(&cache));
        let r = [parse_requirement("(payroll, r_salary(x) : ti)").unwrap()];
        analyze_batch_cached(&s, &r, &config, &opts, Some(&cache));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let before = cache.stats().hits;
        let r = [parse_requirement("(clerk, r_salary(x) : ti)").unwrap()];
        analyze_batch_cached(&s, &r, &config, &opts, Some(&cache));
        assert_eq!(cache.stats().hits, before + 1, "touched entry survived");
        let r = [parse_requirement("(safe_clerk, r_salary(x) : ti)").unwrap()];
        analyze_batch_cached(&s, &r, &config, &opts, Some(&cache));
        assert_eq!(cache.stats().hits, before + 1, "LRU entry was evicted");
    }

    #[test]
    fn cache_striping_is_bounded_per_shard() {
        let cache = ClosureCache::default();
        assert_eq!(cache.capacity(), 64);
        assert_eq!(cache.shard_count(), 8);
        let cache = ClosureCache::with_shards(8, 4);
        assert_eq!(cache.capacity(), 8);
        assert_eq!(cache.shard_count(), 4);
        let s = schema();
        let config = AnalysisConfig::default();
        let opts = BatchOptions::default();
        for user in ["clerk", "safe_clerk", "payroll", "safe_payroll", "reader"] {
            let r = [parse_requirement(&format!("({user}, r_salary(x) : ti)")).unwrap()];
            analyze_batch_cached(&s, &r, &config, &opts, Some(&cache));
        }
        // Five distinct capability lists over 4 shards of 2: every shard
        // stays within its bound; at most one pigeonholed eviction.
        assert!(cache.max_shard_len() <= 2);
        assert!(cache.len() >= 4, "len {} after 5 inserts", cache.len());
        // Entries are findable after striping: a repeat batch hits.
        let before = cache.stats().hits;
        let r = [parse_requirement("(reader, r_salary(x) : ti)").unwrap()];
        analyze_batch_cached(&s, &r, &config, &opts, Some(&cache));
        assert_eq!(cache.stats().hits, before + 1);
    }

    #[test]
    fn shard_striping_spreads_keys_differing_only_in_config() {
        // Regression: shard selection once striped on `caps_fp` alone, so
        // every key a resident process accumulates for one capability list
        // under different budgets (or one policy under several configs)
        // pigeonholed onto a single shard — one mutex carried every lookup
        // and that shard's LRU share bounded the whole cache.
        let cache = ClosureCache::with_shards(16, 4);
        let s = schema();
        let opts = BatchOptions::default();
        let r = [parse_requirement("(clerk, r_salary(x) : ti)").unwrap()];
        let limits = [1_000, 1_001, 1_002, 1_003, 1_004, 1_005, 1_006, 1_007];
        for limit in limits {
            let config = AnalysisConfig {
                term_limit: limit,
                ..AnalysisConfig::default()
            };
            analyze_batch_cached(&s, &r, &config, &opts, Some(&cache));
        }
        // Eight distinct keys over 4 shards of 4: under caps-only striping
        // they all hit one shard, which evicts down to 4 entries; mixed
        // striping keeps all 8 and no shard holds them all.
        assert_eq!(cache.len(), limits.len(), "no pigeonhole evictions");
        assert!(
            cache.max_shard_len() < limits.len(),
            "keys differing only in config landed on one shard \
             (max_shard_len {})",
            cache.max_shard_len()
        );
        // Entries stay findable after the striping change: repeats hit.
        let before = cache.stats().hits;
        let config = AnalysisConfig {
            term_limit: limits[0],
            ..AnalysisConfig::default()
        };
        analyze_batch_cached(&s, &r, &config, &opts, Some(&cache));
        assert_eq!(cache.stats().hits, before + 1);
    }

    #[test]
    fn budget_changes_miss_the_cache() {
        // The term budget can change closure contents, so it is part of
        // the cache identity.
        let cache = ClosureCache::new(8);
        let s = schema();
        let opts = BatchOptions::default();
        let r = [parse_requirement("(clerk, r_salary(x) : ti)").unwrap()];
        analyze_batch_cached(&s, &r, &AnalysisConfig::default(), &opts, Some(&cache));
        let tighter = AnalysisConfig {
            term_limit: DEFAULT_TERM_LIMIT - 1,
            ..AnalysisConfig::default()
        };
        analyze_batch_cached(&s, &r, &tighter, &opts, Some(&cache));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
    }

    #[test]
    fn jobs_zero_auto_detects_parallelism() {
        let s = schema();
        let reqs = batch_reqs();
        let expected: Vec<_> = reqs.iter().map(|r| analyze(&s, r)).collect();
        let out = analyze_batch(
            &s,
            &reqs,
            &AnalysisConfig::default(),
            &BatchOptions {
                jobs: 0,
                ..BatchOptions::default()
            },
        );
        assert_eq!(out.verdicts, expected);
        assert!(effective_jobs(0) >= 1);
        assert_eq!(out.jobs_used, effective_jobs(0).min(out.groups.len()));
    }

    #[test]
    fn pooled_batches_agree_with_per_requirement_analysis() {
        let s = schema();
        let reqs = batch_reqs();
        let expected: Vec<_> = reqs.iter().map(|r| analyze(&s, r)).collect();
        for jobs in [2, 3, 8] {
            let out = analyze_batch(
                &s,
                &reqs,
                &AnalysisConfig::default(),
                &BatchOptions {
                    jobs,
                    ..BatchOptions::default()
                },
            );
            assert_eq!(out.verdicts, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn streaming_matches_buffered_and_covers_every_group() {
        let s = schema();
        let reqs = batch_reqs();
        let config = AnalysisConfig::default();
        for jobs in [1, 4] {
            let opts = BatchOptions {
                jobs,
                ..BatchOptions::default()
            };
            let buffered = analyze_batch(&s, &reqs, &config, &opts);
            let sink: Mutex<Vec<GroupRecord>> = Mutex::new(Vec::new());
            let summary = analyze_batch_streaming(&s, &reqs, &config, &opts, None, &sink);
            let mut records = sink.into_inner().unwrap();
            records.sort_by_key(|r| r.group_index);
            assert_eq!(summary.groups, buffered.groups.len());
            assert_eq!(summary.requirements, reqs.len());
            let users: Vec<_> = records.iter().map(|r| r.user.clone()).collect();
            let expected_users: Vec<_> = buffered.groups.iter().map(|g| g.user.clone()).collect();
            assert_eq!(users, expected_users, "records reassemble to group order");
            let mut verdicts: Vec<Option<Result<Verdict, AnalysisError>>> =
                reqs.iter().map(|_| None).collect();
            for r in records {
                for (i, v) in r.verdicts {
                    verdicts[i] = Some(v);
                }
            }
            let verdicts: Vec<_> = verdicts
                .into_iter()
                .map(|v| v.expect("every requirement streamed exactly once"))
                .collect();
            assert_eq!(verdicts, buffered.verdicts, "jobs={jobs}");
        }
    }

    #[test]
    fn streaming_folds_stats_per_worker() {
        let s = schema();
        let reqs = batch_reqs();
        let config = AnalysisConfig::default();
        let opts = BatchOptions {
            jobs: 2,
            collect_stats: true,
            ..BatchOptions::default()
        };
        let sink: Mutex<Vec<GroupRecord>> = Mutex::new(Vec::new());
        let summary = analyze_batch_streaming(&s, &reqs, &config, &opts, None, &sink);
        // Aggregate totals equal a serial per-group fold: the per-worker
        // batching changes merge order, which the contract says is
        // invisible on sums, maxima and sticky flags.
        let buffered = analyze_batch(
            &s,
            &reqs,
            &config,
            &BatchOptions {
                jobs: 1,
                collect_stats: true,
                ..BatchOptions::default()
            },
        );
        let mut expect = ClosureStats::default();
        for g in &buffered.groups {
            expect.merge(&g.stats.closure);
        }
        assert_eq!(summary.closure.total_terms(), expect.total_terms());
        assert_eq!(summary.closure.rounds, expect.rounds);
        assert_eq!(summary.closure.derive_calls, expect.derive_calls);
        assert_eq!(summary.closure.worklist_peak, expect.worklist_peak);
        assert_eq!(
            summary.occurrences,
            buffered
                .groups
                .iter()
                .map(|g| g.stats.occurrences_checked)
                .sum::<u64>()
        );
    }

    #[test]
    fn cache_is_bypassed_when_stats_or_proofs_requested() {
        let s = schema();
        let reqs = batch_reqs();
        let config = AnalysisConfig::default();
        let cache = ClosureCache::new(8);
        for opts in [
            BatchOptions {
                collect_stats: true,
                ..BatchOptions::default()
            },
            BatchOptions {
                proofs: ProofMode::Full,
                keep_artifacts: true,
                ..BatchOptions::default()
            },
            BatchOptions {
                full_saturation: true,
                ..BatchOptions::default()
            },
        ] {
            let out = analyze_batch_cached(&s, &reqs, &config, &opts, Some(&cache));
            let expected: Vec<_> = reqs.iter().map(|r| analyze(&s, r)).collect();
            assert_eq!(out.verdicts, expected);
        }
        assert!(cache.is_empty(), "ineligible runs never touch the cache");
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn batch_on_empty_input_is_empty() {
        let s = schema();
        let out = analyze_batch(
            &s,
            &[],
            &AnalysisConfig::default(),
            &BatchOptions::default(),
        );
        assert!(out.verdicts.is_empty());
        assert!(out.groups.is_empty());
    }
}
