//! The stage-graph flow engine and the nine standard stages.
//!
//! [`Engine::standard`] wires the paper's design flow as a linear graph
//! of [`Stage`]s over a shared [`FlowContext`]:
//!
//! ```text
//! spec → cost → partition → schedule → stg → hls → rtl → codegen → sim-prep
//! ```
//!
//! [`Engine::run`] executes the stages in order, timing each one into a
//! [`FlowTrace`]. The compute-dominant stages fan work out across scoped
//! worker threads when `FlowOptions::jobs > 1`:
//!
//! * `hls` — one [`cool_hls::synthesize`] call per hardware node
//!   ([`cool_hls::synthesize_many`]);
//! * `stg` — the per-state signature rounds of STG minimization
//!   ([`cool_stg::minimize_jobs`]);
//! * `rtl` — the FSM state-encoding search streams
//!   ([`cool_rtl::encoding::optimize_encoding_jobs`]) and the
//!   multi-start CLB placement chains
//!   ([`cool_rtl::place::anneal_multistart`]).
//!
//! All three are deterministic: artifacts are byte-identical for every
//! `jobs` value; only wall-clock changes.

use std::time::Instant;

use cool_ir::hash::{ContentHash, ContentHasher};
use cool_ir::Resource;
use cool_partition::PartitionResult;
use cool_rtl::place::Placement;
use cool_rtl::SystemController;

use crate::cache::{
    self, ArtifactDelta, ArtifactFlags, ArtifactSlot, CacheEntry, EntryKind, NodeArtifact,
    SlotDigests, StageCache, StageKey,
};
use crate::stage::{FlowContext, Stage};
use crate::timing::{CacheOutcome, FlowTrace, NodeDelta};
use crate::{FlowError, Partitioner};

/// Version tag folded into every stage key. Bump whenever the key
/// construction changes shape, so caches populated by an older engine
/// can never alias new keys.
const KEY_SCHEME: &str = "cool-stage-key/dag-v1";

/// Version tag for the `stg` stage's node-level keys (one per-node STG
/// fragment). A fragment is a pure function of the node id and its
/// mapped resource, so that is the entire key. Bump on any change to
/// the fragment shape or the key construction.
pub const STG_NODE_KEY_SCHEME: &str = "cool-node-key/stg-v1";

/// Version tag for the `rtl` stage's node-level keys (one VHDL unit per
/// hardware node). [`cool_rtl::vhdl::emit_hw_block`] reads exactly the
/// node's name, its behavior, and the HLS latency, so those three make
/// up the key. Bump on any change to the emitter's input set or the key
/// construction.
pub const RTL_NODE_KEY_SCHEME: &str = "cool-node-key/rtl-vhdl-v1";

/// Node-level key for one node's STG fragment.
#[must_use]
fn stg_node_key(node: cool_ir::NodeId, resource: Resource) -> u128 {
    let mut h = ContentHasher::new();
    h.write_str(STG_NODE_KEY_SCHEME);
    node.content_hash(&mut h);
    resource.content_hash(&mut h);
    h.finish()
}

/// Node-level key for one hardware node's emitted VHDL unit.
#[must_use]
fn rtl_node_key(name: &str, behavior: &cool_ir::Behavior, latency: u64) -> u128 {
    let mut h = ContentHasher::new();
    h.write_str(RTL_NODE_KEY_SCHEME);
    h.write_str(name);
    behavior.content_hash(&mut h);
    h.write_u64(latency);
    h.finish()
}

/// Remove and return the node delta a stage deposited for itself, if
/// any. Stages tag their deltas with their own name, so a custom stage
/// list never mis-attributes one stage's node activity to another.
fn take_node_delta(cx: &mut FlowContext<'_>, name: &'static str) -> Option<NodeDelta> {
    let i = cx.node_deltas.iter().position(|(n, _)| *n == name)?;
    Some(cx.node_deltas.remove(i).1)
}

/// A linear pipeline of named stages, optionally backed by a
/// content-addressed [`StageCache`].
pub struct Engine {
    stages: Vec<Box<dyn Stage>>,
    cache: Option<StageCache>,
}

impl Engine {
    /// Build an engine from an explicit stage list (for tests and custom
    /// flows; most callers want [`Engine::standard`]).
    #[must_use]
    pub fn new(stages: Vec<Box<dyn Stage>>) -> Engine {
        Engine {
            stages,
            cache: None,
        }
    }

    /// Attach a stage cache. The cache is consulted before every stage
    /// whose [`Stage::cache_key`] is `Some`: on a key match the stage is
    /// skipped and its recorded artifacts are restored; on a miss the
    /// stage runs and its artifact delta is stored. Caches are cheaply
    /// cloneable and may be shared across engines and threads (this is
    /// how concurrent [`crate::FlowSession`]s over one
    /// [`StageCache`] reuse each other's unchanged flow prefixes).
    #[must_use]
    pub fn with_cache(mut self, cache: StageCache) -> Engine {
        self.cache = Some(cache);
        self
    }

    /// The attached cache, if any.
    #[must_use]
    pub fn cache(&self) -> Option<&StageCache> {
        self.cache.as_ref()
    }

    /// The paper's complete design flow, one stage per box of Figure 1.
    #[must_use]
    pub fn standard() -> Engine {
        Engine::new(vec![
            Box::new(SpecStage),
            Box::new(CostStage),
            Box::new(PartitionStage),
            Box::new(ScheduleStage),
            Box::new(StgStage),
            Box::new(HlsStage),
            Box::new(RtlStage),
            Box::new(CodegenStage),
            Box::new(SimPrepStage),
        ])
    }

    /// The stage names, in execution order.
    #[must_use]
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Run every stage in order over `cx`, timing each into the returned
    /// trace. With an attached cache, stages whose content key is already
    /// cached (in memory or on disk) are skipped and their artifacts
    /// restored — the resulting context is byte-identical to an uncached
    /// run, because every cacheable stage is deterministic for equal
    /// inputs.
    ///
    /// # Cache keys
    ///
    /// Stage keys form a dependency DAG, not a chain: each stage is keyed
    /// on a digest of the input graph, the stage's own
    /// [`Stage::cache_key`] (its target/option inputs), and the content
    /// digests of exactly the artifact slots it declares in
    /// [`Stage::reads`]. Equal keys therefore imply equal inputs, and —
    /// by the determinism contract — equal outputs; while an input that
    /// only one stage reads (say, an `hls`-only option) re-runs just
    /// that stage and the stages whose *read artifacts* actually change.
    /// The engine maintains the slot digests incrementally: computed from
    /// the artifacts after each executed stage, restored from the cache
    /// entry on each hit.
    ///
    /// # Errors
    ///
    /// The first failing stage's error; `cx` keeps all artifacts produced
    /// before the failure.
    pub fn run(&self, cx: &mut FlowContext<'_>) -> Result<FlowTrace, FlowError> {
        self.run_until(cx, None)
    }

    /// [`Engine::run`], optionally stopping once the `stop_after`
    /// artifact slot is filled: the prefix of the flow up to and
    /// including the stage that produces the requested artifact, skipped
    /// and restored from the cache exactly like a full run. This is the
    /// engine seam behind [`crate::FlowSession::run_to`] — the executed
    /// prefix is byte-identical to the same prefix of a full run,
    /// because stopping early changes nothing about the stages that did
    /// run.
    ///
    /// A `stop_after` slot that is already filled when the engine starts
    /// (pre-seeded) stops the run before its producer — the artifact the
    /// caller asked for exists.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run`]; additionally
    /// [`FlowError::MissingArtifact`] when every stage ran and the
    /// requested slot is still empty (a custom engine without the
    /// producing stage).
    pub fn run_until(
        &self,
        cx: &mut FlowContext<'_>,
        stop_after: Option<ArtifactSlot>,
    ) -> Result<FlowTrace, FlowError> {
        let trace = self.run_stages(cx, stop_after)?;
        if let Some(slot) = stop_after {
            if !slot.is_filled(cx) {
                return Err(FlowError::MissingArtifact(slot.name()));
            }
        }
        Ok(trace)
    }

    fn run_stages(
        &self,
        cx: &mut FlowContext<'_>,
        stop_after: Option<ArtifactSlot>,
    ) -> Result<FlowTrace, FlowError> {
        let reached = |cx: &FlowContext<'_>| stop_after.is_some_and(|slot| slot.is_filled(cx));
        let mut trace = FlowTrace::new();
        let Some(cache) = self.cache.as_ref() else {
            for stage in &self.stages {
                if reached(cx) {
                    break;
                }
                let before = ArtifactFlags::of(cx);
                let t0 = Instant::now();
                stage.run(cx)?;
                let outcome = if pre_seeded(&**stage, before) {
                    CacheOutcome::Seeded
                } else {
                    CacheOutcome::Uncached
                };
                trace.push_outcome(stage.name(), t0.elapsed(), outcome);
            }
            collect_warnings(&mut trace, cx);
            return Ok(trace);
        };

        // Hand the stages the node-level cache tier: per-node artifacts
        // (HLS designs, STG fragments, hardware VHDL units) survive even
        // when a graph edit invalidates every stage-level key, so a warm
        // edit re-synthesizes only the dirty nodes.
        cx.node_cache = Some(cache.clone());

        let graph_digest = {
            let mut h = ContentHasher::new();
            cx.graph.content_hash(&mut h);
            h.finish()
        };
        // Digests of every filled slot, covering pre-seeded artifacts
        // (e.g. `FlowContext::with_cost` cost models) from the start.
        let mut digests = cache::slot_digests(cx);

        for stage in &self.stages {
            if reached(cx) {
                break;
            }
            let Some(key) = stage
                .cache_key(cx)
                .map(|local| stage_key(graph_digest, &**stage, local, &digests))
            else {
                // Uncacheable stage: run it, then rebuild the digest
                // table from scratch — downstream keys cover artifact
                // *content*, so they stay sound (and cacheable) even if
                // this stage mutated filled slots in place (which
                // uncacheable stages are allowed to do).
                let t0 = Instant::now();
                stage.run(cx)?;
                let nodes = take_node_delta(cx, stage.name());
                trace.push_record(stage.name(), t0.elapsed(), CacheOutcome::Uncached, nodes);
                digests = cache::slot_digests(cx);
                continue;
            };
            let t0 = Instant::now();
            if let Some(hit) = cache.lookup(EntryKind::Stage, key) {
                if let CacheEntry::Stage {
                    delta,
                    writes,
                    cost: saved,
                } = hit.entry.as_ref()
                {
                    delta.apply(cx);
                    for &(slot, d) in writes {
                        digests[slot.index()] = Some(d);
                    }
                    let saved = *saved;
                    let outcome = if hit.from_remote {
                        CacheOutcome::RemoteHit { saved }
                    } else if hit.from_disk {
                        CacheOutcome::DiskHit { saved }
                    } else {
                        CacheOutcome::Hit { saved }
                    };
                    trace.push_outcome(stage.name(), t0.elapsed(), outcome);
                    continue;
                }
            }
            let before = ArtifactFlags::of(cx);
            let t0 = Instant::now();
            stage.run(cx)?;
            let elapsed = t0.elapsed();
            let nodes = take_node_delta(cx, stage.name());
            let writes = cache::update_slot_digests(cx, before, &mut digests);
            // A cacheable stage must only fill empty slots — an in-place
            // mutation would be invisible to the delta and leave stale
            // digests. Re-hashing everything per stage is too costly for
            // release builds, so the contract is enforced mechanically
            // in debug builds (i.e. under `cargo test`).
            #[cfg(debug_assertions)]
            if let Some(slot) = cache::find_mutated_slot(cx, before, &digests) {
                panic!(
                    "stage `{}` mutated the already-filled artifact slot `{slot}` \
                     but returned Some from cache_key; stages that mutate \
                     artifacts in place must return None (see Stage::cache_key)",
                    stage.name(),
                );
            }
            // A write outside the declared set means the declarations are
            // wrong; refuse to cache rather than risk serving an entry
            // keyed on an incomplete read set. Like the mutated-slot
            // check above, debug builds turn the broken declaration into
            // a panic instead of a silent permanent cache miss.
            let undeclared = writes.iter().find(|(s, _)| !stage.writes().contains(s));
            #[cfg(debug_assertions)]
            if let Some((slot, _)) = undeclared {
                panic!(
                    "stage `{}` filled the artifact slot `{}` without declaring it \
                     in Stage::writes(); fix the declaration (and check reads() \
                     matches what the stage consumes)",
                    stage.name(),
                    slot.name(),
                );
            }
            // A node-limit-truncated partition is not a deterministic
            // function of the stage's inputs: under `jobs > 1` which
            // subtrees the budget reached — and hence the incumbent at
            // truncation — depends on worker scheduling, and `jobs` is
            // deliberately outside every cache key. Caching it would pin
            // one scheduling accident as *the* result for this key, so
            // truncated solves are recomputed instead (they cost at most
            // the node budget the caller chose).
            let truncated_partition = writes
                .iter()
                .any(|&(slot, _)| slot == ArtifactSlot::Partition)
                && cx
                    .partition
                    .as_ref()
                    .is_some_and(|p| p.optimality == cool_partition::Optimality::LimitReached);
            let seeded = pre_seeded(&**stage, before);
            // A pre-seeded pass-through deposited nothing: there is no
            // delta worth an LRU slot or a disk-tier file, and warm runs
            // re-running the (free) pass-through is strictly cheaper
            // than restoring an empty entry.
            if undeclared.is_none() && !truncated_partition && !seeded {
                cache.insert(
                    key,
                    CacheEntry::Stage {
                        delta: Box::new(ArtifactDelta::capture(cx, before)),
                        writes,
                        cost: elapsed,
                    },
                );
            }
            let outcome = if seeded {
                CacheOutcome::Seeded
            } else {
                CacheOutcome::Miss
            };
            trace.push_record(stage.name(), elapsed, outcome, nodes);
        }
        collect_warnings(&mut trace, cx);
        Ok(trace)
    }
}

/// `true` when the stage ran as a pre-seeded pass-through: every slot it
/// declares writing was already filled before it ran (e.g. the `cost`
/// stage over a model seeded via `FlowSession::with_cost` or a
/// `run_family` retarget). Distinct from a stage that legitimately
/// *produces* nothing (`spec`, `sim-prep`, custom lints): those declare
/// empty write sets and are excluded.
fn pre_seeded(stage: &dyn Stage, before: ArtifactFlags) -> bool {
    !stage.writes().is_empty() && stage.writes().iter().all(|&s| before.slot_filled(s))
}

/// Append result-quality warnings to the trace after a run. Done on the
/// finished context — not inside the stages — so a partition restored
/// from the cache warns exactly like a freshly computed one.
fn collect_warnings(trace: &mut FlowTrace, cx: &FlowContext<'_>) {
    if let Some(p) = &cx.partition {
        if p.optimality == cool_partition::Optimality::LimitReached {
            let gap = match p.gap {
                Some(gap) => format!(
                    " (the frontier's best remaining LP bound places it within \
                     {:.1} % of the solver optimum)",
                    gap * 100.0
                ),
                None => String::new(),
            };
            trace.push_warning(format!(
                "partition ({}): branch & bound hit its node limit after {} node(s); \
                 the returned colouring is feasible but NOT proven optimal{gap} — raise \
                 the MILP node limit to close the gap",
                p.algorithm, p.work_units,
            ));
        }
    }
}

/// Assemble one stage's dependency-DAG key: the key-scheme version, the
/// input graph digest, the stage name, the stage's local input digest
/// ([`Stage::cache_key`]), and per declared read slot its fill state and
/// content digest. Slots are tagged, and empty/filled is encoded
/// explicitly, so distinct read sets can never alias by concatenation.
fn stage_key(
    graph_digest: u128,
    stage: &dyn Stage,
    local: u128,
    digests: &SlotDigests,
) -> StageKey {
    let mut h = ContentHasher::new();
    h.write_str(KEY_SCHEME);
    h.write_u128(graph_digest);
    h.write_str(stage.name());
    h.write_u128(local);
    for &slot in stage.reads() {
        h.write_u8(slot.index() as u8);
        match digests[slot.index()] {
            Some(d) => {
                h.write_u8(1);
                h.write_u128(d);
            }
            None => h.write_u8(0),
        }
    }
    h.finish()
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("stages", &self.stage_names())
            .finish()
    }
}

/// `spec` — validate the input specification graph.
pub struct SpecStage;

impl Stage for SpecStage {
    fn name(&self) -> &'static str {
        "spec"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        cx.graph.validate()?;
        Ok(())
    }

    /// Reads only the graph (already in the engine's key seed), so
    /// candidates that differ in target or options still share this key.
    fn cache_key(&self, _cx: &FlowContext<'_>) -> Option<u128> {
        Some(0)
    }

    fn reads(&self) -> &'static [ArtifactSlot] {
        &[]
    }

    fn writes(&self) -> &'static [ArtifactSlot] {
        &[]
    }
}

/// `cost` — software timings plus quick per-node HLS estimates. A no-op
/// when the context was pre-seeded via [`FlowContext::with_cost`].
pub struct CostStage;

impl Stage for CostStage {
    fn name(&self) -> &'static str {
        "cost"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        if cx.cost.is_none() {
            cx.cost = Some(cool_cost::CostModel::new(cx.graph, cx.target));
        }
        Ok(())
    }

    /// The target (clocks, memory, bus — and budgets, which the embedded
    /// target copy exposes to consumers). A context pre-seeded via
    /// [`FlowContext::with_cost`] is distinguished through the declared
    /// `cost` read slot: the engine folds the seeded model's content
    /// digest into the key, so a pre-seeded run can never collide with a
    /// computed one unless the resulting context is identical.
    fn cache_key(&self, cx: &FlowContext<'_>) -> Option<u128> {
        let mut h = ContentHasher::new();
        cx.target.content_hash(&mut h);
        Some(h.finish())
    }

    /// Reads its own output slot: filled means "pre-seeded, pass
    /// through", empty means "estimate now".
    fn reads(&self) -> &'static [ArtifactSlot] {
        &[ArtifactSlot::Cost]
    }

    fn writes(&self) -> &'static [ArtifactSlot] {
        &[ArtifactSlot::Cost]
    }
}

/// `partition` — hardware/software partitioning with the configured
/// algorithm.
pub struct PartitionStage;

impl PartitionStage {
    /// The partitioner the stage actually runs: the configured one, with
    /// the flow-level [`FlowOptions::objective`] override (if any)
    /// pushed into its options. A fixed mapping has nothing to
    /// optimize, so the override leaves it untouched. Used by both
    /// `run` and `cache_key` so the key always describes the solve
    /// that produced the artifact.
    fn effective_partitioner(options: &crate::FlowOptions) -> Partitioner {
        let mut p = options.partitioner.clone();
        if let Some(objective) = options.objective {
            match &mut p {
                Partitioner::Milp(o) => o.objective = objective,
                Partitioner::Heuristic(o) => o.milp.objective = objective,
                Partitioner::Genetic(o) => o.objective = objective,
                Partitioner::Fixed(_) => {}
            }
        }
        p
    }
}

impl Stage for PartitionStage {
    fn name(&self) -> &'static str {
        "partition"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let cost = cx.cost()?;
        // The flow's `jobs` knob governs every parallel stage; thread it
        // into the MILP branch & bound too. A completed solve is
        // deterministic for every worker count (why `jobs` stays out of
        // the options' content hashes and cache keys); the one
        // exception, a node-limit-truncated solve, is excluded from the
        // cache below.
        let partition = match &Self::effective_partitioner(cx.options) {
            Partitioner::Milp(o) => {
                let o = cool_partition::MilpOptions {
                    jobs: cx.options.jobs,
                    ..o.clone()
                };
                cool_partition::milp::partition(cx.graph, cost, &o)?
            }
            Partitioner::Heuristic(o) => {
                let mut o = o.clone();
                o.milp.jobs = cx.options.jobs;
                cool_partition::heuristic::partition(cx.graph, cost, &o)?
            }
            Partitioner::Genetic(o) => cool_partition::genetic::partition(cx.graph, cost, o)?,
            Partitioner::Fixed(mapping) => {
                let (makespan, hw_area) =
                    cool_partition::evaluate(cx.graph, mapping, cost, cx.options.scheme)?;
                PartitionResult {
                    mapping: mapping.clone(),
                    algorithm: cool_partition::Algorithm::Milp,
                    optimality: cool_partition::Optimality::Heuristic,
                    gap: None,
                    makespan,
                    hw_area,
                    work_units: 0,
                }
            }
        };
        cx.partition = Some(partition);
        Ok(())
    }

    /// The *effective* partitioner configuration (the configured one
    /// with the flow-level objective override applied, including a fixed
    /// mapping, if any) and the flow's communication scheme; the cost
    /// model (which embeds the target, budgets included) arrives
    /// through the declared read slot.
    fn cache_key(&self, cx: &FlowContext<'_>) -> Option<u128> {
        let mut h = ContentHasher::new();
        Self::effective_partitioner(cx.options).content_hash(&mut h);
        cx.options.scheme.content_hash(&mut h);
        Some(h.finish())
    }

    fn reads(&self) -> &'static [ArtifactSlot] {
        &[ArtifactSlot::Cost]
    }

    fn writes(&self) -> &'static [ArtifactSlot] {
        &[ArtifactSlot::Partition]
    }
}

/// `schedule` — static list scheduling, verified against the mapping.
pub struct ScheduleStage;

impl Stage for ScheduleStage {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let cost = cx.cost()?;
        let mapping = &cx.partition()?.mapping;
        let schedule = cool_schedule::schedule(cx.graph, mapping, cost, cx.options.scheme)?;
        schedule
            .verify(cx.graph, mapping)
            .map_err(FlowError::Consistency)?;
        cx.schedule = Some(schedule);
        Ok(())
    }

    /// Only the communication scheme; mapping and costs arrive through
    /// the declared read slots.
    fn cache_key(&self, cx: &FlowContext<'_>) -> Option<u128> {
        let mut h = ContentHasher::new();
        cx.options.scheme.content_hash(&mut h);
        Some(h.finish())
    }

    fn reads(&self) -> &'static [ArtifactSlot] {
        &[ArtifactSlot::Cost, ArtifactSlot::Partition]
    }

    fn writes(&self) -> &'static [ArtifactSlot] {
        &[ArtifactSlot::Schedule]
    }
}

/// `stg` — co-synthesis core: STG generation, minimization (parallel
/// refinement rounds under `jobs`), memory allocation.
pub struct StgStage;

impl Stage for StgStage {
    fn name(&self) -> &'static str {
        "stg"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let node_cache = cx.node_cache.clone();
        let graph = cx.graph;
        let mapping = &cx.partition()?.mapping;
        let schedule = cx.schedule()?;
        let (stg, stg_delta) = match &node_cache {
            Some(cache) => {
                let mut delta = NodeDelta::default();
                let mut provider = |n: cool_ir::NodeId, res: Resource| {
                    let key = stg_node_key(n, res);
                    if let Some(hit) = cache.lookup(EntryKind::Node, key) {
                        if let CacheEntry::Node(NodeArtifact::StgFragment(f)) = hit.entry.as_ref() {
                            // The canonical-shape gate turns a corrupt or
                            // stale fragment into a recompute instead of a
                            // malformed STG.
                            if f.is_canonical_for(n, res) {
                                delta.reused += 1;
                                if hit.from_disk || hit.from_remote {
                                    delta.reused_disk += 1;
                                }
                                return f.clone();
                            }
                        }
                    }
                    let f = cool_stg::node_fragment(n, res);
                    cache.insert(key, CacheEntry::Node(NodeArtifact::StgFragment(f.clone())));
                    delta.computed += 1;
                    if let Ok(node) = graph.node(n) {
                        delta.computed_names.push(node.name().to_string());
                    }
                    f
                };
                let stg = cool_stg::generate_with(graph, mapping, schedule, &mut provider);
                (stg, Some(delta))
            }
            None => (cool_stg::generate(graph, mapping, schedule), None),
        };
        stg.verify().map_err(FlowError::Consistency)?;
        let (stg_minimized, minimize_stats) = cool_stg::minimize_jobs(&stg, cx.options.jobs);
        stg_minimized.verify().map_err(FlowError::Consistency)?;
        let memory_map = if cx.options.packed_memory {
            cool_stg::allocate_memory_packed(
                cx.graph,
                mapping,
                schedule,
                &cx.target.memory,
                cx.target.bus.width_bits,
            )?
        } else {
            cool_stg::allocate_memory(
                cx.graph,
                mapping,
                &cx.target.memory,
                cx.target.bus.width_bits,
            )?
        };
        cx.stg = Some(stg);
        cx.stg_minimized = Some(stg_minimized);
        cx.minimize_stats = Some(minimize_stats);
        cx.memory_map = Some(memory_map);
        if let Some(delta) = stg_delta {
            cx.node_deltas.push(("stg", delta));
        }
        Ok(())
    }

    /// The allocator choice plus the shared memory and bus geometry the
    /// allocators read — target inputs, so they belong in this local key
    /// (the DAG keys no longer funnel the whole target through `cost`).
    /// An `hls`-only option change leaves this key and the read-slot
    /// digests untouched, so `stg` stays valid — the hit-rate payoff the
    /// DAG keying exists for.
    fn cache_key(&self, cx: &FlowContext<'_>) -> Option<u128> {
        let mut h = ContentHasher::new();
        h.write_bool(cx.options.packed_memory);
        cx.target.memory.content_hash(&mut h);
        cx.target.bus.content_hash(&mut h);
        Some(h.finish())
    }

    fn reads(&self) -> &'static [ArtifactSlot] {
        &[ArtifactSlot::Partition, ArtifactSlot::Schedule]
    }

    fn writes(&self) -> &'static [ArtifactSlot] {
        &[
            ArtifactSlot::Stg,
            ArtifactSlot::StgMinimized,
            ArtifactSlot::MinimizeStats,
            ArtifactSlot::MemoryMap,
        ]
    }
}

/// `hls` — full-effort hardware synthesis of every hardware-mapped node,
/// fanned out across `jobs` scoped worker threads. This is the stage the
/// paper measures at > 90 % of design time.
pub struct HlsStage;

/// Adapter exposing the [`StageCache`] node tier to
/// [`cool_hls::synthesize_many_cached`] (the `hls` crate cannot depend
/// on `cool_core`, so the cache crosses the boundary behind the
/// [`cool_hls::NodeCache`] trait).
struct HlsNodeTier<'c> {
    cache: &'c StageCache,
}

impl cool_hls::NodeCache for HlsNodeTier<'_> {
    fn lookup(&self, key: u128) -> Option<(cool_hls::HlsDesign, cool_hls::CacheSource)> {
        let hit = self.cache.lookup(EntryKind::Node, key)?;
        match hit.entry.as_ref() {
            CacheEntry::Node(NodeArtifact::Hls(d)) => {
                let source = if hit.from_disk || hit.from_remote {
                    cool_hls::CacheSource::Disk
                } else {
                    cool_hls::CacheSource::Memory
                };
                Some((d.clone(), source))
            }
            // Namespaced keys make a kind mismatch unreachable from this
            // engine's own writers; treat it as a miss regardless.
            _ => None,
        }
    }

    fn insert(&self, key: u128, design: &cool_hls::HlsDesign) {
        self.cache
            .insert(key, CacheEntry::Node(NodeArtifact::Hls(design.clone())));
    }
}

impl Stage for HlsStage {
    fn name(&self) -> &'static str {
        "hls"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let mapping = &cx.partition()?.mapping;
        let hw_nodes: Vec<cool_ir::NodeId> = cx
            .graph
            .function_nodes()
            .into_iter()
            .filter(|&n| mapping.resource(n).is_hardware())
            .collect();
        let mut named = Vec::with_capacity(hw_nodes.len());
        for &n in &hw_nodes {
            let node = cx.graph.node(n)?;
            named.push((node.name(), node.behavior()));
        }
        let node_cache = cx.node_cache.clone();
        let hls_designs = match &node_cache {
            Some(cache) => {
                let tier = HlsNodeTier { cache };
                let (designs, outcomes) = cool_hls::synthesize_many_cached(
                    &named,
                    &cx.options.hls,
                    cx.options.jobs,
                    &tier,
                );
                let mut delta = NodeDelta::default();
                for (outcome, &(name, _)) in outcomes.iter().zip(&named) {
                    match outcome {
                        cool_hls::NodeOutcome::Computed => {
                            delta.computed += 1;
                            delta.computed_names.push(name.to_string());
                        }
                        cool_hls::NodeOutcome::ReusedMemory => delta.reused += 1,
                        cool_hls::NodeOutcome::ReusedDisk => {
                            delta.reused += 1;
                            delta.reused_disk += 1;
                        }
                    }
                }
                cx.node_deltas.push(("hls", delta));
                designs
            }
            None => cool_hls::synthesize_many(&named, &cx.options.hls, cx.options.jobs),
        };
        cx.hw_nodes = Some(hw_nodes);
        cx.hls_designs = Some(hls_designs);
        Ok(())
    }

    /// The full-effort synthesis options (`jobs` excluded: the per-node
    /// fan-out never changes a generated byte).
    fn cache_key(&self, cx: &FlowContext<'_>) -> Option<u128> {
        let mut h = ContentHasher::new();
        cx.options.hls.content_hash(&mut h);
        Some(h.finish())
    }

    /// Reads the mapping only (plus the graph's behaviors, covered by the
    /// key seed) — notably *not* the schedule or the STG, so
    /// schedule-side changes never re-synthesize hardware.
    fn reads(&self) -> &'static [ArtifactSlot] {
        &[ArtifactSlot::Partition]
    }

    fn writes(&self) -> &'static [ArtifactSlot] {
        &[ArtifactSlot::HwNodes, ArtifactSlot::HlsDesigns]
    }
}

/// `rtl` — system controller + encoding search, netlist, all VHDL units,
/// and the per-device CLB placement (encoding streams and placement
/// chains parallel under `jobs`).
pub struct RtlStage;

impl Stage for RtlStage {
    fn name(&self) -> &'static str {
        "rtl"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let mapping = &cx.partition()?.mapping;
        let schedule = cx.schedule()?;
        let memory_map = cx.memory_map()?;
        let hw_nodes = cx.hw_nodes()?;
        let hls_designs = cx.hls_designs()?;
        let graph = cx.graph;
        let target = cx.target;

        let controller = SystemController::from_stg(cx.stg_minimized()?.clone(), graph);
        let encoding = cool_rtl::encoding::optimize_encoding_jobs(
            controller.stg(),
            cx.options.encoding_effort,
            cx.options.jobs,
        );
        let netlist = cool_rtl::build_netlist(graph, mapping, target);
        netlist.verify().map_err(FlowError::Consistency)?;

        let mut vhdl = Vec::new();
        vhdl.push((
            "system_controller.vhd".to_string(),
            cool_rtl::vhdl::emit_system_controller(&controller),
        ));
        let masters = netlist.count_kind(|k| {
            matches!(
                k,
                cool_rtl::ComponentKind::Processor(_)
                    | cool_rtl::ComponentKind::DatapathController(_)
                    | cool_rtl::ComponentKind::IoController
            )
        });
        vhdl.push((
            "bus_arbiter.vhd".to_string(),
            cool_rtl::vhdl::emit_bus_arbiter(masters),
        ));
        vhdl.push((
            "io_controller.vhd".to_string(),
            cool_rtl::vhdl::emit_io_controller(
                graph.primary_inputs().len().max(1),
                graph.primary_outputs().len().max(1),
                target.bus.width_bits,
            ),
        ));
        let node_cache = cx.node_cache.clone();
        let mut rtl_delta = node_cache.as_ref().map(|_| NodeDelta::default());
        for (i, &n) in hw_nodes.iter().enumerate() {
            let node = graph.node(n)?;
            let latency = hls_designs[i].latency_cycles;
            let unit = match (&node_cache, &mut rtl_delta) {
                (Some(cache), Some(delta)) => {
                    let key = rtl_node_key(node.name(), node.behavior(), latency);
                    let cached = cache.lookup(EntryKind::Node, key).and_then(|hit| {
                        match hit.entry.as_ref() {
                            CacheEntry::Node(NodeArtifact::Vhdl(src)) => {
                                Some((src.clone(), hit.from_disk || hit.from_remote))
                            }
                            _ => None,
                        }
                    });
                    match cached {
                        Some((src, from_disk)) => {
                            delta.reused += 1;
                            if from_disk {
                                delta.reused_disk += 1;
                            }
                            src
                        }
                        None => {
                            let src = cool_rtl::vhdl::emit_hw_block(graph, n, latency);
                            cache.insert(key, CacheEntry::Node(NodeArtifact::Vhdl(src.clone())));
                            delta.computed += 1;
                            delta.computed_names.push(node.name().to_string());
                            src
                        }
                    }
                }
                _ => cool_rtl::vhdl::emit_hw_block(graph, n, latency),
            };
            vhdl.push((format!("hw_{}.vhd", node.name()), unit));
        }
        // One datapath controller per FPGA in use: sequences the device's
        // shared-memory transactions in schedule order.
        for h in 0..target.hw.len() {
            let res = Resource::Hardware(h);
            if !hw_nodes.iter().any(|&n| mapping.resource(n) == res) {
                continue;
            }
            let mut transfers: Vec<(u64, cool_rtl::vhdl::BusTransfer)> = Vec::new();
            for cell in memory_map.cells() {
                let e = graph.edge(cell.edge)?;
                if mapping.resource(e.src) == res {
                    transfers.push((
                        schedule.slot(e.src).finish,
                        cool_rtl::vhdl::BusTransfer {
                            address: cell.address,
                            write: true,
                        },
                    ));
                }
                if mapping.resource(e.dst) == res {
                    transfers.push((
                        schedule.slot(e.dst).start,
                        cool_rtl::vhdl::BusTransfer {
                            address: cell.address,
                            write: false,
                        },
                    ));
                }
            }
            transfers.sort_by_key(|&(t, x)| (t, x.address, x.write));
            let ordered: Vec<cool_rtl::vhdl::BusTransfer> =
                transfers.into_iter().map(|(_, x)| x).collect();
            let name = target.resource_name(res).to_string();
            vhdl.push((
                format!("dpctl_{name}.vhd"),
                cool_rtl::vhdl::emit_datapath_controller(&name, &ordered, target.bus.width_bits),
            ));
        }
        vhdl.push((
            format!("{}_top.vhd", graph.name()),
            cool_rtl::vhdl::emit_toplevel(&netlist, graph.name()),
        ));
        for (name, unit) in &vhdl {
            cool_rtl::vhdl::check_well_formed(unit)
                .map_err(|e| FlowError::Consistency(format!("{name}: {e}")))?;
        }

        // Xilinx implementation stand-in: anneal a CLB placement per
        // device. The system controller shares the first FPGA with its
        // blocks, every other device hosts its blocks plus a datapath
        // controller. Each device runs a deterministic multi-start anneal
        // whose chains fan out across workers without affecting the
        // result.
        let mut problems: Vec<(Resource, cool_rtl::place::PlacementProblem, u64)> = Vec::new();
        for h in 0..target.hw.len() {
            let block_clbs: Vec<u32> = hw_nodes
                .iter()
                .zip(hls_designs)
                .filter(|(&n, _)| mapping.resource(n) == Resource::Hardware(h))
                .map(|(_, d)| d.area_clbs)
                .collect();
            if block_clbs.is_empty() && h > 0 {
                continue;
            }
            let blocks_total: u32 = block_clbs.iter().sum();
            let wanted_ctrl = if h == 0 {
                cool_hls::area::fsm_clbs(
                    controller.stg().state_count(),
                    graph.function_nodes().len(),
                )
            } else {
                8 // datapath controller
            };
            let grid = (14u16, 14u16); // XC4005 CLB array
            let capacity = u32::from(grid.0) * u32::from(grid.1);
            let ctrl_clbs = wanted_ctrl
                .min(capacity.saturating_sub(blocks_total))
                .max(1);
            let problem = cool_rtl::place::PlacementProblem::for_device(
                &block_clbs,
                ctrl_clbs,
                grid.0,
                grid.1,
            );
            if problem.fits() {
                problems.push((Resource::Hardware(h), problem, 0x5eed + h as u64));
            }
        }
        let placements: Vec<(Resource, Placement)> = problems
            .iter()
            .map(|(res, problem, seed)| {
                (
                    *res,
                    cool_rtl::place::anneal_multistart(
                        problem,
                        cx.options.placement_effort,
                        *seed,
                        cx.options.jobs,
                    ),
                )
            })
            .collect();

        cx.controller = Some(controller);
        cx.encoding = Some(encoding);
        cx.netlist = Some(netlist);
        cx.vhdl = Some(vhdl);
        cx.placements = Some(placements);
        if let Some(delta) = rtl_delta {
            cx.node_deltas.push(("rtl", delta));
        }
        Ok(())
    }

    /// Encoding-search and placement effort knobs plus the full target
    /// (device inventory, resource names, bus width all shape the
    /// netlist and VHDL); the artifact inputs arrive through the
    /// declared read slots.
    fn cache_key(&self, cx: &FlowContext<'_>) -> Option<u128> {
        let mut h = ContentHasher::new();
        h.write_u32(cx.options.encoding_effort);
        h.write_u32(cx.options.placement_effort);
        cx.target.content_hash(&mut h);
        Some(h.finish())
    }

    fn reads(&self) -> &'static [ArtifactSlot] {
        &[
            ArtifactSlot::Partition,
            ArtifactSlot::Schedule,
            ArtifactSlot::StgMinimized,
            ArtifactSlot::MemoryMap,
            ArtifactSlot::HwNodes,
            ArtifactSlot::HlsDesigns,
        ]
    }

    fn writes(&self) -> &'static [ArtifactSlot] {
        &[
            ArtifactSlot::Controller,
            ArtifactSlot::Encoding,
            ArtifactSlot::Netlist,
            ArtifactSlot::Vhdl,
            ArtifactSlot::Placements,
        ]
    }
}

/// `codegen` — C program generation for every software partition.
pub struct CodegenStage;

impl Stage for CodegenStage {
    fn name(&self) -> &'static str {
        "codegen"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let mapping = &cx.partition()?.mapping;
        let c_programs =
            cool_codegen::emit_programs(cx.graph, mapping, cx.schedule()?, cx.memory_map()?);
        for p in &c_programs {
            cool_codegen::check_c_structure(&p.source)
                .map_err(|e| FlowError::Consistency(format!("{}: {e}", p.file_name)))?;
        }
        cx.c_programs = Some(c_programs);
        Ok(())
    }

    /// Reads declared artifact slots only (the graph is in the key seed).
    fn cache_key(&self, _cx: &FlowContext<'_>) -> Option<u128> {
        Some(0)
    }

    fn reads(&self) -> &'static [ArtifactSlot] {
        &[
            ArtifactSlot::Partition,
            ArtifactSlot::Schedule,
            ArtifactSlot::MemoryMap,
        ]
    }

    fn writes(&self) -> &'static [ArtifactSlot] {
        &[ArtifactSlot::CPrograms]
    }
}

/// `sim-prep` — validate that the produced artifact set is complete and
/// wires up into a simulator, so `FlowArtifacts::simulate` cannot fail on
/// missing pieces later.
pub struct SimPrepStage;

impl Stage for SimPrepStage {
    fn name(&self) -> &'static str {
        "sim-prep"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let sim = cool_sim::Simulator::new(
            cx.graph,
            cx.mapping()?,
            cx.schedule()?,
            cx.memory_map()?,
            cx.cost()?,
            cx.options.scheme,
        );
        let _ = sim;
        // Every remaining artifact slot the simulator does not touch —
        // the full set `FlowArtifacts::from_context` will demand, so a
        // custom engine that skipped a producer fails here, inside a
        // named stage, rather than after the run.
        cx.stg_minimized()?;
        cx.controller()?;
        cx.netlist()?;
        cx.hw_nodes()?;
        cx.hls_designs()?;
        if cx.stg.is_none() {
            return Err(FlowError::MissingArtifact("STG"));
        }
        if cx.minimize_stats.is_none() {
            return Err(FlowError::MissingArtifact("minimization stats"));
        }
        if cx.encoding.is_none() {
            return Err(FlowError::MissingArtifact("state encoding"));
        }
        if cx.placements.is_none() {
            return Err(FlowError::MissingArtifact("placements"));
        }
        if cx.vhdl.is_none() {
            return Err(FlowError::MissingArtifact("VHDL units"));
        }
        if cx.c_programs.is_none() {
            return Err(FlowError::MissingArtifact("C programs"));
        }
        Ok(())
    }

    /// The communication scheme the simulator is wired with; every
    /// artifact it validates is a declared read.
    fn cache_key(&self, cx: &FlowContext<'_>) -> Option<u128> {
        let mut h = ContentHasher::new();
        cx.options.scheme.content_hash(&mut h);
        Some(h.finish())
    }

    /// Validates the complete artifact set, so it reads every slot.
    fn reads(&self) -> &'static [ArtifactSlot] {
        &ArtifactSlot::ALL
    }

    fn writes(&self) -> &'static [ArtifactSlot] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowOptions;
    use cool_ir::Target;
    use cool_spec::workloads;

    #[test]
    fn standard_engine_stage_order_matches_paper_flow() {
        assert_eq!(
            Engine::standard().stage_names(),
            vec![
                "spec",
                "cost",
                "partition",
                "schedule",
                "stg",
                "hls",
                "rtl",
                "codegen",
                "sim-prep"
            ]
        );
    }

    #[test]
    fn trace_covers_every_stage_in_order() {
        let g = workloads::equalizer(2);
        let target = Target::fuzzy_board();
        let options = FlowOptions::quick();
        let engine = Engine::standard();
        let mut cx = FlowContext::new(&g, &target, &options);
        let trace = engine.run(&mut cx).unwrap();
        assert_eq!(trace.stage_names(), engine.stage_names());
        assert!(trace.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn misordered_engine_reports_missing_artifact() {
        let g = workloads::equalizer(2);
        let target = Target::fuzzy_board();
        let options = FlowOptions::quick();
        // Scheduling before partitioning must fail cleanly.
        let engine = Engine::new(vec![
            Box::new(SpecStage),
            Box::new(CostStage),
            Box::new(ScheduleStage),
        ]);
        let mut cx = FlowContext::new(&g, &target, &options);
        let err = engine.run(&mut cx).unwrap_err();
        assert!(matches!(err, FlowError::MissingArtifact(_)), "{err}");
    }
}
