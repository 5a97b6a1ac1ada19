//! The content-addressed stage cache: an in-memory LRU tier backed by an
//! optional persistent on-disk tier and an optional remote fleet tier
//! (a `coold` daemon reached through [`crate::remote::RemoteStore`]).
//!
//! Sweeps (`res2` area budgets, the partitioner and communication-scheme
//! ablations) re-run the whole spec→…→codegen pipeline per candidate even
//! though most upstream stage outputs are identical across candidates.
//! The [`StageCache`] makes those prefixes incremental: the engine keys
//! every stage on a 128-bit content digest of precisely what the stage
//! reads (the dependency-DAG keys of [`crate::engine::Engine::run`]), and
//! on a key match it skips the stage and restores the artifacts the
//! original run deposited into the [`FlowContext`]. One level below,
//! per-node artifacts ([`NodeArtifact`]) are cached the same way. Both
//! are [`CacheEntry`]s in one `u128` key space, and one
//! [`StageCache::lookup`] / [`StageCache::insert`] pair walks them
//! through every tier.
//!
//! The cache is `Arc`-shared and mutex-guarded so one instance can serve
//! many concurrent [`crate::FlowSession`]s (sweep workers, the
//! [`crate::server`] daemon's clients); entries are bounded
//! by an LRU policy. With a disk tier attached
//! ([`StageCache::persistent`]), every insert is written through to a
//! cache directory and every in-memory miss consults it — that is what
//! lets a *fresh process* (a new CLI invocation, a CI job) warm-start
//! from a previous run's work. Because every stage is deterministic for
//! equal context contents (the [`crate::stage::Stage`] contract),
//! restoring a cached delta is byte-identical to re-running the stage —
//! the determinism battery in `tests/disk_cache.rs` enforces exactly
//! that, cold and warm, in-memory and from disk.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use cool_ir::codec::{Codec, CodecError, Decoder, Encoder};
use cool_ir::hash::digest;

use crate::disk::{DiskStore, Load};
use crate::stage::FlowContext;

/// The content digest a stage execution is cached under.
pub type StageKey = u128;

/// The single source of truth for the artifact slot ⇄ index mapping:
/// invokes `$macro_cb!(slot_name, index, Variant)` once per slot of
/// [`FlowContext`] / [`ArtifactDelta`] / [`ArtifactSlot`]. Adding a slot
/// means adding one line here (plus the `ArtifactDelta` field and the
/// `ArtifactSlot` variant); every flags/capture/apply/digest/codec loop
/// below derives from it.
macro_rules! for_each_slot {
    ($macro_cb:ident) => {
        $macro_cb!(cost, 0, Cost);
        $macro_cb!(partition, 1, Partition);
        $macro_cb!(schedule, 2, Schedule);
        $macro_cb!(stg, 3, Stg);
        $macro_cb!(stg_minimized, 4, StgMinimized);
        $macro_cb!(minimize_stats, 5, MinimizeStats);
        $macro_cb!(memory_map, 6, MemoryMap);
        $macro_cb!(hw_nodes, 7, HwNodes);
        $macro_cb!(hls_designs, 8, HlsDesigns);
        $macro_cb!(controller, 9, Controller);
        $macro_cb!(encoding, 10, Encoding);
        $macro_cb!(netlist, 11, Netlist);
        $macro_cb!(vhdl, 12, Vhdl);
        $macro_cb!(placements, 13, Placements);
        $macro_cb!(c_programs, 14, CPrograms);
    };
}

/// Number of artifact slots in a [`FlowContext`].
pub const SLOT_COUNT: usize = 15;

/// One artifact slot of the [`FlowContext`], as a value — the vocabulary
/// of [`crate::stage::Stage::reads`] / [`crate::stage::Stage::writes`]
/// declarations and of the per-slot content digests the engine keys
/// stages with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactSlot {
    /// The cost model (`cost` stage, or pre-seeded).
    Cost,
    /// The partitioning outcome.
    Partition,
    /// The static schedule.
    Schedule,
    /// The raw STG.
    Stg,
    /// The minimized STG.
    StgMinimized,
    /// STG minimization statistics.
    MinimizeStats,
    /// The communication memory map.
    MemoryMap,
    /// Hardware-mapped function nodes.
    HwNodes,
    /// Full-effort HLS designs.
    HlsDesigns,
    /// The synthesized system controller.
    Controller,
    /// The controller state encoding.
    Encoding,
    /// The generated netlist.
    Netlist,
    /// Emitted VHDL units.
    Vhdl,
    /// Per-device CLB placements.
    Placements,
    /// Generated C programs.
    CPrograms,
}

impl ArtifactSlot {
    /// Every slot, in [`FlowContext`] declaration order.
    pub const ALL: [ArtifactSlot; SLOT_COUNT] = {
        let mut all = [ArtifactSlot::Cost; SLOT_COUNT];
        macro_rules! fill_slot {
            ($slot:ident, $idx:expr, $variant:ident) => {
                all[$idx] = ArtifactSlot::$variant;
            };
        }
        for_each_slot!(fill_slot);
        all
    };

    /// Dense index of the slot (its position in [`ArtifactSlot::ALL`]).
    #[must_use]
    pub fn index(self) -> usize {
        let mut idx = 0;
        macro_rules! index_slot {
            ($slot:ident, $idx:expr, $variant:ident) => {
                if matches!(self, ArtifactSlot::$variant) {
                    idx = $idx;
                }
            };
        }
        for_each_slot!(index_slot);
        idx
    }

    /// `true` when this slot of `cx` is filled.
    #[must_use]
    pub fn is_filled(self, cx: &FlowContext<'_>) -> bool {
        let mut filled = false;
        macro_rules! filled_slot {
            ($slot:ident, $idx:expr, $variant:ident) => {
                if matches!(self, ArtifactSlot::$variant) {
                    filled = cx.$slot.is_some();
                }
            };
        }
        for_each_slot!(filled_slot);
        filled
    }

    /// The slot's field name in [`FlowContext`].
    #[must_use]
    pub fn name(self) -> &'static str {
        let mut name = "";
        macro_rules! name_slot {
            ($slot:ident, $idx:expr, $variant:ident) => {
                if matches!(self, ArtifactSlot::$variant) {
                    name = stringify!($slot);
                }
            };
        }
        for_each_slot!(name_slot);
        name
    }
}

impl Codec for ArtifactSlot {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(self.index() as u8);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let tag = d.take_u8()?;
        ArtifactSlot::ALL
            .get(usize::from(tag))
            .copied()
            .ok_or(CodecError::InvalidTag {
                type_name: "ArtifactSlot",
                tag,
            })
    }
}

/// Which artifact slots of a [`FlowContext`] are filled.
///
/// Captured before a stage runs so the engine can snapshot exactly the
/// slots the stage deposited (cached stages fill empty slots only; a
/// stage that mutates existing artifacts in place must opt out of caching
/// by returning `None` from `cache_key`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactFlags {
    flags: [bool; SLOT_COUNT],
}

impl ArtifactFlags {
    /// Snapshot which slots of `cx` are currently filled.
    #[must_use]
    pub fn of(cx: &FlowContext<'_>) -> ArtifactFlags {
        let mut flags = [false; SLOT_COUNT];
        macro_rules! flag_slot {
            ($slot:ident, $idx:expr, $variant:ident) => {
                flags[$idx] = cx.$slot.is_some();
            };
        }
        for_each_slot!(flag_slot);
        ArtifactFlags { flags }
    }

    /// Whether `slot` was filled in this snapshot.
    #[must_use]
    pub fn slot_filled(&self, slot: ArtifactSlot) -> bool {
        self.flags[slot.index()]
    }
}

/// Per-slot content digests of a [`FlowContext`]'s filled artifact slots
/// — the inputs of the engine's DAG stage keys. `None` means the slot is
/// empty.
pub type SlotDigests = [Option<u128>; SLOT_COUNT];

/// Digest every filled slot of `cx` (used once at engine start to cover
/// pre-seeded artifacts such as [`FlowContext::with_cost`] cost models).
#[must_use]
pub fn slot_digests(cx: &FlowContext<'_>) -> SlotDigests {
    let mut table = [None; SLOT_COUNT];
    update_slot_digests(cx, ArtifactFlags::default(), &mut table);
    table
}

/// Digest every slot of `cx` that is filled now but was not in `before`,
/// recording the digests into `table` and returning them as the
/// `(slot, digest)` list the cache stores alongside the entry.
pub fn update_slot_digests(
    cx: &FlowContext<'_>,
    before: ArtifactFlags,
    table: &mut SlotDigests,
) -> Vec<(ArtifactSlot, u128)> {
    let mut written = Vec::new();
    macro_rules! digest_slot {
        ($slot:ident, $idx:expr, $variant:ident) => {
            if !before.flags[$idx] {
                if let Some(v) = &cx.$slot {
                    let d = digest(v);
                    table[$idx] = Some(d);
                    written.push((ArtifactSlot::$variant, d));
                }
            }
        };
    }
    for_each_slot!(digest_slot);
    written
}

/// Debug-build contract check: the name of the first slot that was
/// filled in `before` but whose content no longer matches its recorded
/// digest in `table` (mutated in place), or that was emptied. `None`
/// when the cacheable-stage contract — fill empty slots only — held.
#[cfg(debug_assertions)]
#[must_use]
pub fn find_mutated_slot(
    cx: &FlowContext<'_>,
    before: ArtifactFlags,
    table: &SlotDigests,
) -> Option<&'static str> {
    macro_rules! check_slot {
        ($slot:ident, $idx:expr, $variant:ident) => {
            if before.flags[$idx] {
                match &cx.$slot {
                    Some(v) if table[$idx] == Some(digest(v)) => {}
                    _ => return Some(ArtifactSlot::$variant.name()),
                }
            }
        };
    }
    for_each_slot!(check_slot);
    None
}

/// The artifacts one stage deposited into the context: a clone of every
/// slot that was empty before the stage ran and filled afterwards.
#[derive(Debug, Clone, Default)]
pub struct ArtifactDelta {
    cost: Option<cool_cost::CostModel>,
    partition: Option<cool_partition::PartitionResult>,
    schedule: Option<cool_schedule::StaticSchedule>,
    stg: Option<cool_stg::Stg>,
    stg_minimized: Option<cool_stg::Stg>,
    minimize_stats: Option<cool_stg::MinimizeStats>,
    memory_map: Option<cool_stg::MemoryMap>,
    hw_nodes: Option<Vec<cool_ir::NodeId>>,
    hls_designs: Option<Vec<cool_hls::HlsDesign>>,
    controller: Option<cool_rtl::SystemController>,
    encoding: Option<cool_rtl::encoding::StateEncoding>,
    netlist: Option<cool_rtl::Netlist>,
    vhdl: Option<Vec<(String, String)>>,
    placements: Option<Vec<(cool_ir::Resource, cool_rtl::place::Placement)>>,
    c_programs: Option<Vec<cool_codegen::CProgram>>,
}

impl ArtifactDelta {
    /// Clone every slot of `cx` that is filled now but was not filled in
    /// `before`.
    #[must_use]
    pub fn capture(cx: &FlowContext<'_>, before: ArtifactFlags) -> ArtifactDelta {
        let mut delta = ArtifactDelta::default();
        macro_rules! capture_slot {
            ($slot:ident, $idx:expr, $variant:ident) => {
                if !before.flags[$idx] {
                    delta.$slot = cx.$slot.clone();
                }
            };
        }
        for_each_slot!(capture_slot);
        delta
    }

    /// Deposit the captured artifacts back into `cx` (cloning; the delta
    /// stays in the cache for further hits).
    pub fn apply(&self, cx: &mut FlowContext<'_>) {
        macro_rules! apply_slot {
            ($slot:ident, $idx:expr, $variant:ident) => {
                if let Some(v) = &self.$slot {
                    cx.$slot = Some(v.clone());
                }
            };
        }
        for_each_slot!(apply_slot);
    }

    /// Number of artifact slots this delta restores.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        let mut n = 0;
        macro_rules! count_slot {
            ($slot:ident, $idx:expr, $variant:ident) => {
                n += usize::from(self.$slot.is_some());
            };
        }
        for_each_slot!(count_slot);
        n
    }
}

impl Codec for ArtifactDelta {
    fn encode(&self, e: &mut Encoder) {
        macro_rules! encode_slot {
            ($slot:ident, $idx:expr, $variant:ident) => {
                self.$slot.encode(e);
            };
        }
        for_each_slot!(encode_slot);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let mut delta = ArtifactDelta::default();
        macro_rules! decode_slot {
            ($slot:ident, $idx:expr, $variant:ident) => {
                delta.$slot = Option::decode(d)?;
            };
        }
        for_each_slot!(decode_slot);
        Ok(delta)
    }
}

/// One per-node artifact, cached one level below stages: the unit of
/// reuse that survives a spec edit which invalidates *every* stage key
/// (the graph digest seeds each of them) but leaves most nodes'
/// behaviours untouched.
///
/// Entries are keyed by namespaced per-node content digests
/// ([`cool_hls::node_key`] and the engine's STG/RTL node keys), so the
/// variants can never alias each other or a stage entry.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeArtifact {
    /// A node's synthesized datapath, stored name-independently (the
    /// engine re-labels it via [`cool_hls::HlsDesign::renamed`]).
    Hls(cool_hls::HlsDesign),
    /// A hardware node's emitted VHDL entity text.
    Vhdl(String),
    /// A node's `w`/`x`/`d` STG slice.
    StgFragment(cool_stg::NodeFragment),
}

impl Codec for NodeArtifact {
    fn encode(&self, e: &mut Encoder) {
        match self {
            NodeArtifact::Hls(design) => {
                e.put_u8(0);
                design.encode(e);
            }
            NodeArtifact::Vhdl(text) => {
                e.put_u8(1);
                e.put_str(text);
            }
            NodeArtifact::StgFragment(frag) => {
                e.put_u8(2);
                frag.encode(e);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(NodeArtifact::Hls(cool_hls::HlsDesign::decode(d)?)),
            1 => Ok(NodeArtifact::Vhdl(d.take_str()?)),
            2 => Ok(NodeArtifact::StgFragment(cool_stg::NodeFragment::decode(
                d,
            )?)),
            tag => Err(CodecError::InvalidTag {
                type_name: "NodeArtifact",
                tag,
            }),
        }
    }
}

/// Which of the two kinds of [`CacheEntry`] a lookup asks for. The
/// discriminant is the entry-kind byte every `.cce` payload starts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A stage execution ([`CacheEntry::Stage`]).
    Stage = 0,
    /// A per-node artifact ([`CacheEntry::Node`]).
    Node = 1,
}

impl Codec for EntryKind {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(*self as u8);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(EntryKind::Stage),
            1 => Ok(EntryKind::Node),
            tag => Err(CodecError::InvalidTag {
                type_name: "EntryKind",
                tag,
            }),
        }
    }
}

/// One cached value — the single entry type of the memory, disk and
/// remote tiers. Its [`Codec`] encoding (the [`EntryKind`] byte, then the
/// body) is exactly the payload of a `.cce` entry file, which is also
/// what the `coold` cache verbs carry.
///
/// Stage keys and node keys are disjoint namespaces (DAG stage digests
/// vs `cool-node-key/…` digests), so both kinds share one `u128` key
/// space.
#[derive(Debug, Clone)]
pub enum CacheEntry {
    /// One stage execution.
    Stage {
        /// The artifacts the stage deposited (boxed: a delta is large
        /// next to a node artifact).
        delta: Box<ArtifactDelta>,
        /// Digests of the slots the delta fills, so a hit can extend the
        /// engine's slot-digest table without re-hashing the artifacts.
        writes: Vec<(ArtifactSlot, u128)>,
        /// Wall-clock the original execution took — the time a hit saves.
        cost: Duration,
    },
    /// One per-node artifact.
    Node(NodeArtifact),
}

impl CacheEntry {
    /// The entry's kind.
    #[must_use]
    pub fn kind(&self) -> EntryKind {
        match self {
            CacheEntry::Stage { .. } => EntryKind::Stage,
            CacheEntry::Node(_) => EntryKind::Node,
        }
    }

    /// Wall-clock a hit on this entry saves (node entries record none).
    fn saved(&self) -> Duration {
        match self {
            CacheEntry::Stage { cost, .. } => *cost,
            CacheEntry::Node(_) => Duration::ZERO,
        }
    }
}

impl Codec for CacheEntry {
    fn encode(&self, e: &mut Encoder) {
        self.kind().encode(e);
        match self {
            CacheEntry::Stage {
                delta,
                writes,
                cost,
            } => {
                e.put_u64(u64::try_from(cost.as_nanos()).unwrap_or(u64::MAX));
                writes.encode(e);
                delta.encode(e);
            }
            CacheEntry::Node(artifact) => artifact.encode(e),
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match EntryKind::decode(d)? {
            EntryKind::Stage => {
                let cost = Duration::from_nanos(d.take_u64()?);
                let writes = Vec::decode(d)?;
                let delta = Box::new(ArtifactDelta::decode(d)?);
                Ok(CacheEntry::Stage {
                    delta,
                    writes,
                    cost,
                })
            }
            EntryKind::Node => Ok(CacheEntry::Node(NodeArtifact::decode(d)?)),
        }
    }
}

/// What one [`StageCache::lookup`] found.
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// The cached entry, always of the kind the lookup asked for.
    pub entry: Arc<CacheEntry>,
    /// `true` when the entry came from the disk tier (an in-memory miss
    /// satisfied by the cache directory).
    pub from_disk: bool,
    /// `true` when the entry was fetched from the remote fleet tier (a
    /// `coold` daemon) and re-materialized locally.
    pub from_remote: bool,
}

/// One resident entry with its LRU recency.
#[derive(Debug)]
struct Resident {
    entry: Arc<CacheEntry>,
    last_used: u64,
}

/// The in-memory LRU tier of one [`EntryKind`], with its counters.
#[derive(Debug, Default)]
struct Tier {
    map: HashMap<StageKey, Resident>,
    capacity: usize,
    /// Lookups served from cache (memory, disk and remote combined).
    hits: u64,
    /// The subset of `hits` served by the disk tier.
    disk_hits: u64,
    /// Lookups that found nothing.
    misses: u64,
    /// Entries evicted by the LRU bound.
    evictions: u64,
    /// Entries written to the disk tier (inserts and remote heals).
    disk_writes: u64,
    /// Sum of the hit entries' original execution times.
    saved: Duration,
}

impl Tier {
    fn new(capacity: usize) -> Tier {
        Tier {
            capacity: capacity.max(1),
            ..Tier::default()
        }
    }

    /// Make `entry` resident under `key` at recency `tick`, evicting the
    /// least-recently used entries over capacity. Returns `true` when the
    /// key was not resident before.
    fn put(&mut self, key: StageKey, entry: Arc<CacheEntry>, tick: u64) -> bool {
        let fresh = self
            .map
            .insert(
                key,
                Resident {
                    entry,
                    last_used: tick,
                },
            )
            .is_none();
        while self.map.len() > self.capacity {
            let Some((&victim, _)) = self.map.iter().min_by_key(|(_, r)| r.last_used) else {
                break;
            };
            self.map.remove(&victim);
            self.evictions += 1;
        }
        fresh
    }
}

#[derive(Debug)]
struct Inner {
    /// One tier per [`EntryKind`], indexed by its discriminant. Node
    /// entries are small and numerous next to stage deltas, so their
    /// tier has its own, much larger bound.
    tiers: [Tier; 2],
    tick: u64,
    /// Corrupt or version-mismatched disk entries evicted (either kind).
    disk_evictions: u64,
}

/// Aggregate cache counters, for `--trace` output and the benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Stage executions skipped because a cached delta was restored
    /// (in-memory and disk hits combined).
    pub hits: u64,
    /// The subset of `hits` satisfied by the disk tier.
    pub disk_hits: u64,
    /// Stage executions that ran and populated the cache.
    pub misses: u64,
    /// Entries evicted by the in-memory LRU bound.
    pub evictions: u64,
    /// Entries written through to the disk tier.
    pub disk_writes: u64,
    /// Corrupt or version-mismatched disk entries that were evicted (each
    /// also counted as a miss).
    pub disk_evictions: u64,
    /// Disk entries evicted to honour the store's byte-size cap (LRU by
    /// mtime, enforced at open and after every insert).
    pub disk_size_evictions: u64,
    /// Entries currently resident in memory.
    pub entries: usize,
    /// Sum of the original execution times of every hit — the wall-clock
    /// the cache saved.
    pub saved: Duration,
    /// Node-level lookups served from cache (memory and disk combined).
    pub node_hits: u64,
    /// The subset of `node_hits` satisfied by the disk tier.
    pub node_disk_hits: u64,
    /// Node-level lookups that found nothing (the node was recomputed).
    pub node_misses: u64,
    /// Node entries evicted by the node tier's in-memory LRU bound.
    pub node_evictions: u64,
    /// Node entries written through to the disk tier.
    pub node_disk_writes: u64,
    /// Node entries currently resident in memory.
    pub node_entries: usize,
    /// Stage and node lookups satisfied by the remote fleet tier.
    pub remote_hits: u64,
    /// Remote lookups that reached the daemon and found nothing.
    pub remote_misses: u64,
    /// Entries written through to the remote fleet tier.
    pub remote_puts: u64,
    /// Remote operations dropped because the daemon was unreachable (the
    /// cache degraded to local-only for those operations).
    pub remote_errors: u64,
    /// Wall-clock spent on remote round-trips (gets and puts combined).
    pub remote_roundtrip: Duration,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Disk hits as a fraction of all lookups (0 when nothing was looked
    /// up) — the warm-start-across-processes rate.
    #[must_use]
    pub fn disk_hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.disk_hits as f64 / total as f64
        }
    }

    /// Node-tier hits as a fraction of all node-tier lookups (0 when no
    /// node was looked up).
    #[must_use]
    pub fn node_hit_rate(&self) -> f64 {
        let total = self.node_hits + self.node_misses;
        if total == 0 {
            0.0
        } else {
            self.node_hits as f64 / total as f64
        }
    }

    /// One-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let size_cap = if self.disk_size_evictions > 0 {
            format!(", {} size-cap eviction(s)", self.disk_size_evictions)
        } else {
            String::new()
        };
        let nodes = if self.node_hits + self.node_misses > 0 {
            format!(
                "; node tier: {} hit(s) ({} from disk), {} miss(es), {} entries",
                self.node_hits, self.node_disk_hits, self.node_misses, self.node_entries,
            )
        } else {
            String::new()
        };
        let remote =
            if self.remote_hits + self.remote_misses + self.remote_puts + self.remote_errors > 0 {
                format!(
                    "; remote tier: {} hit(s), {} miss(es), {} put(s), {} error(s), \
                 {:.3} ms round-trip",
                    self.remote_hits,
                    self.remote_misses,
                    self.remote_puts,
                    self.remote_errors,
                    self.remote_roundtrip.as_secs_f64() * 1e3,
                )
            } else {
                String::new()
            };
        format!(
            "stage cache: {} hit(s) ({} from disk), {} miss(es) ({:.0} % hit rate), \
             {} entries, {} eviction(s){size_cap}, {:.3} ms saved{nodes}{remote}",
            self.hits,
            self.disk_hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.evictions,
            self.saved.as_secs_f64() * 1e3,
        )
    }
}

/// A shared, LRU-bounded, content-addressed cache of [`CacheEntry`]s —
/// stage executions and per-node artifacts — optionally backed by a
/// persistent on-disk tier and a remote fleet tier.
///
/// Cloning is cheap (an `Arc` bump); clones share one store (memory and
/// disk), which is how concurrent [`crate::FlowSession`]s (sweep
/// workers, daemon clients) hit entries any other worker produced.
#[derive(Debug, Clone)]
pub struct StageCache {
    inner: Arc<Mutex<Inner>>,
    disk: Option<Arc<DiskStore>>,
    remote: Option<Arc<crate::remote::RemoteStore>>,
}

impl Default for StageCache {
    fn default() -> StageCache {
        StageCache::new(StageCache::DEFAULT_CAPACITY)
    }
}

impl StageCache {
    /// Default entry bound: comfortably holds the full standard flow for
    /// a few dozen sweep candidates.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// Default node-tier entry bound. Node entries are tiny (one design,
    /// fragment or VHDL unit) and there are up to a few per function
    /// node, so the bound is far above the stage-entry capacity.
    pub const DEFAULT_NODE_CAPACITY: usize = 4096;

    /// An in-memory cache bounded to `capacity` stage entries (minimum 1)
    /// and [`StageCache::DEFAULT_NODE_CAPACITY`] node entries.
    #[must_use]
    pub fn new(capacity: usize) -> StageCache {
        StageCache {
            inner: Arc::new(Mutex::new(Inner {
                tiers: [
                    Tier::new(capacity),
                    Tier::new(StageCache::DEFAULT_NODE_CAPACITY),
                ],
                tick: 0,
                disk_evictions: 0,
            })),
            disk: None,
            remote: None,
        }
    }

    /// A two-tier cache: the in-memory LRU tier backed by a persistent
    /// store in `dir` (created if absent). Inserts write through to disk;
    /// in-memory misses consult the disk tier before reporting a miss, so
    /// a fresh process warm-starts from whatever earlier runs left there.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if `dir` cannot be created.
    pub fn persistent(
        capacity: usize,
        dir: impl AsRef<Path>,
    ) -> Result<StageCache, std::io::Error> {
        let mut cache = StageCache::new(capacity);
        cache.disk = Some(Arc::new(DiskStore::open(dir)?));
        Ok(cache)
    }

    /// [`StageCache::persistent`] with an explicit byte-size cap for the
    /// disk tier (`0` = unbounded) instead of
    /// [`crate::disk::DEFAULT_MAX_BYTES`].
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if `dir` cannot be created.
    pub fn persistent_with_cap(
        capacity: usize,
        dir: impl AsRef<Path>,
        max_bytes: u64,
    ) -> Result<StageCache, std::io::Error> {
        let mut cache = StageCache::new(capacity);
        cache.disk = Some(Arc::new(DiskStore::open_with_cap(dir, max_bytes)?));
        Ok(cache)
    }

    /// The disk tier, if one is attached.
    #[must_use]
    pub fn disk(&self) -> Option<&DiskStore> {
        self.disk.as_deref()
    }

    /// Attach a remote fleet tier: lookups that miss both memory and disk
    /// consult `remote`, and freshly computed entries are written through
    /// to it. Remote hits are re-materialized into the local disk tier
    /// (when one is attached) so the next process warm-starts without the
    /// network. All remote I/O is non-failing — an unreachable daemon
    /// degrades the cache to local-only, never the flow to an error.
    #[must_use]
    pub fn with_remote(mut self, remote: Arc<crate::remote::RemoteStore>) -> StageCache {
        self.remote = Some(remote);
        self
    }

    /// The remote fleet tier, if one is attached.
    #[must_use]
    pub fn remote(&self) -> Option<&crate::remote::RemoteStore> {
        self.remote.as_deref()
    }

    /// This cache without its remote tier. A daemon serves its cache
    /// through this, so a put it accepts can never be forwarded to
    /// another daemon and daemons can never form a put loop.
    pub(crate) fn without_remote(mut self) -> StageCache {
        self.remote = None;
        self
    }

    /// Look up the `kind` entry under `key` tier by tier — memory, then
    /// disk, then the remote fleet store; refreshes recency and counts
    /// the kind's hit/disk-hit/miss. A disk or remote hit is promoted
    /// into the memory tier, and a remote hit additionally heals the
    /// local disk tier (when attached) so the next process warm-starts
    /// without the network. An entry of the other kind under `key` is a
    /// miss and is left where it is.
    #[must_use]
    pub fn lookup(&self, kind: EntryKind, key: StageKey) -> Option<CacheHit> {
        {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let tier = &mut inner.tiers[kind as usize];
            if let Some(resident) = tier.map.get_mut(&key) {
                resident.last_used = tick;
                let entry = Arc::clone(&resident.entry);
                tier.hits += 1;
                tier.saved += entry.saved();
                return Some(CacheHit {
                    entry,
                    from_disk: false,
                    from_remote: false,
                });
            }
            if self.disk.is_none() && self.remote.is_none() {
                tier.misses += 1;
                return None;
            }
        }
        // Memory miss with lower tiers attached: disk and network I/O
        // happen outside the lock (they must not serialize the sweep
        // workers), then accounting and promotion re-acquire it.
        let mut found = None;
        let mut disk_evicted = false;
        if let Some(disk) = &self.disk {
            match disk.load(key) {
                Load::Hit(entry) if entry.kind() == kind => found = Some((entry, true)),
                Load::Hit(_) | Load::Miss => {}
                Load::Evicted => disk_evicted = true,
            }
        }
        let mut healed = false;
        if let (None, Some(remote)) = (&found, &self.remote) {
            let fetched = remote
                .get(kind, key)
                .and_then(|bytes| crate::disk::decode_entry(&bytes))
                .filter(|entry| entry.kind() == kind);
            if let Some(entry) = fetched {
                // Heal the local disk tier so the next process on this
                // machine warm-starts without touching the network.
                healed = self
                    .disk
                    .as_ref()
                    .is_some_and(|d| matches!(d.store(key, &entry), Ok(true)));
                found = Some((entry, false));
            }
        }
        let mut inner = self.lock();
        inner.disk_evictions += u64::from(disk_evicted);
        inner.tick += 1;
        let tick = inner.tick;
        let tier = &mut inner.tiers[kind as usize];
        tier.disk_writes += u64::from(healed);
        let Some((entry, from_disk)) = found else {
            tier.misses += 1;
            return None;
        };
        let entry = Arc::new(entry);
        tier.hits += 1;
        tier.disk_hits += u64::from(from_disk);
        tier.saved += entry.saved();
        tier.put(key, Arc::clone(&entry), tick);
        Some(CacheHit {
            entry,
            from_disk,
            from_remote: !from_disk,
        })
    }

    /// Insert a freshly computed entry under `key`. Evicts the
    /// least-recently used in-memory entry of the same kind when its bound
    /// is exceeded; inserting an existing key refreshes it (deterministic
    /// stages make the value identical, so last-writer-wins is safe under
    /// worker races). With a disk tier the entry is written through
    /// (atomically; an entry already on disk is left untouched), and with
    /// a remote tier it is offered to the daemon. Returns `true` when the
    /// key was not already resident in memory.
    pub fn insert(&self, key: StageKey, entry: CacheEntry) -> bool {
        let kind = entry.kind();
        let entry = Arc::new(entry);
        let fresh = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            inner.tiers[kind as usize].put(key, Arc::clone(&entry), tick)
        };
        if let Some(disk) = &self.disk {
            // Write-through outside the lock. A failed write degrades the
            // disk tier to "smaller", never the run to "wrong".
            if let Ok(true) = disk.store(key, &entry) {
                self.lock().tiers[kind as usize].disk_writes += 1;
            }
        }
        if let Some(remote) = &self.remote {
            // Fleet write-through: ship the exact on-disk entry bytes so
            // the daemon validates them with DiskStore's totality and
            // every shard stores an identical representation.
            remote.put(
                key,
                crate::disk::encode_entry(&entry, crate::disk::FORMAT_VERSION),
            );
        }
        fresh
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("stage cache poisoned")
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let remote = self
            .remote
            .as_ref()
            .map(|r| r.counters())
            .unwrap_or_default();
        let inner = self.lock();
        let [stage, node] = &inner.tiers;
        CacheStats {
            remote_hits: remote.hits,
            remote_misses: remote.misses,
            remote_puts: remote.puts,
            remote_errors: remote.errors,
            remote_roundtrip: remote.roundtrip,
            hits: stage.hits,
            disk_hits: stage.disk_hits,
            misses: stage.misses,
            evictions: stage.evictions,
            disk_writes: stage.disk_writes,
            disk_evictions: inner.disk_evictions,
            disk_size_evictions: self.disk.as_ref().map_or(0, |d| d.size_evictions()),
            entries: stage.map.len(),
            saved: stage.saved,
            node_hits: node.hits,
            node_disk_hits: node.disk_hits,
            node_misses: node.misses,
            node_evictions: node.evictions,
            node_disk_writes: node.disk_writes,
            node_entries: node.map.len(),
        }
    }

    /// Number of resident in-memory stage entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().tiers[EntryKind::Stage as usize].map.len()
    }

    /// `true` when no in-memory entry is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn stage(cost: Duration) -> CacheEntry {
        CacheEntry::Stage {
            delta: Box::default(),
            writes: Vec::new(),
            cost,
        }
    }

    #[test]
    fn lookup_miss_then_hit_counts() {
        let cache = StageCache::new(8);
        assert!(cache.lookup(EntryKind::Stage, 1).is_none());
        cache.insert(1, stage(ms(5)));
        let hit = cache.lookup(EntryKind::Stage, 1).expect("hit");
        let CacheEntry::Stage { delta, cost, .. } = hit.entry.as_ref() else {
            panic!("a stage lookup returned {:?}", hit.entry.kind());
        };
        assert_eq!(delta.slot_count(), 0);
        assert_eq!(*cost, ms(5));
        assert!(!hit.from_disk);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.saved, ms(5));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.disk_hits, 0);
        assert!((stats.disk_hit_rate()).abs() < 1e-12);
    }

    #[test]
    fn lru_bound_evicts_least_recent() {
        let cache = StageCache::new(2);
        cache.insert(1, stage(ms(1)));
        cache.insert(2, stage(ms(1)));
        // Touch key 1 so key 2 is the LRU victim.
        assert!(cache.lookup(EntryKind::Stage, 1).is_some());
        cache.insert(3, stage(ms(1)));
        assert_eq!(cache.len(), 2);
        assert!(
            cache.lookup(EntryKind::Stage, 1).is_some(),
            "recently used entry survives"
        );
        assert!(
            cache.lookup(EntryKind::Stage, 2).is_none(),
            "LRU entry evicted"
        );
        assert!(cache.lookup(EntryKind::Stage, 3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn clones_share_one_store() {
        let cache = StageCache::new(4);
        let clone = cache.clone();
        clone.insert(9, stage(ms(2)));
        assert!(cache.lookup(EntryKind::Stage, 9).is_some());
        assert_eq!(cache.stats().hits, clone.stats().hits);
    }

    #[test]
    fn kinds_share_the_key_space_but_never_answer_for_each_other() {
        let node = || CacheEntry::Node(NodeArtifact::Vhdl("e".to_string()));
        // Memory tier, both directions: the entry under 7 is a node, the
        // one under 8 a stage; asking for the other kind misses and
        // leaves the entry resident.
        let cache = StageCache::new(4);
        cache.insert(7, node());
        cache.insert(8, stage(ms(1)));
        assert!(
            cache.lookup(EntryKind::Stage, 7).is_none(),
            "a node entry is a miss for a stage lookup"
        );
        assert!(
            cache.lookup(EntryKind::Node, 8).is_none(),
            "a stage entry is a miss for a node lookup"
        );
        let hit = cache.lookup(EntryKind::Node, 7).expect("node hit");
        assert!(matches!(hit.entry.as_ref(), CacheEntry::Node(_)));
        let hit = cache.lookup(EntryKind::Stage, 8).expect("stage hit");
        assert!(matches!(hit.entry.as_ref(), CacheEntry::Stage { .. }));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!((stats.node_hits, stats.node_misses), (1, 1));
        assert_eq!((stats.entries, stats.node_entries), (1, 1));
        assert_eq!((stats.evictions, stats.node_evictions), (0, 0));

        // On disk the two kinds share one file per key: a lookup of the
        // other kind misses there, evicts nothing and leaves the file for
        // a later lookup of its own kind.
        let dir = std::env::temp_dir().join(format!("cool-cache-kinds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = StageCache::persistent(4, &dir).unwrap();
        writer.insert(7, node());
        writer.insert(8, stage(ms(1)));
        let reader = StageCache::persistent(4, &dir).unwrap();
        assert!(reader.lookup(EntryKind::Stage, 7).is_none());
        assert!(reader.lookup(EntryKind::Node, 8).is_none());
        let stats = reader.stats();
        assert_eq!((stats.misses, stats.node_misses), (1, 1));
        assert_eq!(stats.disk_evictions, 0);
        let hit = reader.lookup(EntryKind::Node, 7).expect("node disk hit");
        assert!(hit.from_disk);
        let hit = reader.lookup(EntryKind::Stage, 8).expect("stage disk hit");
        assert!(hit.from_disk);
        let stats = reader.stats();
        assert_eq!((stats.disk_hits, stats.node_disk_hits), (1, 1));
        assert_eq!(stats.disk_evictions, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_mentions_counters() {
        let cache = StageCache::new(4);
        cache.insert(1, stage(ms(1)));
        let _ = cache.lookup(EntryKind::Stage, 1);
        let s = cache.stats().summary();
        assert!(s.contains("hit"), "{s}");
        assert!(s.contains("entries"), "{s}");
        assert!(s.contains("disk"), "{s}");
    }

    #[test]
    fn artifact_slots_are_dense_and_named() {
        for (i, slot) in ArtifactSlot::ALL.iter().enumerate() {
            assert_eq!(slot.index(), i);
            assert!(!slot.name().is_empty());
        }
        assert_eq!(ArtifactSlot::Cost.name(), "cost");
        assert_eq!(ArtifactSlot::CPrograms.name(), "c_programs");
    }

    #[test]
    fn artifact_slot_codec_roundtrips() {
        for slot in ArtifactSlot::ALL {
            let bytes = cool_ir::codec::to_bytes(&slot);
            let back: ArtifactSlot = cool_ir::codec::from_bytes(&bytes).unwrap();
            assert_eq!(back, slot);
        }
        assert!(cool_ir::codec::from_bytes::<ArtifactSlot>(&[99]).is_err());
    }

    #[test]
    fn empty_delta_codec_roundtrips() {
        let delta = ArtifactDelta::default();
        let bytes = cool_ir::codec::to_bytes(&delta);
        let back: ArtifactDelta = cool_ir::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back.slot_count(), 0);
        assert_eq!(cool_ir::codec::to_bytes(&back), bytes);
    }
}
