//! The COOL co-design flow: coupled hardware/software partitioning and
//! co-synthesis of communicating controllers, as a stage-graph engine.
//!
//! This crate is the tool the paper describes. The complete design flow
//! of paper Figure 1 is modelled as a linear graph of named stages
//! ([`engine::Engine::standard`]):
//!
//! ```text
//! spec → cost → partition → schedule → stg → hls → rtl → codegen → sim-prep
//! ```
//!
//! * **`spec`** — validate the [`cool_ir::PartitioningGraph`] (parsed
//!   from the DSL or built by a workload generator);
//! * **`cost`** — cost estimation ([`cool_cost`]);
//! * **`partition`** — hardware/software partitioning (MILP /
//!   MILP+heuristic / genetic, [`cool_partition`]);
//! * **`schedule`** — static scheduling ([`cool_schedule`]);
//! * **`stg`** — STG generation + minimization + memory allocation
//!   ([`cool_stg`]);
//! * **`hls`** — hardware synthesis of every hardware node
//!   ([`cool_hls`]);
//! * **`rtl`** — the system controller, I/O controller, bus arbiter,
//!   netlist, VHDL and CLB placement ([`cool_rtl`]);
//! * **`codegen`** — C code generation ([`cool_codegen`]);
//! * **`sim-prep`** — validation that the artifact set wires up on the
//!   board stand-in ([`cool_sim`]).
//!
//! Each stage is an individually timed, individually testable
//! [`stage::Stage`] over a typed [`stage::FlowContext`]; the
//! [`FlowSession`] builder is the public entry point over the engine.
//! [`FlowArtifacts::trace`] holds the per-stage timing journal and
//! [`FlowArtifacts::timings`] the paper's six-bucket summary,
//! reproducing the paper's observation that hardware synthesis consumes
//! the bulk (> 90 %) of the design time.
//!
//! The dominant stages parallelize across [`FlowOptions::jobs`] scoped
//! worker threads (per-node HLS, STG-minimization refinement rounds,
//! per-device placement anneals); artifacts are byte-identical for every
//! `jobs` value.
//!
//! Repeated and multi-board runs become incremental and concurrent
//! through the content-addressed [`cache::StageCache`]
//! ([`FlowSession::cache`]): stages whose dependency-DAG content key
//! (graph + [`Stage::cache_key`] + the digests of the artifact slots in
//! [`Stage::reads`]) already executed are skipped and their artifacts
//! restored, byte-identically to a cold run. With
//! [`FlowSession::cache_dir`] ([`StageCache::persistent`]) the cache
//! gains an on-disk tier (`.cool-cache/` by convention): inserts are
//! written through as checksummed [`cool_ir::codec`] entries, and a
//! *fresh process* — the next CLI invocation, the next CI job —
//! warm-starts from them.
//!
//! # Example
//!
//! ```
//! use cool_core::{FlowOptions, FlowSession};
//! use cool_ir::Target;
//! use cool_spec::workloads;
//!
//! # fn main() -> Result<(), cool_core::FlowError> {
//! let graph = workloads::equalizer(2);
//! let artifacts = FlowSession::new(&graph)
//!     .target(Target::fuzzy_board())
//!     .options(FlowOptions::quick())
//!     .run()?;
//! let inputs = cool_ir::eval::input_map([("x0", 10), ("x1", 5), ("x2", 1)]);
//! let result = artifacts.simulate(&inputs)?;
//! assert_eq!(result.outputs, cool_ir::eval::evaluate(&graph, &inputs)?);
//! # Ok(())
//! # }
//! ```
//!
//! A board *family* — the same specification implemented across several
//! hardware budgets, with the cost model estimated once and retargeted
//! per board — runs through the same builder:
//!
//! ```
//! use cool_core::{FlowOptions, FlowSession};
//! use cool_ir::Target;
//! use cool_spec::workloads;
//!
//! # fn main() -> Result<(), cool_core::FlowError> {
//! let graph = workloads::equalizer(2);
//! let boards = [96u32, 196].map(|clbs| {
//!     let mut t = Target::fuzzy_board();
//!     t.hw[0].clb_capacity = clbs;
//!     t.hw[1].clb_capacity = clbs;
//!     t
//! });
//! let family = FlowSession::new(&graph)
//!     .targets(boards)
//!     .options(FlowOptions::quick())
//!     .run_family()?;
//! assert_eq!(family.len(), 2);
//! assert!(family.cost_estimations() <= 1);
//! println!("{}", family.report());
//! # Ok(())
//! # }
//! ```

pub mod artifacts;
pub mod cache;
pub mod disk;
pub mod engine;
pub mod error;
pub mod remote;
pub mod server;
pub mod session;
pub mod stage;
pub mod table;
pub mod timing;

pub use artifacts::FlowArtifacts;
pub use cache::{
    ArtifactSlot, CacheEntry, CacheHit, CacheStats, EntryKind, NodeArtifact, StageCache,
};
pub use disk::{DiskStore, KindCounts};
pub use engine::Engine;
pub use error::FlowError;
pub use remote::{RemoteCounters, RemoteStore};
pub use server::{
    CacheStatsReply, Client, FlowRequest, FlowResponse, Request, Response, ServeError, Server,
    ServerHandle, SimResponse,
};
pub use session::{FamilyArtifacts, FlowSession, ParetoFront, ParetoPoint, PartialArtifacts};
pub use stage::{FlowContext, Stage};
pub use table::{Align, Col, TextTable};
pub use timing::{CacheOutcome, FlowTrace, NodeDelta, StageRecord, StageTimings};

use cool_cost::CommScheme;
use cool_hls::HlsOptions;
use cool_ir::codec::{Codec, CodecError, Decoder, Encoder};
use cool_ir::hash::{ContentHash, ContentHasher};
use cool_ir::{Mapping, Objective, PartitioningGraph, Resource};
use cool_partition::{GaOptions, HeuristicOptions, MilpOptions};

/// Which partitioner the flow runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitioner {
    /// Exact MILP.
    Milp(MilpOptions),
    /// Clustering + MILP.
    Heuristic(HeuristicOptions),
    /// Genetic algorithm.
    Genetic(GaOptions),
    /// Skip partitioning: use a caller-provided colouring (for sweeps).
    Fixed(Mapping),
}

/// All knobs of one flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOptions {
    /// Partitioning algorithm.
    pub partitioner: Partitioner,
    /// Communication refinement scheme.
    pub scheme: CommScheme,
    /// Declared optimization objective. `None` respects whatever the
    /// configured partitioner's own options say (the historical
    /// behaviour); `Some` overrides the objective of whichever
    /// optimizing partitioner runs (a fixed mapping is left untouched).
    pub objective: Option<Objective>,
    /// HLS options for the final hardware synthesis (higher effort than
    /// the estimates used during partitioning).
    pub hls: HlsOptions,
    /// Effort of the FSM state-encoding search (logic synthesis).
    pub encoding_effort: u32,
    /// Effort of the simulated-annealing CLB placement (the Xilinx
    /// implementation stand-in; scales the move budget per device).
    pub placement_effort: u32,
    /// Use the lifetime-packed memory allocator instead of the paper's
    /// sequential one.
    pub packed_memory: bool,
    /// Worker threads for the parallel stages (per-node HLS, STG
    /// minimization, per-device placement). `1` = serial, `0` = all
    /// available cores. Never affects artifacts, only wall-clock.
    pub jobs: usize,
}

impl Default for FlowOptions {
    fn default() -> FlowOptions {
        FlowOptions {
            // The GA optimizes the *real* schedule makespan, so it discovers
            // mixed partitions that exploit hardware concurrency — the MILP
            // variants optimize a load proxy and tend to stay in software on
            // DSP-friendly designs (use them via `partitioner` when the
            // proxy is the point, e.g. in the partitioner ablation).
            partitioner: Partitioner::Genetic(GaOptions::default()),
            scheme: CommScheme::MemoryMapped,
            objective: None,
            hls: HlsOptions {
                effort: 48,
                ..HlsOptions::default()
            },
            encoding_effort: 320,
            placement_effort: 768,
            packed_memory: false,
            jobs: 1,
        }
    }
}

impl FlowOptions {
    /// Fast settings for tests and doc examples: genetic partitioner with
    /// a tiny population, low synthesis effort.
    #[must_use]
    pub fn quick() -> FlowOptions {
        FlowOptions {
            partitioner: Partitioner::Genetic(GaOptions {
                population: 8,
                generations: 4,
                threads: 1,
                ..GaOptions::default()
            }),
            scheme: CommScheme::MemoryMapped,
            objective: None,
            hls: HlsOptions {
                effort: 2,
                ..HlsOptions::default()
            },
            encoding_effort: 2,
            placement_effort: 1,
            packed_memory: false,
            jobs: 1,
        }
    }

    /// The same options with a different `jobs` knob.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> FlowOptions {
        self.jobs = jobs;
        self
    }

    /// The same options with the declared objective overridden.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> FlowOptions {
        self.objective = Some(objective);
        self
    }
}

impl ContentHash for Partitioner {
    fn content_hash(&self, h: &mut ContentHasher) {
        match self {
            Partitioner::Milp(o) => {
                h.write_u8(0);
                o.content_hash(h);
            }
            Partitioner::Heuristic(o) => {
                h.write_u8(1);
                o.content_hash(h);
            }
            Partitioner::Genetic(o) => {
                h.write_u8(2);
                o.content_hash(h);
            }
            Partitioner::Fixed(mapping) => {
                h.write_u8(3);
                mapping.content_hash(h);
            }
        }
    }
}

impl ContentHash for FlowOptions {
    /// Digests every artifact-relevant knob. `jobs` is deliberately
    /// excluded: by the engine's determinism contract it scales
    /// wall-clock only, never a generated byte, so serial and parallel
    /// runs share cache entries.
    fn content_hash(&self, h: &mut ContentHasher) {
        self.partitioner.content_hash(h);
        self.scheme.content_hash(h);
        match &self.objective {
            None => h.write_u8(0),
            Some(o) => {
                h.write_u8(1);
                o.content_hash(h);
            }
        }
        self.hls.content_hash(h);
        h.write_u32(self.encoding_effort);
        h.write_u32(self.placement_effort);
        h.write_bool(self.packed_memory);
    }
}

impl Codec for Partitioner {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Partitioner::Milp(o) => {
                e.put_u8(0);
                o.encode(e);
            }
            Partitioner::Heuristic(o) => {
                e.put_u8(1);
                o.encode(e);
            }
            Partitioner::Genetic(o) => {
                e.put_u8(2);
                o.encode(e);
            }
            Partitioner::Fixed(mapping) => {
                e.put_u8(3);
                mapping.encode(e);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(Partitioner::Milp(MilpOptions::decode(d)?)),
            1 => Ok(Partitioner::Heuristic(HeuristicOptions::decode(d)?)),
            2 => Ok(Partitioner::Genetic(GaOptions::decode(d)?)),
            3 => Ok(Partitioner::Fixed(Mapping::decode(d)?)),
            tag => Err(CodecError::InvalidTag {
                type_name: "Partitioner",
                tag,
            }),
        }
    }
}

impl Codec for FlowOptions {
    /// The wire encoding carries every knob, `jobs` included (unlike the
    /// content hash): a served request must run with exactly the options
    /// the client asked for.
    fn encode(&self, e: &mut Encoder) {
        self.partitioner.encode(e);
        self.scheme.encode(e);
        match &self.objective {
            None => e.put_u8(0),
            Some(o) => {
                e.put_u8(1);
                o.encode(e);
            }
        }
        self.hls.encode(e);
        e.put_u32(self.encoding_effort);
        e.put_u32(self.placement_effort);
        e.put_bool(self.packed_memory);
        e.put_usize(self.jobs);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(FlowOptions {
            partitioner: Partitioner::decode(d)?,
            scheme: CommScheme::decode(d)?,
            objective: match d.take_u8()? {
                0 => None,
                1 => Some(Objective::decode(d)?),
                tag => {
                    return Err(CodecError::InvalidTag {
                        type_name: "FlowOptions.objective",
                        tag,
                    })
                }
            },
            hls: HlsOptions::decode(d)?,
            encoding_effort: d.take_u32()?,
            placement_effort: d.take_u32()?,
            packed_memory: d.take_bool()?,
            jobs: d.take_usize()?,
        })
    }
}

/// Build the all-software baseline mapping for `graph` (pinned to the
/// first processor), re-exported for sweeps and examples.
#[must_use]
pub fn all_software_mapping(graph: &PartitioningGraph) -> Mapping {
    Mapping::uniform(graph.node_count(), Resource::Software(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_cost::CostModel;
    use cool_ir::eval::input_map;
    use cool_ir::Target;
    use cool_spec::workloads;
    use std::time::Duration;

    fn quick_run(g: &PartitioningGraph) -> Result<FlowArtifacts, FlowError> {
        FlowSession::new(g)
            .target(Target::fuzzy_board())
            .options(FlowOptions::quick())
            .run()
    }

    #[test]
    fn full_flow_on_equalizer() {
        let g = workloads::equalizer(4);
        let art = quick_run(&g).unwrap();
        // All five artefact families exist.
        assert!(art.netlist.components.len() >= 4);
        assert!(!art.vhdl.is_empty());
        assert!(!art.c_programs.is_empty() || art.partition.software_nodes(&g) == 0);
        assert!(art.minimize_stats.states_after <= art.minimize_stats.states_before);
        // Functional check.
        let r = art
            .simulate(&input_map([("x0", 7), ("x1", -2), ("x2", 3)]))
            .unwrap();
        assert!(r.cycles > 0);
    }

    #[test]
    fn fuzzy_flow_with_fixed_mapping() {
        let g = workloads::fuzzy_controller();
        let mut mapping = all_software_mapping(&g);
        mapping.assign(g.node_by_name("defuzz").unwrap(), Resource::Hardware(0));
        let art = FlowSession::new(&g)
            .target(Target::fuzzy_board())
            .options(FlowOptions::quick())
            .with_mapping(mapping)
            .run()
            .unwrap();
        assert_eq!(art.hls_designs.len(), 1);
        assert_eq!(art.partition.hardware_nodes(&g), 1);
        let r = art
            .simulate(&input_map([("err", 60), ("derr", -30)]))
            .unwrap();
        assert!((0..=255).contains(&r.outputs["u"]));
    }

    #[test]
    fn report_mentions_all_sections() {
        let g = workloads::equalizer(2);
        let art = quick_run(&g).unwrap();
        let rep = art.report();
        for needle in [
            "partitioning",
            "STG",
            "netlist",
            "timing breakdown",
            "total",
        ] {
            assert!(rep.contains(needle), "report lacks `{needle}`:\n{rep}");
        }
    }

    #[test]
    fn timings_are_recorded() {
        let g = workloads::equalizer(2);
        let art = quick_run(&g).unwrap();
        assert!(art.timings.total() > Duration::ZERO);
        let f = art.timings.hardware_fraction();
        assert!((0.0..=1.0).contains(&f));
        // The trace journal covers the whole standard engine.
        assert_eq!(art.trace.stage_names(), Engine::standard().stage_names());
    }

    #[test]
    fn packed_memory_option_is_honoured() {
        let g = workloads::equalizer(4);
        let target = Target::fuzzy_board();
        let mut mapping = all_software_mapping(&g);
        // A couple of gain nodes in hardware: enough to create cut edges
        // while staying far below the 196-CLB budget.
        mapping.assign(g.node_by_name("gain0").unwrap(), Resource::Hardware(0));
        mapping.assign(g.node_by_name("gain2").unwrap(), Resource::Hardware(0));
        let seq = FlowSession::new(&g)
            .target(target.clone())
            .options(FlowOptions::quick())
            .with_mapping(mapping.clone())
            .run()
            .unwrap();
        let packed = FlowSession::new(&g)
            .target(target)
            .options(FlowOptions {
                packed_memory: true,
                ..FlowOptions::quick()
            })
            .with_mapping(mapping)
            .run()
            .unwrap();
        assert!(packed.memory_map.bytes_used() <= seq.memory_map.bytes_used());
    }

    #[test]
    fn invalid_graph_is_rejected() {
        let mut g = PartitioningGraph::new("broken");
        let _ = g
            .add_function("f", cool_ir::Behavior::unary(cool_ir::Op::Neg))
            .unwrap();
        let err = quick_run(&g).unwrap_err();
        assert!(matches!(err, FlowError::Ir(_)));
    }

    #[test]
    fn shared_cost_model_matches_fresh_flow() {
        let g = workloads::equalizer(4);
        let target = Target::fuzzy_board();
        let fresh = quick_run(&g).unwrap();
        let cost = CostModel::new(&g, &target);
        let shared = FlowSession::new(&g)
            .target(target)
            .options(FlowOptions::quick())
            .with_cost(cost)
            .run()
            .unwrap();
        assert_eq!(fresh.partition.mapping, shared.partition.mapping);
        assert_eq!(fresh.vhdl, shared.vhdl);
    }
}
