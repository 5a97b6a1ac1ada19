//! Helpers shared by the flow integration tests.

use cool_core::{FlowArtifacts, FlowError, FlowOptions, FlowSession, StageCache};
use cool_ir::{PartitioningGraph, Target};

/// One full flow through the session builder, with `cache` attached when
/// given.
pub fn run_flow(
    g: &PartitioningGraph,
    target: &Target,
    options: &FlowOptions,
    cache: Option<&StageCache>,
) -> Result<FlowArtifacts, FlowError> {
    let mut session = FlowSession::new(g)
        .target(target.clone())
        .options(options.clone());
    if let Some(cache) = cache {
        session = session.cache(cache.clone());
    }
    session.run()
}
