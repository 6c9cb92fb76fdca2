//! The reliability block diagram of an SRG: the test oracle of the §3
//! plan.
//!
//! The paper situates its analysis "closest to that of RBDs, where systems
//! are modeled as networks with AND/OR junctions: an OR junction works
//! reliably when any of its inputs is reliable, and an AND junction
//! requires that all inputs be reliable". [`communicator_block`] rebuilds
//! a communicator's SRG as that diagram by its own recursion over the
//! specification — task replications as parallel blocks of named host
//! units, composed in series or parallel by the input failure models —
//! and [`block_importance`] ranks its named units by pinning them inside
//! the tree. Neither shares code with `SrgPlan`: the crate tests
//! (`oracle_tests.rs`) and the integration tests, which include this file
//! by path, compare the plan's SRGs and pinned Birnbaum importances with
//! them.

// Each including test suite uses a part of the oracle.
#![allow(dead_code)]

use logrel_core::graph::CommDependencyGraph;
use logrel_core::{
    Architecture, CommunicatorId, FailureModel, Implementation, Reliability, Specification,
};
use logrel_reliability::{ComponentImportance, ReliabilityError};
use std::collections::{BTreeMap, BTreeSet};

/// A node of a reliability block diagram.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// An atomic component with a fixed reliability.
    Unit {
        /// Optional component label; units with the same label are one
        /// physical component.
        name: Option<String>,
        /// The component's reliability.
        reliability: Reliability,
    },
    /// AND junction: works iff every child works. An empty series works
    /// vacuously.
    Series(Vec<Block>),
    /// OR junction: works iff at least one child works. Never empty.
    Parallel(Vec<Block>),
}

impl Block {
    /// An anonymous unit.
    pub fn unit(reliability: Reliability) -> Block {
        Block::Unit {
            name: None,
            reliability,
        }
    }

    /// A labelled unit.
    pub fn named_unit(name: impl Into<String>, reliability: Reliability) -> Block {
        Block::Unit {
            name: Some(name.into()),
            reliability,
        }
    }

    /// A series (AND) junction.
    pub fn series(children: Vec<Block>) -> Block {
        Block::Series(children)
    }

    /// A parallel (OR) junction; an empty one never works and is rejected.
    pub fn parallel(children: Vec<Block>) -> Result<Block, ReliabilityError> {
        if children.is_empty() {
            return Err(ReliabilityError::Structure {
                detail: "empty parallel junction".to_owned(),
            });
        }
        Ok(Block::Parallel(children))
    }

    /// The probability that the block works, with the named units in
    /// `pins` held at the given working probabilities.
    pub fn pinned(&self, pins: &BTreeMap<&str, f64>) -> f64 {
        match self {
            Block::Unit { name, reliability } => name
                .as_deref()
                .and_then(|n| pins.get(n).copied())
                .unwrap_or_else(|| reliability.get()),
            Block::Series(children) => children.iter().map(|c| c.pinned(pins)).product(),
            Block::Parallel(children) => {
                1.0 - children
                    .iter()
                    .map(|c| 1.0 - c.pinned(pins))
                    .product::<f64>()
            }
        }
    }

    /// The probability that the block works, assuming all units fail
    /// independently.
    pub fn probability(&self) -> f64 {
        self.pinned(&BTreeMap::new())
    }

    /// The block reliability as a validated [`Reliability`] (tiny
    /// round-off above 1 is clamped).
    pub fn reliability(&self) -> Result<Reliability, ReliabilityError> {
        Reliability::new(self.probability().min(1.0)).map_err(Into::into)
    }

    fn names<'b>(&'b self, out: &mut BTreeSet<&'b str>) {
        match self {
            Block::Unit { name, .. } => out.extend(name.as_deref()),
            Block::Series(cs) | Block::Parallel(cs) => cs.iter().for_each(|c| c.names(out)),
        }
    }
}

/// Builds the reliability block diagram whose evaluation equals the SRG
/// of `comm`: replica units are named `task@host`, sensor units by their
/// sensor, and a constant communicator is the unit `const:<name>`.
///
/// # Errors
///
/// A cyclic dependency structure, an unbound input or an empty block in
/// `comm`'s cone.
pub fn communicator_block(
    spec: &Specification,
    arch: &Architecture,
    imp: &Implementation,
    comm: CommunicatorId,
) -> Result<Block, ReliabilityError> {
    // Reject cyclic structures up front so recursion terminates.
    CommDependencyGraph::new(spec)
        .analysis_order()
        .map_err(|cyclic| ReliabilityError::CyclicDependencies {
            communicators: cyclic
                .iter()
                .map(|&c| spec.communicator(c).name().to_owned())
                .collect(),
        })?;
    block_rec(spec, arch, imp, comm)
}

fn block_rec(
    spec: &Specification,
    arch: &Architecture,
    imp: &Implementation,
    comm: CommunicatorId,
) -> Result<Block, ReliabilityError> {
    if spec.is_sensor_input(comm) {
        let sensors = imp.sensors_of(comm);
        if sensors.is_empty() {
            return Err(ReliabilityError::UnboundInput {
                communicator: spec.communicator(comm).name().to_owned(),
            });
        }
        let units = sensors
            .iter()
            .map(|&s| Block::named_unit(arch.sensor(s).name(), arch.sensor(s).reliability()))
            .collect();
        return Block::parallel(units);
    }
    let Some(t) = spec.writer(comm) else {
        return Ok(Block::named_unit(
            format!("const:{}", spec.communicator(comm).name()),
            Reliability::ONE,
        ));
    };
    let brel = arch.broadcast_reliability();
    let replicas = imp
        .hosts_of(t)
        .iter()
        .map(|&h| {
            let eff = Reliability::series([arch.host(h).reliability(), brel])?;
            Ok(Block::named_unit(
                format!("{}@{}", spec.task(t).name(), arch.host(h).name()),
                eff,
            ))
        })
        .collect::<Result<Vec<_>, ReliabilityError>>()?;
    let task_block = Block::parallel(replicas)?;
    let input_blocks = spec
        .task(t)
        .input_comm_set()
        .into_iter()
        .map(|c2| block_rec(spec, arch, imp, c2))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(match spec.task(t).failure_model() {
        FailureModel::Independent => task_block,
        FailureModel::Series => {
            let mut parts = vec![task_block];
            parts.extend(input_blocks);
            Block::series(parts)
        }
        FailureModel::Parallel => Block::series(vec![task_block, Block::parallel(input_blocks)?]),
    })
}

/// Birnbaum importance `R(x works) − R(x failed)` and improvement
/// potential `R(x works) − R` of every named unit of `block`, pinning all
/// units of one name together, sorted by descending Birnbaum importance
/// and then by name.
pub fn block_importance(block: &Block) -> Vec<ComponentImportance> {
    let mut names = BTreeSet::new();
    block.names(&mut names);
    let base = block.probability();
    let mut out: Vec<ComponentImportance> = names
        .into_iter()
        .map(|name| {
            let up = block.pinned(&BTreeMap::from([(name, 1.0)]));
            let down = block.pinned(&BTreeMap::from([(name, 0.0)]));
            ComponentImportance {
                name: name.to_owned(),
                birnbaum: up - down,
                improvement: up - base,
            }
        })
        .collect();
    out.sort_by(|a, b| b.birnbaum.total_cmp(&a.birnbaum).then(a.name.cmp(&b.name)));
    out
}
