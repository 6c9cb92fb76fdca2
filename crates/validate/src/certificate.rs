//! The machine-readable certificate emitted on successful validation.

use crate::denot::RoundDenotation;
use logrel_core::fnv1a;
use std::fmt;

/// Proof summary that an artifact's round dataflow is isomorphic to the
/// specification's denotation.
///
/// The [`Display`] form is one stable `key=value` line, greppable in CI;
/// `digest` is a 64-bit FNV-1a hash of the canonical denotation, so two
/// systems certify equal iff their digests match.
///
/// [`Display`]: fmt::Display
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The certified round period π_S.
    pub round: u64,
    /// Number of mapping phases covered.
    pub phases: usize,
    /// Communicator update sites per round, summed over phases.
    pub updates: usize,
    /// Input latch edges per round, summed over phases.
    pub latch_edges: usize,
    /// Task executions per round, summed over phases.
    pub executions: usize,
    /// Largest replica set voted over anywhere in the denotation.
    pub max_vote_arity: usize,
    /// The artifacts checked against the denotation (e.g.
    /// `"round-program"`, `"e-code"`).
    pub artifacts: Vec<&'static str>,
    /// FNV-1a digest of the canonical denotation.
    pub digest: u64,
}

impl Certificate {
    /// Summarizes a (reference) denotation as the certificate for the
    /// given checked artifacts.
    pub fn from_denotation(den: &RoundDenotation, artifacts: Vec<&'static str>) -> Self {
        use crate::denot::UpdateSource;
        let updates = den.phases.iter().map(|p| p.updates.len()).sum();
        let latch_edges = den
            .phases
            .iter()
            .flat_map(|p| p.execs.values())
            .map(|e| e.inputs.len())
            .sum();
        let executions = den.phases.iter().map(|p| p.execs.len()).sum();
        let max_vote_arity = den
            .phases
            .iter()
            .flat_map(|p| {
                p.execs
                    .values()
                    .map(|e| e.hosts.len())
                    .chain(p.updates.values().map(|u| match u {
                        UpdateSource::Sensor { sensors } => sensors.len(),
                        UpdateSource::Landing { hosts, .. } => hosts.len(),
                        UpdateSource::Persist => 0,
                    }))
            })
            .max()
            .unwrap_or(0);
        // `Debug` of the denotation is deterministic (BTree iteration
        // order), making it a canonical serialization for hashing.
        let digest = fnv1a(format!("{den:?}").as_bytes());
        Certificate {
            round: den.round,
            phases: den.phases.len(),
            updates,
            latch_edges,
            executions,
            max_vote_arity,
            artifacts,
            digest,
        }
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certificate round={} phases={} updates={} latch-edges={} executions={} \
             max-vote-arity={} artifacts={} digest={:016x}",
            self.round,
            self.phases,
            self.updates,
            self.latch_edges,
            self.executions,
            self.max_vote_arity,
            self.artifacts.join("+"),
            self.digest
        )
    }
}
