//! Recorded traces and their reliability abstraction.
//!
//! A trace assigns each communicator a sequence of values, one per update
//! instant (the `X_i` of §2, restricted to instants where `i mod π_c = 0`).
//! The abstraction ρ maps each value to 1 (reliable) or 0 (⊥); the
//! limit average of that 0/1 sequence is what an LRC constrains.

use logrel_core::{CommunicatorId, Specification, Tick, Value};

/// A per-communicator record of update instants and values.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    rows: Vec<Vec<(Tick, Value)>>,
}

impl Trace {
    /// An empty trace for `spec`'s communicators.
    pub fn new(spec: &Specification) -> Self {
        Trace {
            rows: vec![Vec::new(); spec.communicator_count()],
        }
    }

    /// Reserves room for `additional` more updates of `comm`.
    pub(crate) fn reserve(&mut self, comm: usize, additional: usize) {
        self.rows[comm].reserve(additional);
    }

    /// Appends an update of `comm` at instant `at`.
    pub fn record(&mut self, comm: CommunicatorId, at: Tick, value: Value) {
        self.rows[comm.index()].push((at, value));
    }

    /// The recorded updates of `comm`, chronological.
    pub fn values(&self, comm: CommunicatorId) -> &[(Tick, Value)] {
        &self.rows[comm.index()]
    }

    /// The reliability abstraction of `comm`'s updates: `true` per
    /// reliable update.
    pub fn abstraction(&self, comm: CommunicatorId) -> Vec<bool> {
        self.rows[comm.index()]
            .iter()
            .map(|(_, v)| v.is_reliable())
            .collect()
    }

    /// The empirical limit average of `comm`'s abstraction (0 for an empty
    /// record).
    pub fn limit_average(&self, comm: CommunicatorId) -> f64 {
        let row = &self.rows[comm.index()];
        if row.is_empty() {
            return 0.0;
        }
        row.iter().filter(|(_, v)| v.is_reliable()).count() as f64 / row.len() as f64
    }

    /// Number of recorded updates of `comm`.
    pub fn update_count(&self, comm: CommunicatorId) -> usize {
        self.rows[comm.index()].len()
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{CommunicatorDecl, TaskDecl, ValueType};

    fn spec() -> Specification {
        let mut b = Specification::builder();
        let s = b
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = b
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).unwrap())
            .unwrap();
        b.task(TaskDecl::new("t").reads(s, 0).writes(u, 1)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn record_and_abstract() {
        let spec = spec();
        let u = spec.find_communicator("u").unwrap();
        let mut trace = Trace::new(&spec);
        trace.record(u, Tick::new(10), Value::Float(1.0));
        trace.record(u, Tick::new(20), Value::Unreliable);
        trace.record(u, Tick::new(30), Value::Float(2.0));
        assert_eq!(trace.update_count(u), 3);
        assert_eq!(trace.abstraction(u), vec![true, false, true]);
        assert!((trace.limit_average(u) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(trace.values(u)[1], (Tick::new(20), Value::Unreliable));
    }

    #[test]
    fn empty_rows() {
        let spec = spec();
        let s = spec.find_communicator("s").unwrap();
        let trace = Trace::new(&spec);
        assert_eq!(trace.update_count(s), 0);
        assert_eq!(trace.limit_average(s), 0.0);
        assert!(trace.abstraction(s).is_empty());
    }
}
