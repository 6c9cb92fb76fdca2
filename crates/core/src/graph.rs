//! Specification graphs, communicator cycles and the memory-free check.
//!
//! §3 of the paper defines the *specification graph* `G_S`: vertices are the
//! communicator instances `(c, i)` for `i ∈ {0, …, π_S/π_c}` together with
//! the tasks; edges connect input instances to tasks, tasks to output
//! instances, and instance `(c, i)` to `(c, i')` when no task writes an
//! instance in between (value persistence). A *communicator cycle* is a path
//! from some `(c, i)` to some `(c, i')` that passes through at least one
//! task; a specification is *memory-free* if no such cycle exists.
//!
//! The SRG induction of the reliability analysis works at communicator
//! granularity, so this module also provides the coarser
//! [`CommDependencyGraph`] — `c' → c` iff some task reads `c'` and writes
//! `c` — with topological ordering. The coarse graph being acyclic is
//! *stronger* than the paper's memory-free condition (it also rejects
//! cross-round feedback between distinct communicators, under which the SRG
//! induction would not terminate either); the paper's remedy applies
//! unchanged: a cycle is harmless if it passes through a task with the
//! [`FailureModel::Independent`] input model, whose SRG does not depend on
//! its inputs.
//!
//! [`FailureModel::Independent`]: crate::spec::FailureModel::Independent

use crate::ids::{CommunicatorId, TaskId};
use crate::spec::{FailureModel, Specification};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// A vertex of the instance-level specification graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpecVertex {
    /// Instance `i` of a communicator.
    Comm(CommunicatorId, u64),
    /// A task.
    Task(TaskId),
}

impl fmt::Display for SpecVertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecVertex::Comm(c, i) => write!(f, "({c}, {i})"),
            SpecVertex::Task(t) => write!(f, "{t}"),
        }
    }
}

/// A witness for a communicator cycle: a path from `(comm, from)` to
/// `(comm, to)` through at least one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleWitness {
    /// The communicator both endpoints belong to.
    pub comm: CommunicatorId,
    /// Instance number of the path's start.
    pub from: u64,
    /// Instance number of the path's end.
    pub to: u64,
    /// The full vertex path, start and end inclusive.
    pub path: Vec<SpecVertex>,
}

/// Result of the communicator-cycle search over a [`SpecGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleReport {
    /// One witness per communicator that participates in a cycle.
    pub witnesses: Vec<CycleWitness>,
}

impl CycleReport {
    /// `true` if the specification is memory-free (no communicator cycles).
    pub fn is_memory_free(&self) -> bool {
        self.witnesses.is_empty()
    }
}

/// The instance-level specification graph `G_S` of §3.
///
/// # Example
///
/// ```
/// use logrel_core::prelude::*;
/// use logrel_core::graph::SpecGraph;
///
/// # fn main() -> Result<(), CoreError> {
/// let mut b = Specification::builder();
/// let c = b.communicator(CommunicatorDecl::new("c", ValueType::Float, 2)?)?;
/// let d = b.communicator(CommunicatorDecl::new("d", ValueType::Float, 2)?)?;
/// // t reads and writes c: a communicator cycle (memory).
/// b.task(TaskDecl::new("t").reads(c, 0).writes(c, 1).writes(d, 1))?;
/// let spec = b.build()?;
/// let graph = SpecGraph::new(&spec);
/// assert!(!graph.communicator_cycles().is_memory_free());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SpecGraph {
    vertices: Vec<SpecVertex>,
    /// Adjacency list over indices into `vertices`.
    succ: Vec<Vec<usize>>,
    index: BTreeMap<SpecVertex, usize>,
}

impl SpecGraph {
    /// Builds the specification graph of `spec`.
    ///
    /// Persistence edges are stored between *consecutive* unwritten
    /// instances only; this preserves path existence relative to the
    /// paper's full edge set (a long persistence edge requires every
    /// intermediate instance to be unwritten, hence decomposes into
    /// consecutive ones).
    pub fn new(spec: &Specification) -> Self {
        let mut vertices = Vec::new();
        let mut index = BTreeMap::new();
        let mut add = |v: SpecVertex, vertices: &mut Vec<SpecVertex>| -> usize {
            *index.entry(v).or_insert_with(|| {
                vertices.push(v);
                vertices.len() - 1
            })
        };

        for c in spec.communicator_ids() {
            for i in 0..=spec.max_instance(c) {
                add(SpecVertex::Comm(c, i), &mut vertices);
            }
        }
        for t in spec.task_ids() {
            add(SpecVertex::Task(t), &mut vertices);
        }

        let mut succ = vec![Vec::new(); vertices.len()];
        let idx = |v: SpecVertex| -> usize { index[&v] };

        // Which instances are written, per communicator.
        let mut written: BTreeMap<CommunicatorId, BTreeSet<u64>> = BTreeMap::new();
        for t in spec.task_ids() {
            for &a in spec.task(t).outputs() {
                written.entry(a.comm).or_default().insert(a.instance);
            }
        }

        for t in spec.task_ids() {
            let tv = idx(SpecVertex::Task(t));
            for &a in spec.task(t).inputs() {
                succ[idx(SpecVertex::Comm(a.comm, a.instance))].push(tv);
            }
            for &a in spec.task(t).outputs() {
                succ[tv].push(idx(SpecVertex::Comm(a.comm, a.instance)));
            }
        }

        for c in spec.communicator_ids() {
            let empty = BTreeSet::new();
            let written_c = written.get(&c).unwrap_or(&empty);
            for i in 0..spec.max_instance(c) {
                if !written_c.contains(&(i + 1)) {
                    succ[idx(SpecVertex::Comm(c, i))].push(idx(SpecVertex::Comm(c, i + 1)));
                }
            }
        }

        SpecGraph {
            vertices,
            succ,
            index,
        }
    }

    /// The successors of a vertex.
    pub fn successors(&self, v: SpecVertex) -> impl Iterator<Item = SpecVertex> + '_ {
        self.index
            .get(&v)
            .into_iter()
            .flat_map(move |&i| self.succ[i].iter().map(move |&j| self.vertices[j]))
    }

    /// Searches for communicator cycles (§3): paths from `(c, i)` to
    /// `(c, i')` through at least one task. Returns one witness per
    /// communicator found cyclic.
    pub fn communicator_cycles(&self) -> CycleReport {
        let mut witnesses = Vec::new();
        let mut done_comms: BTreeSet<CommunicatorId> = BTreeSet::new();

        for (start, &v) in self.vertices.iter().enumerate() {
            let (comm, from) = match v {
                SpecVertex::Comm(c, i) => (c, i),
                SpecVertex::Task(_) => continue,
            };
            if done_comms.contains(&comm) {
                continue;
            }
            // BFS over (vertex, passed-a-task) states, remembering parents
            // so a witness path can be reconstructed.
            let n = self.vertices.len();
            let state = |i: usize, seen: bool| i * 2 + usize::from(seen);
            let mut parent: Vec<Option<usize>> = vec![None; n * 2];
            let mut visited = vec![false; n * 2];
            let mut queue = VecDeque::new();
            visited[state(start, false)] = true;
            queue.push_back((start, false));
            'bfs: while let Some((i, seen)) = queue.pop_front() {
                for &j in &self.succ[i] {
                    let next_seen = seen || matches!(self.vertices[j], SpecVertex::Task(_));
                    let s = state(j, next_seen);
                    if visited[s] {
                        continue;
                    }
                    visited[s] = true;
                    parent[s] = Some(state(i, seen));
                    if next_seen {
                        if let SpecVertex::Comm(c2, to) = self.vertices[j] {
                            if c2 == comm {
                                // Reconstruct the path.
                                let mut path = vec![self.vertices[j]];
                                let mut cur = s;
                                while let Some(p) = parent[cur] {
                                    path.push(self.vertices[p / 2]);
                                    cur = p;
                                }
                                path.reverse();
                                witnesses.push(CycleWitness {
                                    comm,
                                    from,
                                    to,
                                    path,
                                });
                                done_comms.insert(comm);
                                break 'bfs;
                            }
                        }
                    }
                    queue.push_back((j, next_seen));
                }
            }
        }
        CycleReport { witnesses }
    }

    /// Renders the graph in Graphviz DOT format.
    pub fn to_dot(&self, spec: &Specification) -> String {
        let mut out = String::from("digraph spec {\n");
        for v in &self.vertices {
            match v {
                SpecVertex::Comm(c, i) => out.push_str(&format!(
                    "  \"{}_{i}\" [shape=ellipse,label=\"({}, {i})\"];\n",
                    spec.communicator(*c).name(),
                    spec.communicator(*c).name()
                )),
                SpecVertex::Task(t) => out.push_str(&format!(
                    "  \"{}\" [shape=box];\n",
                    spec.task(*t).name()
                )),
            }
        }
        let label = |v: &SpecVertex| match v {
            SpecVertex::Comm(c, i) => format!("{}_{i}", spec.communicator(*c).name()),
            SpecVertex::Task(t) => spec.task(*t).name().to_owned(),
        };
        for (i, v) in self.vertices.iter().enumerate() {
            for &j in &self.succ[i] {
                out.push_str(&format!(
                    "  \"{}\" -> \"{}\";\n",
                    label(v),
                    label(&self.vertices[j])
                ));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The communicator-level dependency graph: edge `c' → c` iff some task
/// reads `c'` and writes `c`.
#[derive(Debug, Clone)]
pub struct CommDependencyGraph {
    /// `deps[c]` = the communicators that `c`'s SRG depends on, together
    /// with the writing task (empty for environment communicators and for
    /// writers with the independent failure model).
    deps: Vec<BTreeSet<CommunicatorId>>,
    writer: Vec<Option<TaskId>>,
}

impl CommDependencyGraph {
    /// Builds the dependency graph of `spec`.
    ///
    /// Edges into communicators written by a task with the *independent*
    /// failure model are omitted, because such a task's output reliability
    /// does not depend on its inputs (λ_c = λ_t). This realises the paper's
    /// cycle remedy: "for each communicator cycle, there should exist at
    /// least one task in the cycle with an independent input failure model".
    pub fn new(spec: &Specification) -> Self {
        let n = spec.communicator_count();
        let mut deps = vec![BTreeSet::new(); n];
        let mut writer = vec![None; n];
        for c in spec.communicator_ids() {
            if let Some(t) = spec.writer(c) {
                writer[c.index()] = Some(t);
                if spec.task(t).failure_model() != FailureModel::Independent {
                    deps[c.index()] = spec.task(t).input_comm_set();
                }
            }
        }
        CommDependencyGraph { deps, writer }
    }

    /// The task writing `c`, if any.
    pub fn writer(&self, c: CommunicatorId) -> Option<TaskId> {
        self.writer[c.index()]
    }

    /// A topological order in which every communicator appears after all of
    /// its dependencies — the order in which SRGs can be computed.
    ///
    /// # Errors
    ///
    /// If the dependency graph is cyclic (a communicator cycle with no
    /// independent-model task on it), returns the set of communicators on
    /// cycles as `Err`.
    pub fn analysis_order(&self) -> Result<Vec<CommunicatorId>, Vec<CommunicatorId>> {
        let n = self.deps.len();
        let mut indegree = vec![0usize; n];
        let mut rdeps: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (c, ds) in self.deps.iter().enumerate() {
            indegree[c] = ds.len();
            for d in ds {
                rdeps[d.index()].push(c);
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&c| indegree[c] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(c) = queue.pop_front() {
            order.push(CommunicatorId::new(c as u32));
            for &d in &rdeps[c] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    queue.push_back(d);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err((0..n)
                .filter(|&c| indegree[c] > 0)
                .map(|c| CommunicatorId::new(c as u32))
                .collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CommunicatorDecl, Specification, TaskDecl};
    use crate::value::ValueType;

    fn comm(name: &str, period: u64) -> CommunicatorDecl {
        CommunicatorDecl::new(name, ValueType::Float, period).unwrap()
    }

    /// `a -> t1 -> b -> t2 -> c`: a memory-free chain.
    fn chain_spec() -> Specification {
        let mut b = Specification::builder();
        let a = b.communicator(comm("a", 2).from_sensor()).unwrap();
        let bb = b.communicator(comm("b", 2)).unwrap();
        let c = b.communicator(comm("c", 2)).unwrap();
        b.task(TaskDecl::new("t1").reads(a, 0).writes(bb, 1)).unwrap();
        b.task(TaskDecl::new("t2").reads(bb, 1).writes(c, 2)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn chain_is_memory_free() {
        let spec = chain_spec();
        let g = SpecGraph::new(&spec);
        assert!(g.communicator_cycles().is_memory_free());
    }

    #[test]
    fn chain_analysis_order_respects_dependencies() {
        let spec = chain_spec();
        let g = CommDependencyGraph::new(&spec);
        let order = g.analysis_order().unwrap();
        let pos = |name: &str| {
            let id = spec.find_communicator(name).unwrap();
            order.iter().position(|&c| c == id).unwrap()
        };
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("c"));
    }

    #[test]
    fn self_loop_is_a_communicator_cycle() {
        // §3: "a task t that reads and writes to a communicator c".
        let mut b = Specification::builder();
        let c = b.communicator(comm("c", 2)).unwrap();
        b.task(TaskDecl::new("t").reads(c, 0).writes(c, 1)).unwrap();
        let spec = b.build().unwrap();
        let g = SpecGraph::new(&spec);
        let report = g.communicator_cycles();
        assert!(!report.is_memory_free());
        let w = &report.witnesses[0];
        assert_eq!(w.comm, c);
        assert!(w
            .path
            .iter()
            .any(|v| matches!(v, SpecVertex::Task(_))));
        // Path endpoints are instances of c.
        assert_eq!(w.path.first(), Some(&SpecVertex::Comm(c, w.from)));
        assert_eq!(w.path.last(), Some(&SpecVertex::Comm(c, w.to)));
    }

    #[test]
    fn two_task_feedback_is_a_cycle_at_comm_level() {
        // t1: a -> b, t2: b -> a. The instance-level persistence keeps the
        // ends apart within one round, but the communicator-level graph is
        // cyclic, which blocks SRG induction.
        let mut b = Specification::builder();
        let a = b.communicator(comm("a", 4)).unwrap();
        let bb = b.communicator(comm("b", 4)).unwrap();
        b.task(TaskDecl::new("t1").reads(a, 0).writes(bb, 1)).unwrap();
        b.task(TaskDecl::new("t2").reads(bb, 1).writes(a, 2)).unwrap();
        let spec = b.build().unwrap();
        let g = CommDependencyGraph::new(&spec);
        let err = g.analysis_order().unwrap_err();
        assert!(err.contains(&a) && err.contains(&bb));
        // The instance-level definition also reports it: a0 -> t1 -> b1 ->
        // t2 -> a2 is a path between two instances of `a` through tasks.
        let sg = SpecGraph::new(&spec);
        assert!(!sg.communicator_cycles().is_memory_free());
    }

    #[test]
    fn independent_task_cuts_the_cycle() {
        use crate::spec::FailureModel;
        use crate::value::Value;
        let mut b = Specification::builder();
        let c = b.communicator(comm("c", 2)).unwrap();
        b.task(
            TaskDecl::new("t")
                .reads(c, 0)
                .writes(c, 1)
                .model(FailureModel::Independent)
                .default_value(Value::Float(0.0)),
        )
        .unwrap();
        let spec = b.build().unwrap();
        // Instance level: still a communicator cycle...
        assert!(!SpecGraph::new(&spec).communicator_cycles().is_memory_free());
        // ...but the analysis-level graph is cut and ordering succeeds.
        let g = CommDependencyGraph::new(&spec);
        assert!(g.analysis_order().is_ok());
    }

    #[test]
    fn persistence_edges_follow_unwritten_instances() {
        let spec = chain_spec();
        let bb = spec.find_communicator("b").unwrap();
        let g = SpecGraph::new(&spec);
        // b instance 1 is written by t1; so edge (b,0) -> (b,1) must NOT
        // exist, while (b,1) -> (b,2) (unwritten) must.
        let succ0: Vec<_> = g.successors(SpecVertex::Comm(bb, 0)).collect();
        assert!(!succ0.contains(&SpecVertex::Comm(bb, 1)));
        let succ1: Vec<_> = g.successors(SpecVertex::Comm(bb, 1)).collect();
        assert!(succ1.contains(&SpecVertex::Comm(bb, 2)));
    }

    #[test]
    fn dot_rendering_mentions_all_names() {
        let spec = chain_spec();
        let g = SpecGraph::new(&spec);
        let dot = g.to_dot(&spec);
        for name in ["t1", "t2", "a_0", "b_1", "c_2"] {
            assert!(dot.contains(name), "missing {name} in dot output");
        }
    }

    #[test]
    fn fig1_graph_vertex_count() {
        // Fig. 1: periods 2,3,4,2 over round 12 -> instances 7+5+4+7 = 23
        // communicator vertices plus 1 task.
        let mut b = Specification::builder();
        let c1 = b.communicator(comm("c1", 2)).unwrap();
        let c2 = b.communicator(comm("c2", 3)).unwrap();
        let c3 = b.communicator(comm("c3", 4)).unwrap();
        let c4 = b.communicator(comm("c4", 2)).unwrap();
        b.task(
            TaskDecl::new("t")
                .reads(c1, 1)
                .reads(c2, 1)
                .writes(c3, 2)
                .writes(c4, 5),
        )
        .unwrap();
        let spec = b.build().unwrap();
        let g = SpecGraph::new(&spec);
        assert_eq!(g.vertices.len(), 24);
        assert!(g.communicator_cycles().is_memory_free());
    }
}
