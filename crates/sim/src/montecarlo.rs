//! Deterministic parallel Monte-Carlo: seeds and work distribution.
//!
//! A batch of `N` independent replications of a seeded simulation is
//! described by a [`BatchConfig`]. Each replication's seed is derived
//! from the batch's `base_seed` and the replication index with
//! [`derive_seed`] (a SplitMix64 stream jump), so the sequence of
//! per-replication seeds is a pure function of the batch configuration.
//! [`run_indexed_units`] fans a work list out over [`std::thread::scope`]
//! workers that write into disjoint chunks of the result vector; results
//! are therefore always **merged in unit order**, and a batch produces
//! bit-identical output at any thread count — including `threads: 1` and
//! a hand-written sequential loop over the same units.
//!
//! The one driver of multi-replication runs is [`Campaign`](crate::Campaign),
//! which plans a batch into lane groups of up to 64 replications, runs
//! them with [`run_indexed_units`] and counts in the kernel; each
//! replication starts from its [`ReplicationContext`].

use crate::behavior::BehaviorMap;

/// Configuration of a Monte-Carlo batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of independent replications.
    pub replications: u64,
    /// Rounds simulated per replication.
    pub rounds: u64,
    /// Base seed; per-replication seeds are [`derive_seed`]`(base, i)`.
    pub base_seed: u64,
    /// Worker threads; `0` uses the machine's available parallelism. The
    /// thread count never affects results, only wall-clock time.
    pub threads: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            replications: 32,
            rounds: 1000,
            base_seed: 0xC0FFEE,
            threads: 0,
        }
    }
}

/// Derives the seed of replication `rep_index` from `base_seed`: the
/// `rep_index`-th output of the SplitMix64 stream seeded at `base_seed`,
/// computed by jumping the generator's additive state directly to that
/// position (SplitMix64's state advances by a constant, so position `i`
/// is `base + i·γ`).
#[must_use]
pub fn derive_seed(base_seed: u64, rep_index: u64) -> u64 {
    let mut state = base_seed.wrapping_add(rep_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rand::splitmix64(&mut state)
}

/// Distributes `job(&unit, index)` over the units of a work list and
/// returns the results in unit order.
///
/// Units are distributed over scoped worker threads in contiguous chunks;
/// each worker writes into its own disjoint slice, so the merged vector
/// is independent of `threads` (with `0` using the machine's available
/// parallelism) and of scheduling order. A campaign's unit is a lane
/// group of up to 64 replications.
pub fn run_indexed_units<T, U, F>(threads: usize, units: &[U], job: F) -> Vec<T>
where
    T: Send,
    U: Sync,
    F: Fn(&U, usize) -> T + Sync,
{
    let n = units.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    }
    .min(n);

    let run_chunk = |first: usize, slots: &mut [Option<T>]| {
        for (j, slot) in slots.iter_mut().enumerate() {
            *slot = Some(job(&units[first + j], first + j));
        }
    };

    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    if threads == 1 {
        run_chunk(0, &mut results);
    } else {
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (ci, slots) in results.chunks_mut(chunk).enumerate() {
                let run_chunk = &run_chunk;
                scope.spawn(move || run_chunk(ci * chunk, slots));
            }
        });
    }
    results
        .into_iter()
        .map(|slot| slot.expect("every unit ran"))
        .collect()
}

/// Everything one replication mutates while it runs.
///
/// Generic over the fault model `I` and environment `E`, so a campaign
/// unit's lanes hold them by value and their calls are static: the job
/// service's context is `ReplicationContext<ProbabilisticFaults,
/// ConstantEnvironment>`. Boxed contexts (`Box<dyn FaultModel>`,
/// `Box<dyn Environment>`, or boxes of concrete types) are one more
/// instantiation, through the `Box` forwarding impls.
pub struct ReplicationContext<I, E> {
    /// The task behavior registry.
    pub behaviors: BehaviorMap,
    /// The environment (sensor source / actuator sink).
    pub environment: E,
    /// The fault model (its rates: the campaign's scenario is the
    /// timeline). The field keeps the name it had when it held hook
    /// objects, which the benchmark's replay names; ROADMAP item 1 may
    /// rename it.
    pub injector: I,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::ConstantEnvironment;
    use crate::fault::ProbabilisticFaults;
    use crate::kernel::{SimConfig, SimOutput, Simulation};
    use logrel_core::{
        Architecture, CommunicatorDecl, HostDecl, Implementation, Reliability, SensorDecl,
        SensorId, Specification, TaskDecl, TimeDependentImplementation, Value, ValueType,
    };

    struct Sys {
        spec: Specification,
        arch: Architecture,
        imp: TimeDependentImplementation,
    }

    fn pipeline() -> Sys {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).unwrap())
            .unwrap();
        let t = sb
            .task(TaskDecl::new("double").reads(s, 0).writes(u, 1))
            .unwrap();
        let spec = sb.build().unwrap();
        let mut ab = Architecture::builder();
        let h = ab
            .host(HostDecl::new("h1", Reliability::new(0.9).unwrap()))
            .unwrap();
        ab.sensor(SensorDecl::new("sn", Reliability::new(0.95).unwrap()))
            .unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h])
            .bind_sensor(s, SensorId::new(0))
            .build(&spec, &arch)
            .unwrap();
        Sys {
            spec,
            arch,
            imp: imp.into(),
        }
    }

    /// Replication `rep` of the batch of base seed 2024: 100 rounds of
    /// the pipeline from a fresh context.
    fn replication(sim: &Simulation<'_>, sys: &Sys, rep: u64) -> SimOutput {
        sim.run(
            &mut BehaviorMap::new(),
            &mut ConstantEnvironment::new(Value::Float(1.0)),
            &ProbabilisticFaults::from_architecture(&sys.arch),
            &SimConfig {
                rounds: 100,
                seed: derive_seed(2024, rep),
            },
        )
    }

    /// A batch of 13 replications distributed as units must merge
    /// bit-identically at any thread count, and equal a plain sequential
    /// loop over the same derived seeds.
    #[test]
    fn indexed_units_are_bit_identical_across_thread_counts() {
        let sys = pipeline();
        let sim = Simulation::new(&sys.spec, &sys.arch, &sys.imp);
        let reps: Vec<u64> = (0..13).collect();
        let batch =
            |threads| run_indexed_units(threads, &reps, |&rep, _| replication(&sim, &sys, rep));
        let one = batch(1);
        for threads in [2usize, 8] {
            assert_eq!(one, batch(threads), "threads = {threads}");
        }
        let sequential: Vec<SimOutput> = reps
            .iter()
            .map(|&rep| replication(&sim, &sys, rep))
            .collect();
        assert_eq!(one, sequential);
    }

    /// More units than threads, fewer units than threads, and the empty
    /// work list all merge in unit order, each unit seeing its own index.
    #[test]
    fn awkward_unit_shapes() {
        let ids = |n: u64, threads| {
            let units: Vec<u64> = (0..n).collect();
            run_indexed_units(threads, &units, |&unit, index| {
                assert_eq!(unit, index as u64);
                derive_seed(1, unit)
            })
        };
        let seeds = |n: u64| (0..n).map(|i| derive_seed(1, i)).collect::<Vec<_>>();
        assert_eq!(ids(7, 16), seeds(7));
        assert_eq!(ids(16, 7), seeds(16));
        assert_eq!(ids(0, 4), Vec::<u64>::new());
    }

    /// Seed derivation is a pure function and distinct per replication.
    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let seeds: Vec<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        let again: Vec<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        assert_eq!(seeds, again);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
    }
}
