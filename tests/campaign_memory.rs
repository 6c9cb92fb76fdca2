//! Campaign memory is independent of the horizon: a campaign unit keeps
//! per-communicator counts, never a per-update trace, so its peak heap
//! use at eight times the rounds stays within a fixed slack of the short
//! run — for a width-1 unit and for a 64-lane unit alike.
//!
//! The test binary counts every allocation through its own global
//! allocator, so it holds this one test only: a concurrently running test
//! would pollute the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use logrel_core::{TimeDependentImplementation, Value};
use logrel_obs::Registry;
use logrel_sim::{
    run_campaign_unit, BatchConfig, BehaviorMap, CampaignConfig, CampaignUnit, ConstantEnvironment,
    LaneMode, MonitorConfig, ProbabilisticFaults, ReplicationContext, Scenario, Simulation,
};
use logrel_threetank::{Scenario as Deployment, ThreeTankSystem};

/// Live heap bytes, and their high-water mark.
static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let now = CURRENT.fetch_add(by, Ordering::SeqCst) + by;
        PEAK.fetch_max(now, Ordering::SeqCst);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                Counting::grew(new_size - layout.size());
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak heap growth over the live bytes at the start of `f`.
fn peak_growth(f: impl FnOnce()) -> usize {
    let base = CURRENT.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst) - base
}

/// Headroom for allocations whose size varies with the run but not in
/// proportion to its length: value-class vectors growing to a
/// data-dependent width, a monitor's alarm list. A per-update record of
/// the 2000-round runs would take megabytes.
const SLACK: usize = 64 * 1024;

#[test]
fn campaign_unit_peak_memory_does_not_grow_with_rounds() {
    let sys = ThreeTankSystem::new(Deployment::ReplicatedControllers);
    let imp = TimeDependentImplementation::from(sys.imp.clone());
    let sim = Simulation::new(&sys.spec, &sys.arch, &imp);
    let scenario = Scenario::default();
    let unit_peak = |width: usize, rounds: u64| {
        let config = CampaignConfig {
            batch: BatchConfig {
                replications: width as u64,
                rounds,
                base_seed: 0xA110C,
                threads: 1,
            },
            monitor: MonitorConfig::default(),
            lanes: LaneMode::Width(width as u8),
        };
        let setup = |_rep| ReplicationContext {
            behaviors: BehaviorMap::new(),
            environment: Box::new(ConstantEnvironment::new(Value::Float(0.25))),
            injector: Box::new(ProbabilisticFaults::from_architecture(&sys.arch)),
        };
        peak_growth(|| {
            let per_rep = run_campaign_unit(
                &sim,
                &sys.spec,
                &scenario,
                sys.arch.host_count(),
                &config,
                setup,
                |_rep| Registry::new(),
                CampaignUnit {
                    first_rep: 0,
                    width,
                },
            )
            .expect("valid unit");
            assert_eq!(per_rep.len(), width);
        })
    };
    for width in [1, 64] {
        let short = unit_peak(width, 250);
        let long = unit_peak(width, 8 * 250);
        assert!(
            long <= short + SLACK,
            "width {width}: peak {long} B at 2000 rounds vs {short} B at 250"
        );
    }
}
