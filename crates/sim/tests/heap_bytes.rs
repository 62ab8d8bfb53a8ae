//! `ExecPlan::heap_bytes` and `ReferenceTrace::heap_bytes` against what the
//! allocator actually handed out.
//!
//! The daemon's plan cache charges each entry these two numbers against a
//! byte budget, so they must be the bytes an entry keeps alive, not an
//! estimate. A counting global allocator tracks the live bytes allocated
//! on the current thread; building a plan (or running the reference) from
//! nothing and keeping only the result leaves exactly its heap footprint
//! live, which must agree with the charge to within 10%.

use overlap_core::pipeline::plan_placement;
use overlap_core::Strategy;
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun, TaskGraph};
use overlap_net::topology::{hypercube, linear_array, mesh2d};
use overlap_net::{DelayModel, HostGraph};
use overlap_sim::{Assignment, EngineConfig, ExecPlan, FaultPlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes live on each thread (allocated there and not yet
/// freed). Every allocation in these tests is made and freed on the test
/// thread: lowering and the reference executor are single-threaded.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `make()`'s result and the bytes it left live on this thread.
fn measured<T>(make: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    let value = make();
    let live = LIVE.with(Cell::get) - before;
    (
        value,
        usize::try_from(live).expect("more freed than allocated"),
    )
}

fn assert_close(what: &str, charged: usize, live: usize) {
    let err = (charged as f64 - live as f64).abs() / live as f64;
    assert!(
        err <= 0.10,
        "{what}: charged {charged} bytes, {live} live ({:.1}% off)",
        err * 100.0
    );
}

/// One plan shape: its guest, host, how it is placed and lowered, and an
/// optional fault plan.
struct Case {
    name: &'static str,
    guest: fn() -> GuestSpec,
    host: fn() -> HostGraph,
    placed: bool,
    multicast: bool,
    faults: Option<fn() -> FaultPlan>,
}

fn lower(case: &Case) -> ExecPlan<'static> {
    let guest = (case.guest)();
    let host = (case.host)();
    let assign = if case.placed {
        plan_placement(&guest, &host, Strategy::Overlap { c: 4.0 })
            .expect("placement")
            .assignment
    } else {
        Assignment::blocked(host.num_nodes(), guest.num_cells())
    };
    let config = EngineConfig {
        multicast: case.multicast,
        ..EngineConfig::default()
    };
    let plan = ExecPlan::build_owned(guest, host, assign, config).expect("lowering");
    match case.faults {
        Some(faults) => plan.with_faults(faults()).expect("faults fit the host"),
        None => plan,
    }
}

const CASES: &[Case] = &[
    Case {
        name: "line guest on a line host",
        guest: || GuestSpec::array(512, ProgramKind::KvWorkload, 3, 16),
        host: || linear_array(32, DelayModel::uniform(1, 9), 7),
        placed: true,
        multicast: false,
        faults: None,
    },
    Case {
        name: "ring guest on a line host",
        guest: || GuestSpec::ring(512, ProgramKind::StencilSum, 5, 16),
        host: || linear_array(32, DelayModel::uniform(1, 9), 7),
        placed: true,
        multicast: false,
        faults: None,
    },
    Case {
        name: "non-uniform DAG guest",
        guest: || {
            GuestSpec::dag(
                TaskGraph::layered_random(64, 24, 2, 3, 11),
                ProgramKind::Relaxation,
                2,
            )
        },
        host: || linear_array(16, DelayModel::uniform(1, 5), 3),
        placed: false,
        multicast: false,
        faults: None,
    },
    Case {
        name: "line guest on a mesh host",
        guest: || GuestSpec::array(800, ProgramKind::KvWorkload, 1, 2),
        host: || mesh2d(20, 20, DelayModel::uniform(1, 9), 1),
        placed: true,
        multicast: false,
        faults: None,
    },
    Case {
        name: "line guest on a hypercube host",
        guest: || GuestSpec::array(512, ProgramKind::KvWorkload, 4, 8),
        host: || hypercube(7, DelayModel::uniform(1, 9), 4),
        placed: true,
        multicast: false,
        faults: None,
    },
    Case {
        name: "multicast trees on a mesh host",
        guest: || GuestSpec::array(256, ProgramKind::Histogram { buckets: 8 }, 6, 8),
        host: || mesh2d(8, 8, DelayModel::uniform(1, 9), 6),
        placed: true,
        multicast: true,
        faults: None,
    },
    Case {
        name: "faulted line guest",
        guest: || GuestSpec::array(512, ProgramKind::KvWorkload, 3, 16),
        host: || linear_array(32, DelayModel::uniform(1, 9), 7),
        placed: true,
        multicast: false,
        faults: Some(|| {
            (0..64).fold(FaultPlan::new().crash(5, 400), |f, i| {
                f.link_down(i % 31, i % 31 + 1, 10 * i as u64, 10 * i as u64 + 5)
                    .delay_spike(i % 31, i % 31 + 1, 7 * i as u64, 7 * i as u64 + 3, 4)
            })
        }),
    },
];

#[test]
fn exec_plan_heap_bytes_match_live_allocations() {
    for case in CASES {
        let (plan, live) = measured(|| lower(case));
        assert_close(case.name, plan.heap_bytes(), live);
        // A view borrows the whole lowering: it owns only its variant.
        let (view, live) = measured(|| plan.share());
        assert_eq!(view.heap_bytes(), live, "{}: a view", case.name);
    }
}

#[test]
fn reference_trace_heap_bytes_match_live_allocations() {
    for case in CASES {
        let guest = (case.guest)();
        let (trace, live) = measured(|| ReferenceRun::execute(&guest));
        assert_close(case.name, trace.heap_bytes(), live);
    }
}
