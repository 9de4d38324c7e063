//! Heap-allocation counts are a function of the seed alone.
//!
//! Two same-seed runs must not only simulate identically, they must ask
//! the allocator for memory identically — otherwise an allocations-per-
//! cycle figure wobbles from run to run and a benchmark cannot tell a
//! real change from noise. Hash maps keyed with per-process random keys
//! (`RandomState`) break this: their tombstone and rehash timing varies,
//! so the delivery tracker and the reliability layer use fixed-key
//! hashers instead.
//!
//! This binary installs its own counting `#[global_allocator]` and holds
//! a single test, so nothing else running in the process adds to the
//! count; the count is also kept per thread, so the harness's own thread
//! cannot leak into it. With `RandomState` maps the per-cycle profiles
//! of two same-seed runs differ on a handful of cycles (and, over longer
//! runs, in total too).

use frfc::engine::trace::NullSink;
use frfc::faults::{DeadLink, FaultPlan};
use frfc::fr::FrConfig;
use frfc::metrics::NullRecorder;
use frfc::network::{FlowControl, Network, NetworkTask, Scenario, Stepping};
use frfc::topology::{Mesh, Port};
use frfc::traffic::LoadSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls made by this thread. Const-initialised and
    /// without a destructor, so touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting `alloc`, `alloc_zeroed` and
/// `realloc` calls per thread.
struct Counting;

fn record() {
    // `try_with` fails only during thread teardown; those calls are not
    // part of any measured run.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller's guarantees on `layout` and `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Steps a network cycle by cycle, recording how many allocation calls
/// each cycle made.
struct PerCycleAllocations {
    cycles: u64,
}

impl NetworkTask<NullSink, NullRecorder> for PerCycleAllocations {
    type Output = Vec<u64>;

    fn run<R: Stepping>(self, mut net: Network<R>) -> Vec<u64> {
        (0..self.cycles)
            .map(|_| {
                let before = ALLOCS.with(Cell::get);
                R::cycle_on(&mut net, 1);
                ALLOCS.with(Cell::get) - before
            })
            .collect()
    }
}

/// Per-cycle allocation calls of one sequential FR6 run on a 4×4 mesh
/// with corruption, control drops and a dead link armed, so the
/// reliability layer's retransmit map churns beside the tracker's.
fn allocation_profile() -> Vec<u64> {
    let mesh = Mesh::new(4, 4);
    let scenario = Scenario {
        fault: Some(FaultPlan {
            data_corrupt_rate: 2e-3,
            control_drop_rate: 2e-3,
            dead_links: vec![DeadLink {
                node: mesh.node_at(1, 2),
                port: Port::East,
                at_cycle: 300,
            }],
            ..FaultPlan::quiet(0xA110C)
        }),
        ..Scenario::new(
            FlowControl::FlitReservation(FrConfig::fr6()),
            mesh,
            LoadSpec::fraction_of_capacity(0.4, 5),
            0xA110C,
        )
    };
    scenario.with_network(
        NullSink,
        NullSink,
        NullRecorder,
        PerCycleAllocations { cycles: 5_000 },
    )
}

#[test]
fn same_seed_faulty_runs_make_identical_allocation_counts() {
    // A first run absorbs any one-time lazy initialisation in std.
    allocation_profile();
    let first = allocation_profile();
    let second = allocation_profile();
    assert!(first.iter().sum::<u64>() > 0, "the counter saw nothing");
    // Comparing cycle by cycle, not just totals: a table that grows at a
    // different cycle moves every windowed allocations-per-cycle figure
    // even when the run's total comes out equal.
    let diverged: Vec<usize> = (0..first.len())
        .filter(|&t| first[t] != second[t])
        .collect();
    assert!(
        diverged.is_empty(),
        "same-seed runs allocated differently on {} cycles, first at cycle {:?}",
        diverged.len(),
        diverged.first()
    );
}
