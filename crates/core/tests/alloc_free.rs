//! Counting-allocator regression test for the executive's steady state.
//!
//! The allocation-free rework (scratch-buffer reuse, interned steps,
//! O(1) live-list removal, `Arc`-shared composite maps) promises that
//! processing one completion event in identity-mapping steady state
//! performs **zero** heap allocations. Proving "zero per event" from
//! inside one process has a subtlety: long-lived vectors (descriptor
//! slab, waiting queue, metric delta logs) legitimately double a
//! logarithmic number of times as a run grows. So the test runs the same
//! identity-overlap workload at two sizes and checks that the *extra*
//! allocations per *extra* event are (far) below one — the per-event term
//! is zero, only the `O(log n)` growth term remains.
//!
//! This file contains exactly one `#[test]` on purpose: the counter is a
//! process-wide global, and a concurrently running sibling test would
//! bleed allocations into the measurement window.

use pax_core::prelude::*;
use pax_sim::dist::CostModel;
use pax_sim::machine::MachineConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Run a two-phase identity-overlap program (single-granule tasks — the
/// configuration with the most completion events per granule) under the
/// given split strategy and executive lane count (lanes > 1 exercises
/// the batched drain: whole coincident completion groups per service
/// round) and report the run plus the allocations it performed.
fn identity_run(granules: u32, strategy: SplitStrategy, lanes: usize) -> (RunReport, u64) {
    let mut b = ProgramBuilder::new();
    let pa = b.phase(PhaseDef::new("a", granules, CostModel::constant(100)));
    let pb = b.phase(PhaseDef::new("b", granules, CostModel::constant(100)));
    b.dispatch_enable(
        pa,
        vec![EnableSpec {
            successor: pb,
            mapping: EnablementMapping::Identity,
        }],
    );
    b.dispatch(pb);
    let program = b.build().unwrap();
    let policy = OverlapPolicy::overlap()
        .with_sizing(TaskSizing::Fixed(1))
        .with_split_strategy(strategy);
    let mut sim =
        Simulation::new(MachineConfig::new(8).with_executive_lanes(lanes), policy).with_seed(1);
    sim.add_job(program);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = sim.run().unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (report, after - before)
}

/// Like [`identity_run`], but on a deliberately cramped hierarchical
/// calendar: a 4-slot, 4-level wheel covers only 4 ticks at level 0, so
/// every `+100`-tick completion lands three rings up and cascades down
/// through every level before service. Warm buckets circulate through
/// the cascade scratch buffer instead of being reallocated, so even this
/// worst-case geometry must add zero allocations per event.
fn hier_calendar_run(granules: u32) -> (RunReport, u64) {
    use pax_sim::CalendarKind;
    let mut b = ProgramBuilder::new();
    let pa = b.phase(PhaseDef::new("a", granules, CostModel::constant(100)));
    let pb = b.phase(PhaseDef::new("b", granules, CostModel::constant(100)));
    b.dispatch_enable(
        pa,
        vec![EnableSpec {
            successor: pb,
            mapping: EnablementMapping::Identity,
        }],
    );
    b.dispatch(pb);
    let program = b.build().unwrap();
    let policy = OverlapPolicy::overlap()
        .with_sizing(TaskSizing::Fixed(1))
        .with_split_strategy(SplitStrategy::DemandSplit);
    let cfg = MachineConfig::new(8).with_calendar(CalendarKind::HierWheel {
        slots: 4,
        bucket_ticks: 1,
        levels: 4,
    });
    let mut sim = Simulation::new(cfg, policy).with_seed(1);
    sim.add_job(program);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = sim.run().unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (report, after - before)
}

/// Hierarchical-wheel steady state: once every ring's buckets have been
/// touched, scheduling, cascading, and popping all reuse existing
/// storage — the growth bound matches the heap-calendar legs even though
/// each event here migrates through four rings.
fn assert_hier_calendar_steady_state_alloc_free() {
    let (r1, a1) = hier_calendar_run(2_048);
    let (r2, a2) = hier_calendar_run(8_192);
    assert_eq!(r1.phases[0].stats.executed_granules, 2_048);
    assert_eq!(r2.phases[0].stats.executed_granules, 8_192);
    let extra_events = r2.events - r1.events;
    assert!(
        extra_events > 10_000,
        "scenario too small to measure ({extra_events} extra events)"
    );
    let extra_allocs = a2.saturating_sub(a1);
    let per_event = extra_allocs as f64 / extra_events as f64;
    assert!(
        per_event < 0.01,
        "hierarchical-calendar completion processing allocates: \
         {per_event:.4} allocations/event \
         ({extra_allocs} extra allocations over {extra_events} extra events; \
         run sizes {a1} vs {a2})"
    );
}

/// Like [`identity_run`], but with the fault layer *enabled* and armed
/// with a scripted crash far beyond any reachable makespan: every
/// completion event pays the fault bookkeeping (staleness check, running
/// slot write) without a single crash actually firing. Pins that merely
/// turning faults on adds zero allocations per completion event.
fn faults_enabled_run(granules: u32) -> (RunReport, u64) {
    use pax_sim::{FaultPlan, ScriptedFault};
    let mut b = ProgramBuilder::new();
    let pa = b.phase(PhaseDef::new("a", granules, CostModel::constant(100)));
    let pb = b.phase(PhaseDef::new("b", granules, CostModel::constant(100)));
    b.dispatch_enable(
        pa,
        vec![EnableSpec {
            successor: pb,
            mapping: EnablementMapping::Identity,
        }],
    );
    b.dispatch(pb);
    let program = b.build().unwrap();
    let policy = OverlapPolicy::overlap()
        .with_sizing(TaskSizing::Fixed(1))
        .with_split_strategy(SplitStrategy::DemandSplit);
    let plan = FaultPlan::scripted(vec![ScriptedFault {
        processor: 0,
        crash_at: u64::MAX / 2,
        repair_after: None,
    }]);
    let cfg = MachineConfig::new(8).with_faults(plan);
    let mut sim = Simulation::new(cfg, policy).with_seed(1);
    sim.add_job(program);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = sim.run().unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (report, after - before)
}

/// The fault layer's hot path is per-worker `Vec`-slot writes only;
/// allocations happen exclusively on the cold crash path (which never
/// fires here). Same growth bound as the fault-free legs.
fn assert_faults_enabled_steady_state_alloc_free() {
    let (r1, a1) = faults_enabled_run(2_048);
    let (r2, a2) = faults_enabled_run(8_192);
    assert_eq!(r1.crashes, 0, "the scripted crash must lie beyond the run");
    assert_eq!(r2.crashes, 0);
    let extra_events = r2.events - r1.events;
    assert!(
        extra_events > 10_000,
        "scenario too small to measure ({extra_events} extra events)"
    );
    let extra_allocs = a2.saturating_sub(a1);
    let per_event = extra_allocs as f64 / extra_events as f64;
    assert!(
        per_event < 0.01,
        "faults-enabled completion processing allocates: \
         {per_event:.4} allocations/event \
         ({extra_allocs} extra allocations over {extra_events} extra events; \
         run sizes {a1} vs {a2})"
    );
}

/// Grow a scenario 4× and demand the *extra* allocations per *extra*
/// event stay (far) below one — the per-event term is zero, only the
/// `O(log n)` structure-doubling term remains.
fn assert_steady_state_alloc_free(strategy: SplitStrategy, lanes: usize) {
    let (r1, a1) = identity_run(2_048, strategy, lanes);
    let (r2, a2) = identity_run(8_192, strategy, lanes);
    assert_eq!(r1.phases[0].stats.executed_granules, 2_048);
    assert_eq!(r2.phases[0].stats.executed_granules, 8_192);
    let extra_events = r2.events - r1.events;
    assert!(
        extra_events > 10_000,
        "scenario too small to measure ({extra_events} extra events)"
    );
    let extra_allocs = a2.saturating_sub(a1);
    let per_event = extra_allocs as f64 / extra_events as f64;
    assert!(
        per_event < 0.01,
        "{strategy:?} (lanes {lanes}) completion processing allocates: \
         {per_event:.4} allocations/event \
         ({extra_allocs} extra allocations over {extra_events} extra events; \
         run sizes {a1} vs {a2})"
    );
}

/// A staged four-group fleet on the sharded engine (uneven shard count 3,
/// so one shard carries two groups), admission edges forcing the epoch
/// coordinator through repeated conservative windows. Same growth
/// methodology as [`identity_run`].
fn sharded_fleet_run(granules_per_group: u32) -> (RunReport, u64) {
    use pax_sim::machine::ShardPolicy;
    use pax_sim::time::SimDuration;
    let mut b = ProgramBuilder::new();
    let pa = b.phase(PhaseDef::new(
        "a",
        granules_per_group,
        CostModel::constant(100),
    ));
    let pb = b.phase(PhaseDef::new(
        "b",
        granules_per_group,
        CostModel::constant(100),
    ));
    b.dispatch_enable(
        pa,
        vec![EnableSpec {
            successor: pb,
            mapping: EnablementMapping::Identity,
        }],
    );
    b.dispatch(pb);
    let program = b.build().unwrap();
    let policy = OverlapPolicy::overlap()
        .with_sizing(TaskSizing::Fixed(1))
        .with_split_strategy(SplitStrategy::DemandSplit);
    let cfg = MachineConfig::new(4).with_shards(ShardPolicy::new(3));
    let mut sim = Simulation::new(cfg, policy).with_seed(1);
    for g in 0..4 {
        sim.add_job_in_group(program.clone(), g);
        if g > 0 {
            sim.link_groups(g - 1, g, SimDuration(500));
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = sim.run().unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (report, after - before)
}

/// A Poisson service stream with eviction: `jobs` arrivals of the same
/// two-phase single-granule-task program, completed instances recycled
/// back into the arena. Growing the *stream* (not the per-job work) must
/// not grow the allocation count per event: once the in-flight pool is
/// warm, admitting a job reuses pooled instance slots and instance
/// lists, and completing one returns them.
fn service_stream_run(jobs: usize) -> (RunReport, u64) {
    use pax_sim::dist::ArrivalProcess;
    let mut b = ProgramBuilder::new();
    let pa = b.phase(PhaseDef::new("a", 64, CostModel::constant(100)));
    let pb = b.phase(PhaseDef::new("b", 64, CostModel::constant(100)));
    b.dispatch_enable(
        pa,
        vec![EnableSpec {
            successor: pb,
            mapping: EnablementMapping::Identity,
        }],
    );
    b.dispatch(pb);
    let program = b.build().unwrap();
    let policy = OverlapPolicy::overlap()
        .with_sizing(TaskSizing::Fixed(1))
        .with_split_strategy(SplitStrategy::DemandSplit);
    let mut sim = Simulation::new(MachineConfig::new(8), policy)
        .with_seed(1)
        .with_eviction();
    // Mean gap comfortably above the ~1 600-tick per-job service time:
    // an under-loaded open system, so the in-flight population (and with
    // it the warm pool) stays O(1) regardless of stream length.
    sim.add_job_stream(program, ArrivalProcess::poisson(4_000), jobs);
    // Setup (stream expansion, job table, arrival calendar) and final
    // report assembly legitimately scale with the stream length; the
    // steady-state claim is about the *service loop*, so measure only
    // the drain after a warm-up window has filled the instance pool.
    let mut session = sim.into_session().unwrap();
    session.step_until(pax_sim::SimTime(40_000)).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    session.drain().unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let report = session.report().unwrap();
    (report, after - before)
}

/// Service-mode steady state: 4× the stream length, same in-flight
/// population. The per-completion (and per-admission) term is zero once
/// the pool is warm — the eviction path recycles instance slots and
/// per-job instance lists instead of allocating fresh ones, so only the
/// job-table/report growth term (amortized doublings plus O(1) inline
/// records per job, never per event) remains.
fn assert_service_steady_state_alloc_free() {
    let (r1, a1) = service_stream_run(64);
    let (r2, a2) = service_stream_run(256);
    assert_eq!(r1.jobs_completed(), 64);
    assert_eq!(r2.jobs_completed(), 256);
    assert!(
        r2.instances_peak <= r1.instances_peak + 4,
        "live-instance pool grew with the stream ({} -> {})",
        r1.instances_peak,
        r2.instances_peak
    );
    let extra_events = r2.events - r1.events;
    assert!(
        extra_events > 10_000,
        "scenario too small to measure ({extra_events} extra events)"
    );
    let extra_allocs = a2.saturating_sub(a1);
    let per_event = extra_allocs as f64 / extra_events as f64;
    assert!(
        per_event < 0.01,
        "service-stream completion processing allocates: \
         {per_event:.4} allocations/event \
         ({extra_allocs} extra allocations over {extra_events} extra events; \
         run sizes {a1} vs {a2})"
    );
}

/// The sharded engine's steady state: epochs reuse the outbox, note, and
/// admission buffers, so the extra allocations per extra event across a
/// 4× growth stay far below one — same bound as the single-group legs
/// (the merged report's assembly is O(groups + phases), not O(events)).
fn assert_sharded_steady_state_alloc_free() {
    let (r1, a1) = sharded_fleet_run(1_024);
    let (r2, a2) = sharded_fleet_run(4_096);
    assert_eq!(r1.jobs.len(), 4);
    assert_eq!(r2.jobs.len(), 4);
    let extra_events = r2.events - r1.events;
    assert!(
        extra_events > 10_000,
        "scenario too small to measure ({extra_events} extra events)"
    );
    let extra_allocs = a2.saturating_sub(a1);
    let per_event = extra_allocs as f64 / extra_events as f64;
    assert!(
        per_event < 0.01,
        "sharded fleet completion processing allocates: \
         {per_event:.4} allocations/event \
         ({extra_allocs} extra allocations over {extra_events} extra events; \
         run sizes {a1} vs {a2})"
    );
}

/// The waiting queue's memory contract: normal segments are allocated
/// when a job first queues work, not up front per job stream, so opening
/// a queue for a million-job stream costs O(1) bytes.
fn assert_waiting_queue_open_is_constant_size() {
    use pax_core::queue::WaitingQueue;
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let q = WaitingQueue::new(1_000_000);
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    drop(q);
    assert!(
        bytes <= 4 * 1024,
        "WaitingQueue::new(1_000_000) allocated {bytes} bytes"
    );
}

#[test]
fn steady_state_completion_processing_is_allocation_free() {
    assert_waiting_queue_open_is_constant_size();
    // Warm-up absorbs lazy one-time initialization.
    let _ = identity_run(256, SplitStrategy::DemandSplit, 1);
    let _ = identity_run(256, SplitStrategy::DemandSplit, 8);
    // Demand splitting: every dispatch splits and mirrors the split onto
    // the queued successor — the paths the SoA arena serves per event.
    assert_steady_state_alloc_free(SplitStrategy::DemandSplit, 1);
    // Presplitting: the whole descriptor population is carved at release
    // time, so the arena's lane growth (amortized, O(log n) doublings)
    // is the only allocation source left.
    assert_steady_state_alloc_free(SplitStrategy::PreSplit, 1);
    // Multi-lane batched drains: whole coincident completion groups are
    // serviced per round through the shared wakeup buffer — still zero
    // allocations per event (the round's drain/done buffers are sized
    // once at run start).
    assert_steady_state_alloc_free(SplitStrategy::DemandSplit, 8);
    assert_steady_state_alloc_free(SplitStrategy::PreSplit, 64);
    // Hierarchical calendar at its worst-case geometry: every completion
    // cascades through four rings, yet warm buckets and the cascade
    // scratch buffer are recycled — zero allocations per event.
    let _ = hier_calendar_run(256);
    assert_hier_calendar_steady_state_alloc_free();
    // Sharded fleet: the epoch loop's outbox/note/admission buffers are
    // reused across epochs, so windowed draining adds no per-event term.
    let _ = sharded_fleet_run(256);
    assert_sharded_steady_state_alloc_free();
    // Fault layer enabled but never firing: the staleness check and
    // running-slot bookkeeping on every completion allocate nothing.
    let _ = faults_enabled_run(256);
    assert_faults_enabled_steady_state_alloc_free();
    // Open-system service stream with eviction: a 4× longer arrival
    // stream admits and completes through a recycled instance pool and
    // recycled waiting-queue segments — still zero allocations per event
    // once the pools are warm.
    let _ = service_stream_run(16);
    assert_service_steady_state_alloc_free();
}
