//! The three workloads, and the drive paths each is run on.
//!
//! Every workload is built from its seed through the public API of
//! `pax-workloads` and `pax-core`, at two lengths (the short leg is half
//! the long one), and driven closed-loop by the host in fixed simulated
//! windows through `step_until`. A reference path runs the same
//! simulation unwindowed on one thread; its report is the one the timed
//! path must reproduce.

use crate::alloc::{live_bytes, HeapPhase, MIB};
use crate::fingerprint::Fingerprint;
use crate::spans::Tracer;
use pax_core::engine::{EngineError, Session, Simulation};
use pax_core::mapping::EnablementMapping;
use pax_core::phase::PhaseDef;
use pax_core::policy::{OverlapPolicy, SplitStrategy, TaskSizing};
use pax_core::program::{EnableSpec, Program, ProgramBuilder};
use pax_core::report::RunReport;
use pax_core::shard::{run_sharded, stuck_error, EpochPlan};
use pax_runtime::ThreadedSession;
use pax_sim::dist::{CostModel, DurationDist};
use pax_sim::machine::{AdmissionPolicy, MachineConfig, ProcessorClass, ResourcePool};
use pax_sim::time::{SimDuration, SimTime};
use pax_sim::ShardPolicy;
use pax_workloads::{degraded_fault_plan, CasperConfig, ServiceConfig};
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's CASPER pipeline on one 64-processor machine.
    CasperRundown,
    /// A Poisson job stream at about half load, eviction on.
    ServiceStream,
    /// Eight faulty heterogeneous groups in two admission chains, on two
    /// shard threads.
    FleetChains,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CasperRundown,
        Workload::ServiceStream,
        Workload::FleetChains,
    ];

    /// The name used on the command line and in output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CasperRundown => "casper_rundown",
            Workload::ServiceStream => "service_stream",
            Workload::FleetChains => "fleet_chains",
        }
    }

    /// Look a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the benchmark measures, `Tiny` is for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A size small enough for unit tests in a debug build.
    Tiny,
}

/// Which length of a workload to build: the long leg is twice the short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Half size: half the CASPER granules per phase, stream jobs, or
    /// fleet granules per group.
    Short,
    /// Full length; the leg the headline metrics come from.
    Long,
}

/// The host-side driver a leg runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `pax_core::engine::Session`, on the calling thread.
    Session,
    /// `pax_runtime::ThreadedSession`, one worker thread per shard.
    Threaded,
}

/// Simulated windows the long leg is stepped in.
pub const WINDOWS: u64 = 1000;

/// Admission latency of the fleet's chain edges, in ticks.
const CHAIN_LATENCY: u64 = 100;

/// Everything the inputs are generated from.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Measured or test size.
    pub scale: Scale,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
}

impl Spec {
    /// The driver the timed path runs on.
    pub fn driver(&self) -> Driver {
        match self.workload {
            Workload::FleetChains => Driver::Threaded,
            _ => Driver::Session,
        }
    }

    /// Jobs submitted by one run of `leg`.
    pub fn jobs(&self, leg: Leg) -> u64 {
        match self.workload {
            Workload::CasperRundown => 1,
            Workload::ServiceStream => self.stream_jobs(leg) as u64,
            Workload::FleetChains => FLEET_GROUPS as u64,
        }
    }

    fn halve(leg: Leg, long: u32) -> u32 {
        match leg {
            Leg::Short => long / 2,
            Leg::Long => long,
        }
    }

    fn stream_jobs(&self, leg: Leg) -> usize {
        let long = match self.scale {
            Scale::Full => 10_000,
            Scale::Tiny => 80,
        };
        Spec::halve(leg, long) as usize
    }

    /// Build the simulation for `leg` from the seed (the `pax-workloads`
    /// layer: CASPER map generation, stream and fleet assembly).
    pub fn simulation(&self, leg: Leg) -> Simulation {
        match self.workload {
            Workload::CasperRundown => {
                let (granules, iterations) = match self.scale {
                    Scale::Full => (16_384, 8),
                    Scale::Tiny => (128, 2),
                };
                let cfg = CasperConfig {
                    granules: Spec::halve(leg, granules),
                    iterations,
                    seed: self.seed,
                    ..CasperConfig::default()
                };
                let mut sim = Simulation::new(MachineConfig::new(64), OverlapPolicy::overlap())
                    .with_seed(self.seed);
                sim.add_job(cfg.build(true));
                sim
            }
            Workload::ServiceStream => ServiceConfig::poisson(self.stream_jobs(leg), 1600)
                .with_admission(AdmissionPolicy::BoundedDefer { max_in_flight: 8 })
                .simulation(MachineConfig::ideal(8), self.seed),
            Workload::FleetChains => {
                let granules = match self.scale {
                    Scale::Full => 262_144,
                    Scale::Tiny => 512,
                };
                fleet_simulation(Spec::halve(leg, granules), self.seed)
            }
        }
    }
}

/// Machine groups in the fleet.
const FLEET_GROUPS: usize = 8;

/// Eight 16-processor groups (4 fast at 2× speed, 12 base), each with a
/// two-token `channel` pool and the canonical degraded fault plan, split
/// over two shards. Group `g` gates group `g + 2`, so the even and the odd
/// groups form two admission chains that land on different shards.
fn fleet_simulation(granules: u32, seed: u64) -> Simulation {
    let machine = MachineConfig::new(16)
        .with_classes(vec![
            ProcessorClass::new("fast", 4, 200),
            ProcessorClass::new("base", 12, 100),
        ])
        .with_resources(vec![ResourcePool::new("channel", 2)])
        .with_faults(degraded_fault_plan())
        .with_shards(ShardPolicy::new(2));
    let policy = OverlapPolicy::overlap()
        .with_sizing(TaskSizing::Fixed(16))
        .with_split_strategy(SplitStrategy::DemandSplit);
    let mut sim = Simulation::new(machine, policy).with_seed(seed);
    let program = fleet_program(granules);
    for g in 0..FLEET_GROUPS {
        sim.add_job_in_group(program.clone(), g);
    }
    for g in 0..FLEET_GROUPS - 2 {
        sim.link_groups(g, g + 2, SimDuration(CHAIN_LATENCY));
    }
    sim
}

/// A token-gated `mount` bracket, then `compute` (universal from mount)
/// and `writeback` (identity from compute, so it overlaps the rundown).
fn fleet_program(granules: u32) -> Program {
    let mut b = ProgramBuilder::new();
    let mount = b.phase(
        PhaseDef::new("mount", (granules / 256).max(1), CostModel::constant(40))
            .with_requires(vec!["channel".into()]),
    );
    let compute = b.phase(PhaseDef::new(
        "compute",
        granules,
        CostModel::new(DurationDist::Uniform {
            lo: SimDuration(50),
            hi: SimDuration(150),
        }),
    ));
    let writeback = b.phase(PhaseDef::new(
        "writeback",
        granules,
        CostModel::constant(20),
    ));
    b.dispatch_enable(
        mount,
        vec![EnableSpec {
            successor: compute,
            mapping: EnablementMapping::Universal,
        }],
    );
    b.dispatch_enable(
        compute,
        vec![EnableSpec {
            successor: writeback,
            mapping: EnablementMapping::Identity,
        }],
    );
    b.dispatch(writeback);
    b.build().expect("fleet program is statically valid")
}

/// An open session of either driver.
enum Drive {
    Session(Session),
    Threaded(ThreadedSession),
}

impl Drive {
    fn step_until(&mut self, t: SimTime) -> Result<bool, EngineError> {
        match self {
            Drive::Session(s) => s.step_until(t),
            Drive::Threaded(s) => s.step_until(Some(t)),
        }
    }

    fn report(self) -> Result<RunReport, EngineError> {
        match self {
            Drive::Session(s) => s.report(),
            Drive::Threaded(s) => s.finish(),
        }
    }
}

/// Open `sim` on `driver` (the set-up half of a leg, after the build).
fn open(sim: Simulation, driver: Driver, tr: &mut Tracer) -> Result<Drive, EngineError> {
    Ok(match driver {
        Driver::Session => {
            let s = tr.enter("engine.into_session");
            let session = sim.into_session();
            tr.exit(s);
            Drive::Session(session?)
        }
        Driver::Threaded => {
            let s = tr.enter("shard.into_sharded");
            let run = sim.into_sharded();
            tr.exit(s);
            let s = tr.enter("shard_exec.new");
            let session = ThreadedSession::new(run?);
            tr.exit(s);
            Drive::Threaded(session)
        }
    })
}

/// Host seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One timed run of a leg: host times, heap high-water marks, the
/// report, and whether it matched the reference.
#[derive(Debug)]
pub struct LegRun {
    /// The final report.
    pub report: RunReport,
    /// `Ok` when the report's fingerprint matched the reference.
    pub verdict: Result<(), String>,
    /// Building the simulation from the seed.
    pub build_s: f64,
    /// Opening the session.
    pub open_s: f64,
    /// All `step_until` windows.
    pub drive_s: f64,
    /// Building the report.
    pub report_s: f64,
    /// Inputs to verified report.
    pub wall_s: f64,
    /// Host seconds of each `step_until` window.
    pub window_s: Vec<f64>,
    /// Heap the open phase added, MiB.
    pub open_heap_mb: f64,
    /// Heap the drive phase added, MiB.
    pub drive_heap_mb: f64,
    /// Heap the report phase added, MiB.
    pub report_heap_mb: f64,
    /// Peak heap over the whole leg above its starting point, MiB.
    pub peak_heap_mb: f64,
}

impl LegRun {
    /// Inputs to a ready session.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.open_s
    }

    /// Drive plus report host time per simulated event, ns.
    pub fn ns_per_event(&self) -> f64 {
        (self.drive_s + self.report_s) * 1e9 / self.report.events.max(1) as f64
    }
}

/// Run `leg` on `driver`, stepped in windows of `window` ticks, and check
/// its report against `want`.
pub fn timed_leg(
    spec: &Spec,
    leg: Leg,
    driver: Driver,
    window: u64,
    want: &Fingerprint,
    tr: &mut Tracer,
) -> Result<LegRun, EngineError> {
    let base = live_bytes();
    let mut peak = base;
    let leg_span = tr.enter(match driver {
        Driver::Session => "leg.session",
        Driver::Threaded => "leg.threaded",
    });
    let start = Instant::now();

    let heap = HeapPhase::start();
    let s = tr.enter("workloads.build");
    let sim = spec.simulation(leg);
    tr.exit(s);
    let build_s = secs(start);
    peak = peak.max(heap.peak_bytes());

    let t = Instant::now();
    let heap = HeapPhase::start();
    let mut drive = open(sim, driver, tr)?;
    let open_s = secs(t);
    let open_heap_mb = heap.peak_mb();
    peak = peak.max(heap.peak_bytes());

    let step_name = match driver {
        Driver::Session => "engine.step_until",
        Driver::Threaded => "shard_exec.step_until",
    };
    let t = Instant::now();
    let heap = HeapPhase::start();
    let mut window_s = Vec::with_capacity(WINDOWS as usize + 8);
    let mut limit = window;
    loop {
        let w = Instant::now();
        let s = tr.enter(step_name);
        let done = drive.step_until(SimTime(limit));
        tr.exit(s);
        window_s.push(secs(w));
        if done? {
            break;
        }
        limit += window;
    }
    let drive_s = secs(t);
    let drive_heap_mb = heap.peak_mb();
    peak = peak.max(heap.peak_bytes());

    let t = Instant::now();
    let heap = HeapPhase::start();
    let s = tr.enter(match driver {
        Driver::Session => "engine.report",
        Driver::Threaded => "shard_exec.finish",
    });
    let report = drive.report();
    tr.exit(s);
    let report = report?;
    let report_s = secs(t);
    let report_heap_mb = heap.peak_mb();
    peak = peak.max(heap.peak_bytes());

    let verdict =
        verify(&report, spec.jobs(leg)).and_then(|()| Fingerprint::of(&report).check(want));
    let wall_s = secs(start);
    tr.exit(leg_span);
    Ok(LegRun {
        report,
        verdict,
        build_s,
        open_s,
        drive_s,
        report_s,
        wall_s,
        window_s,
        open_heap_mb,
        drive_heap_mb,
        report_heap_mb,
        peak_heap_mb: (peak - base) as f64 / MIB,
    })
}

/// Host seconds to build `leg` from the seed and open it on `driver`:
/// the set-up half of [`timed_leg`], dropped unstarted.
pub fn setup_only(spec: &Spec, leg: Leg, driver: Driver) -> Result<f64, EngineError> {
    let t = Instant::now();
    drop(open(spec.simulation(leg), driver, &mut Tracer::off())?);
    Ok(secs(t))
}

/// Invariants every report must satisfy on its own: every job submitted
/// is reported, finished and not rejected, and utilization is a share.
pub fn verify(r: &RunReport, jobs: u64) -> Result<(), String> {
    if r.jobs.len() as u64 != jobs {
        return Err(format!("{} jobs reported, {jobs} submitted", r.jobs.len()));
    }
    if r.jobs_completed() as u64 != jobs || r.jobs_rejected != 0 {
        return Err(format!(
            "{} of {jobs} jobs finished, {} rejected",
            r.jobs_completed(),
            r.jobs_rejected
        ));
    }
    let u = r.utilization();
    if !(u > 0.0 && u <= 1.0) {
        return Err(format!("utilization {u} is not in (0, 1]"));
    }
    Ok(())
}

/// Jobs of `r` that were rejected or never finished.
pub fn failed_jobs(r: &RunReport) -> u64 {
    r.jobs.len() as u64 - r.jobs_completed() as u64
}

/// The reference path: the same simulation drained in one call on the
/// calling thread (`Session::drain`, or `run_sharded`'s epoch loop for
/// the fleet). Returns the report and the drain's host seconds.
pub fn reference(spec: &Spec, leg: Leg) -> Result<(RunReport, f64), EngineError> {
    let sim = spec.simulation(leg);
    match spec.driver() {
        Driver::Session => {
            let mut session = sim.into_session()?;
            let t = Instant::now();
            session.drain()?;
            let drive_s = secs(t);
            Ok((session.report()?, drive_s))
        }
        Driver::Threaded => {
            let mut run = sim.into_sharded()?;
            let t = Instant::now();
            run.step_until(None)?;
            let drive_s = secs(t);
            Ok((run_sharded(run)?, drive_s))
        }
    }
}

/// Epoch-level figures of one [`epoch_loop`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochStats {
    /// Epochs run.
    pub epochs: u64,
    /// Coordinator time: plan, absorb, drain and deliver admissions.
    pub coord_s: f64,
    /// Shard `run_window` time summed over shards and epochs.
    pub run_s: f64,
    /// Sum over epochs of the slowest shard's `run_window` time: what an
    /// ideal parallel driver with free barriers would spend running.
    pub critical_path_s: f64,
    /// Admissions delivered to shards.
    pub admissions: u64,
    /// Shards.
    pub shards: usize,
}

/// Drive the sharded decomposition of `leg` through the epoch protocol
/// by hand, one call at a time, in the same `window`-tick steps as the
/// timed path: `Coordinator::plan`, `ShardEngine::run_window` per shard,
/// `Coordinator::absorb`/`drain_admissions`, `ShardEngine::deliver`, and
/// finally `Coordinator::finish`. This is the sequence
/// `ShardedRun::step_until` runs; timing each call separates
/// coordinator, shard and (by difference with the threaded driver)
/// barrier time.
pub fn epoch_loop(
    spec: &Spec,
    leg: Leg,
    window: u64,
    tr: &mut Tracer,
) -> Result<(RunReport, EpochStats), EngineError> {
    let leg_span = tr.enter("leg.epoch_loop");
    let s = tr.enter("workloads.build");
    let sim = spec.simulation(leg);
    tr.exit(s);
    let s = tr.enter("shard.into_sharded");
    let run = sim.into_sharded();
    tr.exit(s);
    let (mut coord, mut shards) = run?.into_parts();
    let n = shards.len();
    let mut st = EpochStats {
        shards: n,
        ..EpochStats::default()
    };
    let mut admissions = Vec::new();
    let mut limit = SimTime(window);
    'windows: loop {
        loop {
            let t = Instant::now();
            let s = tr.enter("shard.plan");
            let plan = coord.plan();
            tr.exit(s);
            st.coord_s += secs(t);
            let window = match plan {
                EpochPlan::Done => break 'windows,
                EpochPlan::Stuck { unadmitted } => {
                    tr.exit(leg_span);
                    return Err(stuck_error(&coord, &unadmitted));
                }
                EpochPlan::Run { window } => window,
            };
            let e = tr.enter("shard.epoch");
            st.epochs += 1;
            let eff = Some(window.map_or(limit, |w| w.min(limit)));
            let mut slowest = 0.0f64;
            for shard in &mut shards {
                let t = Instant::now();
                let s = tr.enter("shard.run_window");
                shard.run_window(eff);
                tr.exit(s);
                let d = secs(t);
                st.run_s += d;
                slowest = slowest.max(d);
            }
            st.critical_path_s += slowest;
            let t = Instant::now();
            let s = tr.enter("shard.absorb");
            for shard in &shards {
                coord.absorb(shard.notes());
            }
            tr.exit(s);
            admissions.clear();
            let s = tr.enter("shard.drain_admissions");
            coord.drain_admissions(&mut admissions);
            tr.exit(s);
            for &(g, at) in &admissions {
                let s = tr.enter("shard.deliver");
                shards[g % n].deliver(g, at);
                tr.exit(s);
            }
            st.admissions += admissions.len() as u64;
            let paused = coord.paused_past(limit);
            st.coord_s += secs(t);
            tr.exit(e);
            if paused {
                break;
            }
        }
        limit = SimTime(limit.0 + window);
    }
    let s = tr.enter("shard.finish");
    let report = coord.finish(shards);
    tr.exit(s);
    tr.exit(leg_span);
    Ok((report?, st))
}

/// Host nanoseconds per event in the first and the last quarter of the
/// windows. Events are not observable per window through the public API,
/// so each quarter's share of `events` is apportioned by its share of
/// the busy-trace steps (one per change in the busy-processor count);
/// the figures are labelled derived.
pub fn quarter_ns_per_event(report: &RunReport, window_s: &[f64], window: u64) -> (f64, f64) {
    let n = window_s.len();
    let points = report.busy_trace.points();
    let quarter = |q: usize| {
        let (lo, hi) = (q * n / 4, (q + 1) * n / 4);
        let host: f64 = window_s[lo..hi].iter().sum();
        // Window i covers simulated time (i·window, (i+1)·window].
        let (t0, t1) = (lo as u64 * window, hi as u64 * window);
        let steps = points
            .iter()
            .filter(|(t, _)| (q == 0 || t.0 > t0) && t.0 <= t1)
            .count();
        let events = report.events as f64 * steps as f64 / points.len().max(1) as f64;
        host * 1e9 / events.max(1.0)
    };
    (quarter(0), quarter(3))
}
