//! One benchmark run: warm-up, timed iterations, correctness checks, and
//! the metrics they yield.
//!
//! The untraced run (`trace = false`) produces the end-to-end metrics.
//! Each iteration times the short and the long leg of the workload on its
//! timed driver and the long leg's reference path, in alternating order,
//! and checks every report's fingerprint.
//!
//! The traced run (`trace = true`) produces the per-layer metrics. It
//! alternates untraced long legs with traced iterations; a traced
//! iteration runs the long leg with spans on, the hand-driven epoch loop,
//! and (for the one-group workloads, whose timed path is the inline
//! session) the threaded driver.

use crate::fingerprint::{self, Fingerprint};
use crate::spans::Tracer;
use crate::stats::{median, percentile, quartiles};
use crate::workload::{
    epoch_loop, failed_jobs, quarter_ns_per_event, reference, setup_only, timed_leg, verify,
    Driver, Leg, LegRun, Spec, WINDOWS,
};
use pax_core::engine::EngineError;
use pax_core::report::RunReport;
use std::time::Instant;

/// Timed iterations an untraced run makes at least, however short
/// `seconds` is.
const MIN_ITERATIONS: usize = 3;
/// Extra set-ups timed per untraced iteration, so `setup_s`, which is
/// short, rests on many samples.
const SETUP_REPEATS: usize = 8;
/// Untraced/traced pairs a traced run makes at least.
const MIN_PAIRS: usize = 2;

/// A named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Lower and upper quartile over the iterations, when the metric is
    /// a median of per-iteration samples.
    pub spread: Option<(f64, f64, usize)>,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every report matched its reference and every job finished.
    pub correct: bool,
    /// Jobs submitted across every checked run.
    pub attempted: u64,
    /// Jobs rejected or unfinished, plus the jobs of runs that failed
    /// their check.
    pub failed: u64,
    /// The metrics of this mode.
    pub metrics: Vec<Metric>,
    /// Human-readable log lines (per-iteration samples, mismatches).
    pub log: Vec<String>,
    /// The recorded spans as JSON lines (traced runs only).
    pub spans: Option<String>,
}

/// The end-to-end metric names, with their units, in output order.
pub const END_TO_END: [(&str, &str); 11] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ns_per_event", "ns"),
    ("peak_heap_mb", "MB"),
    ("ns_per_event_growth", "ratio"),
    ("heap_growth", "ratio"),
    ("step_p50_ms", "ms"),
    ("step_p99_ms", "ms"),
    ("shard_speedup", "ratio"),
    ("sim_utilization", "ratio"),
    ("sim_latency_p99_ticks", "ticks"),
];

/// The per-layer metric names, with their units, in output order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("workloads.build_s", "s"),
    ("engine.open_s", "s"),
    ("engine.open_heap_mb", "MB"),
    ("engine.arrivals", "count"),
    ("engine.drive_s", "s"),
    ("engine.drive_heap_mb", "MB"),
    ("engine.windows", "count"),
    ("engine.events", "count"),
    ("engine.tasks", "count"),
    ("engine.ns_per_event_q1", "ns"),
    ("engine.ns_per_event_q4", "ns"),
    ("engine.instances_peak", "count"),
    ("engine.jobs_rejected", "count"),
    ("descriptor.created", "count"),
    ("descriptor.peak", "count"),
    ("descriptor.splits", "count"),
    ("report.s", "s"),
    ("report.heap_mb", "MB"),
    ("report.trace_steps", "count"),
    ("shard.epochs", "count"),
    ("shard.coord_s", "s"),
    ("shard.run_s", "s"),
    ("shard.critical_path_s", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.admissions", "count"),
    ("shard_exec.drive_s", "s"),
    ("shard_exec.barrier_s", "s"),
    ("shard_exec.barrier_us_per_epoch", "us"),
    ("faults.crashes", "count"),
    ("faults.retries", "count"),
    ("faults.lost_work_ticks", "ticks"),
    ("machine.pool_waits", "count"),
    ("machine.pool_wait_ticks", "ticks"),
    ("machine.fast_class_tasks", "count"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// Per-iteration samples of named metrics.
#[derive(Default)]
struct Samples(Vec<(&'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, xs)) => xs.push(v),
            None => self.0.push((name, vec![v])),
        }
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, xs)| xs.as_slice())
    }

    /// Median-with-quartiles metrics for every name in `names`.
    fn metrics(&self, names: &[(&'static str, &'static str)]) -> Vec<Metric> {
        names
            .iter()
            .map(|&(name, unit)| {
                let xs = self.get(name);
                let (q1, q3) = quartiles(xs);
                Metric {
                    name,
                    value: median(xs),
                    unit,
                    spread: Some((q1, q3, xs.len())),
                }
            })
            .collect()
    }
}

/// Bookkeeping of the correctness gate.
struct Gate {
    attempted: u64,
    failed: u64,
    log: Vec<String>,
}

impl Gate {
    /// Count a checked run of `jobs` jobs.
    fn check(&mut self, what: &str, jobs: u64, report: &RunReport, verdict: Result<(), String>) {
        self.attempted += jobs;
        match verdict {
            Ok(()) => self.failed += failed_jobs(report),
            Err(e) => {
                self.failed += jobs;
                self.log.push(format!("MISMATCH {what}: {e}"));
            }
        }
    }

    fn error(&mut self, what: &str, jobs: u64, e: EngineError) {
        self.attempted += jobs;
        self.failed += jobs;
        self.log.push(format!("ERROR {what}: {e}"));
    }
}

/// The reference fingerprints and window length a run checks against.
struct Baseline {
    long: Fingerprint,
    short: Fingerprint,
    window: u64,
}

/// Run the reference path on both legs (untimed; also the first half of
/// the warm-up) and check the long leg against the committed fingerprint
/// when one is recorded for this seed.
fn baseline(spec: &Spec, gate: &mut Gate) -> Result<Baseline, EngineError> {
    let (long, _) = reference(spec, Leg::Long)?;
    let (short, _) = reference(spec, Leg::Short)?;
    let mut fp = |what, leg, r: &RunReport| {
        let verdict = verify(r, spec.jobs(leg));
        gate.check(what, spec.jobs(leg), r, verdict);
        Fingerprint::of(r)
    };
    let (fp_long, fp_short) = (
        fp("reference long", Leg::Long, &long),
        fp("reference short", Leg::Short, &short),
    );
    if spec.scale == crate::workload::Scale::Full {
        if let Some(want) = fingerprint::committed(spec.workload.name(), spec.seed) {
            let verdict = fp_long.check(&want);
            gate.check(
                "committed fingerprint",
                spec.jobs(Leg::Long),
                &long,
                verdict,
            );
        }
    }
    gate.log.push(format!(
        "reference {} seed {}: {fp_long}",
        spec.workload.name(),
        spec.seed
    ));
    Ok(Baseline {
        long: fp_long,
        short: fp_short,
        window: long.makespan.ticks().div_ceil(WINDOWS).max(1),
    })
}

/// Run the benchmark for `spec` for about `seconds` seconds.
pub fn run(spec: &Spec, seconds: f64, trace: bool) -> Outcome {
    let mut gate = Gate {
        attempted: 0,
        failed: 0,
        log: Vec::new(),
    };
    let mut tracer = if trace {
        Tracer::on(spec.workload.name())
    } else {
        Tracer::off()
    };
    let result = match baseline(spec, &mut gate) {
        Ok(base) => {
            if trace {
                traced(spec, &base, seconds, &mut gate, &mut tracer)
            } else {
                untraced(spec, &base, seconds, &mut gate)
            }
        }
        Err(e) => Err(e),
    };
    let metrics = match result {
        Ok(metrics) => metrics,
        Err(e) => {
            gate.error("run", spec.jobs(Leg::Long), e);
            Vec::new()
        }
    };
    let mut metrics = metrics;
    if trace {
        metrics.push(Metric {
            name: "failed_frac",
            value: gate.failed as f64 / gate.attempted.max(1) as f64,
            unit: "ratio",
            spread: None,
        });
    }
    Outcome {
        correct: gate.failed == 0 && gate.attempted > 0,
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        log: gate.log,
        spans: trace.then(|| tracer.to_jsonl()),
    }
}

/// The end-to-end run.
fn untraced(
    spec: &Spec,
    base: &Baseline,
    seconds: f64,
    gate: &mut Gate,
) -> Result<Vec<Metric>, EngineError> {
    let mut off = Tracer::off();
    let driver = spec.driver();
    // Warm-up: one discarded pass over both legs.
    timed_leg(spec, Leg::Short, driver, base.window, &base.short, &mut off)?;
    timed_leg(spec, Leg::Long, driver, base.window, &base.long, &mut off)?;

    let mut s = Samples::default();
    let mut last: Option<LegRun> = None;
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        // Alternate which path runs first so drift hits both alike.
        let mut ref_drive = 0.0;
        let mut run_ref = |gate: &mut Gate| -> Result<(), EngineError> {
            let (r, drive_s) = reference(spec, Leg::Long)?;
            let verdict = verify(&r, spec.jobs(Leg::Long))
                .and_then(|()| Fingerprint::of(&r).check(&base.long));
            gate.check("reference", spec.jobs(Leg::Long), &r, verdict);
            ref_drive = drive_s;
            Ok(())
        };
        if !i.is_multiple_of(2) {
            run_ref(gate)?;
        }
        let short = timed_leg(spec, Leg::Short, driver, base.window, &base.short, &mut off)?;
        let long = timed_leg(spec, Leg::Long, driver, base.window, &base.long, &mut off)?;
        if i.is_multiple_of(2) {
            run_ref(gate)?;
        }
        gate.check(
            "short leg",
            spec.jobs(Leg::Short),
            &short.report,
            short.verdict.clone(),
        );
        gate.check(
            "long leg",
            spec.jobs(Leg::Long),
            &long.report,
            long.verdict.clone(),
        );

        s.push("wall_s", long.wall_s);
        s.push("setup_s", long.setup_s());
        for _ in 0..SETUP_REPEATS {
            s.push("setup_s", setup_only(spec, Leg::Long, driver)?);
        }
        s.push("ns_per_event", long.ns_per_event());
        s.push("peak_heap_mb", long.peak_heap_mb);
        s.push(
            "ns_per_event_growth",
            long.ns_per_event() / short.ns_per_event(),
        );
        s.push("heap_growth", long.peak_heap_mb / short.peak_heap_mb);
        s.push("step_p50_ms", percentile(&long.window_s, 0.50) * 1e3);
        s.push("step_p99_ms", percentile(&long.window_s, 0.99) * 1e3);
        s.push("shard_speedup", ref_drive / long.drive_s);
        gate.log.push(format!(
            "iteration {i}: long wall {:.4} s setup {:.4} s drive {:.4} s report {:.4} s \
             heap {:.2} MB | short wall {:.4} s | reference drive {ref_drive:.4} s",
            long.wall_s,
            long.setup_s(),
            long.drive_s,
            long.report_s,
            long.peak_heap_mb,
            short.wall_s
        ));
        last = Some(long);
        i += 1;
    }
    let long = last.expect("at least one iteration ran");
    let r = &long.report;
    s.push("sim_utilization", r.utilization());
    s.push(
        "sim_latency_p99_ticks",
        r.latency_p99().map_or(0, |d| d.ticks()) as f64,
    );
    Ok(s.metrics(&END_TO_END))
}

/// The per-layer run.
fn traced(
    spec: &Spec,
    base: &Baseline,
    seconds: f64,
    gate: &mut Gate,
    tr: &mut Tracer,
) -> Result<Vec<Metric>, EngineError> {
    let mut off = Tracer::off();
    let driver = spec.driver();
    let jobs = spec.jobs(Leg::Long);
    // Warm-up, discarded.
    timed_leg(spec, Leg::Long, driver, base.window, &base.long, &mut off)?;

    let mut s = Samples::default();
    let mut untraced_wall = Vec::new();
    let start = Instant::now();
    let mut i = 0u32;
    while (i as usize) < MIN_PAIRS || start.elapsed().as_secs_f64() < seconds {
        let plain = |gate: &mut Gate, off: &mut Tracer| -> Result<f64, EngineError> {
            let r = timed_leg(spec, Leg::Long, driver, base.window, &base.long, off)?;
            gate.check("untraced leg", jobs, &r.report, r.verdict.clone());
            Ok(r.wall_s)
        };
        if !i.is_multiple_of(2) {
            untraced_wall.push(plain(gate, &mut off)?);
        }
        tr.set_iteration(i);
        let it = tr.enter("iteration");
        let leg = timed_leg(spec, Leg::Long, driver, base.window, &base.long, tr)?;
        gate.check("traced leg", jobs, &leg.report, leg.verdict.clone());
        // Per-epoch spans are recorded for the first traced iteration
        // only: tens of thousands of epochs per run would otherwise make
        // the span file hundreds of megabytes. The epoch figures are
        // timed in every iteration either way.
        let loop_tracer = if i == 0 { &mut *tr } else { &mut off };
        let (loop_report, ep) = epoch_loop(spec, Leg::Long, base.window, loop_tracer)?;
        let verdict = verify(&loop_report, jobs)
            .and_then(|()| Fingerprint::of(&loop_report).check(&base.long));
        gate.check("epoch loop", jobs, &loop_report, verdict);
        let threaded_drive_s = match driver {
            Driver::Threaded => leg.drive_s,
            Driver::Session => {
                let t = timed_leg(
                    spec,
                    Leg::Long,
                    Driver::Threaded,
                    base.window,
                    &base.long,
                    tr,
                )?;
                gate.check("threaded leg", jobs, &t.report, t.verdict.clone());
                t.drive_s
            }
        };
        tr.exit(it);
        if i.is_multiple_of(2) {
            untraced_wall.push(plain(gate, &mut off)?);
        }

        let r = &leg.report;
        let (q1, q4) = quarter_ns_per_event(r, &leg.window_s, base.window);
        // The threaded drive less what the same epochs cost run back to
        // back on one thread: the time the barriers add.
        let barrier_s = threaded_drive_s - ep.coord_s - ep.critical_path_s;
        let layer: [(&'static str, f64); 34] = [
            ("workloads.build_s", leg.build_s),
            ("engine.open_s", leg.open_s),
            ("engine.open_heap_mb", leg.open_heap_mb),
            ("engine.arrivals", r.jobs.len() as f64),
            ("engine.drive_s", leg.drive_s),
            ("engine.drive_heap_mb", leg.drive_heap_mb),
            ("engine.windows", leg.window_s.len() as f64),
            ("engine.events", r.events as f64),
            ("engine.tasks", r.tasks_dispatched as f64),
            ("engine.ns_per_event_q1", q1),
            ("engine.ns_per_event_q4", q4),
            ("engine.instances_peak", r.instances_peak as f64),
            ("engine.jobs_rejected", r.jobs_rejected as f64),
            ("descriptor.created", r.descriptors_created as f64),
            ("descriptor.peak", r.descriptors_peak as f64),
            ("descriptor.splits", r.splits as f64),
            ("report.s", leg.report_s),
            ("report.heap_mb", leg.report_heap_mb),
            (
                "report.trace_steps",
                (r.busy_trace.points().len()
                    + r.mgmt_trace.points().len()
                    + r.avail_trace.points().len()) as f64,
            ),
            ("shard.epochs", ep.epochs as f64),
            ("shard.coord_s", ep.coord_s),
            ("shard.run_s", ep.run_s),
            ("shard.critical_path_s", ep.critical_path_s),
            (
                "shard.imbalance",
                ep.critical_path_s * ep.shards as f64 / ep.run_s.max(f64::MIN_POSITIVE),
            ),
            ("shard.admissions", ep.admissions as f64),
            ("shard_exec.drive_s", threaded_drive_s),
            ("shard_exec.barrier_s", barrier_s),
            (
                "shard_exec.barrier_us_per_epoch",
                barrier_s * 1e6 / ep.epochs.max(1) as f64,
            ),
            ("faults.crashes", r.crashes as f64),
            ("faults.retries", r.retries as f64),
            ("faults.lost_work_ticks", r.lost_work.ticks() as f64),
            (
                "machine.pool_waits",
                r.pool_reports.iter().map(|p| p.waits).sum::<u64>() as f64,
            ),
            (
                "machine.pool_wait_ticks",
                r.pool_reports
                    .iter()
                    .map(|p| p.wait_ticks.ticks())
                    .sum::<u64>() as f64,
            ),
            (
                "machine.fast_class_tasks",
                r.class_reports.first().map_or(0, |c| c.tasks) as f64,
            ),
        ];
        for (name, v) in layer {
            s.push(name, v);
        }
        s.push("trace.traced_wall_s", leg.wall_s);
        gate.log.push(format!(
            "traced iteration {i}: wall {:.4} s drive {:.4} s report {:.4} s | epochs {} \
             coord {:.4} s run {:.4} s critical {:.4} s | threaded drive {threaded_drive_s:.4} s",
            leg.wall_s,
            leg.drive_s,
            leg.report_s,
            ep.epochs,
            ep.coord_s,
            ep.run_s,
            ep.critical_path_s
        ));
        i += 1;
    }
    let overhead = median(s.get("trace.traced_wall_s")) / median(&untraced_wall) - 1.0;
    // The last two per-layer metrics are not per-iteration samples:
    // the overhead is a ratio of medians, `failed_frac` is added by `run`.
    let mut metrics = s.metrics(&PER_LAYER[..PER_LAYER.len() - 2]);
    metrics.push(Metric {
        name: "trace.overhead_frac",
        value: overhead,
        unit: "ratio",
        spread: None,
    });
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Scale, Workload};

    #[test]
    fn a_mismatch_fails_every_job_of_its_run() {
        let spec = Spec {
            workload: Workload::ServiceStream,
            scale: Scale::Tiny,
            seed: 3,
        };
        let (r, _) = reference(&spec, Leg::Short).unwrap();
        let jobs = spec.jobs(Leg::Short);
        let mut gate = Gate {
            attempted: 0,
            failed: 0,
            log: Vec::new(),
        };
        gate.check("matching run", jobs, &r, Ok(()));
        assert_eq!((gate.attempted, gate.failed), (jobs, 0));
        gate.check("perturbed run", jobs, &r, Err("events 1 != 2".into()));
        assert_eq!((gate.attempted, gate.failed), (2 * jobs, jobs));
        assert!(gate.log[0].starts_with("MISMATCH perturbed run"));
    }
}
