//! Report fingerprints: the correctness gate of every timed run.
//!
//! Each run's [`RunReport`] is reduced to a [`Fingerprint`] and compared
//! with the fingerprint of a reference path through the same simulation
//! (the drivers are pinned bit-identical), and, at a committed seed, with
//! the fingerprint recorded in `fingerprints.txt`.

use pax_core::report::RunReport;
use std::fmt;

/// The fields of a [`RunReport`] a correct run must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Events processed.
    pub events: u64,
    /// Simulated makespan in ticks.
    pub makespan: u64,
    /// Tasks dispatched, retries included.
    pub tasks: u64,
    /// Bits of the processor utilization (`f64::to_bits`).
    pub utilization_bits: u64,
    /// Median job latency in ticks (0 when no job finished).
    pub latency_p50: u64,
    /// 99th-percentile job latency in ticks (0 when no job finished).
    pub latency_p99: u64,
    /// Processor crashes injected.
    pub crashes: u64,
    /// Tasks reissued after a crash.
    pub retries: u64,
    /// Dispatches that waited for a resource token, summed over pools.
    pub pool_waits: u64,
}

impl Fingerprint {
    /// Reduce a report to its fingerprint.
    pub fn of(r: &RunReport) -> Fingerprint {
        Fingerprint {
            events: r.events,
            makespan: r.makespan.ticks(),
            tasks: r.tasks_dispatched,
            utilization_bits: r.utilization().to_bits(),
            latency_p50: r.latency_p50().map_or(0, |d| d.ticks()),
            latency_p99: r.latency_p99().map_or(0, |d| d.ticks()),
            crashes: r.crashes,
            retries: r.retries,
            pool_waits: r.pool_reports.iter().map(|p| p.waits).sum(),
        }
    }

    fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("events", self.events),
            ("makespan", self.makespan),
            ("tasks", self.tasks),
            ("utilization_bits", self.utilization_bits),
            ("latency_p50", self.latency_p50),
            ("latency_p99", self.latency_p99),
            ("crashes", self.crashes),
            ("retries", self.retries),
            ("pool_waits", self.pool_waits),
        ]
    }

    /// Parse the `key=value` form [`fmt::Display`] writes, fields in the
    /// same order.
    pub fn parse(s: &str) -> Result<Fingerprint, String> {
        let names = Fingerprint::of_fields([0; 9]).fields().map(|(k, _)| k);
        let toks: Vec<&str> = s.split_whitespace().collect();
        if toks.len() != names.len() {
            return Err(format!(
                "fingerprint has {} fields, expected {}",
                toks.len(),
                names.len()
            ));
        }
        let mut v = [0u64; 9];
        for ((tok, name), slot) in toks.iter().zip(names).zip(&mut v) {
            *slot = tok
                .strip_prefix(name)
                .and_then(|rest| rest.strip_prefix('='))
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("fingerprint field `{tok}` is not {name}=<integer>"))?;
        }
        Ok(Fingerprint::of_fields(v))
    }

    fn of_fields(v: [u64; 9]) -> Fingerprint {
        let [events, makespan, tasks, utilization_bits, latency_p50, latency_p99, crashes, retries, pool_waits] =
            v;
        Fingerprint {
            events,
            makespan,
            tasks,
            utilization_bits,
            latency_p50,
            latency_p99,
            crashes,
            retries,
            pool_waits,
        }
    }

    /// `Ok` when `self` equals `want`; otherwise the differing fields.
    pub fn check(&self, want: &Fingerprint) -> Result<(), String> {
        let diffs: Vec<String> = self
            .fields()
            .iter()
            .zip(want.fields())
            .filter(|(got, want)| got.1 != want.1)
            .map(|(got, want)| format!("{} {} != {}", got.0, got.1, want.1))
            .collect();
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(diffs.join(", "))
        }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for (k, v) in self.fields() {
            write!(f, "{sep}{k}={v}")?;
            sep = " ";
        }
        Ok(())
    }
}

/// The committed fingerprints, one `workload seed key=value…` per line.
const COMMITTED: &str = include_str!("../fingerprints.txt");

/// The committed fingerprint of `workload`'s full-size long leg at `seed`,
/// if one is recorded.
pub fn committed(workload: &str, seed: u64) -> Option<Fingerprint> {
    COMMITTED.lines().find_map(|line| {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let mut parts = line.splitn(3, ' ');
        let (w, s, rest) = (parts.next()?, parts.next()?, parts.next()?);
        if w != workload || s.parse::<u64>().ok()? != seed {
            return None;
        }
        Some(Fingerprint::parse(rest).expect("committed fingerprint parses"))
    })
}
