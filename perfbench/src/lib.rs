//! The PAX reproduction's benchmark: three workloads run through the
//! public API, checked against reference paths, and measured end to end
//! (untraced) and per layer (traced). See `README.md` for the workloads,
//! the metrics and what each layer metric is expected to move.

pub mod alloc;
pub mod fingerprint;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;

/// Every allocation of the benchmark (and of its tests) is counted.
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seed the committed fingerprints in `fingerprints.txt` are recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// One run's result as the single-line JSON object the benchmark prints
/// last: `correct`, `attempted`, `failed` and `metrics` (name → value and
/// unit). A value that is not finite is written as `null`.
pub fn result_json(outcome: &run::Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
