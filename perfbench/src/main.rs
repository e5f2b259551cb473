//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds and prints per-iteration
//! samples, a summary table (median, quartiles, sample count), and, as the
//! last line, the result JSON. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` the per-layer metrics, and writes the spans it recorded to
//! `spans/<workload>-seed<n>.jsonl` in the package directory. Exits 1 when
//! any report fails its check, 2 on bad arguments.

use perfbench::run::run;
use perfbench::workload::{Scale, Spec, Workload};
use perfbench::{result_json, DEFAULT_SEED};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec {
        workload: args.workload,
        scale: Scale::Full,
        seed: args.seed,
    };
    println!(
        "perfbench {} seed {} seconds {} trace {} (threads available: {})",
        spec.workload.name(),
        spec.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = run(&spec, args.seconds, args.trace);
    for line in &outcome.log {
        println!("{line}");
    }
    println!(
        "{:<34} {:>14} {:>14} {:>14} {:>4}  unit",
        "metric", "median", "q1", "q3", "n"
    );
    for m in &outcome.metrics {
        match m.spread {
            Some((q1, q3, n)) => println!(
                "{:<34} {:>14.6} {:>14.6} {:>14.6} {:>4}  {}",
                m.name, m.value, q1, q3, n, m.unit
            ),
            None => println!(
                "{:<34} {:>14.6} {:>14} {:>14} {:>4}  {}",
                m.name, m.value, "", "", 1, m.unit
            ),
        }
    }
    if let Some(spans) = &outcome.spans {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("spans");
        let path = dir.join(format!("{}-seed{}.jsonl", spec.workload.name(), spec.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
