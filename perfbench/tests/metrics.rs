//! The benchmark's own checks, at tiny input sizes.

use perfbench::fingerprint::{self, Fingerprint};
use perfbench::run::{run, END_TO_END, PER_LAYER};
use perfbench::spans::Tracer;
use perfbench::workload::{epoch_loop, reference, timed_leg, Driver, Leg, Scale, Spec, Workload};
use perfbench::{result_json, DEFAULT_SEED};

fn tiny(workload: Workload) -> Spec {
    Spec {
        workload,
        scale: Scale::Tiny,
        seed: 7,
    }
}

/// Window length giving about 50 windows over the reference makespan.
fn window(reference: &pax_core::report::RunReport) -> u64 {
    reference.makespan.ticks().div_ceil(50).max(1)
}

fn assert_emits(trace: bool, names: &[(&str, &str)]) {
    for w in Workload::ALL {
        let out = run(&tiny(w), 0.0, trace);
        assert!(out.correct, "{}: {:?}", w.name(), out.log);
        assert_eq!(out.failed, 0);
        assert!(out.attempted >= 1);
        let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(got, names, "{}: metric names and units", w.name());
        for m in &out.metrics {
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
            assert!(!m.unit.is_empty());
        }
        let json = result_json(&out);
        assert!(json.starts_with("{\"correct\": true, "), "{json}");
        assert!(!json.contains("null"), "{json}");
    }
}

#[test]
fn every_end_to_end_metric_is_emitted_finite_with_a_unit() {
    assert_emits(false, &END_TO_END);
}

#[test]
fn every_per_layer_metric_is_emitted_finite_with_a_unit() {
    assert_emits(true, &PER_LAYER);
}

#[test]
fn a_perturbed_fingerprint_is_rejected() {
    let spec = tiny(Workload::ServiceStream);
    let (r, _) = reference(&spec, Leg::Long).unwrap();
    let good = Fingerprint::of(&r);
    let leg = timed_leg(
        &spec,
        Leg::Long,
        spec.driver(),
        window(&r),
        &good,
        &mut Tracer::off(),
    );
    assert_eq!(leg.unwrap().verdict, Ok(()));

    let mut bad = good;
    bad.events += 1;
    assert!(bad.check(&good).unwrap_err().contains("events"));
    let leg = timed_leg(
        &spec,
        Leg::Long,
        spec.driver(),
        window(&r),
        &bad,
        &mut Tracer::off(),
    );
    assert!(
        leg.unwrap().verdict.is_err(),
        "a wrong reference must fail the run"
    );

    let mut bad = good;
    bad.utilization_bits ^= 1;
    assert!(
        bad.check(&good).is_err(),
        "utilization is compared bit for bit"
    );
}

#[test]
fn fingerprints_round_trip_and_are_committed_for_every_workload() {
    let (r, _) = reference(&tiny(Workload::FleetChains), Leg::Short).unwrap();
    let fp = Fingerprint::of(&r);
    assert_eq!(Fingerprint::parse(&fp.to_string()), Ok(fp));
    assert!(Fingerprint::parse("events=1").is_err());
    for w in Workload::ALL {
        assert!(
            fingerprint::committed(w.name(), DEFAULT_SEED).is_some(),
            "{} has no committed fingerprint at the default seed",
            w.name()
        );
    }
}

#[test]
fn traced_reports_equal_untraced_ones_on_every_driver() {
    for w in Workload::ALL {
        let spec = tiny(w);
        let (r, _) = reference(&spec, Leg::Long).unwrap();
        let want = Fingerprint::of(&r);
        let win = window(&r);
        let plain = timed_leg(
            &spec,
            Leg::Long,
            spec.driver(),
            win,
            &want,
            &mut Tracer::off(),
        )
        .unwrap();
        let mut tr = Tracer::on(w.name());
        let traced = timed_leg(&spec, Leg::Long, spec.driver(), win, &want, &mut tr).unwrap();
        assert_eq!(plain.verdict, Ok(()));
        assert_eq!(traced.verdict, Ok(()));
        assert_eq!(
            plain.report.busy_trace.points(),
            traced.report.busy_trace.points()
        );
        assert_eq!(plain.window_s.len(), traced.window_s.len());
        let threaded = timed_leg(&spec, Leg::Long, Driver::Threaded, win, &want, &mut tr).unwrap();
        assert_eq!(threaded.verdict, Ok(()), "{}", w.name());
        let (looped, stats) = epoch_loop(&spec, Leg::Long, win, &mut tr).unwrap();
        assert_eq!(Fingerprint::of(&looped), want, "{}: epoch loop", w.name());
        assert!(stats.epochs >= plain.window_s.len() as u64 / 2);
        assert_eq!(tr.count("shard.epoch", 0), stats.epochs as usize);
        // Self time never exceeds total time, and the leg spans enclose
        // their calls.
        for (name, (count, total, self_s)) in tr.self_times() {
            assert!(count > 0 && self_s <= total + 1e-9, "{name}");
        }
        assert!(tr
            .spans()
            .iter()
            .all(|s| s.parent.is_some() || s.name.starts_with("leg.")));
    }
}

#[test]
fn benchmark_json_lists_the_emitted_metrics_in_order() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(json) = std::fs::read_to_string(path) else {
        return; // the benchmark directory on its own, without the repository
    };
    // `(name, unit)` of every entry between `"key"` and `"next"`; the unit
    // is empty for workloads.
    let section = |key: &str, next: &str| -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let end = json[start..]
            .find(&format!("\"{next}\""))
            .map_or(json.len(), |e| start + e);
        let field = |s: &str, k: &str| {
            s.split_once(&format!("\"{k}\": \""))
                .map_or(String::new(), |(_, v)| {
                    v[..v.find('"').unwrap()].to_string()
                })
        };
        json[start..end]
            .split("\"name\": ")
            .skip(1)
            .map(|s| (field(&format!("\"name\": {s}"), "name"), field(s, "unit")))
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(section("end_to_end", "per_layer"), owned(&END_TO_END));
    assert_eq!(section("per_layer", "run_seconds"), owned(&PER_LAYER));
    for (name, _) in section("workloads", "end_to_end") {
        assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
    }
}
