//! Microbenchmarks of the executive's core data structures: the
//! deterministic event queue, the range-set merge (the paper's
//! split/merge descriptions), composite-map construction, the conflict
//! queue, and the automatic classifier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pax_core::descriptor::DescArena;
use pax_core::ids::{GranuleRange, InstanceId, JobId};
use pax_core::mapping::{CompositeMap, ReverseMap};
use pax_core::rangeset::RangeSet;
use pax_sim::event::EventQueue;
use pax_sim::SimTime;
use rand::Rng;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for &n in &[1_000usize, 10_000] {
        g.bench_with_input(BenchmarkId::new("schedule_pop", n), &n, |b, &n| {
            let mut rng = pax_sim::seeded_rng(1);
            let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
            b.iter(|| {
                let mut q = EventQueue::with_capacity(n);
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(SimTime(t), i);
                }
                let mut count = 0;
                while q.pop().is_some() {
                    count += 1;
                }
                count
            })
        });
    }
    g.finish();
}

fn bench_rangeset(c: &mut Criterion) {
    let mut g = c.benchmark_group("rangeset_merge");
    for &n in &[1_000u32, 10_000] {
        g.bench_with_input(BenchmarkId::new("random_inserts", n), &n, |b, &n| {
            let mut rng = pax_sim::seeded_rng(2);
            let ranges: Vec<(u32, u32)> = (0..n)
                .map(|_| {
                    let lo = rng.gen_range(0..n * 4);
                    (lo, lo + rng.gen_range(1..8u32))
                })
                .collect();
            b.iter(|| {
                let mut s = RangeSet::new();
                for &(lo, hi) in &ranges {
                    s.insert(GranuleRange::new(lo, hi));
                }
                s.len()
            })
        });
    }
    g.finish();
}

fn bench_composite_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("composite_map_build");
    for &n in &[256u32, 2048] {
        g.bench_with_input(BenchmarkId::new("reverse_fan10", n), &n, |b, &n| {
            let mut rng = pax_sim::seeded_rng(3);
            let lists: Vec<Vec<u32>> = (0..n)
                .map(|_| (0..10).map(|_| rng.gen_range(0..n)).collect())
                .collect();
            let rmap = ReverseMap::new(lists, n);
            b.iter(|| CompositeMap::from_reverse(&rmap, n).entries())
        });
    }
    g.finish();
}

fn bench_conflict_queue(c: &mut Criterion) {
    c.bench_function("conflict_queue_push_drain_1000", |b| {
        b.iter(|| {
            let mut a = DescArena::new();
            let owner = a.alloc(InstanceId(0), JobId(0), GranuleRange::new(0, 10));
            let members: Vec<_> = (0..1000)
                .map(|i| a.alloc(InstanceId(1), JobId(0), GranuleRange::new(i, i + 1)))
                .collect();
            for &m in &members {
                a.cq_push(owner, m);
            }
            a.cq_drain(owner).len()
        })
    });
}

fn bench_classifier(c: &mut Criterion) {
    use pax_workloads::casper::CasperConfig;
    c.bench_function("classify_casper_model_48", |b| {
        let cfg = CasperConfig {
            granules: 48,
            ..CasperConfig::default()
        };
        let model = cfg.array_model();
        b.iter(|| pax_analyze::classify_program(&model).len())
    });
}

fn bench_waiting_queue_scan(c: &mut Criterion) {
    use pax_core::descriptor::QueueClass;
    use pax_core::ids::DescId;
    use pax_core::queue::WaitingQueue;
    let mut g = c.benchmark_group("waiting_queue_pop_matching");
    // worst case: nothing matches, the scan walks the full window then
    // falls back to the head — the price of one proximity miss
    for &window in &[4usize, 32, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            b.iter(|| {
                let mut q = WaitingQueue::new(1);
                for i in 0..512u32 {
                    q.push_back(DescId(i), QueueClass::Normal, JobId(0));
                }
                let mut popped = 0;
                while q.pop_matching(w, |_| false).is_some() {
                    popped += 1;
                }
                popped
            })
        });
    }
    g.finish();
}

/// Round-robin seek cost against the number of job streams. `one_job`
/// is a push+pop pair on a single-job queue, the path every CASPER run and
/// every fleet group engine takes. `open8_of_10000` is a 10 000-job stream
/// with 8 jobs holding work, as in a service run at its admission bound:
/// each pair is followed by one empty seek, the idle worker's probe.
/// Rows time 10 000 pairs per iteration.
fn bench_waiting_queue_seek(c: &mut Criterion) {
    use criterion::black_box;
    use pax_core::descriptor::QueueClass;
    use pax_core::ids::DescId;
    use pax_core::queue::WaitingQueue;
    const PAIRS: u32 = 10_000;
    let mut g = c.benchmark_group("waiting_queue_seek");
    g.sample_size(50);
    g.bench_function("one_job", |b| {
        let mut q = WaitingQueue::new(1);
        b.iter(|| {
            let mut sum = 0u32;
            for i in 0..PAIRS {
                q.push_back(DescId(i), QueueClass::Normal, JobId(0));
                sum = sum.wrapping_add(black_box(&mut q).pop().map_or(0, |d| d.0));
            }
            sum
        })
    });
    g.bench_function("open8_of_10000", |b| {
        let jobs = 10_000u32;
        let open: Vec<u32> = (0..8).map(|k| k * jobs / 8 + 7).collect();
        let mut q = WaitingQueue::new(jobs as usize);
        b.iter(|| {
            let mut sum = 0u32;
            for i in 0..PAIRS {
                let job = open[(i % 8) as usize];
                q.push_back(DescId(i), QueueClass::Normal, JobId(job));
                sum = sum.wrapping_add(black_box(&mut q).pop().map_or(0, |d| d.0));
                sum = sum.wrapping_add(black_box(&mut q).pop().map_or(1, |d| d.0));
            }
            sum
        })
    });
    g.finish();
}

fn bench_locality_remote_count(c: &mut Criterion) {
    use pax_sim::locality::{DataLayout, LocalityModel};
    use pax_sim::time::SimDuration;
    let mut g = c.benchmark_group("locality_remote_granules");
    for (label, layout) in [("block", DataLayout::Block), ("cyclic", DataLayout::Cyclic)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &layout, |b, &layout| {
            let loc = LocalityModel::new(8, SimDuration(5)).with_layout(layout);
            b.iter(|| {
                let mut total = 0u64;
                for lo in (0..1_000_000u32).step_by(4096) {
                    total += loc.remote_granules(lo, lo + 4096, 1_048_576, 3);
                }
                total
            })
        });
    }
    g.finish();
}

/// The enablement-heavy hot loop end to end: a two-phase identity-mapped
/// program at 10⁴–10⁵ granules with single-granule tasks and demand
/// splitting, so every dispatch mirrors a successor split and every
/// completion releases a conflict-queued piece. This is the scenario the
/// allocation-free completion path (scratch buffers, interned steps, O(1)
/// live-list removal) is measured by; `BENCH_rundown.json` tracks the same
/// shape against the recorded pre-optimization baseline.
fn bench_enablement_completion(c: &mut Criterion) {
    use pax_core::prelude::*;
    use pax_sim::machine::MachineConfig;
    use pax_sim::CostModel;
    let mut g = c.benchmark_group("enablement_completion");
    g.sample_size(5);
    for &n in &[10_000u32, 100_000] {
        g.bench_with_input(BenchmarkId::new("identity_demand_split", n), &n, |b, &n| {
            let mut pb = ProgramBuilder::new();
            let a = pb.phase(PhaseDef::new("a", n, CostModel::constant(100)));
            let s = pb.phase(PhaseDef::new("b", n, CostModel::constant(100)));
            pb.dispatch_enable(
                a,
                vec![EnableSpec {
                    successor: s,
                    mapping: EnablementMapping::Identity,
                }],
            );
            pb.dispatch(s);
            let program = pb.build().unwrap();
            b.iter(|| {
                let policy = OverlapPolicy::overlap()
                    .with_sizing(TaskSizing::Fixed(1))
                    .with_split_strategy(SplitStrategy::DemandSplit);
                let mut sim = Simulation::new(MachineConfig::new(16), policy).with_seed(7);
                sim.add_job(program.clone());
                sim.run().unwrap().events
            })
        });
        g.bench_with_input(BenchmarkId::new("reverse_fan2", n), &n, |b, &n| {
            let req: Vec<Vec<u32>> = (0..n).map(|r| vec![r, (r + 1) % n]).collect();
            let mapping =
                EnablementMapping::ReverseIndirect(std::sync::Arc::new(ReverseMap::new(req, n)));
            let mut pb = ProgramBuilder::new();
            let a = pb.phase(PhaseDef::new("a", n, CostModel::constant(100)));
            let s = pb.phase(PhaseDef::new("b", n, CostModel::constant(100)));
            pb.dispatch_enable(
                a,
                vec![EnableSpec {
                    successor: s,
                    mapping,
                }],
            );
            pb.dispatch(s);
            let program = pb.build().unwrap();
            b.iter(|| {
                let policy = OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1));
                let mut sim = Simulation::new(MachineConfig::new(16), policy).with_seed(7);
                sim.add_job(program.clone());
                sim.run().unwrap().events
            })
        });
    }
    g.finish();
}

/// RangeSet churn at 10⁴–10⁶ granules: interleaved odd/even stripe inserts
/// (worst-case run fragmentation) followed by gap subtraction through the
/// borrowing `subtract_into` API — the release-residual pattern the
/// executive performs when a phase barrier falls.
fn bench_rangeset_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("rangeset_churn");
    g.sample_size(5);
    for &n in &[10_000u32, 100_000, 1_000_000] {
        g.bench_with_input(BenchmarkId::new("stripe_then_subtract", n), &n, |b, &n| {
            b.iter(|| {
                let mut s = RangeSet::new();
                // Even stripes first: maximal run count, every odd insert
                // later bridges two neighbors (the merge-on-completion
                // pattern at its most adversarial).
                let stripe = 8u32;
                let mut lo = 0u32;
                while lo + stripe <= n {
                    s.insert(GranuleRange::new(lo, lo + stripe));
                    lo += 2 * stripe;
                }
                let mut gaps = Vec::new();
                s.subtract_into(GranuleRange::new(0, n), &mut gaps);
                let gap_total: u64 = gaps.iter().map(|r| r.len() as u64).sum();
                let mut lo = stripe;
                while lo + stripe <= n {
                    s.insert(GranuleRange::new(lo, lo + stripe));
                    lo += 2 * stripe;
                }
                (s.run_count() as u64, gap_total, s.len())
            })
        });
    }
    g.finish();
}

/// The bridging-insert shift cost in isolation: a maximally fragmented
/// set (every other stripe present) collapsed by inserts that each
/// coalesce two neighbors — every insert pays the tail shift that
/// `splice` used to perform through its drain/relocate machinery and the
/// `copy_within` batch shift now performs as one memmove. `wide`
/// additionally measures many-run absorption (one insert swallowing 64
/// runs at a time), the batched-drain merge shape. Measured at the guard
/// commit (splice → copy_within/Vec::insert, same host):
/// rangeset_churn/1e6 476.8 → 348.6 ms, rangeset_churn/1e5 3.30 →
/// 1.73 ms, wide/1e4 130.5 → 39.6 µs, random_inserts/1e4 1.45 ms →
/// 612 µs; bridge_pairs is memmove-bound either way (~unchanged).
fn bench_rangeset_bridging(c: &mut Criterion) {
    let mut g = c.benchmark_group("rangeset_bridge");
    g.sample_size(5);
    for &n in &[10_000u32, 100_000] {
        g.bench_with_input(BenchmarkId::new("bridge_pairs", n), &n, |b, &n| {
            let stripe = 4u32;
            b.iter(|| {
                let mut s = RangeSet::new();
                let mut lo = 0u32;
                while lo + stripe <= n {
                    s.insert(GranuleRange::new(lo, lo + stripe));
                    lo += 2 * stripe;
                }
                // front-to-back bridge inserts: worst case for the tail
                // shift (the whole remaining run list moves every time)
                let mut lo = stripe;
                while lo + stripe <= n {
                    s.insert(GranuleRange::new(lo - 1, lo + stripe + 1));
                    lo += 2 * stripe;
                }
                s.run_count() as u64 + s.len()
            })
        });
        g.bench_with_input(BenchmarkId::new("wide", n), &n, |b, &n| {
            let stripe = 4u32;
            let span = 64 * 2 * stripe; // absorbs 64 runs per insert
            b.iter(|| {
                let mut s = RangeSet::new();
                let mut lo = 0u32;
                while lo + stripe <= n {
                    s.insert(GranuleRange::new(lo, lo + stripe));
                    lo += 2 * stripe;
                }
                let mut lo = 0u32;
                while lo + span <= n {
                    s.insert(GranuleRange::new(lo, lo + span));
                    lo += span;
                }
                s.run_count() as u64 + s.len()
            })
        });
    }
    g.finish();
}

/// The run-storage decision data at structure level: the identical
/// stripe-churn insert sequence (even stripes, then odd stripes each
/// paying a disjoint middle insert plus a bridging insert) driven
/// through both backends. The contiguous Vec pays an O(runs) tail
/// memmove per odd-stripe insert; the chunked layout pays an O(chunk)
/// rewrite plus the hint-anchored summary skip. `random` adds the
/// hint-hostile variant: inserts scattered by a multiplicative hash, so
/// every insert is a cold lookup (the chunked backend's worst case —
/// the O(chunks) summary walk with no hint to anchor it).
fn bench_rangeset_storage(c: &mut Criterion) {
    use pax_sim::machine::RunStorageKind;
    let backends = [
        ("vec", RunStorageKind::VecRuns),
        ("chunked32", RunStorageKind::chunked()),
    ];
    let mut g = c.benchmark_group("rangeset_storage");
    g.sample_size(5);
    for &n in &[100_000u32, 1_000_000] {
        // One canonical insert sequence for every churn measurement —
        // the same driver the storage_scaling structure rows use.
        let ranges = pax_workloads::stripe_churn_ranges(n, 8);
        for (label, kind) in backends {
            let ranges = &ranges;
            g.bench_with_input(
                BenchmarkId::new(format!("churn_{label}"), n),
                &n,
                move |b, _| {
                    b.iter(|| {
                        let mut s = RangeSet::with_storage(kind);
                        for &r in ranges {
                            s.insert(r);
                        }
                        (s.run_count() as u64, s.len())
                    })
                },
            );
        }
    }
    for &n in &[10_000u32, 100_000] {
        for (label, kind) in backends {
            g.bench_with_input(
                BenchmarkId::new(format!("random_{label}"), n),
                &n,
                |b, &n| {
                    b.iter(|| {
                        let mut s = RangeSet::with_storage(kind);
                        let mut x = 0x9E37u32;
                        for _ in 0..n / 4 {
                            x = x.wrapping_mul(2654435761).wrapping_add(1);
                            let lo = x % (n * 2);
                            s.insert(GranuleRange::new(lo, lo + 3));
                        }
                        (s.run_count() as u64, s.len())
                    })
                },
            );
        }
    }
    g.finish();
}

/// The calendar-backend decision data at structure level, and the pin
/// for the time wheel's batch-pop straight drain: `coincident_drain`
/// schedules `n` events in same-time cohorts of 64 and pops them
/// through `pop_coincident_into`, the path where the wheel drains a
/// whole sorted bucket run as one `drain(..k)` instead of `k` head
/// removals (and the heap pays `k` sift-downs). `hold` is the
/// steady-state service-stream hold model the `calendar_scaling`
/// structure rows measure: a fixed pending population, each pop
/// rescheduled at a recurring service spacing, with one far-future
/// outlier spacing to force hierarchical cascades.
fn bench_calendar_backends(c: &mut Criterion) {
    use pax_sim::calendar::{Calendar, CalendarKind};
    let backends = [
        ("heap", CalendarKind::BinaryHeap),
        ("wheel", CalendarKind::time_wheel()),
        ("hier", CalendarKind::hier_wheel()),
    ];
    let mut g = c.benchmark_group("calendar_backends");
    g.sample_size(10);
    for &n in &[10_000usize, 100_000] {
        for (label, kind) in backends {
            g.bench_with_input(
                BenchmarkId::new(format!("coincident_drain_{label}"), n),
                &n,
                move |b, &n| {
                    b.iter(|| {
                        let mut cal: Calendar<usize> = Calendar::from_kind(kind);
                        for i in 0..n {
                            cal.schedule(SimTime((i / 64) as u64 * 10), i);
                        }
                        let mut out = Vec::with_capacity(64);
                        let mut popped = 0usize;
                        while !cal.is_empty() {
                            out.clear();
                            popped += cal.pop_coincident_into(usize::MAX, &mut out);
                        }
                        popped
                    })
                },
            );
        }
    }
    for &n in &[4_096u32] {
        for (label, kind) in backends {
            g.bench_with_input(
                BenchmarkId::new(format!("hold_{label}"), n),
                &n,
                move |b, &n| {
                    const SPACINGS: [u64; 8] = [100, 100, 100, 150, 150, 250, 400, 1_000];
                    b.iter(|| {
                        let mut cal: Calendar<u32> = Calendar::from_kind(kind);
                        let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
                        let mut spacing = || {
                            lcg = lcg
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let draw = (lcg >> 33) as usize;
                            if draw.is_multiple_of(64) {
                                100_000
                            } else {
                                SPACINGS[draw % SPACINGS.len()]
                            }
                        };
                        for i in 0..n {
                            let d = spacing();
                            cal.schedule(SimTime(d), i);
                        }
                        let mut pops = 0u64;
                        let mut batch = Vec::new();
                        while pops < u64::from(n) * 8 {
                            batch.clear();
                            let k = cal.pop_coincident_into(usize::MAX, &mut batch);
                            let now = batch[0].0 .0;
                            for &(_, e) in &batch {
                                let d = spacing();
                                cal.schedule(SimTime(now + d), e);
                            }
                            pops += k as u64;
                        }
                        pops
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_rangeset,
    bench_composite_build,
    bench_conflict_queue,
    bench_classifier,
    bench_waiting_queue_scan,
    bench_waiting_queue_seek,
    bench_locality_remote_count,
    bench_enablement_completion,
    bench_rangeset_churn,
    bench_rangeset_bridging,
    bench_rangeset_storage,
    bench_calendar_backends
);
criterion_main!(benches);
