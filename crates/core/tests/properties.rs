//! Property-based tests for the executive's core invariants.

use pax_core::prelude::*;
use pax_sim::dist::{CostModel, DurationDist};
use pax_sim::machine::MachineConfig;
use proptest::prelude::*;
use std::sync::Arc;

/// Build a linear program of `n` phases with the given mapping generator.
fn linear(granules: u32, costs: Vec<DurationDist>, mappings: Vec<EnablementMapping>) -> Program {
    let mut b = ProgramBuilder::new();
    let ids: Vec<PhaseId> = costs
        .iter()
        .enumerate()
        .map(|(i, c)| {
            b.phase(PhaseDef::new(
                format!("p{i}"),
                granules,
                CostModel::new(c.clone()),
            ))
        })
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        if i + 1 < ids.len() {
            b.dispatch_enable(
                id,
                vec![EnableSpec {
                    successor: ids[i + 1],
                    mapping: mappings[i].clone(),
                }],
            );
        } else {
            b.dispatch(id);
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every run completes (no deadlock), executes every granule exactly
    /// once, and conserves total compute time.
    #[test]
    fn runs_complete_and_conserve_work(
        granules in 2u32..24,
        procs in 1usize..9,
        cost in 1u64..20,
        nphases in 2usize..5,
        seed in 0u64..1000,
        map_seed in 0usize..5,
        overlap in proptest::bool::ANY,
        strategy in 0usize..3,
    ) {
        let maps: Vec<EnablementMapping> = (0..nphases - 1).map(|i| {
            match (i + map_seed) % 5 {
                0 => EnablementMapping::Universal,
                1 => EnablementMapping::Identity,
                2 => EnablementMapping::Null,
                3 => {
                    let t: Vec<u32> = (0..granules).map(|g| (g * 7 + 3) % granules).collect();
                    EnablementMapping::ForwardIndirect(Arc::new(ForwardMap::new(t, granules)))
                }
                _ => {
                    let req: Vec<Vec<u32>> =
                        (0..granules).map(|r| vec![r % granules, (r + 1) % granules]).collect();
                    EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(req, granules)))
                }
            }
        }).collect();
        let costs = vec![DurationDist::constant(cost); nphases];
        let program = linear(granules, costs, maps);
        let split = match strategy {
            0 => SplitStrategy::DemandSplit,
            1 => SplitStrategy::PreSplit,
            _ => SplitStrategy::SuccessorSplitTask,
        };
        let policy = if overlap {
            OverlapPolicy::overlap().with_split_strategy(split)
        } else {
            OverlapPolicy::strict()
        };
        let mut sim = Simulation::new(MachineConfig::ideal(procs), policy).with_seed(seed);
        sim.add_job(program);
        let r = sim.run().expect("deadlock");
        // every granule of every phase executed exactly once
        for ph in &r.phases {
            prop_assert_eq!(ph.stats.executed_granules, granules);
        }
        // work conservation: compute time == Σ granule costs
        let expected = granules as u64 * cost * nphases as u64;
        prop_assert_eq!(r.compute_time.ticks(), expected);
        // makespan is at least the critical path lower bound
        prop_assert!(r.makespan.ticks() * procs as u64 >= expected);
        prop_assert!(r.jobs[0].finished_at.is_some());
    }

    /// The multi-lane executive's batched drain (`BatchPolicy::Coincident`
    /// and `::Lookahead`) is run-identical to the pinned single-event
    /// reference (`BatchPolicy::Single`) on randomized programs: same
    /// makespan, same task/split/descriptor counts, same per-phase
    /// executed/overlap granule totals, same management time — at every
    /// lane count, with and without management costs, under stochastic
    /// granule costs (so dispatch-order-dependent RNG draws are pinned
    /// too).
    #[test]
    fn batched_service_matches_single_reference(
        granules in 2u32..28,
        procs in 1usize..9,
        lanes in 2usize..64,
        nphases in 2usize..5,
        seed in 0u64..1000,
        map_seed in 0usize..5,
        strategy in 0usize..3,
        costs_on in proptest::bool::ANY,
        stochastic in proptest::bool::ANY,
        horizon in 0u64..50,
    ) {
        use pax_sim::machine::{BatchPolicy, ManagementCosts};
        let maps: Vec<EnablementMapping> = (0..nphases - 1).map(|i| {
            match (i + map_seed) % 5 {
                0 => EnablementMapping::Universal,
                1 => EnablementMapping::Identity,
                2 => EnablementMapping::Null,
                3 => {
                    let t: Vec<u32> = (0..granules).map(|g| (g * 7 + 3) % granules).collect();
                    EnablementMapping::ForwardIndirect(Arc::new(ForwardMap::new(t, granules)))
                }
                _ => {
                    let req: Vec<Vec<u32>> =
                        (0..granules).map(|r| vec![r % granules, (r + 1) % granules]).collect();
                    EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(req, granules)))
                }
            }
        }).collect();
        let dist = if stochastic {
            DurationDist::uniform(1, 25)
        } else {
            DurationDist::constant(10)
        };
        let program = linear(granules, vec![dist; nphases], maps);
        let split = match strategy {
            0 => SplitStrategy::DemandSplit,
            1 => SplitStrategy::PreSplit,
            _ => SplitStrategy::SuccessorSplitTask,
        };
        let run = |batch: BatchPolicy| {
            let mut cfg = MachineConfig::new(procs)
                .with_executive_lanes(lanes)
                .with_batch_policy(batch);
            cfg = cfg.with_costs(if costs_on {
                ManagementCosts::pax_default()
            } else {
                ManagementCosts::free()
            });
            let policy = OverlapPolicy::overlap().with_split_strategy(split);
            let mut sim = Simulation::new(cfg, policy).with_seed(seed);
            sim.add_job(program.clone());
            sim.run().expect("deadlock")
        };
        let single = run(BatchPolicy::Single);
        for batch in [BatchPolicy::Coincident, BatchPolicy::Lookahead { horizon }] {
            let b = run(batch);
            prop_assert_eq!(b.makespan, single.makespan, "{:?}", batch);
            prop_assert_eq!(b.events, single.events, "{:?}", batch);
            prop_assert_eq!(b.tasks_dispatched, single.tasks_dispatched, "{:?}", batch);
            prop_assert_eq!(b.splits, single.splits, "{:?}", batch);
            prop_assert_eq!(b.descriptors_created, single.descriptors_created, "{:?}", batch);
            prop_assert_eq!(b.mgmt_time, single.mgmt_time, "{:?}", batch);
            prop_assert_eq!(b.compute_time, single.compute_time, "{:?}", batch);
            for (bp, sp) in b.phases.iter().zip(single.phases.iter()) {
                prop_assert_eq!(bp.stats.executed_granules, sp.stats.executed_granules);
                prop_assert_eq!(bp.stats.overlap_granules, sp.stats.overlap_granules);
            }
        }
    }

    /// PR 4's docs claim `BatchPolicy::Lookahead { horizon: 0 }` only
    /// ever tops a round up with *further coincident groups at the
    /// round's own timestamp* — i.e. that a zero horizon degenerates to
    /// `Coincident` plus same-tick continuation, run-identically. That
    /// equivalence was documented but never pinned on its own: diff the
    /// two policies directly across randomized programs, lane counts,
    /// split strategies, and cost models.
    #[test]
    fn lookahead_zero_horizon_matches_coincident(
        granules in 2u32..28,
        procs in 1usize..9,
        lanes in 1usize..64,
        nphases in 2usize..5,
        seed in 0u64..1000,
        map_seed in 0usize..5,
        strategy in 0usize..3,
        costs_on in proptest::bool::ANY,
        stochastic in proptest::bool::ANY,
    ) {
        use pax_sim::machine::{BatchPolicy, ManagementCosts};
        let maps: Vec<EnablementMapping> = (0..nphases - 1).map(|i| {
            match (i + map_seed) % 5 {
                0 => EnablementMapping::Universal,
                1 => EnablementMapping::Identity,
                2 => EnablementMapping::Null,
                3 => {
                    let t: Vec<u32> = (0..granules).map(|g| (g * 7 + 3) % granules).collect();
                    EnablementMapping::ForwardIndirect(Arc::new(ForwardMap::new(t, granules)))
                }
                _ => {
                    let req: Vec<Vec<u32>> =
                        (0..granules).map(|r| vec![r % granules, (r + 1) % granules]).collect();
                    EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(req, granules)))
                }
            }
        }).collect();
        let dist = if stochastic {
            DurationDist::uniform(1, 25)
        } else {
            DurationDist::constant(10)
        };
        let program = linear(granules, vec![dist; nphases], maps);
        let split = match strategy {
            0 => SplitStrategy::DemandSplit,
            1 => SplitStrategy::PreSplit,
            _ => SplitStrategy::SuccessorSplitTask,
        };
        let run = |batch: BatchPolicy| {
            let mut cfg = MachineConfig::new(procs)
                .with_executive_lanes(lanes)
                .with_batch_policy(batch);
            cfg = cfg.with_costs(if costs_on {
                ManagementCosts::pax_default()
            } else {
                ManagementCosts::free()
            });
            let policy = OverlapPolicy::overlap().with_split_strategy(split);
            let mut sim = Simulation::new(cfg, policy).with_seed(seed);
            sim.add_job(program.clone());
            sim.run().expect("deadlock")
        };
        let coincident = run(BatchPolicy::Coincident);
        let zero = run(BatchPolicy::Lookahead { horizon: 0 });
        prop_assert_eq!(zero.makespan, coincident.makespan);
        prop_assert_eq!(zero.events, coincident.events);
        prop_assert_eq!(zero.tasks_dispatched, coincident.tasks_dispatched);
        prop_assert_eq!(zero.splits, coincident.splits);
        prop_assert_eq!(zero.descriptors_created, coincident.descriptors_created);
        prop_assert_eq!(zero.descriptors_peak, coincident.descriptors_peak);
        prop_assert_eq!(zero.mgmt_time, coincident.mgmt_time);
        prop_assert_eq!(zero.compute_time, coincident.compute_time);
        for (zp, cp) in zero.phases.iter().zip(coincident.phases.iter()) {
            prop_assert_eq!(zp.stats.executed_granules, cp.stats.executed_granules);
            prop_assert_eq!(zp.stats.overlap_granules, cp.stats.overlap_granules);
        }
    }

    /// Overlap never loses to the strict barrier on ideal machines
    /// (work-conserving scheduling with extra available work can only
    /// fill, never displace).
    #[test]
    fn overlap_never_worse_on_ideal_machine(
        granules in 2u32..30,
        procs in 1usize..8,
        nphases in 2usize..5,
        kind in 0usize..2,
    ) {
        let mapping = match kind {
            0 => EnablementMapping::Universal,
            _ => EnablementMapping::Identity,
        };
        let costs = vec![DurationDist::constant(10); nphases];
        let maps = vec![mapping; nphases - 1];
        let program = linear(granules, costs, maps);
        let strict = {
            let mut s = Simulation::new(
                MachineConfig::ideal(procs),
                OverlapPolicy::strict().with_sizing(TaskSizing::Fixed(1)),
            );
            s.add_job(program.clone());
            s.run().unwrap()
        };
        let over = {
            let mut s = Simulation::new(
                MachineConfig::ideal(procs),
                OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1)),
            );
            s.add_job(program);
            s.run().unwrap()
        };
        prop_assert!(
            over.makespan <= strict.makespan,
            "overlap {} > strict {}",
            over.makespan.ticks(),
            strict.makespan.ticks()
        );
    }

    /// The identity-mapping enablement invariant holds for every split
    /// strategy and stochastic costs: successor granule i never starts
    /// before current granule i completes.
    #[test]
    fn identity_enablement_invariant(
        granules in 2u32..20,
        procs in 2usize..6,
        seed in 0u64..500,
        strategy in 0usize..3,
        task in 1u32..4,
    ) {
        let split = match strategy {
            0 => SplitStrategy::DemandSplit,
            1 => SplitStrategy::PreSplit,
            _ => SplitStrategy::SuccessorSplitTask,
        };
        let costs = vec![DurationDist::uniform(1, 30); 2];
        let program = linear(granules, costs, vec![EnablementMapping::Identity]);
        let policy = OverlapPolicy::overlap()
            .with_split_strategy(split)
            .with_sizing(TaskSizing::Fixed(task));
        let mut sim = Simulation::new(MachineConfig::ideal(procs), policy)
            .with_seed(seed)
            .with_gantt();
        sim.add_job(program);
        let r = sim.run().unwrap();
        let g = r.gantt.as_ref().unwrap();
        for i in 0..granules {
            let pred_done = g.granule_completion(0, i).expect("pred granule ran");
            let succ_start = g.granule_start(1, i).expect("succ granule ran");
            prop_assert!(
                succ_start >= pred_done,
                "granule {}: succ start {:?} < pred done {:?} under {:?}",
                i, succ_start, pred_done, split
            );
        }
    }

    /// The reverse-indirect enablement invariant: successor granule r
    /// starts only after all its required current granules complete.
    #[test]
    fn reverse_indirect_enablement_invariant(
        granules in 2u32..16,
        procs in 2usize..6,
        seed in 0u64..500,
        fan in 1usize..4,
        subset_cap in 1u32..64,
    ) {
        let req: Vec<Vec<u32>> = (0..granules)
            .map(|r| (0..fan as u32).map(|j| (r + j * 3) % granules).collect())
            .collect();
        let program = linear(
            granules,
            vec![DurationDist::uniform(1, 20); 2],
            vec![EnablementMapping::ReverseIndirect(Arc::new(
                ReverseMap::new(req.clone(), granules),
            ))],
        );
        let policy = OverlapPolicy::overlap()
            .with_sizing(TaskSizing::Fixed(1))
            .with_indirect_subset(subset_cap);
        let mut sim = Simulation::new(MachineConfig::ideal(procs), policy)
            .with_seed(seed)
            .with_gantt();
        sim.add_job(program);
        let r = sim.run().unwrap();
        let g = r.gantt.as_ref().unwrap();
        for (rr, deps) in req.iter().enumerate() {
            let succ_start = g.granule_start(1, rr as u32).expect("succ ran");
            // Only counter-gated granules carry the early-release
            // guarantee; barrier-released ones trivially satisfy it too
            // (they start after the whole predecessor phase).
            for &d in deps {
                let dep_done = g.granule_completion(0, d).expect("dep ran");
                prop_assert!(
                    succ_start >= dep_done,
                    "succ {} started before dep {} completed", rr, d
                );
            }
        }
    }

    /// Management costs only ever increase makespan, and the dedicated
    /// executive is never slower than the worker-stealing one.
    #[test]
    fn management_costs_monotone(
        granules in 4u32..24,
        procs in 2usize..6,
        scale in 1u64..8,
    ) {
        let program = linear(
            granules,
            vec![DurationDist::constant(50); 3],
            vec![EnablementMapping::Universal; 2],
        );
        let run = |costs: pax_sim::machine::ManagementCosts,
                   placement: pax_sim::machine::ExecutivePlacement| {
            let cfg = MachineConfig::new(procs)
                .with_costs(costs)
                .with_executive(placement);
            let mut s = Simulation::new(cfg, OverlapPolicy::strict());
            s.add_job(program.clone());
            s.run().unwrap()
        };
        use pax_sim::machine::{ExecutivePlacement, ManagementCosts};
        let free = run(ManagementCosts::free(), ExecutivePlacement::Dedicated);
        let cheap = run(ManagementCosts::pax_default(), ExecutivePlacement::Dedicated);
        let costly = run(
            ManagementCosts::pax_default().scaled(scale),
            ExecutivePlacement::Dedicated,
        );
        let stolen = run(
            ManagementCosts::pax_default().scaled(scale),
            ExecutivePlacement::StealsWorker,
        );
        prop_assert!(free.makespan <= cheap.makespan);
        prop_assert!(cheap.makespan <= costly.makespan);
        prop_assert!(costly.makespan <= stolen.makespan);
    }

    /// Every event-calendar backend is an observably identical drop-in
    /// for the binary heap: whole simulations produce the same report,
    /// event for event, across mappings, seeds, wheel sizes (small
    /// wheels force heavy overflow-rail traffic), bucket coarsenesses
    /// (coarse buckets force the sorted-bucket path), hierarchical
    /// geometries (cascade traffic), and the self-tuning calendar
    /// (mid-run retunes).
    #[test]
    fn calendar_backend_runs_match_heap_runs(
        granules in 2u32..24,
        procs in 1usize..9,
        cost in 1u64..60,
        seed in 0u64..1000,
        map_seed in 0usize..5,
        slots in 1usize..600,
        bucket_ticks in 1u64..80,
    ) {
        let maps: Vec<EnablementMapping> = (0..2).map(|i| {
            match (i + map_seed) % 5 {
                0 => EnablementMapping::Universal,
                1 => EnablementMapping::Identity,
                2 => EnablementMapping::Null,
                3 => {
                    let t: Vec<u32> = (0..granules).map(|g| (g * 7 + 3) % granules).collect();
                    EnablementMapping::ForwardIndirect(Arc::new(ForwardMap::new(t, granules)))
                }
                _ => {
                    let req: Vec<Vec<u32>> =
                        (0..granules).map(|r| vec![r % granules, (r + 1) % granules]).collect();
                    EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(req, granules)))
                }
            }
        }).collect();
        let program = linear(
            granules,
            vec![DurationDist::uniform(1, 1 + cost); 3],
            maps,
        );
        let run = |calendar: pax_sim::calendar::CalendarKind| {
            let cfg = MachineConfig::new(procs).with_calendar(calendar);
            let mut s = Simulation::new(cfg, OverlapPolicy::overlap()).with_seed(seed);
            s.add_job(program.clone());
            s.run().unwrap()
        };
        let heap = run(pax_sim::calendar::CalendarKind::BinaryHeap);
        // Every other backend — single-level wheel, hierarchical wheel
        // (a geometry small enough that real runs cascade constantly),
        // and the self-tuning calendar (retuned at the engine's
        // rebalance checkpoints) — must reproduce the heap run
        // event-for-event.
        for backend in [
            pax_sim::calendar::CalendarKind::TimeWheel { slots, bucket_ticks },
            pax_sim::calendar::CalendarKind::HierWheel {
                slots: slots.min(32),
                bucket_ticks,
                levels: 3,
            },
            pax_sim::calendar::CalendarKind::hier_wheel(),
            pax_sim::calendar::CalendarKind::Auto,
        ] {
            let other = run(backend);
            prop_assert_eq!(heap.makespan, other.makespan, "backend {:?}", backend);
            prop_assert_eq!(heap.events, other.events, "backend {:?}", backend);
            prop_assert_eq!(heap.tasks_dispatched, other.tasks_dispatched, "backend {:?}", backend);
            prop_assert_eq!(heap.splits, other.splits, "backend {:?}", backend);
            prop_assert_eq!(heap.compute_time, other.compute_time, "backend {:?}", backend);
            prop_assert_eq!(heap.mgmt_time, other.mgmt_time, "backend {:?}", backend);
            prop_assert_eq!(heap.descriptors_created, other.descriptors_created, "backend {:?}", backend);
        }
    }
}

mod rangeset_props {
    use pax_core::ids::GranuleRange;
    use pax_core::rangeset::{coalesce_indices, RangeSet, RunStorageKind};
    use proptest::prelude::*;

    fn build(ranges: &[(u32, u32)]) -> RangeSet {
        let mut s = RangeSet::new();
        for &(lo, len) in ranges {
            s.insert(GranuleRange::new(lo, lo + len));
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `subtract_into` (the borrowing gap iterator) agrees with the
        /// reference definition: every index in the window is either in
        /// the set or in exactly one reported gap.
        #[test]
        fn subtract_into_partitions_the_window(
            ranges in proptest::collection::vec((0u32..200, 1u32..20), 0..20),
            win_lo in 0u32..200,
            win_len in 0u32..100,
        ) {
            let s = build(&ranges);
            let win = GranuleRange::new(win_lo, win_lo + win_len);
            let mut gaps = Vec::new();
            s.subtract_into(win, &mut gaps);
            // gaps are sorted, disjoint, within the window
            for w in gaps.windows(2) {
                prop_assert!(w[0].hi <= w[1].lo);
            }
            for g in win.iter() {
                let in_gap = gaps.iter().any(|r| r.contains(g));
                prop_assert_eq!(in_gap, !s.contains(g), "index {}", g);
            }
            for r in &gaps {
                prop_assert!(r.lo >= win.lo && r.hi <= win.hi && !r.is_empty());
            }
        }

        /// The borrowing covered iterator agrees with the gap view:
        /// covered ∪ gaps tiles the window exactly.
        #[test]
        fn covered_iter_complements_gaps(
            ranges in proptest::collection::vec((0u32..200, 1u32..20), 0..20),
            win_lo in 0u32..200,
            win_len in 0u32..100,
        ) {
            let s = build(&ranges);
            let win = GranuleRange::new(win_lo, win_lo + win_len);
            let covered: Vec<GranuleRange> = s.covered_in_iter(win).collect();
            prop_assert_eq!(&covered, &s.covered_in(win));
            let gaps = s.gaps_in(win);
            let mut tiles: Vec<GranuleRange> = covered;
            tiles.extend(gaps.iter().copied());
            tiles.sort_by_key(|r| r.lo);
            let total: u64 = tiles.iter().map(|r| r.len() as u64).sum();
            prop_assert_eq!(total, win.len() as u64);
            for w in tiles.windows(2) {
                prop_assert_eq!(w[0].hi, w[1].lo, "tiles must abut");
            }
        }

        /// `insert_run`'s merge report is consistent with the set's
        /// before/after state: run counts, coverage, and the merged span.
        #[test]
        fn insert_run_merge_info_is_consistent(
            ranges in proptest::collection::vec((0u32..200, 1u32..20), 0..20),
            lo in 0u32..200,
            len in 1u32..30,
        ) {
            let mut s = build(&ranges);
            let before_runs = s.run_count();
            let before_len = s.len();
            let r = GranuleRange::new(lo, lo + len);
            let info = s.insert_run(r);
            // merged span is a stored run and covers the insert
            prop_assert!(s.iter_runs().any(|run| run == info.merged));
            prop_assert!(info.merged.lo <= r.lo && info.merged.hi >= r.hi);
            // run-count arithmetic: absorbed runs collapse into one
            prop_assert_eq!(s.run_count(), before_runs - info.absorbed + 1);
            // coverage arithmetic: added indices are exactly the growth
            prop_assert_eq!(s.len(), before_len + info.added);
            prop_assert!(info.added <= r.len() as u64);
        }

        /// The chunked run storage is result-identical to the Vec layout
        /// under random mixed op sequences — direct inserts, inserts of
        /// coalesced index bursts, and windowed subtract/covered/contains
        /// queries — with equality (which ignores the hint *and* chunk
        /// boundaries) holding across the backends at every step, for
        /// chunk capacities from the pathological minimum up.
        #[test]
        fn chunked_storage_matches_vec_oracle(
            ops in proptest::collection::vec((0u32..3, 0u32..400, 1u32..24), 1..50),
            chunk_sel in 0usize..4,
        ) {
            let chunk_runs = [2usize, 3, 7, 32][chunk_sel];
            let mut vec_set = RangeSet::new();
            let mut chunked =
                RangeSet::with_storage(RunStorageKind::ChunkedRuns { chunk_runs });
            for (i, &(op, lo, len)) in ops.iter().enumerate() {
                match op {
                    // the common case: a straight range insert
                    0 | 1 => {
                        let r = GranuleRange::new(lo, lo + len);
                        let a = vec_set.insert_run(r);
                        let b = chunked.insert_run(r);
                        prop_assert_eq!(a, b, "insert {} diverged (cap {})", i, chunk_runs);
                    }
                    // the enablement-release case: coalesce a strided
                    // index burst, insert each resulting run
                    _ => {
                        let mut idx: Vec<u32> =
                            (0..len).map(|k| lo + (k * 13) % (3 * len)).collect();
                        for run in coalesce_indices(&mut idx) {
                            let a = vec_set.insert_run(run);
                            let b = chunked.insert_run(run);
                            prop_assert_eq!(a, b, "coalesced insert {} diverged", i);
                        }
                    }
                }
                prop_assert_eq!(&vec_set, &chunked, "equality diverged at op {}", i);
                prop_assert_eq!(vec_set.run_count(), chunked.run_count());
                prop_assert_eq!(vec_set.len(), chunked.len());
                // windowed queries around the touched region
                let win = GranuleRange::new(lo.saturating_sub(10), lo + len + 10);
                let mut ga = vec![GranuleRange::new(0, 1)]; // append-only contract
                let mut gb = vec![GranuleRange::new(0, 1)];
                vec_set.subtract_into(win, &mut ga);
                chunked.subtract_into(win, &mut gb);
                prop_assert_eq!(ga, gb, "gaps diverged at op {}", i);
                prop_assert_eq!(vec_set.covered_in(win), chunked.covered_in(win));
                prop_assert_eq!(
                    vec_set.contains_range(win),
                    chunked.contains_range(win)
                );
                for g in (win.lo..win.hi).step_by(3) {
                    prop_assert_eq!(vec_set.contains(g), chunked.contains(g), "g={}", g);
                }
            }
            // full-sequence comparison at the end
            let all: Vec<GranuleRange> = vec_set.iter_runs().collect();
            let all_chunked: Vec<GranuleRange> = chunked.iter_runs().collect();
            prop_assert_eq!(all, all_chunked);
        }

        /// The completed-run hint is pure acceleration: every insert's
        /// merge report and the resulting run list match an independent
        /// oracle — a naive boolean-coverage model that derives the
        /// expected `merged`/`absorbed`/`added` from first principles,
        /// with no hint, no binary search, and no shared code path.
        #[test]
        fn hint_never_changes_insert_run_results(
            ranges in proptest::collection::vec((0u32..200, 1u32..20), 1..30),
        ) {
            const UNIVERSE: usize = 256;
            let mut s = RangeSet::new(); // hint warmed by every insert
            let mut covered = [false; UNIVERSE];
            for (i, &(lo, len)) in ranges.iter().enumerate() {
                let r = GranuleRange::new(lo, lo + len);
                // oracle: absorbed = maximal covered runs overlapping or
                // adjacent to r; merged = r extended through them; added
                // = indices r newly covers.
                let touches = |g: usize| {
                    covered[g] && g + 1 >= lo as usize && g <= (lo + len) as usize
                };
                let mut absorbed = 0;
                let mut in_run = false;
                for g in 0..UNIVERSE {
                    let t = touches(g);
                    absorbed += usize::from(t && !in_run);
                    in_run = t;
                }
                let mut mlo = lo;
                while mlo > 0 && covered[mlo as usize - 1] {
                    mlo -= 1;
                }
                let mut mhi = lo + len;
                while (mhi as usize) < UNIVERSE && covered[mhi as usize] {
                    mhi += 1;
                }
                let added = (lo..lo + len).filter(|&g| !covered[g as usize]).count() as u64;

                let info = s.insert_run(r);
                prop_assert_eq!(info.merged, GranuleRange::new(mlo, mhi), "insert {}", i);
                prop_assert_eq!(info.absorbed, absorbed, "insert {}", i);
                prop_assert_eq!(info.added, added, "insert {}", i);

                for g in lo..lo + len {
                    covered[g as usize] = true;
                }
                // the stored runs must equal the model's maximal runs
                let mut model_runs = Vec::new();
                let mut g = 0;
                while g < UNIVERSE {
                    if covered[g] {
                        let start = g;
                        while g < UNIVERSE && covered[g] {
                            g += 1;
                        }
                        model_runs.push(GranuleRange::new(start as u32, g as u32));
                    } else {
                        g += 1;
                    }
                }
                let runs: Vec<GranuleRange> = s.iter_runs().collect();
                prop_assert_eq!(runs, model_runs, "run list diverged at insert {}", i);
            }
        }
    }
}

mod assignment_props {
    use pax_core::descriptor::QueueClass;
    use pax_core::ids::{DescId, JobId};
    use pax_core::prelude::*;
    use pax_core::queue::WaitingQueue;
    use pax_sim::dist::CostModel;
    use pax_sim::locality::{DataLayout, LocalityModel};
    use pax_sim::machine::MachineConfig;
    use pax_sim::time::SimDuration;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// pop_matching drains exactly the pushed set: nothing lost,
        /// nothing duplicated, regardless of window or predicate.
        #[test]
        fn pop_matching_conserves_entries(
            ids in proptest::collection::vec(0u32..1000, 1..40),
            jobs in 1usize..4,
            window in 0usize..10,
            modulus in 1u32..7,
        ) {
            let uniq: BTreeSet<u32> = ids.iter().copied().collect();
            let mut q = WaitingQueue::new(jobs);
            for (i, &id) in uniq.iter().enumerate() {
                let class = if i % 3 == 0 { QueueClass::Elevated } else { QueueClass::Normal };
                q.push_back(DescId(id), class, JobId((i % jobs) as u32));
            }
            let mut out: Vec<u32> = Vec::new();
            while let Some(d) = q.pop_matching(window, |x| x.0 % modulus == 0) {
                out.push(d.0);
            }
            let drained: BTreeSet<u32> = out.iter().copied().collect();
            prop_assert_eq!(out.len(), uniq.len(), "duplicates popped");
            prop_assert_eq!(drained, uniq);
            prop_assert!(q.is_empty());
        }

        /// With window 0, pop_matching is exactly pop.
        #[test]
        fn window_zero_equals_pop(
            ids in proptest::collection::vec(0u32..1000, 1..30),
            jobs in 1usize..4,
        ) {
            let uniq: Vec<u32> = {
                let s: BTreeSet<u32> = ids.iter().copied().collect();
                s.into_iter().collect()
            };
            let fill = |q: &mut WaitingQueue| {
                for (i, &id) in uniq.iter().enumerate() {
                    let class = if i % 4 == 0 { QueueClass::Elevated } else { QueueClass::Normal };
                    q.push_back(DescId(id), class, JobId((i % jobs) as u32));
                }
            };
            let mut q1 = WaitingQueue::new(jobs);
            let mut q2 = WaitingQueue::new(jobs);
            fill(&mut q1);
            fill(&mut q2);
            loop {
                let a = q1.pop();
                let b = q2.pop_matching(0, |_| true);
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// Under a clustered machine with proximity assignment, every
        /// granule still executes exactly once, the local/remote split
        /// covers all executed granules, and the stall accounting is
        /// exact.
        #[test]
        fn proximity_runs_conserve_work(
            granules in 8u32..120,
            procs in 2usize..10,
            clusters in 1usize..5,
            extra in 0u64..12,
            window in 0usize..20,
            cyclic in proptest::bool::ANY,
            overlap in proptest::bool::ANY,
            seed in 0u64..500,
        ) {
            let layout = if cyclic { DataLayout::Cyclic } else { DataLayout::Block };
            let mut b = ProgramBuilder::new();
            let p0 = b.phase(PhaseDef::new("a", granules, CostModel::constant(9)));
            let p1 = b.phase(PhaseDef::new("b", granules, CostModel::constant(9)));
            b.dispatch_enable(p0, vec![EnableSpec {
                successor: p1,
                mapping: EnablementMapping::Identity,
            }]);
            b.dispatch(p1);
            let program = b.build().unwrap();

            let cfg = MachineConfig::ideal(procs)
                .with_locality(LocalityModel::new(clusters, SimDuration(extra)).with_layout(layout));
            let policy = if overlap { OverlapPolicy::overlap() } else { OverlapPolicy::strict() }
                .with_assignment(AssignmentPolicy::DataProximity { scan_window: window });
            let mut sim = Simulation::new(cfg, policy).with_seed(seed);
            sim.add_job(program);
            let r = sim.run().expect("deadlock");

            for ph in &r.phases {
                prop_assert_eq!(ph.stats.executed_granules, granules);
            }
            prop_assert_eq!(r.local_granules + r.remote_granules, 2 * u64::from(granules));
            prop_assert_eq!(r.remote_stall.ticks(), extra * r.remote_granules);
            let pure = 2 * u64::from(granules) * 9;
            prop_assert_eq!(r.compute_time.ticks(), pure + r.remote_stall.ticks());
            // single cluster ⇒ no remote traffic at all
            if clusters == 1 {
                prop_assert_eq!(r.remote_granules, 0);
            }
        }
    }
}

mod enablement_safety {
    use pax_core::prelude::*;
    use pax_sim::dist::CostModel;
    use pax_sim::machine::MachineConfig;
    use pax_sim::metrics::Activity;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fundamental safety property, checked from the schedule
        /// itself: under a randomized reverse map, no task containing a
        /// successor granule may start before every task containing one
        /// of its required current-phase granules has ended — whatever
        /// the split strategy, subset cap, elevation setting, machine
        /// size, or task size.
        #[test]
        fn no_successor_starts_before_its_enablers_end(
            granules in 6u32..40,
            procs in 2usize..8,
            fan in 1usize..4,
            seed in 0u64..10_000,
            strategy in 0usize..3,
            elevate in proptest::bool::ANY,
            subset in prop_oneof![Just(u32::MAX), 2u32..12],
            task in 1u32..7,
        ) {
            // pseudo-random requirement lists derived from the seed
            let req: Vec<Vec<u32>> = (0..granules)
                .map(|r| {
                    (0..fan)
                        .map(|j| ((r as u64 * 31 + j as u64 * 17 + seed) % granules as u64) as u32)
                        .collect()
                })
                .collect();
            let mapping = EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(
                req.clone(),
                granules,
            )));
            let mut b = ProgramBuilder::new();
            let a = b.phase(PhaseDef::new("cur", granules, CostModel::constant(7)));
            let c = b.phase(PhaseDef::new("succ", granules, CostModel::constant(7)));
            b.dispatch_enable(a, vec![EnableSpec { successor: c, mapping }]);
            b.dispatch(c);
            let program = b.build().unwrap();

            let split = match strategy {
                0 => SplitStrategy::DemandSplit,
                1 => SplitStrategy::PreSplit,
                _ => SplitStrategy::SuccessorSplitTask,
            };
            let policy = OverlapPolicy::overlap()
                .with_split_strategy(split)
                .with_sizing(TaskSizing::Fixed(task))
                .with_elevate_enabling(elevate)
                .with_indirect_subset(subset);
            let mut sim = Simulation::new(MachineConfig::ideal(procs), policy)
                .with_seed(seed)
                .with_gantt();
            sim.add_job(program);
            let r = sim.run().expect("no deadlock");

            // granule -> (task start, task end) per instance
            let gantt = r.gantt.as_ref().unwrap();
            let mut span_of: HashMap<(u32, u32), (u64, u64)> = HashMap::new();
            for span in gantt.spans() {
                if let Activity::Compute { phase, lo, hi } = span.activity {
                    for g in lo..hi {
                        span_of.insert((phase, g), (span.start.ticks(), span.end.ticks()));
                    }
                }
            }
            let cur = r.phases[0].instance.0;
            let succ = r.phases[1].instance.0;
            for (g, deps) in req.iter().enumerate() {
                let (s, _) = span_of[&(succ, g as u32)];
                for &d in deps {
                    let (_, e) = span_of[&(cur, d)];
                    prop_assert!(
                        s >= e,
                        "succ granule {g} started {s} before enabler {d} ended {e} \
                         (strategy {strategy}, subset {subset}, task {task})"
                    );
                }
            }
            // and the run is complete
            prop_assert_eq!(r.phases[1].stats.executed_granules, granules);
        }
    }
}

/// The waiting queue against a copy of its earlier implementation, which
/// kept one normal segment per job stream and scanned all of them per
/// seek. Open/close segment bookkeeping must not move a single pop.
mod queue_model {
    use pax_core::descriptor::QueueClass;
    use pax_core::ids::{DescId, JobId};
    use pax_core::queue::WaitingQueue;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Reference queue: one segment per job, every seek scans all jobs
    /// round-robin from the cursor.
    struct ScanQueue {
        elevated: VecDeque<DescId>,
        normal: Vec<VecDeque<DescId>>,
        rr_cursor: usize,
        len: usize,
    }

    impl ScanQueue {
        fn new(jobs: usize) -> ScanQueue {
            ScanQueue {
                elevated: VecDeque::new(),
                normal: (0..jobs).map(|_| VecDeque::new()).collect(),
                rr_cursor: 0,
                len: 0,
            }
        }

        fn push_back(&mut self, id: DescId, class: QueueClass, job: JobId) {
            self.len += 1;
            match class {
                QueueClass::Elevated => self.elevated.push_back(id),
                QueueClass::Normal => self.normal[job.0 as usize].push_back(id),
            }
        }

        fn push_front(&mut self, id: DescId, class: QueueClass, job: JobId) {
            self.len += 1;
            match class {
                QueueClass::Elevated => self.elevated.push_front(id),
                QueueClass::Normal => self.normal[job.0 as usize].push_front(id),
            }
        }

        fn pop(&mut self) -> Option<DescId> {
            self.pop_class(true, true)
        }

        fn pop_class(&mut self, allow_elevated: bool, allow_normal: bool) -> Option<DescId> {
            if allow_elevated {
                if let Some(id) = self.elevated.pop_front() {
                    self.len -= 1;
                    return Some(id);
                }
            }
            if allow_normal {
                let jobs = self.normal.len();
                for k in 0..jobs {
                    let j = (self.rr_cursor + k) % jobs;
                    if let Some(id) = self.normal[j].pop_front() {
                        self.rr_cursor = (j + 1) % jobs;
                        self.len -= 1;
                        return Some(id);
                    }
                }
            }
            None
        }

        fn pop_matching(
            &mut self,
            window: usize,
            mut pred: impl FnMut(DescId) -> bool,
        ) -> Option<DescId> {
            let mut scanned = 0usize;
            for pos in 0..self.elevated.len() {
                if scanned >= window {
                    return self.pop();
                }
                let id = self.elevated[pos];
                if pred(id) {
                    self.elevated.remove(pos);
                    self.len -= 1;
                    return Some(id);
                }
                scanned += 1;
            }
            let jobs = self.normal.len();
            for k in 0..jobs {
                let j = (self.rr_cursor + k) % jobs;
                for pos in 0..self.normal[j].len() {
                    if scanned >= window {
                        return self.pop();
                    }
                    let id = self.normal[j][pos];
                    if pred(id) {
                        if self.elevated.is_empty() && k == 0 && pos == 0 {
                            return self.pop();
                        }
                        self.normal[j].remove(pos);
                        self.len -= 1;
                        return Some(id);
                    }
                    scanned += 1;
                }
            }
            self.pop()
        }

        fn peek(&self) -> Option<DescId> {
            if let Some(&id) = self.elevated.front() {
                return Some(id);
            }
            let jobs = self.normal.len();
            (0..jobs).find_map(|k| self.normal[(self.rr_cursor + k) % jobs].front().copied())
        }

        fn remove(&mut self, id: DescId) -> bool {
            if let Some(pos) = self.elevated.iter().position(|&x| x == id) {
                self.elevated.remove(pos);
                self.len -= 1;
                return true;
            }
            for q in &mut self.normal {
                if let Some(pos) = q.iter().position(|&x| x == id) {
                    q.remove(pos);
                    self.len -= 1;
                    return true;
                }
            }
            false
        }
    }

    /// A pseudo-random predicate over descriptor ids, fixed by `(m, r)`.
    fn pred(m: u32, r: u32) -> impl FnMut(DescId) -> bool {
        move |id| (id.0.wrapping_mul(2_654_435_761) >> 7) % m == r % m
    }

    /// Apply one encoded operation to both queues and compare results.
    fn step(
        q: &mut WaitingQueue,
        model: &mut ScanQueue,
        next_id: &mut u32,
        jobs: usize,
        op: (u8, u32, u32, u32),
    ) -> Result<(), TestCaseError> {
        let (kind, a, b, c) = op;
        let job = JobId(a % jobs as u32);
        let class = if b % 4 == 0 {
            QueueClass::Elevated
        } else {
            QueueClass::Normal
        };
        match kind % 9 {
            0 | 1 => {
                let id = DescId(*next_id);
                *next_id += 1;
                q.push_back(id, class, job);
                model.push_back(id, class, job);
            }
            2 => {
                let id = DescId(*next_id);
                *next_id += 1;
                q.push_front(id, class, job);
                model.push_front(id, class, job);
            }
            3 => prop_assert_eq!(q.pop(), model.pop()),
            4 => prop_assert_eq!(q.peek(), model.peek()),
            5 => {
                let (e, n) = (b & 1 == 1, b & 2 == 2);
                prop_assert_eq!(q.pop_class(e, n), model.pop_class(e, n));
            }
            6 => {
                let window = (c % 10) as usize;
                let m = 1 + b % 6;
                prop_assert_eq!(
                    q.pop_matching(window, pred(m, c)),
                    model.pop_matching(window, pred(m, c))
                );
            }
            7 => {
                let id = DescId(b % (*next_id).max(1));
                prop_assert_eq!(q.remove(id), model.remove(id));
            }
            _ => {
                // closing is invisible to pop order, drained or not
                q.close(job);
            }
        }
        prop_assert_eq!(q.len(), model.len);
        prop_assert_eq!(q.is_empty(), model.len == 0);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random operation sequences over 1..64 job streams: identical
        /// return values and lengths after every operation.
        #[test]
        fn matches_scanning_queue(
            jobs in 1usize..64,
            ops in proptest::collection::vec((0u8..9, 0u32..64, 0u32..1000, 0u32..1000), 1..300),
        ) {
            let mut q = WaitingQueue::new(jobs);
            let mut model = ScanQueue::new(jobs);
            let mut next_id = 0u32;
            for &op in &ops {
                step(&mut q, &mut model, &mut next_id, jobs, op)?;
            }
            // drain: the remaining order must agree too
            loop {
                let (a, b) = (q.pop(), model.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// Jobs that run to completion and close, as a service stream's
        /// do: only a few segments are open at a time, and each close
        /// happens on a drained job.
        #[test]
        fn matches_scanning_queue_with_job_turnover(
            ops in proptest::collection::vec((0u8..9, 0u32..8, 0u32..1000, 0u32..1000), 1..400),
        ) {
            let jobs = 64;
            let mut q = WaitingQueue::new(jobs);
            let mut model = ScanQueue::new(jobs);
            let mut next_id = 0u32;
            let mut base = 0u32; // the oldest live job; live jobs are base..base+8
            for &(kind, a, b, c) in &ops {
                let job = (base + a) % jobs as u32;
                step(&mut q, &mut model, &mut next_id, jobs, (kind, job, b, c))?;
                if model.normal[base as usize].is_empty() && kind % 9 == 3 {
                    q.close(JobId(base));
                    base = (base + 1) % jobs as u32;
                }
                prop_assert!(q.open_segments() <= 9);
            }
        }
    }

    /// The cursor-wrap case: after popping job `jobs - 1` the cursor wraps
    /// to 0, so a data-proximity match on job 0's head is the exact head
    /// and both queues must take the fairness path.
    #[test]
    fn head_match_after_cursor_wrap_agrees() {
        let jobs = 4;
        let mut q = WaitingQueue::new(jobs);
        let mut model = ScanQueue::new(jobs);
        for (id, job) in [(1, 0), (2, 0), (3, 3), (4, 1)] {
            q.push_back(DescId(id), QueueClass::Normal, JobId(job));
            model.push_back(DescId(id), QueueClass::Normal, JobId(job));
        }
        q.close(JobId(2));
        for _ in 0..3 {
            assert_eq!(q.pop(), model.pop());
        }
        assert_eq!(model.rr_cursor, 0, "popping job jobs-1 wraps the cursor");
        q.push_back(DescId(5), QueueClass::Normal, JobId(1));
        model.push_back(DescId(5), QueueClass::Normal, JobId(1));
        q.push_back(DescId(6), QueueClass::Normal, JobId(0));
        model.push_back(DescId(6), QueueClass::Normal, JobId(0));
        let hit = |id: DescId| id == DescId(2);
        assert_eq!(q.pop_matching(8, hit), model.pop_matching(8, hit));
        assert_eq!(model.rr_cursor, 1, "fairness path advances the cursor");
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let model_rest: Vec<_> = std::iter::from_fn(|| model.pop()).collect();
        assert_eq!(rest, model_rest);
        assert_eq!(rest, vec![DescId(5), DescId(6)]);
    }
}
