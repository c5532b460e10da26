//! Randomized property tests on the core invariants of every layer.
//!
//! Inputs are generated from the workspace's own seeded
//! [`xrand::XorShift`](multicl_repro::xrand::XorShift) generator (the build
//! is offline, so no property-testing framework): each property runs over a
//! fixed range of seeds and failures reproduce exactly.

use hwsim::engine::{CommandDesc, CommandKind, Engine};
use hwsim::microbench::BandwidthCurve;
use hwsim::{DeviceId, KernelCostSpec, KernelTraits, NodeConfig, SimDuration};
use multicl::mapper;
use multicl_repro::xrand::XorShift;

fn duration(rng: &mut XorShift) -> SimDuration {
    SimDuration::from_nanos(rng.range_u64(1, 10_000_000))
}

fn cost_matrix(rng: &mut XorShift, queues: usize, devices: usize) -> Vec<Vec<SimDuration>> {
    (0..queues).map(|_| (0..devices).map(|_| duration(rng)).collect()).collect()
}

/// The exact search, cold: no warm start, no node budget.
fn optimal(costs: &mapper::CostMatrix) -> mapper::Mapping {
    mapper::adaptive(costs, None, u64::MAX, &mut mapper::MapperScratch::new()).mapping
}

/// The exact mapper is never worse than any enumerated assignment and
/// reports the true makespan of its own assignment.
#[test]
fn mapper_optimal_beats_every_enumerated_assignment() {
    let mut load = vec![SimDuration::ZERO; 3];
    for seed in 0..60u64 {
        let mut rng = XorShift::new(seed + 1);
        let queues = rng.range_u64(1, 6) as usize;
        let costs = cost_matrix(&mut rng, queues, 3);
        let m = optimal(&costs);
        assert_eq!(m.assignment.len(), queues);
        assert_eq!(mapper::makespan(&costs, &m.assignment, &mut load), m.makespan);
        for a in mapper::enumerate_assignments(queues, 3) {
            assert!(m.makespan <= mapper::makespan(&costs, &a, &mut load), "seed {seed}");
        }
    }
}

/// Greedy is valid (same cost accounting) and never beats optimal.
#[test]
fn mapper_greedy_is_valid_and_dominated() {
    let mut load = vec![SimDuration::ZERO; 4];
    for seed in 0..60u64 {
        let mut rng = XorShift::new(seed + 1);
        let queues = rng.range_u64(1, 8) as usize;
        let costs = cost_matrix(&mut rng, queues, 4);
        let g = mapper::greedy(&costs);
        assert_eq!(mapper::makespan(&costs, &g.assignment, &mut load), g.makespan);
        let o = optimal(&costs);
        assert!(g.makespan >= o.makespan, "seed {seed}");
    }
}

/// The adaptive mapper with a generous budget is *exactly* optimal — same
/// (makespan, total) objective — on every instance small enough to verify
/// by enumeration (`D^Q ≤ 4096`).
#[test]
fn mapper_adaptive_equals_optimal_on_small_instances() {
    let mut scratch = mapper::MapperScratch::new();
    for seed in 0..80u64 {
        let mut rng = XorShift::new(seed + 1);
        // D ∈ {2,3,4}, Q chosen so D^Q ≤ 4096: 2^12, 3^7 = 2187, 4^6.
        let devices = rng.range_u64(2, 5) as usize;
        let max_q = match devices {
            2 => 12,
            3 => 7,
            _ => 6,
        };
        let queues = rng.range_u64(1, max_q + 1) as usize;
        assert!(devices.pow(queues as u32) <= 4096);
        let costs = cost_matrix(&mut rng, queues, devices);
        let o = optimal(&costs);
        let a = mapper::adaptive(&costs, None, 1_000_000, &mut scratch);
        assert!(!a.budget_tripped, "seed {seed}: tiny instance must fit the budget");
        assert_eq!(
            (a.mapping.makespan, a.mapping.total),
            (o.makespan, o.total),
            "seed {seed}: adaptive under budget must match optimal"
        );
        // And the optimum really is the enumerated one.
        let mut load = vec![SimDuration::ZERO; devices];
        let brute = mapper::enumerate_assignments(queues, devices)
            .into_iter()
            .map(|asg| mapper::makespan(&costs, &asg, &mut load))
            .min()
            .unwrap();
        assert_eq!(o.makespan, brute, "seed {seed}");
    }
}

/// Local search never worsens: starting from greedy (and from adversarially
/// bad all-on-one-device seeds), the refined makespan is ≤ the seed's.
#[test]
fn mapper_local_search_never_worse_than_greedy() {
    let mut load = [SimDuration::ZERO; 5];
    for seed in 0..120u64 {
        let mut rng = XorShift::new(seed + 1);
        let devices = rng.range_u64(2, 6) as usize;
        let queues = rng.range_u64(1, 20) as usize;
        let costs = cost_matrix(&mut rng, queues, devices);
        let g = mapper::greedy(&costs);
        let refined = mapper::greedy_refined(&costs);
        assert!(refined.makespan <= g.makespan, "seed {seed}");
        assert_eq!(
            mapper::makespan(&costs, &refined.assignment, &mut load[..devices]),
            refined.makespan,
            "seed {seed}"
        );
        // From a deliberately terrible seed, refinement still never worsens.
        let mut stacked = vec![DeviceId(rng.index(devices)); queues];
        let before = mapper::makespan(&costs, &stacked, &mut load[..devices]);
        let after = mapper::local_search(&costs, &mut stacked);
        assert!(after.makespan <= before, "seed {seed}");
    }
}

/// A warm-started exact search reaches the identical (makespan, total)
/// objective as the cold search — the warm start only tightens the bound.
#[test]
fn mapper_warm_start_preserves_the_cold_objective() {
    let mut scratch = mapper::MapperScratch::new();
    for seed in 0..80u64 {
        let mut rng = XorShift::new(seed + 1);
        let devices = rng.range_u64(2, 5) as usize;
        let queues = rng.range_u64(1, 9) as usize;
        let costs = cost_matrix(&mut rng, queues, devices);
        let cold = mapper::adaptive(&costs, None, u64::MAX, &mut scratch);
        // Any warm start — here a random (possibly awful) assignment.
        let warm: Vec<DeviceId> = (0..queues).map(|_| DeviceId(rng.index(devices))).collect();
        let warmed = mapper::adaptive(&costs, Some(&warm), u64::MAX, &mut scratch);
        assert_eq!(
            (warmed.mapping.makespan, warmed.mapping.total),
            (cold.mapping.makespan, cold.mapping.total),
            "seed {seed}: warm start changed the objective"
        );
        assert!(!cold.budget_tripped && !warmed.budget_tripped);
    }
}

/// Engine events never run backwards: start ≥ queued, end ≥ start, and
/// commands on one device never overlap.
#[test]
fn engine_timeline_is_monotonic_and_non_overlapping() {
    for seed in 0..40u64 {
        let mut rng = XorShift::new(seed + 1);
        let n = rng.range_u64(1, 60) as usize;
        let mut e = Engine::new(3);
        let mut events = Vec::new();
        for _ in 0..n {
            let ev = e.submit(CommandDesc {
                device: DeviceId(rng.index(3)),
                kind: CommandKind::Marker,
                duration: SimDuration::from_micros(rng.range_u64(1, 1000)),
                waits: events.last().copied().into_iter().collect(),
                queue: 0,
            });
            events.push(ev);
        }
        let mut last_end = [hwsim::SimTime::ZERO; 3];
        let mut prev_end = hwsim::SimTime::ZERO;
        for (i, ev) in events.iter().enumerate() {
            let s = e.stamp(*ev);
            assert!(s.start >= s.queued);
            assert!(s.end >= s.start);
            // Chained waits: each command starts after its predecessor.
            assert!(s.start >= prev_end);
            prev_end = s.end;
            let d = e.trace().records[i].device.index();
            assert!(s.start >= last_end[d], "overlap on device {d} (seed {seed})");
            last_end[d] = s.end;
        }
    }
}

/// Kernel cost model: time scales monotonically with work, and the
/// minikernel never costs more than the full kernel.
#[test]
fn cost_model_is_monotonic_and_minikernel_is_cheaper() {
    let node = NodeConfig::paper_node();
    for seed in 0..100u64 {
        let mut rng = XorShift::new(seed + 1);
        let spec = KernelCostSpec {
            flops_per_item: rng.range_f64(1.0, 10_000.0),
            bytes_per_item: rng.range_f64(1.0, 10_000.0),
            traits: KernelTraits {
                coalescing: rng.f64(),
                branch_divergence: rng.f64(),
                vector_friendliness: rng.f64(),
                double_precision: true,
            },
        };
        let log_items = rng.range_u64(8, 22) as u32;
        let small = hwsim::NdRangeShape::new(1 << log_items, 64);
        let large = hwsim::NdRangeShape::new(1 << (log_items + 1), 64);
        for d in node.device_ids() {
            let dev = node.spec(d);
            let t_small = spec.kernel_time(dev, small);
            let t_large = spec.kernel_time(dev, large);
            assert!(t_large >= t_small, "{d}: more work must not be faster (seed {seed})");
            let mini = spec.minikernel_time(dev, large);
            assert!(mini <= t_large, "{d}: minikernel must not exceed full (seed {seed})");
        }
    }
}

/// Bandwidth-curve interpolation stays within the measured envelope.
#[test]
fn interpolation_is_bounded_by_measurements() {
    for seed in 0..100u64 {
        let mut rng = XorShift::new(seed + 1);
        let n = rng.range_u64(4, 10) as usize;
        let gbs: Vec<f64> = (0..n).map(|_| rng.range_f64(0.1, 50.0)).collect();
        let query = rng.range_u64(1, 1 << 30);
        let sizes: Vec<u64> = (0..gbs.len()).map(|i| 1u64 << (10 + 2 * i)).collect();
        let curve = BandwidthCurve::new(sizes, gbs.clone());
        let v = curve.interpolate_gbs(query);
        let lo = gbs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = gbs.iter().cloned().fold(0.0, f64::max);
        assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "{v} outside [{lo}, {hi}] (seed {seed})");
    }
}

/// Transfer times scale monotonically with payload size for every device
/// pair.
#[test]
fn transfer_times_are_monotonic_in_size() {
    let node = NodeConfig::paper_node();
    for seed in 0..100u64 {
        let mut rng = XorShift::new(seed + 1);
        let bytes = rng.range_u64(1, 1 << 28);
        for src in node.device_ids() {
            for dst in node.device_ids() {
                let t1 = node.topology.device_transfer_time(src, dst, bytes, &node.devices);
                let t2 = node.topology.device_transfer_time(src, dst, bytes * 2, &node.devices);
                assert!(t2 >= t1, "seed {seed}");
            }
        }
    }
}

/// NdRange flattening preserves item/workgroup accounting.
#[test]
fn ndrange_flattening_is_consistent() {
    for seed in 0..200u64 {
        let mut rng = XorShift::new(seed + 1);
        let (gx, gy, gz) = (rng.range_u64(1, 64), rng.range_u64(1, 64), rng.range_u64(1, 8));
        let (lx, ly) = (rng.range_u64(1, 16), rng.range_u64(1, 16));
        let nd = clrt::NdRange::d3([gx, gy, gz], [lx, ly, 1]);
        let shape = nd.shape();
        assert_eq!(shape.local_items, lx * ly);
        assert_eq!(shape.workgroups(), nd.workgroups());
        assert_eq!(nd.workgroups(), gx.div_ceil(lx) * gy.div_ceil(ly) * gz);
    }
}

/// The NPB generator's skip-ahead equals sequential stepping from any
/// starting state.
#[test]
fn randdp_skip_equals_stepping() {
    for seed in 0..30u64 {
        let mut rng = XorShift::new(seed + 1);
        let start = rng.range_u64(1, 1 << 40) | 1;
        let n = rng.range_u64(0, 5000);
        let mut a = npb::randdp::RanDp::new(start);
        let mut b = npb::randdp::RanDp::new(start);
        for _ in 0..n {
            a.next_f64();
        }
        b.skip(n);
        assert_eq!(a.state(), b.state(), "seed {seed}");
    }
}

/// The scalar tridiagonal solver leaves a tiny residual on any diagonally
/// dominant system.
#[test]
fn thomas_solver_residual_is_small() {
    for seed in 0..60u64 {
        let mut outer = XorShift::new(seed + 1);
        let n = outer.range_u64(3, 40) as usize;
        let mut rng = npb::randdp::RanDp::new(outer.next_u64() | 1);
        let a0: Vec<f64> =
            (0..n).map(|i| if i == 0 { 0.0 } else { rng.next_f64() - 0.5 }).collect();
        let c0: Vec<f64> =
            (0..n).map(|i| if i + 1 == n { 0.0 } else { rng.next_f64() - 0.5 }).collect();
        let b0: Vec<f64> = (0..n).map(|i| 2.0 + a0[i].abs() + c0[i].abs()).collect();
        let d0: Vec<f64> = (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
        let (mut b, mut c, mut d) = (b0.clone(), c0.clone(), d0.clone());
        npb::math::thomas_tridiag(&a0, &mut b, &mut c, &mut d);
        for i in 0..n {
            let mut acc = b0[i] * d[i];
            if i > 0 {
                acc += a0[i] * d[i - 1];
            }
            if i + 1 < n {
                acc += c0[i] * d[i + 1];
            }
            assert!((acc - d0[i]).abs() < 1e-8, "row {i}: {acc} vs {} (seed {seed})", d0[i]);
        }
    }
}

/// FFT round-trips arbitrary signals (power-of-two lengths).
#[test]
fn fft_roundtrip_is_identity() {
    for seed in 0..40u64 {
        let mut outer = XorShift::new(seed + 1);
        let n = 1usize << outer.range_u64(2, 9);
        let mut rng = npb::randdp::RanDp::new(outer.next_u64() | 1);
        let mut data: Vec<f64> = (0..2 * n).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
        let orig = data.clone();
        npb::math::fft_radix2(&mut data, -1.0);
        npb::math::fft_radix2(&mut data, 1.0);
        for v in data.iter_mut() {
            *v /= n as f64;
        }
        for (x, y) in data.iter().zip(&orig) {
            assert!((x - y).abs() < 1e-9, "seed {seed}");
        }
    }
}

/// Queue scheduling flag bitfield: insert/remove/contains behave like a set
/// for any combination.
#[test]
fn flags_behave_like_a_set() {
    use multicl::QueueSchedFlags as F;
    const ALL: [F; 9] = [
        F::SCHED_OFF,
        F::SCHED_AUTO_STATIC,
        F::SCHED_AUTO_DYNAMIC,
        F::SCHED_KERNEL_EPOCH,
        F::SCHED_EXPLICIT_REGION,
        F::SCHED_ITERATIVE,
        F::SCHED_COMPUTE_BOUND,
        F::SCHED_IO_BOUND,
        F::SCHED_MEM_BOUND,
    ];
    for seed in 0..200u64 {
        let mut rng = XorShift::new(seed + 1);
        let bits: Vec<usize> = (0..rng.index(9)).map(|_| rng.index(9)).collect();
        let mut f = F::NONE;
        for &b in &bits {
            f.insert(ALL[b]);
        }
        for &b in &bits {
            assert!(f.contains(ALL[b]), "seed {seed}");
        }
        for &b in &bits {
            f.remove(ALL[b]);
        }
        assert!(f.is_empty(), "seed {seed}");
    }
}
