//! Convergence-theory tests (paper Prop. 4, Cor. 1, and the Sec. IV-C
//! discussion of special cases).

use laacad_suite::prelude::*;

#[test]
fn max_circumradius_monotone_for_alpha_one() {
    // Prop. 4's byproduct: with α = 1 the max circumradius R^l never
    // increases. The proposition assumes *exact* dominating regions, so
    // the radio range is set large enough that every ring search sees all
    // relevant competitors (with sparse radios, transient disconnection
    // lets the localized estimate overshoot).
    let region = Region::square(1.0).unwrap();
    for (k, seed) in [(1usize, 4u64), (2, 5), (3, 6)] {
        let n = 18;
        let config = LaacadConfig::builder(k)
            .transmission_range(1.5)
            .alpha(1.0)
            .epsilon(1e-3)
            .max_rounds(80)
            .build()
            .unwrap();
        let initial = sample_uniform(&region, n, seed);
        let mut sim = Session::builder(config)
            .region(region.clone())
            .positions(initial)
            .build()
            .unwrap();
        // `Session::run`'s loop, collecting each round's (round, R^l).
        let mut series = Vec::new();
        while sim.rounds_executed() < sim.config().max_rounds && !sim.is_converged() {
            let report = sim.step().report;
            series.push((report.round, report.max_circumradius));
        }
        sim.finalize();
        for w in series.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-6,
                "k={k} seed={seed}: R rose {} → {} at round {}",
                w[0].1,
                w[1].1,
                w[1].0
            );
        }
    }
}

#[test]
fn three_nodes_three_coverage_colocate() {
    // The paper's extreme example (Sec. IV-C): three nodes asked for
    // 3-coverage must converge to a single point — the Chebyshev center
    // of the whole area — because each node's dominating region is all
    // of A.
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(3)
        .transmission_range(2.0) // whole-area radio: k = N needs global reach
        .alpha(1.0)
        .epsilon(1e-6)
        .max_rounds(100)
        .build()
        .unwrap();
    let initial = vec![
        Point::new(0.1, 0.1),
        Point::new(0.8, 0.3),
        Point::new(0.4, 0.9),
    ];
    let mut sim = Session::builder(config)
        .region(region)
        .positions(initial)
        .build()
        .unwrap();
    let summary = sim.run();
    assert!(summary.converged, "{summary}");
    let center = Point::new(0.5, 0.5);
    for &p in sim.network().positions() {
        assert!(p.approx_eq(center, 1e-3), "node at {p}, expected {center}");
    }
    // r* = circumradius of the square = half diagonal.
    assert!((summary.max_sensing_radius - (0.5f64).hypot(0.5)).abs() < 1e-3);
}

#[test]
fn min_max_gap_shrinks_with_k() {
    // Sec. V-A: "the maximum and minimum sensing ranges are almost the
    // same for k > 2". Compare relative gaps for k = 1 vs k = 3.
    let region = Region::square(1.0).unwrap();
    let n = 30;
    let gap = |k: usize| {
        let config = LaacadConfig::builder(k)
            .transmission_range(LaacadConfig::recommended_gamma(1.0, n, k))
            .alpha(0.6)
            .epsilon(5e-4)
            .max_rounds(250)
            .build()
            .unwrap();
        let initial = sample_uniform(&region, n, 31);
        let mut sim = Session::builder(config)
            .region(region.clone())
            .positions(initial)
            .build()
            .unwrap();
        let summary = sim.run();
        (summary.max_sensing_radius - summary.min_sensing_radius) / summary.max_sensing_radius
    };
    let gap1 = gap(1);
    let gap3 = gap(3);
    assert!(
        gap3 < gap1,
        "relative gap should shrink with k: k=1 → {gap1:.3}, k=3 → {gap3:.3}"
    );
    assert!(gap3 < 0.2, "k=3 gap too wide: {gap3:.3}");
}

#[test]
fn converged_state_is_a_fixed_point() {
    // Running more rounds after convergence must not move anything.
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(1)
        .transmission_range(0.6)
        .alpha(1.0)
        .epsilon(1e-5)
        .max_rounds(300)
        .build()
        .unwrap();
    let initial = sample_uniform(&region, 8, 55);
    let mut sim = Session::builder(config)
        .region(region)
        .positions(initial)
        .build()
        .unwrap();
    let summary = sim.run();
    assert!(summary.converged, "{summary}");
    let before: Vec<Point> = sim.network().positions().to_vec();
    let delta = sim.step();
    assert_eq!(delta.report.nodes_moved, 0);
    assert!(delta.moved.is_empty());
    assert_eq!(sim.network().positions(), &before[..]);
}

#[test]
fn movement_energy_decreases_with_alpha() {
    // Smaller α ⇒ smoother (shorter per-round) motion but more rounds;
    // total distance is comparable, and every α ∈ (0,1] converges
    // (Prop. 4). This guards the motion-accounting plumbing.
    let region = Region::square(1.0).unwrap();
    let run = |alpha: f64| {
        let config = LaacadConfig::builder(1)
            .transmission_range(0.5)
            .alpha(alpha)
            .epsilon(1e-3)
            .max_rounds(400)
            .build()
            .unwrap();
        let initial = sample_uniform(&region, 10, 42);
        let mut sim = Session::builder(config)
            .region(region.clone())
            .positions(initial)
            .build()
            .unwrap();
        let summary = sim.run();
        assert!(summary.converged, "α={alpha}: {summary}");
        (summary.rounds, summary.total_distance_moved)
    };
    let (rounds_small, dist_small) = run(0.25);
    let (rounds_big, dist_big) = run(1.0);
    assert!(
        rounds_small > rounds_big,
        "α=0.25 should need more rounds ({rounds_small} vs {rounds_big})"
    );
    // Total travel should be within 2× of each other (same destination).
    assert!(
        dist_small < 2.0 * dist_big + 1.0,
        "{dist_small} vs {dist_big}"
    );
}
