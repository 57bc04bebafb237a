//! Property tests: scenario specs survive the TOML round trip whatever
//! their shape.

use laacad_scenario::{
    AlgorithmSpec, EvaluationSpec, EventAction, EventSpec, PlacementSpec, RegionSpec, ScenarioSpec,
};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    // Representative coordinate scale; rounded so values are "ordinary"
    // decimals (round-tripping itself must be exact for any f64 — a
    // dedicated case below checks gnarly values).
    (0.0f64..10.0).prop_map(|x| (x * 1e4).round() / 1e4)
}

fn region() -> impl Strategy<Value = RegionSpec> {
    (0usize..4, 0.5f64..20.0, 0.5f64..20.0, 0usize..7).prop_map(|(kind, a, b, name_idx)| match kind
    {
        0 => RegionSpec::Square { side: a },
        1 => RegionSpec::Rect {
            width: a,
            height: b,
        },
        2 => {
            let names = [
                "unit_square",
                "l_shape",
                "cross",
                "coast",
                "lakes",
                "corridor",
                "forest",
            ];
            RegionSpec::Named(names[name_idx].into())
        }
        _ => RegionSpec::Polygon {
            outer: vec![(0.0, 0.0), (a, 0.0), (a, b), (0.0, b)],
            holes: vec![vec![
                (a / 4.0, b / 4.0),
                (a / 2.0, b / 4.0),
                (a / 2.0, b / 2.0),
            ]],
        },
    })
}

fn placement() -> impl Strategy<Value = PlacementSpec> {
    (0usize..4, 1usize..200, coord(), coord(), 0.01f64..0.5).prop_map(
        |(kind, n, cx, cy, radius)| match kind {
            0 => PlacementSpec::Uniform { n },
            1 => PlacementSpec::Clustered {
                n,
                center: (cx, cy),
                radius,
            },
            2 => PlacementSpec::Corner { n, radius },
            _ => PlacementSpec::Custom {
                points: vec![(cx, cy), (cx + 0.125, cy), (cx, cy + 0.25)],
            },
        },
    )
}

fn event() -> impl Strategy<Value = EventSpec> {
    (
        0usize..7,
        1usize..300,
        0.01f64..0.99,
        1usize..6,
        coord(),
        coord(),
    )
        .prop_map(|(kind, round, x, k, cx, cy)| {
            let action = match kind {
                0 => EventAction::FailFraction { fraction: x },
                1 => EventAction::FailNodes {
                    ids: vec![k, k + 1, k + 7],
                },
                2 => EventAction::FailRegion {
                    center: (cx, cy),
                    radius: x,
                },
                3 => EventAction::DepleteBatteries {
                    capacity: x * 10.0,
                    move_cost: 1.0,
                    sense_cost: x,
                    exponent: 2.0,
                },
                4 => EventAction::Insert {
                    placement: PlacementSpec::Uniform { n: k },
                },
                5 => EventAction::SetK { k },
                _ => EventAction::SetAlpha { alpha: x },
            };
            EventSpec { round, action }
        })
}

fn spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        region(),
        placement(),
        prop::collection::vec(event(), 0..5),
        1usize..5,
        0.05f64..1.0,
        10usize..500,
        1000usize..20000,
    )
        .prop_map(
            |(region, placement, events, k, alpha, max_rounds, samples)| ScenarioSpec {
                name: "proptest-spec".into(),
                description: "generated".into(),
                region,
                placement,
                laacad: AlgorithmSpec {
                    k,
                    alpha: (alpha * 1e4).round() / 1e4,
                    max_rounds,
                    ..AlgorithmSpec::default()
                },
                events,
                evaluation: EvaluationSpec {
                    coverage_samples: samples,
                    energy_exponent: 2.0,
                    ..EvaluationSpec::default()
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn toml_round_trip(spec in spec()) {
        let text = spec.to_toml();
        let back = ScenarioSpec::from_toml(&text);
        prop_assert!(back.is_ok(), "reparse failed: {:?}\n{}", back.err(), text);
        prop_assert_eq!(spec, back.unwrap(), "TOML:\n{}", text);
    }

    #[test]
    fn arbitrary_floats_round_trip(x in -1.0e9f64..1.0e9, frac in 0.0f64..1.0) {
        // Shortest-round-trip float formatting is exact for any f64 the
        // grid or spec might carry.
        let gnarly = x * frac + frac;
        let mut spec = ScenarioSpec::uniform("floats", 5, 1);
        spec.laacad.epsilon = Some(gnarly.abs() + 1e-12);
        spec.laacad.gamma = Some(frac + 0.1);
        let back = ScenarioSpec::from_toml(&spec.to_toml()).unwrap();
        prop_assert_eq!(spec.clone(), back);
    }
}
