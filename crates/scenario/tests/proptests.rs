//! Property tests: generated scenario documents parse to the spec they
//! spell out, whatever their shape.
//!
//! Each strategy yields a TOML fragment together with the value it
//! must decode to. Floats are written with Rust's `{:?}`, the shortest
//! decimal that reads back to the same `f64`.

use laacad_scenario::{
    AlgorithmSpec, EvaluationSpec, EventAction, EventSpec, PlacementSpec, RegionSpec, ScenarioSpec,
};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    // Representative coordinate scale; rounded so values are "ordinary"
    // decimals (a dedicated case below checks gnarly values).
    (0.0f64..10.0).prop_map(|x| (x * 1e4).round() / 1e4)
}

fn pairs(ps: &[(f64, f64)]) -> String {
    let items: Vec<String> = ps.iter().map(|(x, y)| format!("[{x:?}, {y:?}]")).collect();
    format!("[{}]", items.join(", "))
}

fn region() -> impl Strategy<Value = (String, RegionSpec)> {
    (0usize..4, 0.5f64..20.0, 0.5f64..20.0, 0usize..7).prop_map(|(kind, a, b, name_idx)| match kind
    {
        0 => (
            format!("kind = \"square\"\nside = {a:?}"),
            RegionSpec::Square { side: a },
        ),
        1 => (
            format!("kind = \"rect\"\nwidth = {a:?}\nheight = {b:?}"),
            RegionSpec::Rect {
                width: a,
                height: b,
            },
        ),
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
            (
                format!("kind = \"named\"\nname = \"{}\"", names[name_idx]),
                RegionSpec::Named(names[name_idx].into()),
            )
        }
        _ => {
            let outer = vec![(0.0, 0.0), (a, 0.0), (a, b), (0.0, b)];
            let hole = vec![(a / 4.0, b / 4.0), (a / 2.0, b / 4.0), (a / 2.0, b / 2.0)];
            (
                format!(
                    "kind = \"polygon\"\nouter = {}\nholes = [{}]",
                    pairs(&outer),
                    pairs(&hole)
                ),
                RegionSpec::Polygon {
                    outer,
                    holes: vec![hole],
                },
            )
        }
    })
}

fn placement() -> impl Strategy<Value = (String, PlacementSpec)> {
    (0usize..4, 1usize..200, coord(), coord(), 0.01f64..0.5).prop_map(
        |(kind, n, cx, cy, radius)| match kind {
            0 => (
                format!("kind = \"uniform\"\nn = {n}"),
                PlacementSpec::Uniform { n },
            ),
            1 => (
                format!(
                    "kind = \"clustered\"\nn = {n}\ncenter = [{cx:?}, {cy:?}]\nradius = {radius:?}"
                ),
                PlacementSpec::Clustered {
                    n,
                    center: (cx, cy),
                    radius,
                },
            ),
            2 => (
                format!("kind = \"corner\"\nn = {n}\nradius = {radius:?}"),
                PlacementSpec::Corner { n, radius },
            ),
            _ => {
                let points = vec![(cx, cy), (cx + 0.125, cy), (cx, cy + 0.25)];
                (
                    format!("kind = \"custom\"\npoints = {}", pairs(&points)),
                    PlacementSpec::Custom { points },
                )
            }
        },
    )
}

/// An `[[events]]` table (its body, after the header) and its event.
fn event() -> impl Strategy<Value = (String, EventSpec)> {
    (
        0usize..7,
        1usize..300,
        0.01f64..0.99,
        1usize..6,
        coord(),
        coord(),
    )
        .prop_map(|(kind, round, x, k, cx, cy)| {
            let (body, action) = match kind {
                0 => (
                    format!("action = \"fail_fraction\"\nfraction = {x:?}"),
                    EventAction::FailFraction { fraction: x },
                ),
                1 => (
                    format!("action = \"fail_nodes\"\nids = [{k}, {}, {}]", k + 1, k + 7),
                    EventAction::FailNodes {
                        ids: vec![k, k + 1, k + 7],
                    },
                ),
                2 => (
                    format!("action = \"fail_region\"\ncenter = [{cx:?}, {cy:?}]\nradius = {x:?}"),
                    EventAction::FailRegion {
                        center: (cx, cy),
                        radius: x,
                    },
                ),
                3 => (
                    format!(
                        "action = \"deplete_batteries\"\ncapacity = {:?}\nsense_cost = {x:?}",
                        x * 10.0
                    ),
                    EventAction::DepleteBatteries {
                        capacity: x * 10.0,
                        move_cost: 1.0,
                        sense_cost: x,
                        exponent: 2.0,
                    },
                ),
                4 => (
                    format!(
                        "action = \"insert\"\n\n[events.placement]\nkind = \"uniform\"\nn = {k}"
                    ),
                    EventAction::Insert {
                        placement: PlacementSpec::Uniform { n: k },
                    },
                ),
                5 => (
                    format!("action = \"set_k\"\nk = {k}"),
                    EventAction::SetK { k },
                ),
                _ => (
                    format!("action = \"set_alpha\"\nalpha = {x:?}"),
                    EventAction::SetAlpha { alpha: x },
                ),
            };
            (
                format!("round = {round}\n{body}"),
                EventSpec { round, action },
            )
        })
}

fn spec() -> impl Strategy<Value = (String, ScenarioSpec)> {
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
            |(
                (region_text, region),
                (placement_text, placement),
                events,
                k,
                alpha,
                max_rounds,
                samples,
            )| {
                let alpha = (alpha * 1e4).round() / 1e4;
                let mut text = format!(
                    "name = \"proptest-spec\"\ndescription = \"generated\"\n\n\
                     [region]\n{region_text}\n\n[placement]\n{placement_text}\n\n\
                     [laacad]\nk = {k}\nalpha = {alpha:?}\nmax_rounds = {max_rounds}\n\n\
                     [evaluation]\ncoverage_samples = {samples}\nenergy_exponent = 2.0\n"
                );
                for (body, _) in &events {
                    text.push_str(&format!("\n[[events]]\n{body}\n"));
                }
                let spec = ScenarioSpec {
                    name: "proptest-spec".into(),
                    description: "generated".into(),
                    region,
                    placement,
                    laacad: AlgorithmSpec {
                        k,
                        alpha,
                        max_rounds,
                        ..AlgorithmSpec::default()
                    },
                    events: events.into_iter().map(|(_, e)| e).collect(),
                    evaluation: EvaluationSpec {
                        coverage_samples: samples,
                        energy_exponent: 2.0,
                        ..EvaluationSpec::default()
                    },
                };
                (text, spec)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_documents_parse_to_their_spec(case in spec()) {
        let (text, spec) = case;
        let back = ScenarioSpec::from_toml(&text);
        prop_assert!(back.is_ok(), "parse failed: {:?}\n{}", back.err(), text);
        prop_assert_eq!(spec, back.unwrap(), "TOML:\n{}", text);
    }

    #[test]
    fn arbitrary_floats_round_trip(x in -1.0e9f64..1.0e9, frac in 0.0f64..1.0) {
        // Shortest-round-trip float text parses back exactly, for any
        // f64 the grid or spec might carry.
        let gnarly = x * frac + frac;
        let epsilon = gnarly.abs() + 1e-12;
        let gamma = frac + 0.1;
        let text = format!(
            "name = \"floats\"\n[region]\nkind = \"named\"\nname = \"unit_square\"\n\
             [placement]\nkind = \"uniform\"\nn = 5\n\
             [laacad]\nk = 1\nepsilon = {epsilon:?}\ngamma = {gamma:?}\n"
        );
        let mut spec = ScenarioSpec::uniform("floats", 5, 1);
        spec.laacad.epsilon = Some(epsilon);
        spec.laacad.gamma = Some(gamma);
        let back = ScenarioSpec::from_toml(&text).unwrap();
        prop_assert_eq!(spec, back, "TOML:\n{}", text);
    }
}
