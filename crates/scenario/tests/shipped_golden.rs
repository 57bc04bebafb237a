//! The golden over `scenarios/`: every shipped spec, run through
//! [`run_campaign`] into a result store, must succeed in every cell and
//! reproduce its recorded JSONL and CSV bytes exactly. The FNV-1a 64
//! hashes below were recorded before the spec runners were folded into
//! `run_scenario` / `run_campaign`; a change to any engine, spec or
//! serialization that moves one output byte of one shipped spec fails
//! here. Re-record a hash only for a change that is meant to move that
//! spec's results, and say so in the change description.

use laacad::fnv1a64;
use laacad_scenario::{run_campaign, CampaignRunOptions, CampaignSpec, ResultStore};
use std::path::PathBuf;

/// `(spec file stem, JSONL hash, CSV hash)` for every `scenarios/*.toml`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("ablation_alpha", 0xdfe5195e704026f0, 0x3e50c22c2cb5c80a),
    ("ablation_lloyd", 0xf4fef41752a2d7bc, 0x1af339cb0d978a6d),
    ("ablation_ranging", 0x025fb129f38e2d23, 0xa53ee01165d3992f),
    ("ablation_schedule", 0x220a264f73270803, 0x120153b7f6011995),
    ("async_adversarial", 0xff2069f579d34e5d, 0x4a74669b2ff1ed6b),
    ("async_faults", 0x2eb4915fd752372e, 0x2e01c589969b1bdc),
    ("battery_depletion", 0x5b6c8899726183ef, 0x30a09788156acd28),
    ("churn_redeploy", 0x4ae3bf03e965f8d0, 0x1cd6c6293f084bd2),
    (
        "corridor_escalation",
        0xe265355fe20fbe80,
        0x21707c95640005b9,
    ),
    ("failure_recovery", 0x8f2007375b3f8023, 0xd5afe97be72cf0be),
    ("fig5_corner", 0xfa38d24b186fe8e3, 0x817f9bc8ffcebfd2),
    ("fig6_convergence", 0x94a5150167d7a598, 0x5c843768b5945985),
    ("fig7_energy", 0x07712bbdc718b996, 0x93bd62604f0d1bac),
    ("fig8_coast", 0x65d4b9b84291071d, 0x875bd9ef1a3a97f1),
    ("fig8_lakes", 0x760c8ea583fe3c28, 0xb4e7120dd4152ee6),
    ("obstacle_lakes", 0x186713d1546720ad, 0xcad5eebbd6cb9942),
    ("table1_minnode", 0x5dc403317b854383, 0x1429868c750d9a61),
    ("table2_ammari", 0x513ffd7638516559, 0xe845a1d7f5d253d0),
    ("telemetry_demo", 0xc56937e3a4716369, 0x05534f72c831fd8b),
];

#[test]
fn every_shipped_spec_reproduces_its_recorded_results() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    let stems: Vec<String> = paths
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let golden: Vec<&str> = GOLDEN.iter().map(|&(stem, _, _)| stem).collect();
    assert_eq!(stems, golden, "every shipped spec needs a golden entry");

    let out = std::env::temp_dir().join("laacad-shipped-golden");
    let _ = std::fs::remove_dir_all(&out);
    let store = ResultStore::new(&out);
    let mut mismatches = Vec::new();
    for (path, &(stem, jsonl_hash, csv_hash)) in paths.iter().zip(GOLDEN) {
        let campaign = CampaignSpec::from_path(path).unwrap();
        let options = CampaignRunOptions {
            store: Some(&store),
            ..CampaignRunOptions::default()
        };
        let results = run_campaign(&campaign, options).unwrap();
        for r in &results {
            if let Err(e) = &r.outcome {
                panic!("{stem}: cell {} failed: {e}", r.cell.index);
            }
        }
        let hash = |ext: &str| {
            let file = out.join(format!("{}.{ext}", campaign.name));
            fnv1a64(&std::fs::read(&file).unwrap())
        };
        let (jsonl, csv) = (hash("jsonl"), hash("csv"));
        if (jsonl, csv) != (jsonl_hash, csv_hash) {
            mismatches.push(format!("(\"{stem}\", {jsonl:#018x}, {csv:#018x})"));
        }
    }
    let _ = std::fs::remove_dir_all(&out);
    assert!(
        mismatches.is_empty(),
        "results moved for {} spec(s); now:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
