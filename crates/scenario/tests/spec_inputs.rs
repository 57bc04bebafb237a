//! Spec files are an input boundary: whatever bytes a user hands the
//! command line, decoding either yields a spec or a typed error — never
//! a panic or a stack overflow.
//!
//! * Nesting deeper than [`MAX_NESTING`] is refused by both parsers
//!   (10 000 levels used to overflow the stack and abort the process).
//! * Every shipped spec, as its TOML bytes and as its JSON rendering,
//!   survives every single-byte flip (`^ 0x01`, `^ 0x80`, `^ 0xFF`) and
//!   every truncation through decode, grid expansion and building each
//!   cell's region, placement and configuration.

use laacad_scenario::value::MAX_NESTING;
use laacad_scenario::{json, toml, CampaignSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// `depth` levels of `open`, a `1`, then `depth` levels of `close`.
fn nested(open: &str, close: &str, depth: usize) -> String {
    format!("{}1{}", open.repeat(depth), close.repeat(depth))
}

#[test]
fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
    for depth in [10_000, 1_000, MAX_NESTING + 1] {
        let text = format!("x = {}", nested("[", "]", depth));
        let err = toml::parse(&text).expect_err("TOML nesting limit");
        assert!(err.message.contains("nest deeper"), "{err}");
        let text = format!("x = {}", nested("{ y = ", " }", depth));
        let err = toml::parse(&text).expect_err("inline tables");
        assert!(err.message.contains("nest deeper"), "{err}");
        let err = json::parse(&nested("[", "]", depth)).expect_err("JSON nesting limit");
        assert!(err.message.contains("nest deeper"), "{err}");
        let err = json::parse(&nested("{\"y\": ", "}", depth)).expect_err("objects");
        assert!(err.message.contains("nest deeper"), "{err}");
    }
    let header = format!("[{}]", vec!["t"; 10_000].join("."));
    assert!(toml::parse(&header).is_err(), "dotted table header");

    // The limit itself still parses.
    let text = format!("x = {}", nested("[", "]", MAX_NESTING));
    assert!(toml::parse(&text).is_ok());
    let text = format!("x = {}", nested("{ y = ", " }", MAX_NESTING));
    assert!(toml::parse(&text).is_ok());
    assert!(json::parse(&nested("[", "]", MAX_NESTING)).is_ok());
    assert!(json::parse(&nested("{\"y\": ", "}", MAX_NESTING)).is_ok());
}

/// Cells above this size are decoded and expanded but not built: the
/// skip bounds the test's run time only.
const BUILD_LIMIT: usize = 5_000;

/// Decodes, expands and builds every cell; any error is fine.
fn decode_and_build(bytes: &[u8], is_json: bool) {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return; // reading the file already fails with a typed error
    };
    let value = match is_json {
        true => json::parse(text).map_err(|e| e.to_string()),
        false => toml::parse(text).map_err(|e| e.to_string()),
    };
    let Some(cells) = value
        .ok()
        .and_then(|v| CampaignSpec::from_value(&v).ok())
        .and_then(|c| c.expand().ok())
    else {
        return;
    };
    for cell in cells.iter().filter(|c| c.n <= BUILD_LIMIT) {
        let spec = &cell.scenario;
        let Ok(region) = spec.region.build() else {
            continue;
        };
        let Ok(positions) = spec.placement.build(&region, cell.seed) else {
            continue;
        };
        let _ = spec.laacad.build(&region, positions.len(), cell.seed);
    }
}

#[test]
fn mutated_and_truncated_shipped_specs_never_panic() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    let mut cases = 0usize;
    let mut panics = Vec::new();
    for path in &paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let toml_bytes = std::fs::read(path).unwrap();
        let campaign = CampaignSpec::from_path(path).unwrap();
        let json_bytes = json::to_string(&campaign.to_value()).into_bytes();
        for (format, bytes, is_json) in [("toml", &toml_bytes, false), ("json", &json_bytes, true)]
        {
            let mut check = |what: String, buf: &[u8]| {
                cases += 1;
                if catch_unwind(AssertUnwindSafe(|| decode_and_build(buf, is_json))).is_err() {
                    panics.push(format!("{name} ({format}): {what}"));
                }
            };
            for at in 0..bytes.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut buf = bytes.clone();
                    buf[at] ^= flip;
                    check(format!("byte {at} ^ {flip:#04x}"), &buf);
                }
            }
            for len in 0..bytes.len() {
                check(format!("cut at {len}"), &bytes[..len]);
            }
        }
    }
    assert!(cases > 0);
    assert!(
        panics.is_empty(),
        "{} of {cases} cases panicked: {:?}",
        panics.len(),
        &panics[..panics.len().min(20)]
    );
}
