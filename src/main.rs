//! `laacad-suite` — one command line for every scenario spec.
//!
//! ```sh
//! cargo run --release -- scenarios/fig5_corner.toml [more specs...] [--telemetry]
//! ```
//!
//! For each TOML spec file (a campaign or a bare scenario) it
//! runs the campaign through [`run_campaign`], streaming the result store
//! (`<name>.jsonl` / `<name>.csv`) into `$LAACAD_OUT` (default `./out`)
//! and progress to stderr. It then prints one per-cell table — the grid
//! axes that vary, rounds, convergence, R*, r_min, k-coverage, max load,
//! distance moved and warnings — and writes the same rows as
//! `<name>.table.csv`. Campaigns that reproduce the paper's figures and
//! tables add their report (extra columns, derived variants, figures;
//! see `report.rs`). `--telemetry` records per-cell telemetry files
//! beside the results for every cell.
//!
//! Exit status: 0 when every cell ran; 1 when a cell failed or a file
//! could not be written; 2 for a bad command line — an unknown flag, a
//! missing path or an undecodable spec, all checked before anything
//! runs.

mod report;

use laacad_scenario::{
    run_campaign, CampaignProgress, CampaignRunOptions, CampaignSpec, CellResult, ResultStore,
};
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: laacad-suite <spec.toml>... [--telemetry]";

fn main() -> ExitCode {
    let mut telemetry = false;
    let mut paths = Vec::new();
    for arg in std::env::args_os().skip(1) {
        match arg.to_str() {
            Some("--telemetry") => telemetry = true,
            Some(flag) if flag.starts_with('-') => {
                return usage_error(&format!("unknown flag `{flag}` ({USAGE})"))
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }
    if paths.is_empty() {
        return usage_error(&format!("no spec given ({USAGE})"));
    }
    let mut campaigns = Vec::with_capacity(paths.len());
    for path in &paths {
        match CampaignSpec::from_path(path) {
            Ok(campaign) => campaigns.push(campaign),
            Err(e) => return usage_error(&format!("{}: {e}", path.display())),
        }
    }
    let out = std::env::var_os("LAACAD_OUT").map_or_else(|| PathBuf::from("out"), PathBuf::from);
    let store = ResultStore::new(out);
    let mut all_ran = true;
    for campaign in &campaigns {
        match run(campaign, &store, telemetry) {
            Ok(ran) => all_ran &= ran,
            Err(e) => {
                eprintln!("laacad-suite: {}: {e}", campaign.name);
                all_ran = false;
            }
        }
    }
    if all_ran {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Reports a bad command line in one line; exit status 2.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("laacad-suite: {message}");
    ExitCode::from(2)
}

/// Runs `campaign` and the variants its report derives, printing a table
/// per campaign and then the report. `Ok(false)` when a cell failed.
fn run(
    campaign: &CampaignSpec,
    store: &ResultStore,
    telemetry: bool,
) -> Result<bool, Box<dyn std::error::Error>> {
    let report = report::for_campaign(&campaign.name);
    let mut campaigns = vec![campaign.clone()];
    if let Some(report) = &report {
        campaigns.extend(report.variants(campaign));
    }
    let mut runs = Vec::with_capacity(campaigns.len());
    let mut all_ran = true;
    for campaign in campaigns {
        let name = campaign.name.clone();
        let mut on_progress = |p: &CampaignProgress| {
            let eta = p
                .eta_secs
                .map_or_else(|| "?".into(), |s| format!("{s:.0}s"));
            eprintln!(
                "[{name}] {}/{} cells, {:.1} cells/min, eta {eta}",
                p.completed, p.total, p.cells_per_minute
            );
        };
        let options = CampaignRunOptions {
            store: Some(store),
            telemetry,
            progress: Some(&mut on_progress),
        };
        let results = run_campaign(&campaign, options)?;
        let table = cell_table(&campaign, &results, report.as_deref());
        std::fs::write(store.dir().join(format!("{name}.table.csv")), table.csv())?;
        let dir = store.dir().display();
        println!("wrote {dir}/{name}.jsonl, .csv and .table.csv");
        println!("\n{name}\n{}", table.markdown());
        all_ran &= results.iter().all(|r| r.outcome.is_ok());
        runs.push((campaign, results));
    }
    if let Some(report) = &report {
        report.finish(&runs, store.dir())?;
    }
    Ok(all_ran)
}

/// Rows of cells under a header, rendered as markdown or CSV.
struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        let mut out = line(&self.headers) + &line(&rule);
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }

    fn csv(&self) -> String {
        let field = |c: &String| {
            if c.contains([',', '"', '\n']) {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        std::iter::once(&self.headers)
            .chain(&self.rows)
            .map(|row| row.iter().map(field).collect::<Vec<_>>().join(",") + "\n")
            .collect()
    }
}

/// A grid axis: its header and each cell's value, as text.
type Axis = (&'static str, fn(&laacad_scenario::CellInfo) -> String);

fn opt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |v| v.to_string())
}

const AXES: [Axis; 8] = [
    ("n", |c| c.n.to_string()),
    ("k", |c| c.k.to_string()),
    ("α", |c| c.alpha.to_string()),
    ("γ", |c| opt(c.gamma)),
    ("loss", |c| opt(c.loss)),
    ("delay", |c| opt(c.delay)),
    ("corruption", |c| opt(c.corruption)),
    ("seed", |c| c.seed.to_string()),
];

/// The per-cell table: the grid axes whose value varies across the
/// cells, the generic outcome columns, then the report's columns.
fn cell_table(
    campaign: &CampaignSpec,
    results: &[CellResult],
    report: Option<&dyn Report>,
) -> Table {
    let axes: Vec<&Axis> = AXES
        .iter()
        .filter(|(_, value)| {
            let first = results.first().map(|r| value(&r.cell));
            results.iter().any(|r| Some(value(&r.cell)) != first)
        })
        .collect();
    let generic = [
        "rounds",
        "converged",
        "R*",
        "r_min",
        "k-covered",
        "max load",
        "distance moved",
        "warnings",
    ];
    let extra = report.map_or(&[][..], |r| r.headers());
    let headers = axes
        .iter()
        .map(|(h, _)| *h)
        .chain(generic)
        .chain(extra.iter().copied())
        .map(String::from)
        .collect();
    let rows = results
        .iter()
        .map(|r| {
            let mut row: Vec<String> = axes.iter().map(|(_, value)| value(&r.cell)).collect();
            match &r.outcome {
                Ok(o) => {
                    let s = &o.summary;
                    row.extend([
                        s.rounds.to_string(),
                        s.converged.to_string(),
                        format!("{:.4}", s.max_sensing_radius),
                        format!("{:.4}", s.min_sensing_radius),
                        format!("{:.1}%", 100.0 * o.coverage.covered_fraction),
                        format!("{:.4}", o.max_load),
                        format!("{:.2}", s.total_distance_moved),
                        o.warnings.len().to_string(),
                    ]);
                    let values = report.and_then(|rep| rep.values(campaign, &r.cell, o));
                    row.extend(values.unwrap_or_else(|| vec!["-".into(); extra.len()]));
                }
                Err(e) => {
                    row.extend(std::iter::repeat_n("-".to_string(), generic.len() - 1));
                    row.push(format!("failed: {e}"));
                    row.extend(std::iter::repeat_n("-".to_string(), extra.len()));
                }
            }
            row
        })
        .collect();
    Table { headers, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table {
            headers: vec!["k".into(), "value".into()],
            rows: vec![
                vec!["1".into(), "0.5".into()],
                vec!["10".into(), "[0, 96, 2]".into()],
            ],
        }
    }

    #[test]
    fn markdown_aligns_columns() {
        let text = table().markdown();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
        assert_eq!(lines[0], "| k  | value      |");
    }

    #[test]
    fn csv_quotes_fields_with_commas() {
        assert_eq!(table().csv(), "k,value\n1,0.5\n10,\"[0, 96, 2]\"\n");
    }
}
