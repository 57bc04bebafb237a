//! The campaign result store: JSONL (full records) + CSV (summaries).
//!
//! Serialization is deterministic — sorted keys, expansion-ordered rows,
//! shortest-round-trip floats, no timestamps — so running the same
//! campaign twice produces *byte-identical* files. The determinism
//! integration test pins this property.

use crate::campaign::CellResult;
use crate::json;
use crate::value::Value;
use std::path::{Path, PathBuf};

/// The CSV header row (including the trailing newline).
pub const CSV_HEADER: &str = "index,scenario,seed,n,k,alpha,gamma,loss,delay,corruption,\
     final_n,rounds,converged,\
     max_sensing_radius,min_sensing_radius,covered_fraction,min_degree,\
     balance_ratio,total_distance_moved,events_applied,\
     time_to_recover,coverage_dip,quarantined,error\n";

/// One cell's JSONL line (including the trailing newline): the cell
/// parameters plus either the full outcome or the error that prevented
/// it. [`to_jsonl`] is exactly these lines concatenated, which is what
/// lets the streaming store flush rows as cells complete and still
/// produce byte-identical files.
fn jsonl_line(r: &CellResult) -> String {
    let mut out = json::to_string(&cell_value(r));
    out.push('\n');
    out
}

/// The value tree behind one cell's JSONL line.
fn cell_value(r: &CellResult) -> Value {
    let mut line = Value::table();
    line.insert("index", Value::Int(r.cell.index as i64));
    line.insert("scenario", Value::Str(r.cell.scenario.clone()));
    line.insert("seed", Value::Int(r.cell.seed as i64));
    line.insert("n", Value::Int(r.cell.n as i64));
    line.insert("k", Value::Int(r.cell.k as i64));
    line.insert("alpha", Value::Float(r.cell.alpha));
    if let Some(g) = r.cell.gamma {
        line.insert("gamma", Value::Float(g));
    }
    if let Some(l) = r.cell.loss {
        line.insert("loss", Value::Float(l));
    }
    if let Some(d) = r.cell.delay {
        line.insert("delay", Value::Float(d));
    }
    if let Some(c) = r.cell.corruption {
        line.insert("corruption", Value::Float(c));
    }
    match &r.outcome {
        Ok(outcome) => line.insert("outcome", outcome.to_value()),
        Err(e) => line.insert("error", Value::Str(e.to_string())),
    }
    line
}

/// One JSONL line per cell (each with its trailing newline): the cell
/// parameters plus either the full outcome or the error that prevented
/// it. The streaming store appends exactly these lines as cells
/// complete, so its files are byte-identical to this.
pub fn to_jsonl(results: &[CellResult]) -> String {
    results.iter().map(jsonl_line).collect()
}

/// One cell's summary-CSV row (including the trailing newline).
fn csv_row(r: &CellResult) -> String {
    let c = &r.cell;
    // Scenario names come straight from user specs; keep the CSV
    // grid intact whatever they contain.
    let name = c.scenario.replace([',', '\n'], ";");
    match &r.outcome {
        Ok(o) => {
            // Recovery columns summarize ONE event — the first with
            // any recovery data — so the pair always describes the
            // same event (full per-event detail is in the JSONL).
            let rec = o
                .recovery
                .iter()
                .find(|rec| rec.coverage_dip.is_some() || rec.time_to_recover.is_some());
            let ttr = rec
                .and_then(|rec| rec.time_to_recover)
                .map(|t| t.to_string())
                .unwrap_or_default();
            let dip = rec
                .and_then(|rec| rec.coverage_dip)
                .map(|d| d.to_string())
                .unwrap_or_default();
            let quarantined = o
                .faults
                .as_ref()
                .map(|f| f.quarantined.to_string())
                .unwrap_or_default();
            format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},\n",
                c.index,
                name,
                c.seed,
                c.n,
                c.k,
                c.alpha,
                o.gamma,
                c.loss.map(|x| x.to_string()).unwrap_or_default(),
                c.delay.map(|x| x.to_string()).unwrap_or_default(),
                c.corruption.map(|x| x.to_string()).unwrap_or_default(),
                o.final_n,
                o.summary.rounds,
                o.summary.converged,
                o.summary.max_sensing_radius,
                o.summary.min_sensing_radius,
                o.coverage.covered_fraction,
                o.coverage.min_degree,
                o.balance_ratio,
                o.summary.total_distance_moved,
                o.events.len(),
                ttr,
                dip,
                quarantined,
            )
        }
        Err(e) => {
            let msg = e.to_string().replace([',', '\n'], ";");
            format!(
                "{},{},{},{},{},{},,,,,,,,,,,,,,,,,,{}\n",
                c.index, name, c.seed, c.n, c.k, c.alpha, msg
            )
        }
    }
}

/// Summary CSV: the header plus one row per cell — the rows the
/// streaming store appends as cells complete.
pub fn to_csv(results: &[CellResult]) -> String {
    let mut out = String::from(CSV_HEADER);
    for r in results {
        out.push_str(&csv_row(r));
    }
    out
}

/// Writes campaign results into a directory as `<name>.jsonl` and
/// `<name>.csv`.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// A store rooted at `dir` (created on demand).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultStore { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Opens `<name>.jsonl` and `<name>.csv` for **streaming**: rows are
    /// appended (and flushed) one cell at a time as the campaign
    /// completes them, so a long grid's results reach disk while later
    /// cells are still running — and a killed campaign leaves every
    /// finished row behind. The finished files hold exactly
    /// [`to_jsonl`] / [`to_csv`] of the results.
    pub(crate) fn open_stream(&self, name: &str) -> std::io::Result<StreamingResultFiles> {
        std::fs::create_dir_all(&self.dir)?;
        let jsonl_path = self.dir.join(format!("{name}.jsonl"));
        let csv_path = self.dir.join(format!("{name}.csv"));
        let jsonl = std::fs::File::create(jsonl_path)?;
        let mut csv = std::fs::File::create(csv_path)?;
        std::io::Write::write_all(&mut csv, CSV_HEADER.as_bytes())?;
        std::io::Write::flush(&mut csv)?;
        Ok(StreamingResultFiles { jsonl, csv })
    }
}

/// An open JSONL + CSV pair that [`ResultStore::open_stream`] hands out;
/// one [`StreamingResultFiles::append`] per completed cell, flushed so
/// the rows are durable immediately.
#[derive(Debug)]
pub(crate) struct StreamingResultFiles {
    jsonl: std::fs::File,
    csv: std::fs::File,
}

impl StreamingResultFiles {
    /// Appends (and flushes) one cell's JSONL line and CSV row.
    pub(crate) fn append(&mut self, result: &CellResult) -> std::io::Result<()> {
        use std::io::Write;
        self.jsonl.write_all(jsonl_line(result).as_bytes())?;
        self.jsonl.flush()?;
        self.csv.write_all(csv_row(result).as_bytes())?;
        self.csv.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignRunOptions, CampaignSpec};
    use crate::spec::ScenarioSpec;

    fn tiny_results() -> Vec<CellResult> {
        let mut spec = ScenarioSpec::uniform("store", 8, 1);
        spec.laacad.max_rounds = 25;
        run_campaign(
            &CampaignSpec::over_seeds(spec, [1, 2]),
            CampaignRunOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn jsonl_lines_are_the_cell_values() {
        let results = tiny_results();
        let text = to_jsonl(&results);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, (line, r)) in lines.iter().zip(&results).enumerate() {
            let v = cell_value(r);
            assert_eq!(*line, json::to_string(&v));
            assert_eq!(v.get("index").unwrap().as_i64(), Some(i as i64));
            assert!(v.get("outcome").is_some());
        }
    }

    #[test]
    fn csv_has_header_plus_rows() {
        let results = tiny_results();
        let text = to_csv(&results);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("index,scenario,seed"));
        assert!(lines[1].starts_with("0,store,1,"));
    }

    #[test]
    fn store_writes_files() {
        let dir = std::env::temp_dir().join("laacad-scenario-store-test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::new(&dir);
        let mut spec = ScenarioSpec::uniform("store", 8, 1);
        spec.laacad.max_rounds = 25;
        let campaign = CampaignSpec::over_seeds(spec, [1, 2]);
        let results = run_campaign(
            &campaign,
            CampaignRunOptions {
                store: Some(&store),
                ..CampaignRunOptions::default()
            },
        )
        .unwrap();
        let read = |ext: &str| std::fs::read_to_string(dir.join(format!("store.{ext}"))).unwrap();
        assert_eq!(read("jsonl"), to_jsonl(&results));
        assert_eq!(read("csv"), to_csv(&results));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
