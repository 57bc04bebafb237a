//! Paper reports, keyed by campaign name: what the command line adds to
//! the generic per-cell table for the campaigns that reproduce the
//! paper's figures and tables (Sec. V) and the ablations — extra
//! columns, derived campaign variants, figures and notes.

use laacad::{CoordinateMode, ExecutionMode};
use laacad_baselines::{ammari::ammari_min_nodes, bai::bai_min_nodes, lloyd::lloyd_run};
use laacad_coverage::metrics::cluster_histogram;
use laacad_scenario::{CampaignSpec, CellInfo, CellResult, ScenarioOutcome};
use laacad_viz::{DeploymentPlot, LineChart};
use laacad_wsn::ranging::RangingNoise;
use laacad_wsn::Network;
use std::collections::BTreeSet;
use std::io;
use std::path::Path;

/// One campaign that ran, with its results in expansion order.
pub type Run = (CampaignSpec, Vec<CellResult>);

/// A cell's extra column values (`None` when they cannot be computed).
pub type Values = Option<Vec<String>>;

/// What a paper report adds to a campaign's run. Every method has a
/// do-nothing default.
pub trait Report {
    /// Campaigns derived from the shipped one, run after it through the
    /// same path (each gets its own result files and table).
    fn variants(&self, _campaign: &CampaignSpec) -> Vec<CampaignSpec> {
        Vec::new()
    }

    /// Headers of the extra per-cell columns.
    fn headers(&self) -> &'static [&'static str] {
        &[]
    }

    /// Values of the extra columns for one cell that ran.
    fn values(&self, _run: &CampaignSpec, _cell: &CellInfo, _out: &ScenarioOutcome) -> Values {
        None
    }

    /// Figures and notes, once the campaign and its variants ran.
    fn finish(&self, _runs: &[Run], _out: &Path) -> io::Result<()> {
        Ok(())
    }
}

/// The report for a campaign, if its name is one of the paper's.
pub fn for_campaign(name: &str) -> Option<Box<dyn Report>> {
    Some(match name {
        "fig5-corner" => Box::new(Fig5),
        "fig6-convergence" => Box::new(Fig6),
        "fig7-energy" => Box::new(Fig7),
        "fig8-coast" => Box::new(Fig8("coast")),
        "fig8-lakes" => Box::new(Fig8("lakes")),
        "table1-minnode" => Box::new(TABLE1),
        "table2-ammari" => Box::new(TABLE2),
        "ablation-lloyd" => Box::new(Lloyd),
        "ablation-schedule" => Box::new(Schedule),
        "ablation-ranging" => Box::new(Ranging),
        _ => return None,
    })
}

/// Writes an artifact into the output directory and says so.
fn write(out: &Path, name: &str, content: &str) -> io::Result<()> {
    let path = out.join(name);
    std::fs::write(&path, content)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// The cells that ran, with their outcomes.
fn ran(results: &[CellResult]) -> impl Iterator<Item = (&CellInfo, &ScenarioOutcome)> {
    results
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|o| (&r.cell, o)))
}

/// Cluster-size histogram of a final deployment, merging nodes closer
/// than `fraction` of its R*.
fn clusters(outcome: &ScenarioOutcome, fraction: f64) -> Vec<usize> {
    cluster_histogram(
        &outcome.final_network(),
        outcome.summary.max_sensing_radius * fraction,
    )
}

/// Sub-figure letter `(a)`, `(b)`, … of panel `index`.
fn panel(index: usize) -> char {
    u8::try_from(index)
        .ok()
        .and_then(|i| b'a'.checked_add(i))
        .map_or('?', char::from)
}

/// The region's area, when it builds.
fn area(campaign: &CampaignSpec) -> Option<f64> {
    campaign.scenario.region.build().ok().map(|r| r.area())
}

/// Fig. 5 — 100 nodes dumped in the bottom-left corner of 1 km²
/// spread into k-coverage deployments, k = 1..4.
struct Fig5;

impl Report for Fig5 {
    fn headers(&self) -> &'static [&'static str] {
        &["dominant cluster size", "cluster-size histogram"]
    }

    fn values(&self, _run: &CampaignSpec, _cell: &CellInfo, out: &ScenarioOutcome) -> Values {
        // Cluster sizes at 1/4 of the final sensing range.
        let hist = clusters(out, 0.25);
        let dominant = hist
            .iter()
            .enumerate()
            .skip(1)
            .max_by_key(|&(size, &count)| count * size)
            .map_or(0, |(size, _)| size);
        Some(vec![dominant.to_string(), format!("{hist:?}")])
    }

    fn finish(&self, runs: &[Run], out: &Path) -> io::Result<()> {
        let (campaign, results) = &runs[0];
        let Ok(region) = campaign.scenario.region.build() else {
            return Ok(());
        };
        for (cell, outcome) in ran(results) {
            let k = cell.k;
            if k == 1 {
                // The shared initial deployment, rendered once.
                if let Ok(initial) = campaign.scenario.placement.build(&region, cell.seed) {
                    let net = Network::from_positions(outcome.gamma, initial);
                    let svg = DeploymentPlot::new(&region)
                        .title("Fig. 5(a) — initial corner deployment (100 nodes)")
                        .show_disks(false)
                        .render(&net);
                    write(out, "fig5_initial.svg", &svg)?;
                }
            }
            let svg = DeploymentPlot::new(&region)
                .title(format!("Fig. 5({}) — {k}-coverage deployment", panel(k)))
                .render(&outcome.final_network());
            write(out, &format!("fig5_k{k}.svg"), &svg)?;
        }
        println!(
            "The paper reports \"even clustering\": for k > 1 the converged \
             nodes gather in co-located groups of size k. The histograms above \
             (cluster sizes at R*/4) measure whether this run does."
        );
        Ok(())
    }
}

/// Fig. 6 — maximum and minimum circumradius per round, k = 1..4.
struct Fig6;

impl Report for Fig6 {
    fn headers(&self) -> &'static [&'static str] {
        &["max R (round 1)", "max R (final)", "final max−min gap"]
    }

    fn values(&self, _run: &CampaignSpec, _cell: &CellInfo, out: &ScenarioOutcome) -> Values {
        let (first, last) = (out.rounds.first()?, out.rounds.last()?);
        Some(vec![
            format!("{:.4}", first.max_circumradius),
            format!("{:.4}", last.max_circumradius),
            format!("{:.4}", last.max_circumradius - last.min_circumradius),
        ])
    }

    fn finish(&self, runs: &[Run], out: &Path) -> io::Result<()> {
        let mut chart = LineChart::new("round", "circumradius (km)");
        let mut csv = String::from("k,round,max_circumradius,min_circumradius\n");
        for (cell, outcome) in ran(&runs[0].1) {
            let k = cell.k;
            for r in &outcome.rounds {
                csv.push_str(&format!(
                    "{k},{},{:.6},{:.6}\n",
                    r.round, r.max_circumradius, r.min_circumradius
                ));
            }
            let series = |f: fn(&laacad_scenario::RoundMetric) -> f64| {
                outcome
                    .rounds
                    .iter()
                    .map(|r| (r.round as f64, f(r)))
                    .collect()
            };
            chart.add_series(format!("k={k} max"), series(|r| r.max_circumradius));
            chart.add_dashed_series(format!("k={k} min"), series(|r| r.min_circumradius));
        }
        write(out, "fig6_convergence.csv", &csv)?;
        write(out, "fig6_convergence.svg", &chart.render(640.0, 420.0))
    }
}

/// Fig. 7 — maximum and total sensing load `E(r) = π r²` of converged
/// deployments over N × k.
struct Fig7;

impl Report for Fig7 {
    fn headers(&self) -> &'static [&'static str] {
        &["total load"]
    }

    fn values(&self, _run: &CampaignSpec, _cell: &CellInfo, out: &ScenarioOutcome) -> Values {
        Some(vec![format!("{:.3}", out.total_load)])
    }

    fn finish(&self, runs: &[Run], out: &Path) -> io::Result<()> {
        let results = &runs[0].1;
        let ks: BTreeSet<usize> = ran(results).map(|(c, _)| c.k).collect();
        let mut chart_max = LineChart::new("# of nodes", "maximum sensing load");
        let mut chart_total = LineChart::new("# of nodes", "total sensing load");
        for &k in &ks {
            let cells = || ran(results).filter(move |(c, _)| c.k == k);
            chart_max.add_series(
                format!("{k}-coverage"),
                cells().map(|(c, o)| (c.n as f64, o.max_load)).collect(),
            );
            chart_total.add_series(
                format!("{k}-coverage"),
                cells().map(|(c, o)| (c.n as f64, o.total_load)).collect(),
            );
        }
        write(out, "fig7a_max_load.svg", &chart_max.render(520.0, 380.0))?;
        write(
            out,
            "fig7b_total_load.svg",
            &chart_total.render(520.0, 380.0),
        )?;
        // The k-ratio the paper calls out: max-load ratio ≈ k₁/k₂.
        let load_of = |k: usize, n: usize| {
            ran(results)
                .find(|(c, _)| c.k == k && c.n == n)
                .map_or(f64::NAN, |(_, o)| o.max_load)
        };
        println!("max-load ratios at N = 100 (paper: ≈ k₁/k₂):");
        for (k1, k2) in [(2usize, 1usize), (3, 1), (4, 2)] {
            println!(
                "  E_max(k={k1}) / E_max(k={k2}) = {:.2}  (expected ≈ {:.2})",
                load_of(k1, 100) / load_of(k2, 100),
                k1 as f64 / k2 as f64
            );
        }
        Ok(())
    }
}

/// Fig. 8 — a concave coast and a square with two obstacle lakes,
/// k ∈ {2, 4, 6, 8}.
struct Fig8(&'static str);

impl Report for Fig8 {
    fn finish(&self, runs: &[Run], out: &Path) -> io::Result<()> {
        let (campaign, results) = &runs[0];
        let Ok(region) = campaign.scenario.region.build() else {
            return Ok(());
        };
        let label = self.0;
        for (cell, outcome) in ran(results) {
            let k = cell.k;
            let svg = DeploymentPlot::new(&region)
                .title(format!("Fig. 8 — {label}, {k}-coverage"))
                .render(&outcome.final_network());
            write(out, &format!("fig8_{label}_k{k}.svg"), &svg)?;
        }
        println!(
            "The paper reports that LAACAD adapts to irregular outlines and \
             obstacle holes, again reaching its \"even clustering\"; the table \
             above reports rounds, R* and k-coverage for this area."
        );
        Ok(())
    }
}

/// Tables I and II — a baseline deployment's node count at LAACAD's
/// converged range R* over the region's area |A|.
struct Bound {
    headers: &'static [&'static str],
    /// The baseline's node count and its ratio to LAACAD's, from
    /// `(|A|, R*, k, N)`.
    columns: fn(f64, f64, usize, usize) -> Vec<String>,
    /// The paper's published rows.
    paper: &'static str,
}

/// Table I — Bai et al.'s optimal 2-coverage density.
const TABLE1: Bound = Bound {
    headers: &["N*₂ = 4|A|/(3√3R*²)", "N / N*₂"],
    columns: |area, r, _, n| {
        let bound = bai_min_nodes(area, r);
        vec![format!("{bound:.0}"), format!("{:.3}", n as f64 / bound)]
    },
    paper: "Paper's Table I (N, R*, N*): (1000, 3.035, 836) (1200, 2.712, 1047) \
            (1400, 2.523, 1210) (1600, 2.357, 1386) — N/N* ≈ 1.15, the gap being \
            the boundary effect Bai's bound ignores.",
};

/// Table II — the Ammari–Das Reuleaux-lens k-coverage deployment.
const TABLE2: Bound = Bound {
    headers: &["N*_k (Ammari)", "N*_k / N"],
    columns: |area, r, k, n| {
        let bound = ammari_min_nodes(area, r, k);
        vec![format!("{bound:.0}"), format!("{:.2}", bound / n as f64)]
    },
    paper: "Paper's Table II (k, R*, N*): (3, 8.77, 318) (4, 10.21, 313) \
            (5, 11.24, 323) (6, 12.36, 320) (7, 13.39, 318) (8, 14.32, 318) — the \
            lens strategy needs ≈ 1.75× LAACAD's node count at equal range.",
};

impl Report for Bound {
    fn headers(&self) -> &'static [&'static str] {
        self.headers
    }

    fn values(&self, run: &CampaignSpec, cell: &CellInfo, out: &ScenarioOutcome) -> Values {
        let r_star = out.summary.max_sensing_radius;
        let area = area(run).filter(|&a| a > 0.0 && r_star > 0.0)?;
        Some((self.columns)(area, r_star, cell.k, cell.n))
    }

    fn finish(&self, runs: &[Run], _out: &Path) -> io::Result<()> {
        if let Some(a) = area(&runs[0].0) {
            println!("|A| = {a} (the region area in the N* column)");
        }
        println!("{}", self.paper);
        Ok(())
    }
}

/// Ablation — Chebyshev-center motion (LAACAD) against centroid motion
/// (Lloyd) from the identical start and round budget.
struct Lloyd;

impl Report for Lloyd {
    fn headers(&self) -> &'static [&'static str] {
        &["Lloyd R*", "Lloyd / LAACAD"]
    }

    fn values(&self, run: &CampaignSpec, cell: &CellInfo, out: &ScenarioOutcome) -> Values {
        // Rebuild the cell's initial deployment from the spec's
        // placement and the cell's seed.
        let region = run.scenario.region.build().ok()?;
        let placement = run.scenario.placement.with_node_count(cell.n).ok()?;
        let mut net = Network::from_positions(0.5, placement.build(&region, cell.seed).ok()?);
        let lloyd = lloyd_run(
            &mut net,
            &region,
            cell.k,
            cell.alpha,
            1e-4,
            run.scenario.laacad.max_rounds,
        );
        let ratio = lloyd.max_sensing_radius / out.summary.max_sensing_radius;
        Some(vec![
            format!("{:.4}", lloyd.max_sensing_radius),
            format!("{ratio:.3}"),
        ])
    }

    fn finish(&self, _runs: &[Run], _out: &Path) -> io::Result<()> {
        println!(
            "The Chebyshev rule directly minimizes the circumradius (Prop. 3); \
             centroid motion optimizes a quantization objective and settles at \
             larger minimax ranges."
        );
        Ok(())
    }
}

/// Ablation — synchronous (Jacobi) rounds against sequential
/// (Gauss–Seidel) per-node updates.
struct Schedule;

impl Report for Schedule {
    fn variants(&self, campaign: &CampaignSpec) -> Vec<CampaignSpec> {
        let mut seq = campaign.clone();
        seq.name = format!("{}-seq", campaign.name);
        seq.scenario.laacad.execution = ExecutionMode::Sequential;
        vec![seq]
    }

    fn headers(&self) -> &'static [&'static str] {
        &["cluster histogram"]
    }

    fn values(&self, _run: &CampaignSpec, _cell: &CellInfo, out: &ScenarioOutcome) -> Values {
        Some(vec![format!("{:?}", clusters(out, 0.2))])
    }
}

/// Ablation — oracle coordinates against MDS local frames from noisy
/// ranging (Algorithm 2 line 4).
struct Ranging;

impl Report for Ranging {
    fn variants(&self, campaign: &CampaignSpec) -> Vec<CampaignSpec> {
        [
            ("sigma0", RangingNoise::NONE),
            ("rel1pct", RangingNoise::new(0.01, 0.0)),
            ("rel5pct", RangingNoise::new(0.05, 0.0)),
        ]
        .into_iter()
        .map(|(tag, noise)| {
            let mut variant = campaign.clone();
            variant.name = format!("{}-{tag}", campaign.name);
            variant.scenario.laacad.coordinates = CoordinateMode::Ranging(noise);
            variant
        })
        .collect()
    }

    fn finish(&self, _runs: &[Run], _out: &Path) -> io::Result<()> {
        println!(
            "Noiseless MDS frames (-sigma0) reproduce the oracle run; modest \
             ranging noise (-rel1pct, -rel5pct: relative σ of 1 % and 5 %) costs \
             a little R* and, at higher levels, coverage slack."
        );
        Ok(())
    }
}
