//! Deployment planning: how many sensors must we buy?
//!
//! The min-node adaptation (paper Sec. IV-C) turns LAACAD into a planning
//! tool: fix the sensing range your hardware provides, and search for the
//! smallest fleet whose converged deployment still k-covers the area.
//! The cases below compare the search with the lower bounds: Bai et
//! al.'s optimal density for k = 2, the area bound `k / (π r_s²)` for
//! k = 1.
//!
//! ```sh
//! cargo run --release --example min_node_planning
//! ```

use laacad_baselines::bai::bai_min_nodes;
use laacad_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let region = Region::square(1.0)?; // 1 km²
    for (k, rs) in [(1usize, 0.25f64), (1, 0.35), (2, 0.35), (2, 0.45)] {
        let config = LaacadConfig::builder(k)
            .transmission_range(2.5 * rs)
            .alpha(0.6)
            .epsilon(5e-3)
            .max_rounds(60)
            .build()?;
        let plan = min_node_deployment(&region, &config, rs, 1234)?;
        let bound = if k == 2 {
            format!("Bai et al. {:.1}", bai_min_nodes(region.area(), rs))
        } else {
            format!("area {:.1}", k as f64 / (std::f64::consts::PI * rs * rs))
        };
        println!(
            "k = {k}, r_s = {rs} km: buy {} sensors (converged R* = {:.4} km; \
             lower bound: {bound})",
            plan.n, plan.r_star
        );
        println!(
            "    search trace: {}",
            plan.evaluations
                .iter()
                .map(|(n, r)| format!("N={n}→R*={r:.3}"))
                .collect::<Vec<_>>()
                .join("  ")
        );
    }
    Ok(())
}
