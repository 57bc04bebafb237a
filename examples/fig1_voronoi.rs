//! Fig. 1 — order-k Voronoi partitions (k = 1..4) of 30 random nodes.
//!
//! Prints the cell counts `N̂_k` (Lee's bound says `O(k(N−k))`) and
//! writes one SVG per k into `$LAACAD_OUT` (default `./out`).
//!
//! ```sh
//! cargo run --release --example fig1_voronoi
//! ```

use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_viz::deployment::render_partition;
use laacad_voronoi::korder::order_k_diagram;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = std::env::var_os("LAACAD_OUT").map_or_else(|| PathBuf::from("out"), PathBuf::from);
    std::fs::create_dir_all(&out)?;
    let region = Region::square(1.0)?;
    let sites = sample_uniform(&region, 30, 2012);
    let domain = region.convex_pieces()[0].clone();
    println!("Fig. 1 — order-k Voronoi partition of 30 random nodes (unit square)\n");
    println!("| k | cells N̂_k | Σ cell area (=1 if exact) |");
    println!("| - | --------- | ------------------------- |");
    for k in 1..=4usize {
        let diagram = order_k_diagram(&sites, k, &domain, 256);
        let cells: Vec<laacad_geom::Polygon> =
            diagram.cells().iter().map(|c| c.polygon.clone()).collect();
        let title = format!(
            "Fig. 1({}) — order-{k} Voronoi partition, 30 nodes",
            char::from(b'a' + k as u8 - 1)
        );
        let svg = render_partition(&region, &cells, &sites, 480.0, &title);
        std::fs::write(out.join(format!("fig1_order{k}.svg")), svg)?;
        println!(
            "| {k} | {:<9} | {:<25.6} |",
            diagram.len(),
            diagram.total_area()
        );
    }
    println!("\nLee's bound: N̂_k = O(k(N−k)); order-1 has exactly N = 30 cells.");
    println!("SVGs in {}", out.display());
    Ok(())
}
