//! Fig. 2 — how far the expanding-ring search must reach to compute the
//! dominating region `V^k_i` of the central node of a regular
//! (triangular-lattice) deployment, for k = 1..12.
//!
//! The paper's reading: k = 1 needs only 1-hop neighbors, k = 2..4 need
//! 2 hops, k > 4 need 3 hops (with γ slightly above the lattice spacing).
//!
//! ```sh
//! cargo run --release --example fig2_ring_hops
//! ```

use laacad::expanding_ring_search;
use laacad_baselines::lattice::{central_node, triangular_lattice};
use laacad_region::Region;
use laacad_wsn::{Network, NodeId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A lattice big enough that the ring never reaches the boundary.
    let region = Region::square(4.0)?;
    let spacing = 0.2;
    // γ = 1.5·spacing: one hop must reach the 6 lattice neighbors *and*
    // allow the half-radius circle (ρ/2 = 0.75·spacing) to exceed the
    // order-1 cell circumradius (0.577·spacing), or even k = 1 needs two
    // expansions — Lemma 1's premise V ⊆ disk(ρ/2) gates the check.
    let gamma = 1.5 * spacing;
    let sites = triangular_lattice(&region, spacing);
    let center = central_node(&sites, &region).ok_or("empty lattice")?;
    println!(
        "Fig. 2 — ring reach for the central node of a triangular lattice \
         ({} nodes, spacing {spacing}, γ = {gamma})\n",
        sites.len()
    );
    println!("| k  | ring radius ρ | hops ⌈ρ/γ⌉ | |N(n_i, ρ)| |");
    println!("| -- | ------------- | ---------- | ----------- |");
    for k in 1..=12usize {
        let net = Network::from_positions(gamma, sites.iter().copied());
        let out = expanding_ring_search(&net, NodeId(center), &region, k, 8.0);
        assert!(out.dominated, "central node must be dominated for k={k}");
        let hops = (out.rho / gamma).round() as usize; // ρ is an exact multiple of γ
        println!(
            "| {k:<2} | {:<13.3} | {hops:<10} | {:<11} |",
            out.rho,
            out.candidates.len()
        );
    }
    println!(
        "\nPaper's Fig. 2: k=1 → 1 hop; k=2..4 → 2 hops; k=5..12 → 3 hops \
         (the exact thresholds depend on γ/spacing)."
    );
    Ok(())
}
