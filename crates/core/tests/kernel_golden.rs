//! Golden trajectory for the geometry kernels: the paper's Fig. 5 cells
//! (100 nodes dumped in the corner of the unit square, k = 1…4, seed
//! 42) stepped for 40 rounds each. Every round's position and sensing
//! radius bits are folded into an FNV-1a hash and compared, with the
//! run's message totals, against constants recorded before the
//! branch-free classification, fused split, `fmod`-free angle
//! normalization and merged arc sweep. Any kernel edit that moves a
//! single output bit fails here.

use laacad::{LaacadConfig, Session};
use laacad_geom::Point;
use laacad_region::gallery::unit_square;
use laacad_region::sampling::sample_clustered;

const ROUNDS: usize = 40;
const SEED: u64 = 42;
const N: usize = 100;
/// The corner dump's cluster radius (`scenarios/fig5_corner.toml`).
const RADIUS: f64 = 0.12;

/// `(k, trajectory hash, unicast, broadcast)` per cell.
const GOLDEN: [(usize, u64, u64, u64); 4] = [
    (1, 0xdb55_bfd2_d8f9_5b7e, 333_599, 356_959),
    (2, 0x28c7_156d_30e4_f645, 335_933, 353_809),
    (3, 0x8bfe_2035_7daa_d968, 361_273, 367_288),
    (4, 0xa7a1_c08f_325c_3824, 421_225, 391_576),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The Fig. 5 cell for coverage degree `k`, built as the scenario layer
/// builds `scenarios/fig5_corner.toml`: a corner placement of radius
/// 0.12, γ = 0.25, α = 0.5 and the spec's default ε.
fn corner_cell(k: usize) -> Session {
    let region = unit_square();
    let bb = region.bounding_box();
    let center = region.project(Point::new(bb.min().x + RADIUS, bb.min().y + RADIUS));
    let positions = sample_clustered(&region, N, center, RADIUS, SEED);
    let expected_range = (k as f64 * region.area() / (std::f64::consts::PI * N as f64)).sqrt();
    let config = LaacadConfig::builder(k)
        .transmission_range(0.25)
        .alpha(0.5)
        .epsilon(5e-3 * expected_range)
        .max_rounds(250)
        .seed(SEED)
        .build()
        .expect("valid config");
    Session::builder(config)
        .region(region)
        .positions(positions)
        .build()
        .expect("valid session")
}

#[test]
fn fig5_corner_trajectories_are_bit_identical() {
    let mut got = Vec::new();
    for k in 1..=4 {
        let mut session = corner_cell(k);
        let mut hash = Fnv::new();
        for _ in 0..ROUNDS {
            session.step();
            let net = session.network();
            for (p, r) in net.positions().iter().zip(net.sensing_radii()) {
                hash.word(p.x.to_bits());
                hash.word(p.y.to_bits());
                hash.word(r.to_bits());
            }
        }
        let m = session.summarize().messages;
        got.push((k, hash.0, m.unicast, m.broadcast));
    }
    assert_eq!(got, GOLDEN, "kernel output moved");
}
