//! Golden trajectories for the geometry kernels.
//!
//! * The paper's Fig. 5 cells (100 nodes dumped in the corner of the
//!   unit square, k = 1…4, seed 42) stepped for 40 rounds each, with
//!   constants recorded before the branch-free classification, fused
//!   split, `fmod`-free angle normalization and merged arc sweep.
//! * Sessions shaped like the `host_stream` benchmark's (64 uniform
//!   nodes, k = 1, ε = 5·10⁻³, an 8-node displacement toward the centre
//!   every 5 steps) stepped 40 times at three seeds, with constants
//!   recorded before the lazily exact tolerances and Welzl radii, the
//!   cached directions, the shared bisectors and the pseudo-angle arc
//!   sweep.
//!
//! Every step's position and sensing radius bits are folded into an
//! FNV-1a hash and compared, with the run's message totals, against the
//! recorded constants. Any kernel edit that moves a single output bit
//! fails here.

use laacad::{LaacadConfig, Session};
use laacad_geom::Point;
use laacad_region::gallery::unit_square;
use laacad_region::sampling::{sample_clustered, sample_uniform};
use laacad_wsn::NodeId;

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

/// Folds every node's position and sensing-radius bits into `hash`.
fn fold_state(hash: &mut Fnv, session: &Session) {
    let net = session.network();
    for (p, r) in net.positions().iter().zip(net.sensing_radii()) {
        hash.word(p.x.to_bits());
        hash.word(p.y.to_bits());
        hash.word(r.to_bits());
    }
}

#[test]
fn fig5_corner_trajectories_are_bit_identical() {
    let mut got = Vec::new();
    for k in 1..=4 {
        let mut session = corner_cell(k);
        let mut hash = Fnv::new();
        for _ in 0..ROUNDS {
            session.step();
            fold_state(&mut hash, &session);
        }
        let m = session.summarize().messages;
        got.push((k, hash.0, m.unicast, m.broadcast));
    }
    assert_eq!(got, GOLDEN, "kernel output moved");
}

/// Nodes per host-shaped session.
const HOST_N: usize = 64;
/// Nodes moved by one displacement.
const HOST_DISPLACED: usize = 8;
/// Steps between displacements.
const HOST_DISPLACE_EVERY: usize = 5;

/// `(seed, trajectory hash, unicast, broadcast)` per host-shaped session.
const HOST_GOLDEN: [(u64, u64, u64, u64); 3] = [
    (1, 0xfde9_a6d2_77e6_e085, 26_617, 60_830),
    (2, 0xc92a_e57f_3dad_7458, 32_291, 69_986),
    (3, 0xe11d_32eb_ef4f_6994, 31_474, 64_562),
];

/// A session built as the scenario layer builds the `host_stream`
/// benchmark's: 64 uniform nodes in the unit square, k = 1, α = 0.5,
/// ε = 5·10⁻³ and the recommended transmission range.
fn host_session(seed: u64) -> Session {
    let region = unit_square();
    let positions = sample_uniform(&region, HOST_N, seed);
    let config = LaacadConfig::builder(1)
        .transmission_range(LaacadConfig::recommended_gamma(region.area(), HOST_N, 1))
        .alpha(0.5)
        .epsilon(5e-3)
        .max_rounds(10_000)
        .threads(1)
        .seed(seed)
        .build()
        .expect("valid config");
    Session::builder(config)
        .region(region)
        .positions(positions)
        .build()
        .expect("valid session")
}

/// Moves `HOST_DISPLACED` consecutive nodes from `first` a quarter of
/// the transmission range toward the centre of the square, as the
/// benchmark's `Displace` commands do.
fn displace_toward_centre(session: &mut Session, first: usize) {
    let gamma = session.config().gamma;
    let centre = Point::new(0.5, 0.5);
    let moves: Vec<(NodeId, Point)> = (0..HOST_DISPLACED)
        .map(|j| {
            let id = NodeId((first + j) % HOST_N);
            let p = session.network().position(id);
            let d = p.distance(centre);
            let step = (0.25 * gamma).min(d);
            (id, p.lerp(centre, step / d.max(1e-12)))
        })
        .collect();
    session.displace_nodes(&moves).expect("targets stay inside");
}

#[test]
fn host_shaped_trajectories_are_bit_identical() {
    let mut got = Vec::new();
    for (seed, ..) in HOST_GOLDEN {
        let mut session = host_session(seed);
        let mut hash = Fnv::new();
        for step in 1..=ROUNDS {
            session.step();
            if step % HOST_DISPLACE_EVERY == 0 {
                displace_toward_centre(&mut session, (step * 7 + seed as usize) % HOST_N);
            }
            fold_state(&mut hash, &session);
        }
        let m = session.summarize().messages;
        got.push((seed, hash.0, m.unicast, m.broadcast));
    }
    assert_eq!(got, HOST_GOLDEN, "kernel output moved");
}
