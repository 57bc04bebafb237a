//! Golden trajectory for the asynchronous executor: the benchmark's
//! `async_lossy` cell shape (64 uniform nodes in the unit square,
//! k = 1, loss 5 %, 10 % and 20 %, Exp(1) link delay, fixed seeds) run
//! to termination with `threads` set to one and to two. The executor
//! runs on the calling thread and does not read `threads`, so the two
//! passes pin that the knob never reaches async output. The final position
//! and sensing-radius bits are folded into an FNV-1a hash and compared,
//! with every protocol counter, the processed-event count and the
//! virtual time, against constants recorded before the tick-bucketed
//! event queue and the O(degree) adjacency patch. Any change to the
//! event order or to the one-hop rows the nodes read moves one of them.
//!
//! One more cell runs 150 nodes, so node ids span three 64-id blocks
//! of the adjacency rows; its constants were recorded on the id-row
//! adjacency, before the rows became `(block, mask)` entries.

use laacad::LaacadConfig;
use laacad_dist::{AsyncConfig, AsyncExecutor, DelayModel, FaultPlan, ProtocolStats};
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;

/// `(nodes, loss, seed, trajectory hash, protocol-stats hash, events,
/// ticks)` per cell.
const GOLDEN: [(usize, f64, u64, u64, u64, u64, u64); 4] = [
    (
        64,
        0.05,
        101,
        0xecff_fee9_962f_a127,
        0x8863_0db0_0675_f1de,
        126_418,
        758,
    ),
    (
        64,
        0.10,
        202,
        0x07a4_8b5b_d899_9e9c,
        0x81ea_f285_7937_66f5,
        198_207,
        1_312,
    ),
    (
        64,
        0.20,
        303,
        0x6089_9e60_fc3c_89b4,
        0x7769_f1fb_005d_c054,
        180_846,
        1_508,
    ),
    (
        150,
        0.10,
        404,
        0x74c2_752c_8e7e_2da1,
        0x8c66_17b7_ce23_b628,
        725_578,
        1_744,
    ),
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

fn stats_hash(p: &ProtocolStats) -> u64 {
    let mut h = Fnv::new();
    for w in [
        p.hellos,
        p.acks,
        p.retransmissions,
        p.sent,
        p.delivered,
        p.lost,
        p.duplicated,
        p.dropped_to_crashed,
        p.timeouts,
        p.computes,
        p.crashes,
        p.recoveries,
        p.corrupted,
        p.quarantined,
        p.quarantine_drops,
        p.corrupted_accepted,
        p.partition_dropped,
        p.rtt_samples,
    ] {
        h.word(w);
    }
    h.0
}

/// Runs one cell; returns `(trajectory hash, stats hash, events, ticks)`.
fn run_cell(n: usize, loss: f64, seed: u64, threads: usize) -> (u64, u64, u64, u64) {
    let region = Region::square(1.0).unwrap();
    let positions = sample_uniform(&region, n, seed);
    let mut config = LaacadConfig::builder(1)
        .transmission_range(LaacadConfig::recommended_gamma(region.area(), n, 1))
        .alpha(0.5)
        .epsilon(1e-3)
        .max_rounds(400)
        .seed(seed)
        .build()
        .expect("valid config");
    config.threads = threads;
    let plan = FaultPlan {
        loss,
        delay: DelayModel::Exp { mean: 1.0 },
        ..FaultPlan::default()
    };
    let mut exec = AsyncExecutor::new(config, region, positions, plan, AsyncConfig::default())
        .expect("valid cell");
    let report = exec.run();
    let net = exec.network();
    let mut hash = Fnv::new();
    for (p, r) in net.positions().iter().zip(net.sensing_radii()) {
        hash.word(p.x.to_bits());
        hash.word(p.y.to_bits());
        hash.word(r.to_bits());
    }
    (
        hash.0,
        stats_hash(&report.protocol),
        report.events_processed,
        report.ticks,
    )
}

#[test]
fn async_lossy_trajectories_are_bit_identical() {
    for threads in [1, 2] {
        let got: Vec<_> = GOLDEN
            .iter()
            .map(|&(n, loss, seed, ..)| {
                let (hash, stats, events, ticks) = run_cell(n, loss, seed, threads);
                (n, loss, seed, hash, stats, events, ticks)
            })
            .collect();
        assert_eq!(got, GOLDEN, "async output moved at threads {threads}");
    }
}
