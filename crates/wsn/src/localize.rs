//! Local coordinate systems from ranging (Algorithm 2 line 4).
//!
//! A node that cannot rely on a positioning service builds a *relative*
//! map of its ring neighborhood: measure pairwise ranges, embed them with
//! classical MDS, and work in that frame. The frame is an unknown rigid
//! transform (possibly reflected) of the world frame — irrelevant for
//! LAACAD, whose per-round output is a motion *relative to neighbors*.
//!
//! The simulator executes motion in world coordinates, so
//! [`LocalFrame::to_world`] aligns the frame onto the (simulator-known)
//! true positions with a Procrustes fit; the residual of that fit is the
//! localization error a real deployment would suffer, and is exposed as
//! [`LocalFrame::alignment_rmse`].

use crate::mds::{classical_mds, MdsError};
use crate::node::NodeId;
use crate::ranging::{measure_all, RangingNoise};
use laacad_geom::transform::{procrustes, Isometry};
use laacad_geom::Point;

/// A ranging-derived local coordinate system over a node neighborhood.
#[derive(Debug, Clone)]
pub struct LocalFrame {
    ids: Vec<NodeId>,
    local: Vec<Point>,
    to_world: Isometry,
    rmse: f64,
}

impl LocalFrame {
    /// Builds the frame for `members` (the center must be included) using
    /// measured ranges under `noise`.
    ///
    /// `true_positions[i]` is the world position of `members[i]`; it is
    /// used (a) to simulate the range measurements and (b) to compute the
    /// world alignment the simulator needs to execute motion.
    ///
    /// # Errors
    ///
    /// Propagates [`MdsError`] for degenerate neighborhoods (fewer than two
    /// distinct positions).
    pub fn build(
        members: &[NodeId],
        true_positions: &[Point],
        noise: &RangingNoise,
        seed: u64,
    ) -> Result<Self, MdsError> {
        if members.len() != true_positions.len() || members.len() < 2 {
            return Err(MdsError::BadInput);
        }
        let ranges = measure_all(true_positions, noise, seed);
        let embedding = classical_mds(&ranges)?;
        let to_world =
            procrustes(&embedding.coords, true_positions).map_err(|_| MdsError::Degenerate)?;
        let rmse = (embedding
            .coords
            .iter()
            .zip(true_positions)
            .map(|(c, p)| to_world.apply(*c).distance_sq(*p))
            .sum::<f64>()
            / members.len() as f64)
            .sqrt();
        Ok(LocalFrame {
            ids: members.to_vec(),
            local: embedding.coords,
            to_world,
            rmse,
        })
    }

    /// Members of the frame, aligned with [`LocalFrame::local_positions`].
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The local (MDS) coordinates of the members.
    pub fn local_positions(&self) -> &[Point] {
        &self.local
    }

    /// Maps a point expressed in the local frame into world coordinates.
    pub fn to_world(&self, p: Point) -> Point {
        self.to_world.apply(p)
    }

    /// Root-mean-square alignment error (zero for noiseless ranging).
    pub fn alignment_rmse(&self) -> f64 {
        self.rmse
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn noiseless_frame_is_exact() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.2),
            Point::new(0.4, 0.9),
            Point::new(-0.5, 0.3),
        ];
        let f = LocalFrame::build(&members(4), &pts, &RangingNoise::NONE, 1).unwrap();
        assert!(f.alignment_rmse() < 1e-7);
        // Round trip: local → world reproduces the truth.
        for (i, &p) in pts.iter().enumerate() {
            let w = f.to_world(f.local_positions()[i]);
            assert!(w.approx_eq(p, 1e-6), "{w} vs {p}");
        }
    }

    #[test]
    fn geometry_is_preserved_locally() {
        let pts = vec![
            Point::new(2.0, 1.0),
            Point::new(3.0, 1.0),
            Point::new(2.0, 2.5),
        ];
        let f = LocalFrame::build(&members(3), &pts, &RangingNoise::NONE, 2).unwrap();
        let l = f.local_positions();
        for i in 0..3 {
            for j in 0..3 {
                assert!((l[i].distance(l[j]) - pts[i].distance(pts[j])).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn noisy_frame_reports_rmse() {
        let pts: Vec<Point> = (0..8)
            .map(|i| Point::new((i % 3) as f64, (i / 3) as f64))
            .collect();
        let noise = RangingNoise::new(0.05, 0.0);
        let f = LocalFrame::build(&members(8), &pts, &noise, 3).unwrap();
        assert!(f.alignment_rmse() > 0.0);
        assert!(f.alignment_rmse() < 0.3, "rmse {}", f.alignment_rmse());
    }

    #[test]
    fn degenerate_input_errors() {
        let p = Point::new(1.0, 1.0);
        assert!(LocalFrame::build(&members(3), &[p, p, p], &RangingNoise::NONE, 5).is_err());
        assert!(LocalFrame::build(&members(1), &[p], &RangingNoise::NONE, 5).is_err());
    }
}
