//! Property-based tests for the geometry kernel.

use laacad_geom::hull::hull_contains;
use laacad_geom::polygon::signed_area;
use laacad_geom::welzl::min_enclosing_circle_brute;
use laacad_geom::{
    convex_hull, min_enclosing_circle, min_enclosing_circle_in_place, Aabb, Arc, ArcCover,
    HalfPlane, Point, Polygon, PolygonBuf, Segment, Vector,
};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    // Bounded, finite coordinates at the scale LAACAD uses (km).
    (-1000.0f64..1000.0).prop_map(|x| (x * 1e6).round() / 1e6)
}

fn point() -> impl Strategy<Value = Point> {
    (coord(), coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn points(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(point(), min..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn welzl_encloses_all_points(pts in points(1, 60)) {
        let c = min_enclosing_circle(&pts);
        let scale = 1.0 + c.radius;
        for p in &pts {
            prop_assert!(c.center.distance(*p) <= c.radius + 1e-7 * scale);
        }
    }

    #[test]
    fn welzl_matches_brute_force(pts in points(1, 12)) {
        let fast = min_enclosing_circle(&pts);
        let slow = min_enclosing_circle_brute(&pts);
        let scale = 1.0 + slow.radius;
        prop_assert!(
            (fast.radius - slow.radius).abs() <= 1e-6 * scale,
            "fast {} vs slow {}", fast.radius, slow.radius
        );
    }

    #[test]
    fn hull_contains_every_input(pts in points(1, 50)) {
        let h = convex_hull(&pts);
        for p in &pts {
            prop_assert!(hull_contains(&h, *p), "hull misses {p}");
        }
    }

    #[test]
    fn hull_is_convex_and_ccw(pts in points(3, 50)) {
        let h = convex_hull(&pts);
        if h.len() >= 3 {
            prop_assert!(signed_area(&h) > 0.0);
            let p = Polygon::new(h.iter().copied()).unwrap();
            prop_assert!(p.is_convex());
        }
    }

    #[test]
    fn halfplane_clip_respects_constraint(
        pts in points(3, 20),
        nx in -1.0f64..1.0,
        ny in -1.0f64..1.0,
        off in -500.0f64..500.0,
    ) {
        let hull = convex_hull(&pts);
        prop_assume!(hull.len() >= 3);
        let poly = Polygon::new(hull).unwrap();
        let Some(h) = HalfPlane::new(Vector::new(nx, ny), off) else {
            return Ok(());
        };
        if let Some(clipped) = poly.clip_halfplane(&h) {
            let tol = 1e-6 * (1.0 + poly.bounding_box().diagonal());
            for v in clipped.vertices() {
                prop_assert!(h.signed_distance(*v) <= tol, "vertex {v} escapes");
                prop_assert!(poly.contains(*v) || poly.closest_boundary_point(*v).distance(*v) <= tol);
            }
            prop_assert!(clipped.area() <= poly.area() + 1e-9);
        }
    }

    #[test]
    fn convex_clip_is_commutative_in_area(a_pts in points(3, 15), b_pts in points(3, 15)) {
        let ha = convex_hull(&a_pts);
        let hb = convex_hull(&b_pts);
        prop_assume!(ha.len() >= 3 && hb.len() >= 3);
        let pa = Polygon::new(ha).unwrap();
        let pb = Polygon::new(hb).unwrap();
        let ab = pa.clip_convex(&pb).map(|p| p.area()).unwrap_or(0.0);
        let ba = pb.clip_convex(&pa).map(|p| p.area()).unwrap_or(0.0);
        let scale = 1.0 + pa.area().max(pb.area());
        prop_assert!((ab - ba).abs() <= 1e-6 * scale, "areas {ab} vs {ba}");
    }

    #[test]
    fn clip_halfplane_into_matches_allocating_form(
        pts in points(3, 20),
        nx in -1.0f64..1.0,
        ny in -1.0f64..1.0,
        off in -500.0f64..500.0,
    ) {
        let hull = convex_hull(&pts);
        prop_assume!(hull.len() >= 3);
        let poly = Polygon::new(hull).unwrap();
        let Some(h) = HalfPlane::new(Vector::new(nx, ny), off) else {
            return Ok(());
        };
        let owned = poly.clip_halfplane(&h);
        let mut buf = PolygonBuf::new();
        let ok = poly.clip_halfplane_into(&h, &mut buf);
        match owned {
            Some(p) => {
                prop_assert!(ok);
                // Bit-identical, vertex for vertex.
                prop_assert_eq!(p.vertices(), buf.vertices());
            }
            None => prop_assert!(!ok, "buffer form accepted a degenerate clip"),
        }
    }

    #[test]
    fn split_halfplane_into_matches_two_clips(
        pts in points(3, 20),
        kind in 0usize..6,
        pick in 0usize..64,
        nx in -1.0f64..1.0,
        ny in -1.0f64..1.0,
        off in -500.0f64..500.0,
    ) {
        let hull = convex_hull(&pts);
        prop_assume!(hull.len() >= 3);
        let mut subject = PolygonBuf::new();
        prop_assume!(subject.assign(hull));
        let vs = subject.vertices();
        let v = vs[pick % vs.len()];
        let w = vs[(pick + 1) % vs.len()];
        // Offsets a few clip tolerances either side of a vertex, where
        // the in/out verdicts and the degeneracy checks are decided.
        let bb = Aabb::from_points(vs.iter().copied()).unwrap();
        let tol = laacad_geom::EPS * (1.0 + bb.diagonal());
        let shift = [0.0, 0.5, -0.5, 2.0, -2.0, 8.0, -8.0][pick % 7] * tol;
        let unit = Vector::new(nx, ny).normalized(1e-6);
        let h = match kind {
            // Through (or just beside) a vertex.
            0 => unit.and_then(|n| HalfPlane::new(n, n.dot(v.to_vector()) + shift)),
            // Along an edge (either orientation).
            1 => HalfPlane::left_of(v, w),
            2 => HalfPlane::left_of(w, v),
            // Missing the polygon on either side.
            3 => unit.and_then(|n| HalfPlane::new(n, if off < 0.0 { -1e5 } else { 1e5 })),
            // A sliver off the extreme vertex along the normal, a few
            // tolerances deep: its area is below EPS.
            4 => unit.and_then(|n| {
                let top = vs.iter().map(|p| n.dot(p.to_vector())).fold(f64::MIN, f64::max);
                HalfPlane::new(n, top - shift.abs())
            }),
            _ => unit.and_then(|n| HalfPlane::new(n, off)),
        };
        let Some(h) = h else {
            return Ok(());
        };
        let bits = |b: &PolygonBuf| -> Vec<(u64, u64)> {
            b.vertices().iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
        };
        let (mut out_ref, mut in_ref) = (PolygonBuf::new(), PolygonBuf::new());
        let out_ok_ref = subject.clip_halfplane_into(&h.complement(), &mut out_ref);
        let in_ok_ref = subject.clip_halfplane_into(&h, &mut in_ref);
        let mut dist = Vec::new();
        let (mut out, mut inside) = (PolygonBuf::new(), PolygonBuf::new());
        let flags = subject.split_halfplane_into(&h, &bb, &mut dist, &mut out, Some(&mut inside));
        prop_assert_eq!(flags, (out_ok_ref, in_ok_ref));
        prop_assert_eq!(bits(&out), bits(&out_ref));
        prop_assert_eq!(bits(&inside), bits(&in_ref));
        // Without the inside child: the same outside, a `false` flag.
        let flags = subject.split_halfplane_into(&h, &bb, &mut dist, &mut out, None);
        prop_assert_eq!(flags, (out_ok_ref, false));
        prop_assert_eq!(bits(&out), bits(&out_ref));
    }

    #[test]
    fn clip_convex_into_matches_allocating_form(a_pts in points(3, 15), b_pts in points(3, 15)) {
        let ha = convex_hull(&a_pts);
        let hb = convex_hull(&b_pts);
        prop_assume!(ha.len() >= 3 && hb.len() >= 3);
        let pa = Polygon::new(ha).unwrap();
        let pb = Polygon::new(hb).unwrap();
        let owned = pa.clip_convex(&pb);
        let mut out = PolygonBuf::new();
        let mut tmp = PolygonBuf::new();
        let ok = pa.clip_convex_into(&pb, &mut out, &mut tmp);
        match owned {
            Some(p) => {
                prop_assert!(ok);
                prop_assert_eq!(p.vertices(), out.vertices());
                // The buffer-held clip polygon variant agrees too.
                let mut clip_buf = PolygonBuf::new();
                clip_buf.copy_from(pb.vertices());
                let mut out2 = PolygonBuf::new();
                prop_assert!(pa.clip_convex_buf_into(&clip_buf, &mut out2, &mut tmp));
                prop_assert_eq!(out.vertices(), out2.vertices());
            }
            None => prop_assert!(!ok, "buffer form accepted an empty intersection"),
        }
    }

    #[test]
    fn welzl_in_place_matches_allocating_form(pts in points(0, 40)) {
        let reference = min_enclosing_circle(&pts);
        let mut scratch = pts.clone();
        let in_place = min_enclosing_circle_in_place(&mut scratch);
        prop_assert_eq!(reference.center, in_place.center);
        prop_assert_eq!(reference.radius.to_bits(), in_place.radius.to_bits());
    }

    #[test]
    fn segment_closest_point_is_nearest(a in point(), b in point(), q in point()) {
        let s = Segment::new(a, b);
        let c = s.closest_point(q);
        // Closest point beats both endpoints and a few interior samples.
        for t in [0.0, 0.25, 0.5, 0.75, 1.0] {
            prop_assert!(c.distance(q) <= s.point_at(t).distance(q) + 1e-9);
        }
    }

    #[test]
    fn arc_cover_min_depth_matches_sampling(
        raw in prop::collection::vec((0.0f64..std::f64::consts::TAU, 0.01f64..std::f64::consts::TAU), 1..12)
    ) {
        let arcs: Vec<Arc> = raw.iter().map(|&(s, w)| Arc::new(s, w)).collect();
        let mut cover = ArcCover::new();
        for a in &arcs {
            cover.add(*a);
        }
        let mut sampled_min = usize::MAX;
        for i in 0..2880 {
            let th = (i as f64 + 0.5) / 2880.0 * std::f64::consts::TAU;
            let d = arcs.iter().filter(|a| a.contains(th)).count();
            sampled_min = sampled_min.min(d);
        }
        // Sampling can only overestimate the true minimum (it may miss a
        // narrow gap); the exact sweep may only be ≤ the sampled estimate.
        prop_assert!(cover.min_depth() <= sampled_min);
        // And on a refined grid around breakpoints they agree for the
        // generated (≥0.01-rad) arcs.
        prop_assert!(sampled_min.saturating_sub(cover.min_depth()) <= 1);
    }

    #[test]
    fn arc_cover_min_depth_on_query_matches_sampling(
        raw in prop::collection::vec((0.0f64..std::f64::consts::TAU, 0.01f64..std::f64::consts::TAU), 1..12),
        raw_query in prop::collection::vec((0.0f64..std::f64::consts::TAU, 0.01f64..std::f64::consts::TAU), 1..6),
    ) {
        // Oracle for the query-restricted sweep (the ring-domination hot
        // path): dense sampling of depth over the query union only.
        let arcs: Vec<Arc> = raw.iter().map(|&(s, w)| Arc::new(s, w)).collect();
        let query: Vec<Arc> = raw_query.iter().map(|&(s, w)| Arc::new(s, w)).collect();
        let mut cover = ArcCover::new();
        for a in &arcs {
            cover.add(*a);
        }
        let mut sampled_min = usize::MAX;
        for i in 0..2880 {
            let th = (i as f64 + 0.5) / 2880.0 * std::f64::consts::TAU;
            if !query.iter().any(|q| q.contains(th)) {
                continue;
            }
            let d = arcs.iter().filter(|a| a.contains(th)).count();
            sampled_min = sampled_min.min(d);
        }
        let exact = cover.min_depth_on(&query);
        if sampled_min == usize::MAX {
            // The (≥0.01-rad) query arcs always catch a sample; guard anyway.
            prop_assert_eq!(exact, usize::MAX);
        } else {
            // Sampling can only miss narrow low-depth gaps, so the exact
            // sweep may only be ≤ the sampled estimate — and on these
            // wide-arc inputs they agree to within one boundary sliver.
            prop_assert!(exact <= sampled_min, "exact {} > sampled {}", exact, sampled_min);
            prop_assert!(sampled_min - exact <= 1, "exact {} vs sampled {}", exact, sampled_min);
        }
    }

    #[test]
    fn closer_to_halfplane_agrees_with_distances(a in point(), b in point(), q in point()) {
        if let Some(h) = HalfPlane::closer_to(a, b) {
            let da = q.distance(a);
            let db = q.distance(b);
            if (da - db).abs() > 1e-6 * (1.0 + da + db) {
                prop_assert_eq!(h.contains(q), da < db);
            }
        }
    }

    #[test]
    fn polygon_scaling_scales_area_quadratically(pts in points(3, 20), f in 0.1f64..4.0) {
        let h = convex_hull(&pts);
        prop_assume!(h.len() >= 3);
        let p = Polygon::new(h).unwrap();
        let s = p.scaled_about(p.centroid(), f);
        let scale = 1.0 + p.area() * f * f;
        prop_assert!((s.area() - p.area() * f * f).abs() <= 1e-6 * scale);
    }
}
