//! The Galerkin integration engine with §4.1 dimension reduction.
//!
//! Every entry of the template matrix P̃ (equation (5)) is an integral of
//! the form (6). The engine picks the cheapest sufficient evaluation:
//!
//! * **far**: both templates collapse to points — `areaA·areaB/d`
//!   (the lowest-dimensional expression);
//! * **parallel, near**: the exact 16-corner 4-D closed form;
//! * **perpendicular / shaped, near**: outer Gauss quadrature of the inner
//!   2-D (or 1-D) analytic expression — exactly the split of equation (7);
//! * **touching/overlapping**: the outer rectangle is subdivided before
//!   quadrature so the (continuous but edge-kinked) inner potential is
//!   resolved.
//!
//! The primitive evaluators are injectable function pointers so the
//! acceleration techniques of §4.2 (tabulated `log`/`atan`, etc., in
//! `bemcap-accel`) can be swapped into the hot path without a dynamic
//! dispatch per elementary-function call.

use bemcap_geom::{Panel, PanelRelation, Point3};

use crate::analytic;
use crate::gauss::GaussRule;

/// Which in-plane coordinate a 1-D template shape varies along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeDir {
    /// The panel's first tangent axis.
    U,
    /// The panel's second tangent axis.
    V,
}

/// The in-plane weight of a template on its support panel.
///
/// Instantiable templates have *at most 1-D shape variation* (§4.1): they
/// are either flat (constant 1) or vary along a single tangent direction.
#[derive(Clone, Copy)]
pub enum PanelShape<'a> {
    /// Constant weight 1 — face basis functions and flat templates.
    Flat,
    /// Weight `shape(c)` where `c` is the absolute in-plane coordinate
    /// along `dir` — arch templates.
    Shaped {
        /// Direction of variation.
        dir: ShapeDir,
        /// The 1-D profile, evaluated at absolute coordinates.
        shape: &'a dyn Fn(f64) -> f64,
    },
}

impl std::fmt::Debug for PanelShape<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PanelShape::Flat => write!(f, "Flat"),
            PanelShape::Shaped { dir, .. } => write!(f, "Shaped({dir:?})"),
        }
    }
}

/// Tuning knobs for the dimension-reduction strategy of §4.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GalerkinConfig {
    /// Separation (in units of the larger panel diameter) beyond which the
    /// point–point approximation is used ("approximation distance").
    pub far_ratio: f64,
    /// Separation beyond which a low-order outer rule suffices.
    pub mid_ratio: f64,
    /// Outer Gauss order for nearby pairs.
    pub near_order: usize,
    /// Outer Gauss order for mid-range pairs.
    pub mid_order: usize,
    /// Outer-rectangle subdivision when panels touch or overlap.
    pub touch_subdiv: usize,
    /// Gauss order for integrating 1-D template shapes.
    pub shape_order: usize,
}

impl Default for GalerkinConfig {
    fn default() -> Self {
        GalerkinConfig {
            far_ratio: 8.0,
            mid_ratio: 2.5,
            near_order: 6,
            mid_order: 3,
            touch_subdiv: 3,
            shape_order: 6,
        }
    }
}

impl GalerkinConfig {
    /// Every field as a raw word (`f64`s by bit pattern), in declaration
    /// order: the configuration's bit-exact identity, as folded into
    /// solver digests and pair-integral cache keys.
    pub fn words(&self) -> [u64; 6] {
        [
            self.far_ratio.to_bits(),
            self.mid_ratio.to_bits(),
            self.near_order as u64,
            self.mid_order as u64,
            self.touch_subdiv as u64,
            self.shape_order as u64,
        ]
    }
}

/// The integration engine. Create once, use for every template pair; it is
/// `Send + Sync` and freely shared across the parallel workers of
/// Algorithm 1.
pub struct GalerkinEngine {
    cfg: GalerkinConfig,
    rule_near: GaussRule,
    rule_mid: GaussRule,
    rule_shape: GaussRule,
    /// Double (2-D) primitive of 1/r — injectable for §4.2 acceleration.
    dp: fn(f64, f64, f64) -> f64,
    /// Quadruple (4-D) primitive of 1/r — injectable for §4.2 acceleration.
    qp: fn(f64, f64, f64) -> f64,
    /// Triple (3-D) primitive of 1/r — injectable for §4.2 acceleration.
    tp: fn(f64, f64, f64) -> f64,
}

impl std::fmt::Debug for GalerkinEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GalerkinEngine").field("cfg", &self.cfg).finish()
    }
}

impl Default for GalerkinEngine {
    fn default() -> Self {
        GalerkinEngine::new(GalerkinConfig::default())
    }
}

impl GalerkinEngine {
    /// Builds an engine with the given configuration and the exact
    /// double-precision primitives.
    pub fn new(cfg: GalerkinConfig) -> GalerkinEngine {
        GalerkinEngine {
            cfg,
            rule_near: GaussRule::cached(cfg.near_order.max(1)),
            rule_mid: GaussRule::cached(cfg.mid_order.max(1)),
            rule_shape: GaussRule::cached(cfg.shape_order.max(1)),
            dp: analytic::double_primitive,
            qp: analytic::quad_primitive,
            tp: analytic::triple_primitive,
        }
    }

    /// Replaces the 2-D and 4-D primitive evaluators (acceleration hook
    /// for §4.2); see [`GalerkinEngine::with_triple_primitive`] for the
    /// 3-D one.
    pub fn with_primitives(
        mut self,
        dp: fn(f64, f64, f64) -> f64,
        qp: fn(f64, f64, f64) -> f64,
    ) -> GalerkinEngine {
        self.dp = dp;
        self.qp = qp;
        self
    }

    /// Replaces the 3-D primitive evaluator used by the shaped-template
    /// strip path.
    pub fn with_triple_primitive(mut self, tp: fn(f64, f64, f64) -> f64) -> GalerkinEngine {
        self.tp = tp;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &GalerkinConfig {
        &self.cfg
    }

    /// Integral of `wa(r) wb(r′) / ‖r − r′‖` over the two panels (raw
    /// kernel — callers divide by 4πε).
    pub fn panel_pair(&self, a: &Panel, sa: PanelShape<'_>, b: &Panel, sb: PanelShape<'_>) -> f64 {
        let size = a.diameter().max(b.diameter());
        let gap = aabb_gap(a, b);
        // Far field: lowest-dimensional expression (point-point).
        if gap > self.cfg.far_ratio * size {
            let d = a.center_distance(b);
            return self.weighted_area(a, sa) * self.weighted_area(b, sb) / d;
        }
        match (sa, sb) {
            (PanelShape::Flat, PanelShape::Flat) => self.flat_flat(a, b, gap, size),
            (PanelShape::Shaped { .. }, _) => self.outer_weighted(a, sa, b, sb, gap, size),
            (_, PanelShape::Shaped { .. }) => self.outer_weighted(b, sb, a, sa, gap, size),
        }
    }

    /// ∫ shape over the panel (the template "charge" content), used by the
    /// far-field collapse and by right-hand-side assembly.
    ///
    /// Shaped directions use a composite rule (several Gauss segments) so
    /// narrow arch bumps on wide supports are still resolved.
    pub fn weighted_area(&self, p: &Panel, s: PanelShape<'_>) -> f64 {
        match s {
            PanelShape::Flat => p.area(),
            PanelShape::Shaped { dir, shape } => {
                let (range, other_len) = match dir {
                    ShapeDir::U => (p.u_range(), p.v_len()),
                    ShapeDir::V => (p.v_range(), p.u_len()),
                };
                self.composite_1d(range, shape) * other_len
            }
        }
    }

    /// Composite Gauss integration of a 1-D function over `range`:
    /// `segments` uniform segments of the shape rule.
    fn composite_1d_seg(&self, range: (f64, f64), segments: usize, f: &dyn Fn(f64) -> f64) -> f64 {
        let dx = (range.1 - range.0) / segments as f64;
        let mut acc = 0.0;
        for s in 0..segments {
            let a = range.0 + dx * s as f64;
            acc += self.rule_shape.integrate(a, a + dx, f);
        }
        acc
    }

    /// Default composite rule (near-field resolution).
    fn composite_1d(&self, range: (f64, f64), f: &dyn Fn(f64) -> f64) -> f64 {
        self.composite_1d_seg(range, 2, f)
    }

    /// §4.1 approximation level for shaped quadrature: nearby template
    /// pairs get the full composite rule, mid-range pairs a single
    /// segment (the shapes are smooth Gaussians, and the kernel flattens
    /// with distance).
    fn shape_segments(&self, gap: f64, size: f64) -> usize {
        if gap < self.cfg.mid_ratio * size {
            2
        } else {
            1
        }
    }

    /// Exact potential of a flat unit-density panel at a 3-D point,
    /// using the injectable 2-D primitive.
    pub fn potential_at(&self, b: &Panel, p: Point3) -> f64 {
        let (ua, va) = b.normal().tangents();
        let dz = p.component(b.normal()) - b.w();
        let (px, py) = (p.component(ua), p.component(va));
        let (x0, x1) = b.u_range();
        let (y0, y1) = b.v_range();
        let dp = self.dp;
        let uhi = px - x0;
        let ulo = px - x1;
        let vhi = py - y0;
        let vlo = py - y1;
        dp(uhi, vhi, dz) - dp(uhi, vlo, dz) - dp(ulo, vhi, dz) + dp(ulo, vlo, dz)
    }

    fn flat_flat(&self, a: &Panel, b: &Panel, gap: f64, size: f64) -> f64 {
        if a.relation(b) != PanelRelation::Perpendicular {
            // Parallel or coplanar: exact 4-D closed form via the
            // injectable quadruple primitive.
            let z = a.w() - b.w();
            return self.galerkin_parallel_injected(
                a.u_range(),
                a.v_range(),
                b.u_range(),
                b.v_range(),
                z,
            );
        }
        // Perpendicular: outer quadrature of the inner 2-D analytic form.
        self.outer_quadrature(a, |_u, _v| 1.0, gap, size, |p| self.potential_at(b, p))
    }

    fn galerkin_parallel_injected(
        &self,
        ax: (f64, f64),
        ay: (f64, f64),
        bx: (f64, f64),
        by: (f64, f64),
        z: f64,
    ) -> f64 {
        let qp = self.qp;
        let xs = [ax.0, ax.1];
        let xt = [bx.0, bx.1];
        let ys = [ay.0, ay.1];
        let yt = [by.0, by.1];
        let mut acc = 0.0;
        for (i, &xi) in xs.iter().enumerate() {
            for (j, &xj) in xt.iter().enumerate() {
                let u = xi - xj;
                for (k, &yk) in ys.iter().enumerate() {
                    for (l, &yl) in yt.iter().enumerate() {
                        let v = yk - yl;
                        let sign = if (i + j + k + l) % 2 == 0 { 1.0 } else { -1.0 };
                        acc += sign * qp(u, v, z);
                    }
                }
            }
        }
        acc
    }

    /// Outer panel carries a shaped weight. For *parallel* panels the
    /// equation-(7) split applies: shaped coordinates are integrated
    /// numerically and the unshaped dimensions collapse through the 3-D
    /// ([`analytic::strip_potential`]) or 2-D analytic expressions.
    /// Perpendicular panels fall back to outer 2-D quadrature of the inner
    /// closed form.
    fn outer_weighted(
        &self,
        outer: &Panel,
        souter: PanelShape<'_>,
        inner: &Panel,
        sinner: PanelShape<'_>,
        gap: f64,
        size: f64,
    ) -> f64 {
        let segments = self.shape_segments(gap, size);
        if outer.relation(inner) != PanelRelation::Perpendicular {
            if let PanelShape::Shaped { dir: da, shape: sa } = souter {
                let z = outer.w() - inner.w();
                match sinner {
                    PanelShape::Flat => {
                        return self.shaped_flat_parallel(outer, da, sa, inner, z, segments)
                    }
                    PanelShape::Shaped { dir: db, shape: sb } => {
                        // Same-axis shaped pairs in the same plane hit the
                        // genuinely divergent coplanar log sub-integral at
                        // aligned quadrature nodes — those (rare, arch×arch
                        // on one face) go through the robust fallback.
                        if !(da == db && z == 0.0) {
                            return self
                                .shaped_shaped_parallel(outer, da, sa, inner, db, sb, z, segments);
                        }
                    }
                }
            }
        }
        // Fallback: outer 2-D quadrature × inner analytic.
        let weight = |u: f64, v: f64| match souter {
            PanelShape::Flat => 1.0,
            PanelShape::Shaped { dir, shape } => match dir {
                ShapeDir::U => shape(u),
                ShapeDir::V => shape(v),
            },
        };
        self.outer_quadrature(outer, weight, gap, size, |p| match sinner {
            PanelShape::Flat => self.potential_at(inner, p),
            PanelShape::Shaped { dir, shape } => self.shaped_potential_at(inner, dir, shape, p),
        })
    }

    /// Shaped × flat, parallel panels: 1-D composite quadrature over the
    /// shaped coordinate × the 3-D analytic strip potential.
    fn shaped_flat_parallel(
        &self,
        a: &Panel,
        dir: ShapeDir,
        shape: &dyn Fn(f64) -> f64,
        b: &Panel,
        z: f64,
        segments: usize,
    ) -> f64 {
        // Ranges along the shaped axis (s) and the unshaped axis (t).
        let (a_s, a_t, b_s, b_t) = match dir {
            ShapeDir::U => (a.u_range(), a.v_range(), b.u_range(), b.v_range()),
            ShapeDir::V => (a.v_range(), a.u_range(), b.v_range(), b.u_range()),
        };
        let tp = self.tp;
        let strip = move |x: f64| {
            // Single u-difference over b_s, double v-difference over
            // (a_t, b_t) of the (injectable) triple primitive.
            let mut acc = 0.0;
            for (j, &bxj) in [b_s.0, b_s.1].iter().enumerate() {
                let u = x - bxj;
                let su = if j == 0 { 1.0 } else { -1.0 };
                for (k, &avk) in [a_t.0, a_t.1].iter().enumerate() {
                    for (l, &bvl) in [b_t.0, b_t.1].iter().enumerate() {
                        let v = avk - bvl;
                        let sv = if (k + l) % 2 == 0 { -1.0 } else { 1.0 };
                        acc += su * sv * tp(u, v, z);
                    }
                }
            }
            acc
        };
        let f = |x: f64| shape(x) * strip(x);
        self.composite_1d_seg(a_s, segments, &f)
    }

    /// Shaped × shaped, parallel panels: tensor quadrature over the two
    /// shaped coordinates × the 2-D analytic expression over the rest.
    #[allow(clippy::too_many_arguments)]
    fn shaped_shaped_parallel(
        &self,
        a: &Panel,
        da: ShapeDir,
        sa: &dyn Fn(f64) -> f64,
        b: &Panel,
        db: ShapeDir,
        sb: &dyn Fn(f64) -> f64,
        z: f64,
        segments: usize,
    ) -> f64 {
        let (a_s, a_t) = match da {
            ShapeDir::U => (a.u_range(), a.v_range()),
            ShapeDir::V => (a.v_range(), a.u_range()),
        };
        let (b_s, b_t) = match db {
            ShapeDir::U => (b.u_range(), b.v_range()),
            ShapeDir::V => (b.v_range(), b.u_range()),
        };
        if da == db {
            // Same shaped axis: offsets along it are fixed per node pair;
            // both unshaped ranges corner-difference through the twice-in-v
            // primitive (with log-kernel fallback when nodes align).
            let outer = |x: f64| {
                let inner = |xp: f64| sb(xp) * analytic::line_pair_potential(x - xp, a_t, b_t, z);
                sa(x) * self.composite_1d_seg(b_s, segments, &inner)
            };
            self.composite_1d_seg(a_s, segments, &outer)
        } else {
            // Crossed shaped axes (A along u, B along v or vice versa):
            // one unshaped range from each panel, single-differenced
            // through the mixed double primitive F(u, v, z).
            // Let x be A's shaped coordinate and y′ B's. The remaining
            // integrations are over x′ ∈ b_t (same axis as x) and
            // y ∈ a_t (same axis as y′).
            let dp = self.dp;
            let outer = |x: f64| {
                let inner = |yp: f64| {
                    // Single u-difference over x′ and single v-difference
                    // over y of F(x−x′, y−y′, z).
                    let mut acc = 0.0;
                    for (j, &xpj) in [b_t.0, b_t.1].iter().enumerate() {
                        let su = if j == 0 { 1.0 } else { -1.0 };
                        for (k, &yk) in [a_t.0, a_t.1].iter().enumerate() {
                            let sv = if k == 0 { -1.0 } else { 1.0 };
                            acc += su * sv * dp(x - xpj, yk - yp, z);
                        }
                    }
                    sb(yp) * acc
                };
                sa(x) * self.composite_1d_seg(b_s, segments, &inner)
            };
            self.composite_1d_seg(a_s, segments, &outer)
        }
    }

    /// Potential at `p` of a panel whose density varies along `dir`:
    /// 1-D Gauss over the shaped coordinate × 1-D line closed form over the
    /// other (the inner bracket of equation (7)).
    fn shaped_potential_at(
        &self,
        b: &Panel,
        dir: ShapeDir,
        shape: &dyn Fn(f64) -> f64,
        p: Point3,
    ) -> f64 {
        let (ua, va) = b.normal().tangents();
        let dz = p.component(b.normal()) - b.w();
        let (pu, pv) = (p.component(ua), p.component(va));
        let (srange, trange, ps, pt) = match dir {
            ShapeDir::U => (b.u_range(), b.v_range(), pu, pv),
            ShapeDir::V => (b.v_range(), b.u_range(), pv, pu),
        };
        let inner = |s: f64| {
            let p2 = (ps - s).powi(2) + dz * dz;
            if p2 == 0.0 {
                // Target exactly on the source line: the (measure-zero,
                // integrable) singular node contributes nothing.
                return 0.0;
            }
            shape(s) * analytic::line_potential(trange.0, trange.1, pt, p2)
        };
        self.composite_1d(srange, &inner)
    }

    /// Subdivided tensor-product outer quadrature of `g` over `outer` with
    /// in-plane weight `w(u, v)`.
    fn outer_quadrature(
        &self,
        outer: &Panel,
        w: impl Fn(f64, f64) -> f64,
        gap: f64,
        size: f64,
        g: impl Fn(Point3) -> f64,
    ) -> f64 {
        let (rule, subdiv) = if gap <= 0.05 * size {
            (&self.rule_near, self.cfg.touch_subdiv.max(1))
        } else if gap < self.cfg.mid_ratio * size {
            (&self.rule_near, 1)
        } else {
            (&self.rule_mid, 1)
        };
        let (u0, u1) = outer.u_range();
        let (v0, v1) = outer.v_range();
        let du = (u1 - u0) / subdiv as f64;
        let dv = (v1 - v0) / subdiv as f64;
        let mut acc = 0.0;
        for i in 0..subdiv {
            for j in 0..subdiv {
                let ua = u0 + du * i as f64;
                let va = v0 + dv * j as f64;
                for (u, wu) in rule.mapped(ua, ua + du) {
                    for (v, wv) in rule.mapped(va, va + dv) {
                        acc += wu * wv * w(u, v) * g(outer.point_at(u, v));
                    }
                }
            }
        }
        acc
    }
}

/// Distance between the axis-aligned bounding boxes of two panels
/// (0 when they touch or overlap).
pub fn aabb_gap(a: &Panel, b: &Panel) -> f64 {
    let (alo, ahi) = a.bounds();
    let (blo, bhi) = b.bounds();
    let dx = (blo.x - ahi.x).max(alo.x - bhi.x).max(0.0);
    let dy = (blo.y - ahi.y).max(alo.y - bhi.y).max(0.0);
    let dz = (blo.z - ahi.z).max(alo.z - bhi.z).max(0.0);
    (dx * dx + dy * dy + dz * dz).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numint;
    use bemcap_geom::Axis;

    fn panel(n: Axis, w: f64, u: (f64, f64), v: (f64, f64)) -> Panel {
        Panel::new(n, w, u, v).unwrap()
    }

    #[test]
    fn gap_between_panels() {
        let a = panel(Axis::Z, 0.0, (0.0, 1.0), (0.0, 1.0));
        let b = panel(Axis::Z, 2.0, (0.0, 1.0), (0.0, 1.0));
        assert!((aabb_gap(&a, &b) - 2.0).abs() < 1e-15);
        let c = panel(Axis::Z, 0.0, (3.0, 4.0), (4.0, 5.0)); // diagonal offset 2,3
        assert!((aabb_gap(&a, &c) - (4.0 + 9.0_f64).sqrt()).abs() < 1e-15);
        assert_eq!(aabb_gap(&a, &a), 0.0);
    }

    #[test]
    fn parallel_pair_is_exact() {
        let eng = GalerkinEngine::default();
        let a = panel(Axis::Z, 0.0, (0.0, 1.0), (0.0, 1.0));
        let b = panel(Axis::Z, 0.9, (0.3, 1.3), (-0.5, 0.5));
        let got = eng.panel_pair(&a, PanelShape::Flat, &b, PanelShape::Flat);
        let expect =
            analytic::galerkin_parallel((0.0, 1.0), (0.0, 1.0), (0.3, 1.3), (-0.5, 0.5), 0.9);
        assert!((got - expect).abs() < 1e-14 * expect.abs());
    }

    #[test]
    fn x_normal_parallel_pair_matches_bruteforce() {
        // Same physical configuration expressed with X-normal panels:
        // tangents of X are (y, z).
        let eng = GalerkinEngine::default();
        let a = panel(Axis::X, 0.0, (0.0, 1.0), (0.0, 2.0));
        let b = panel(Axis::X, 1.5, (0.5, 1.5), (0.0, 2.0));
        let got = eng.panel_pair(&a, PanelShape::Flat, &b, PanelShape::Flat);
        let reference =
            numint::galerkin_bruteforce((0.0, 1.0), (0.0, 2.0), (0.5, 1.5), (0.0, 2.0), 1.5, 2, 16);
        assert!((got - reference).abs() < 1e-8 * reference, "{got} vs {reference}");
    }

    #[test]
    fn perpendicular_pair_matches_bruteforce() {
        let eng = GalerkinEngine::default();
        // A in z=0 plane, B in x=2 plane, separated.
        let a = panel(Axis::Z, 0.0, (0.0, 1.0), (0.0, 1.0));
        let b = panel(Axis::X, 2.0, (0.0, 1.0), (1.0, 2.0)); // u=y in [0,1], v=z in [1,2]
        let got = eng.panel_pair(&a, PanelShape::Flat, &b, PanelShape::Flat);
        // Brute force in global coordinates.
        let rule = GaussRule::new(24);
        let mut reference = 0.0;
        for (x, wx) in rule.mapped(0.0, 1.0) {
            for (y, wy) in rule.mapped(0.0, 1.0) {
                // point on A: (x, y, 0); integrate over B: (2, y', z')
                for (yp, wyp) in rule.mapped(0.0, 1.0) {
                    for (zp, wzp) in rule.mapped(1.0, 2.0) {
                        let r = ((x - 2.0_f64).powi(2) + (y - yp).powi(2) + zp * zp).sqrt();
                        reference += wx * wy * wyp * wzp / r;
                    }
                }
            }
        }
        assert!((got - reference).abs() < 1e-6 * reference, "{got} vs {reference}");
    }

    #[test]
    fn perpendicular_touching_pair_is_sane() {
        // Two faces of the same box share an edge; the integral must be
        // finite, positive, and close to a heavily subdivided reference.
        let eng = GalerkinEngine::default();
        let a = panel(Axis::Z, 1.0, (0.0, 1.0), (0.0, 1.0)); // top face
        let b = panel(Axis::X, 0.0, (0.0, 1.0), (0.0, 1.0)); // side face (u=y, v=z)
        let got = eng.panel_pair(&a, PanelShape::Flat, &b, PanelShape::Flat);
        assert!(got.is_finite() && got > 0.0);
        // Reference: fine outer subdivision of the exact inner potential.
        let rule = GaussRule::new(6);
        let mut reference = 0.0;
        let k = 12;
        let d = 1.0 / k as f64;
        for i in 0..k {
            for j in 0..k {
                let x0 = i as f64 * d;
                let y0 = j as f64 * d;
                reference += rule.integrate_2d(x0, x0 + d, y0, y0 + d, |x, y| {
                    analytic::rect_potential(0.0, 1.0, 0.0, 1.0, x, y, 1.0)
                });
            }
        }
        assert!((got - reference).abs() < 5e-3 * reference, "{got} vs {reference}");
    }

    #[test]
    fn far_field_point_approximation_kicks_in() {
        let eng = GalerkinEngine::default();
        let a = panel(Axis::Z, 0.0, (0.0, 1.0), (0.0, 1.0));
        let b = panel(Axis::Z, 100.0, (0.0, 1.0), (0.0, 1.0));
        let got = eng.panel_pair(&a, PanelShape::Flat, &b, PanelShape::Flat);
        assert!((got - 1.0 / 100.0).abs() < 1e-6 / 100.0);
    }

    #[test]
    fn shaped_outer_flat_inner_matches_bruteforce() {
        let eng = GalerkinEngine::default();
        let a = panel(Axis::Z, 0.0, (0.0, 1.0), (0.0, 1.0));
        let b = panel(Axis::Z, 1.0, (0.2, 1.2), (0.0, 1.0));
        let shape = |u: f64| 1.0 + u * u; // smooth polynomial profile
        let got = eng.panel_pair(
            &a,
            PanelShape::Shaped { dir: ShapeDir::U, shape: &shape },
            &b,
            PanelShape::Flat,
        );
        let reference = numint::weighted_bruteforce(
            (0.0, 1.0),
            (0.0, 1.0),
            (0.2, 1.2),
            (0.0, 1.0),
            1.0,
            |x, _| 1.0 + x * x,
            |_, _| 1.0,
            2,
            10,
        );
        assert!((got - reference).abs() < 1e-4 * reference, "{got} vs {reference}");
    }

    #[test]
    fn both_shaped_matches_bruteforce() {
        let eng = GalerkinEngine::default();
        let a = panel(Axis::Z, 0.0, (0.0, 1.0), (0.0, 1.0));
        let b = panel(Axis::Z, 0.8, (0.0, 1.0), (0.3, 1.3));
        let sa = |u: f64| 1.0 + 0.5 * u;
        let sb = |v: f64| 2.0 - v;
        let got = eng.panel_pair(
            &a,
            PanelShape::Shaped { dir: ShapeDir::U, shape: &sa },
            &b,
            PanelShape::Shaped { dir: ShapeDir::V, shape: &sb },
        );
        let reference = numint::weighted_bruteforce(
            (0.0, 1.0),
            (0.0, 1.0),
            (0.0, 1.0),
            (0.3, 1.3),
            0.8,
            |x, _| 1.0 + 0.5 * x,
            |_, y| 2.0 - y,
            2,
            10,
        );
        assert!((got - reference).abs() < 1e-4 * reference.abs(), "{got} vs {reference}");
    }

    #[test]
    fn weighted_area() {
        let eng = GalerkinEngine::default();
        let p = panel(Axis::Z, 0.0, (0.0, 2.0), (0.0, 3.0));
        assert!((eng.weighted_area(&p, PanelShape::Flat) - 6.0).abs() < 1e-14);
        let s = |u: f64| u; // ∫₀² u du = 2, × v_len 3 = 6
        let wa = eng.weighted_area(&p, PanelShape::Shaped { dir: ShapeDir::U, shape: &s });
        assert!((wa - 6.0).abs() < 1e-12);
        let sv = |v: f64| v * v; // ∫₀³ v² dv = 9, × u_len 2 = 18
        let wv = eng.weighted_area(&p, PanelShape::Shaped { dir: ShapeDir::V, shape: &sv });
        assert!((wv - 18.0).abs() < 1e-12);
    }

    #[test]
    fn symmetry_of_mixed_shapes() {
        // panel_pair(a, sa, b, sb) == panel_pair(b, sb, a, sa) (P̃ symmetric).
        let eng = GalerkinEngine::default();
        let a = panel(Axis::Z, 0.0, (0.0, 1.0), (0.0, 1.0));
        let b = panel(Axis::Z, 1.2, (0.5, 1.5), (0.0, 1.0));
        let s = |u: f64| 1.0 + u;
        let ab = eng.panel_pair(
            &a,
            PanelShape::Shaped { dir: ShapeDir::U, shape: &s },
            &b,
            PanelShape::Flat,
        );
        let ba = eng.panel_pair(
            &b,
            PanelShape::Flat,
            &a,
            PanelShape::Shaped { dir: ShapeDir::U, shape: &s },
        );
        assert!((ab - ba).abs() < 1e-9 * ab.abs(), "{ab} vs {ba}");
    }

    #[test]
    fn potential_at_matches_analytic() {
        let eng = GalerkinEngine::default();
        let b = panel(Axis::Y, 2.0, (0.0, 1.0), (0.0, 1.0)); // tangents (z, x)
        let p = Point3::new(0.3, 4.0, 0.6);
        let got = eng.potential_at(&b, p);
        // In B's frame: dz = 4-2 = 2, pu = p.z = 0.6, pv = p.x = 0.3.
        let expect = analytic::rect_potential(0.0, 1.0, 0.0, 1.0, 2.0, 0.6, 0.3);
        assert!((got - expect).abs() < 1e-13);
    }
}
