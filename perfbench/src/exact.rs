//! Exact orientation and in-circle signs for the output checker.
//!
//! Written from Shewchuk's "Adaptive Precision Floating-Point Arithmetic
//! and Fast Robust Geometric Predicates" (1997) and kept apart from the
//! program's own predicate ladder on purpose: the checker must not trust
//! the code it checks. A plain floating-point evaluation with a
//! conservative error bound answers almost every query; the rest are
//! recomputed exactly with floating-point expansions (sums of
//! non-overlapping doubles), whose largest component carries the sign.

/// Exact `a + b = s + e`.
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bv = s - a;
    let av = s - bv;
    (s, (a - av) + (b - bv))
}

/// Exact `a * b = p + e` (the fused multiply-add recovers the rounding
/// error of the product exactly).
fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    (p, a.mul_add(b, -p))
}

/// Shewchuk's Grow-Expansion: `e + b` as a non-overlapping expansion
/// in increasing order of magnitude (zeros dropped).
fn grow(e: &[f64], b: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(e.len() + 1);
    let mut q = b;
    for &x in e {
        let (s, err) = two_sum(q, x);
        if err != 0.0 {
            out.push(err);
        }
        q = s;
    }
    if q != 0.0 || out.is_empty() {
        out.push(q);
    }
    out
}

fn add(e: &[f64], f: &[f64]) -> Vec<f64> {
    f.iter().fold(e.to_vec(), |acc, &x| grow(&acc, x))
}

fn neg(e: &[f64]) -> Vec<f64> {
    e.iter().map(|x| -x).collect()
}

fn mul(e: &[f64], f: &[f64]) -> Vec<f64> {
    let mut acc = vec![0.0];
    for &a in e {
        for &b in f {
            let (p, err) = two_prod(a, b);
            acc = grow(&grow(&acc, err), p);
        }
    }
    acc
}

fn sub2(a: f64, b: f64) -> Vec<f64> {
    let (s, e) = two_sum(a, -b);
    grow(&[e], s)
}

fn sign(e: &[f64]) -> i32 {
    match e.iter().rev().find(|&&x| x != 0.0) {
        Some(&x) if x > 0.0 => 1,
        Some(_) => -1,
        None => 0,
    }
}

/// Sign of the orientation determinant: `1` when `a, b, c` turn
/// counter-clockwise, `-1` clockwise, `0` collinear.
pub fn orient2d(a: [f64; 2], b: [f64; 2], c: [f64; 2]) -> i32 {
    let l = (a[0] - c[0]) * (b[1] - c[1]);
    let r = (a[1] - c[1]) * (b[0] - c[0]);
    let det = l - r;
    let bound = 1e-14 * (l.abs() + r.abs());
    if det > bound {
        return 1;
    }
    if -det > bound {
        return -1;
    }
    let (acx, acy) = (sub2(a[0], c[0]), sub2(a[1], c[1]));
    let (bcx, bcy) = (sub2(b[0], c[0]), sub2(b[1], c[1]));
    sign(&add(&mul(&acx, &bcy), &neg(&mul(&acy, &bcx))))
}

/// Sign of the in-circle determinant for a counter-clockwise `a, b, c`:
/// `1` when `d` lies strictly inside their circumcircle, `-1` strictly
/// outside, `0` on it.
pub fn incircle(a: [f64; 2], b: [f64; 2], c: [f64; 2], d: [f64; 2]) -> i32 {
    let (adx, ady) = (a[0] - d[0], a[1] - d[1]);
    let (bdx, bdy) = (b[0] - d[0], b[1] - d[1]);
    let (cdx, cdy) = (c[0] - d[0], c[1] - d[1]);
    let alift = adx * adx + ady * ady;
    let blift = bdx * bdx + bdy * bdy;
    let clift = cdx * cdx + cdy * cdy;
    let det = alift * (bdx * cdy - cdx * bdy)
        + blift * (cdx * ady - adx * cdy)
        + clift * (adx * bdy - bdx * ady);
    let permanent = alift * ((bdx * cdy).abs() + (cdx * bdy).abs())
        + blift * ((cdx * ady).abs() + (adx * cdy).abs())
        + clift * ((adx * bdy).abs() + (bdx * ady).abs());
    let bound = 1e-13 * permanent;
    if det > bound {
        return 1;
    }
    if -det > bound {
        return -1;
    }
    let (adx, ady) = (sub2(a[0], d[0]), sub2(a[1], d[1]));
    let (bdx, bdy) = (sub2(b[0], d[0]), sub2(b[1], d[1]));
    let (cdx, cdy) = (sub2(c[0], d[0]), sub2(c[1], d[1]));
    let lift = |x: &[f64], y: &[f64]| add(&mul(x, x), &mul(y, y));
    let cross =
        |px: &[f64], py: &[f64], qx: &[f64], qy: &[f64]| add(&mul(px, qy), &neg(&mul(qx, py)));
    let ta = mul(&lift(&adx, &ady), &cross(&bdx, &bdy, &cdx, &cdy));
    let tb = mul(&lift(&bdx, &bdy), &cross(&cdx, &cdy, &adx, &ady));
    let tc = mul(&lift(&cdx, &cdy), &cross(&adx, &ady, &bdx, &bdy));
    sign(&add(&add(&ta, &tb), &tc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orientation_of_simple_triangles() {
        assert_eq!(orient2d([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]), 1);
        assert_eq!(orient2d([0.0, 0.0], [0.0, 1.0], [1.0, 0.0]), -1);
        assert_eq!(orient2d([0.0, 0.0], [1.0, 1.0], [3.0, 3.0]), 0);
    }

    #[test]
    fn orientation_is_exact_near_collinear() {
        // Shewchuk's classic failure grid: points a hair off the line
        // y = x, where naive evaluation returns inconsistent signs.
        let b = [12.0, 12.0];
        let c = [24.0, 24.0];
        for i in 0..64i32 {
            for j in 0..64i32 {
                let a = [0.5 + i as f64 * f64::EPSILON, 0.5 + j as f64 * f64::EPSILON];
                let expect = (j - i).signum();
                assert_eq!(orient2d(a, b, c), expect, "i={i} j={j}");
            }
        }
    }

    #[test]
    fn incircle_signs() {
        let (a, b, c) = ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]);
        assert_eq!(incircle(a, b, c, [0.5, 0.5]), 1);
        assert_eq!(incircle(a, b, c, [2.0, 2.0]), -1);
        // Cocircular: the fourth corner of the unit square.
        assert_eq!(incircle(a, b, c, [1.0, 1.0]), 0);
        // A hair inside and outside along the diagonal.
        let eps = 1e-15;
        assert_eq!(incircle(a, b, c, [1.0 - eps, 1.0 - eps]), 1);
        assert_eq!(incircle(a, b, c, [1.0 + eps, 1.0 + eps]), -1);
    }

    #[test]
    fn incircle_exact_on_tiny_offsets() {
        // A circle through three points of a translated, scaled lattice;
        // the fourth point sits one ulp off the circle in each direction.
        let s = 0.1;
        let o = [3.7, -1.3];
        let p = |x: f64, y: f64| [o[0] + s * x, o[1] + s * y];
        let (a, b, c) = (p(0.0, 0.0), p(2.0, 0.0), p(2.0, 2.0));
        let d = p(0.0, 2.0);
        let on = incircle(a, b, c, d);
        let inside = incircle(a, b, c, [d[0] + 1e-12, d[1] - 1e-12]);
        assert_eq!(inside, 1);
        let outside = incircle(a, b, c, [d[0] - 1e-12, d[1] + 1e-12]);
        assert_eq!(outside, -1);
        assert!((-1..=1).contains(&on));
    }
}
