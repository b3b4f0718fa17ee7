//! Independent output checker.
//!
//! Every property is computed here from the input description and the
//! output triangles alone, without calling the program's own validity
//! code: the domain area comes from a shoelace sum over the input loops,
//! the Euler characteristic from the loops' nesting, and the Delaunay
//! test uses this crate's exact predicates ([`crate::exact`]).

use crate::exact::{incircle, orient2d};
use std::collections::{HashMap, HashSet};

/// The input a mesh must conform to: points and constraint segments.
/// Closed loops are recovered by chaining the segments; a loop nested
/// inside an odd number of other loops is a hole.
pub struct Domain {
    pub points: Vec<[f64; 2]>,
    pub segments: Vec<(usize, usize)>,
    /// Check the Ruppert quality bound (every angle ≥ 20.7°) and the
    /// constrained Delaunay property.
    pub quality: bool,
}

/// A triangle soup as the checker sees it.
pub struct MeshView {
    pub points: Vec<[f64; 2]>,
    pub tris: Vec<[u32; 3]>,
}

/// Smallest angle Ruppert's √2 ratio bound guarantees (arcsin(1/(2√2))
/// = 20.7048°), rounded down.
pub const MIN_ANGLE_DEG: f64 = 20.7;

/// Distance within which a mesh vertex stands for an input point.
const SNAP: f64 = 1e-12;

impl MeshView {
    /// Reads the program's mesh through its public accessors.
    pub fn from_mesh(mesh: &adm_delaunay::Mesh) -> MeshView {
        let (xs, ys) = mesh.coords();
        MeshView {
            points: xs.iter().zip(ys).map(|(&x, &y)| [x, y]).collect(),
            tris: mesh
                .live_triangles()
                .map(|t| mesh.tri(t as usize))
                .collect(),
        }
    }

    /// Parses a Triangle-format ASCII mesh (`.node` section followed by
    /// an `.ele` section, no attributes or markers), the wire form of a
    /// served response.
    pub fn parse_ascii(bytes: &[u8]) -> Result<MeshView, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        let mut tokens = text.split_whitespace();
        let mut next = || tokens.next().ok_or("truncated mesh".to_string());
        let int = |s: &str| s.parse::<usize>().map_err(|e| format!("{s:?}: {e}"));
        let float = |s: &str| s.parse::<f64>().map_err(|e| format!("{s:?}: {e}"));
        let nv = int(next()?)?;
        if [next()?, next()?, next()?] != ["2", "0", "0"] {
            return Err("vertex header is not `N 2 0 0`".into());
        }
        let mut points = Vec::with_capacity(nv.min(bytes.len()));
        for _ in 0..nv {
            next()?;
            points.push([float(next()?)?, float(next()?)?]);
        }
        let nt = int(next()?)?;
        if [next()?, next()?] != ["3", "0"] {
            return Err("triangle header is not `N 3 0`".into());
        }
        let mut tris = Vec::with_capacity(nt.min(bytes.len()));
        for _ in 0..nt {
            next()?;
            let mut t = [0u32; 3];
            for v in t.iter_mut() {
                let i = int(next()?)?;
                if i >= nv {
                    return Err(format!("triangle corner {i} out of range"));
                }
                *v = i as u32;
            }
            tris.push(t);
        }
        Ok(MeshView { points, tris })
    }
}

/// A closed input loop and how many other loops enclose it.
type NestedLoop = (Vec<[f64; 2]>, usize);

/// Closed loops of the domain with their nesting depth, recovered from
/// the segments (every loop vertex has exactly two segments).
fn loops_with_depth(d: &Domain) -> Result<Vec<NestedLoop>, String> {
    let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
    for &(a, b) in &d.segments {
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default().push(a);
    }
    if adj.values().any(|n| n.len() != 2) {
        return Err("domain segments do not form closed loops".into());
    }
    let mut seen = HashSet::new();
    let mut starts: Vec<usize> = adj.keys().copied().collect();
    starts.sort_unstable();
    let mut loops = Vec::new();
    for s in starts {
        if !seen.insert(s) {
            continue;
        }
        let mut lp = vec![d.points[s]];
        let (mut prev, mut cur) = (s, adj[&s][0]);
        while cur != s {
            seen.insert(cur);
            lp.push(d.points[cur]);
            let n = &adj[&cur];
            let next = if n[0] == prev { n[1] } else { n[0] };
            prev = cur;
            cur = next;
        }
        loops.push(lp);
    }
    let inside = |p: [f64; 2], poly: &[[f64; 2]]| {
        let mut c = false;
        for i in 0..poly.len() {
            let (a, b) = (poly[i], poly[(i + 1) % poly.len()]);
            if (a[1] > p[1]) != (b[1] > p[1])
                && p[0] < a[0] + (p[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            {
                c = !c;
            }
        }
        c
    };
    Ok(loops
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let depth = loops
                .iter()
                .enumerate()
                .filter(|&(j, o)| j != i && inside(l[0], o))
                .count();
            (l.clone(), depth)
        })
        .collect())
}

fn shoelace(l: &[[f64; 2]]) -> f64 {
    let mut s = 0.0;
    for i in 0..l.len() {
        let (a, b) = (l[i], l[(i + 1) % l.len()]);
        s += a[0] * b[1] - a[1] * b[0];
    }
    0.5 * s
}

/// Area and Euler characteristic of the domain: outer loops (even
/// depth) add, holes (odd depth) subtract.
pub fn domain_area_euler(d: &Domain) -> Result<(f64, i64), String> {
    let loops = loops_with_depth(d)?;
    let mut area = 0.0;
    let mut chi = 0i64;
    for (l, depth) in &loops {
        let a = shoelace(l).abs();
        if depth % 2 == 0 {
            area += a;
            chi += 1;
        } else {
            area -= a;
            chi -= 1;
        }
    }
    Ok((area, chi))
}

fn edge_key(a: u32, b: u32) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    (u64::from(lo) << 32) | u64::from(hi)
}

/// Runs every check and returns the names of the ones that failed, each
/// with a short reason. An empty list means the mesh is correct.
pub fn check(d: &Domain, m: &MeshView) -> Vec<String> {
    let mut fails = Vec::new();
    let p = |v: u32| m.points[v as usize];

    // Orientation: every triangle counter-clockwise with positive area.
    let cw = m
        .tris
        .iter()
        .filter(|t| orient2d(p(t[0]), p(t[1]), p(t[2])) <= 0)
        .count();
    if cw > 0 {
        fails.push(format!("orientation: {cw} triangles not counter-clockwise"));
    }

    // Area against the domain's own shoelace area.
    match domain_area_euler(d) {
        Err(e) => fails.push(format!("domain: {e}")),
        Ok((area, chi)) => {
            let mut sum = 0.0;
            let mut comp = 0.0;
            for t in &m.tris {
                let (a, b, c) = (p(t[0]), p(t[1]), p(t[2]));
                let x = 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]));
                // Kahan summation keeps a million-term sum exact to ~1 ulp.
                let y = x - comp;
                let s = sum + y;
                comp = (s - sum) - y;
                sum = s;
            }
            if (sum - area).abs() > 1e-9 * area.abs().max(1.0) {
                fails.push(format!("area: triangles sum to {sum}, domain is {area}"));
            }
            check_topology(d, m, chi, &mut fails);
        }
    }
    fails
}

/// Edge multiplicity, Euler characteristic, segment recovery and (when
/// asked) quality and the constrained Delaunay property.
fn check_topology(d: &Domain, m: &MeshView, chi: i64, fails: &mut Vec<String>) {
    let p = |v: u32| m.points[v as usize];
    // One entry per half-edge: undirected key, third vertex, direction.
    let mut half: Vec<(u64, u32, bool)> = Vec::with_capacity(3 * m.tris.len());
    for t in &m.tris {
        for i in 0..3 {
            let (a, b, c) = (t[i], t[(i + 1) % 3], t[(i + 2) % 3]);
            half.push((edge_key(a, b), c, a < b));
        }
    }
    half.sort_unstable();
    let mut keys: Vec<u64> = Vec::with_capacity(half.len() / 2 + 1);
    let mut boundary: HashSet<u64> = HashSet::new();
    let mut interior: Vec<(u64, u32, u32)> = Vec::new();
    let mut bad_edges = 0usize;
    let mut i = 0;
    while i < half.len() {
        let mut j = i + 1;
        while j < half.len() && half[j].0 == half[i].0 {
            j += 1;
        }
        keys.push(half[i].0);
        match j - i {
            1 => {
                boundary.insert(half[i].0);
            }
            // Two uses must run in opposite directions (consistent
            // orientation); the first is the one with lo → hi.
            2 if half[i].2 != half[i + 1].2 => {
                if !d.quality {
                    i = j;
                    continue;
                }
                let (fwd, back) = if half[i].2 {
                    (half[i], half[i + 1])
                } else {
                    (half[i + 1], half[i])
                };
                interior.push((half[i].0, fwd.1, back.1));
            }
            _ => bad_edges += 1,
        }
        i = j;
    }
    drop(half);
    if bad_edges > 0 {
        fails.push(format!(
            "edges: {bad_edges} edges shared by more than two triangles or twice in one direction"
        ));
    }

    let mut used = vec![false; m.points.len()];
    for t in &m.tris {
        for &v in t {
            used[v as usize] = true;
        }
    }
    let verts = used.iter().filter(|&&u| u).count() as i64;
    let euler = verts - keys.len() as i64 + m.tris.len() as i64;
    if euler != chi {
        fails.push(format!("euler: V - E + F = {euler}, domain has {chi}"));
    }

    let constrained = recover_segments(
        d,
        m,
        &Adjacency::new(m.points.len(), &keys),
        &boundary,
        fails,
    );
    drop(keys);

    if d.quality {
        let mut small = 0usize;
        let mut worst = 180.0f64;
        for t in &m.tris {
            let a = min_angle_deg(p(t[0]), p(t[1]), p(t[2]));
            worst = worst.min(a);
            if a < MIN_ANGLE_DEG {
                small += 1;
            }
        }
        if small > 0 {
            fails.push(format!(
                "angle: {small} triangles below {MIN_ANGLE_DEG} degrees (worst {worst:.3})"
            ));
        }
        // Locally Delaunay across every unconstrained interior edge is
        // equivalent to the constrained Delaunay property for a
        // triangulation of a domain.
        let bad = interior
            .iter()
            .filter(|(k, ..)| !constrained.contains(k))
            .filter(|&&(k, c, dd)| {
                let (lo, hi) = ((k >> 32) as u32, k as u32);
                // (lo, hi, c) is counter-clockwise: c sits left of lo → hi.
                incircle(p(lo), p(hi), p(c), p(dd)) > 0
            })
            .count();
        if bad > 0 {
            fails.push(format!(
                "delaunay: {bad} unconstrained edges fail the exact in-circle test"
            ));
        }
    }
}

/// Vertex neighbours in compressed rows, built from the sorted edge keys.
struct Adjacency {
    start: Vec<u32>,
    nbr: Vec<u32>,
}

impl Adjacency {
    fn new(vertices: usize, keys: &[u64]) -> Adjacency {
        let ends = |k: u64| [(k >> 32) as u32, k as u32];
        let mut start = vec![0u32; vertices + 1];
        for &k in keys {
            for v in ends(k) {
                start[v as usize + 1] += 1;
            }
        }
        for i in 0..vertices {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut nbr = vec![0u32; 2 * keys.len()];
        for &k in keys {
            let [a, b] = ends(k);
            nbr[fill[a as usize] as usize] = b;
            fill[a as usize] += 1;
            nbr[fill[b as usize] as usize] = a;
            fill[b as usize] += 1;
        }
        Adjacency { start, nbr }
    }

    fn of(&self, v: u32) -> &[u32] {
        &self.nbr[self.start[v as usize] as usize..self.start[v as usize + 1] as usize]
    }
}

/// Follows each input segment through the mesh as a chain of edges whose
/// inner vertices lie on the segment, and checks that the mesh boundary
/// is exactly the union of those chains. Returns the chain edges.
fn recover_segments(
    d: &Domain,
    m: &MeshView,
    adj: &Adjacency,
    boundary: &HashSet<u64>,
    fails: &mut Vec<String>,
) -> HashSet<u64> {
    // Mesh vertices standing for input points, matched to within SNAP:
    // a served mesh travels as decimal text, so its coordinates may sit
    // an ulp or two from the input's.
    let cell = |q: [f64; 2]| ((q[0] / SNAP).round() as i64, (q[1] / SNAP).round() as i64);
    let mut wanted: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
    for (i, &q) in d.points.iter().enumerate() {
        let (cx, cy) = cell(q);
        for dx in -1..=1 {
            for dy in -1..=1 {
                wanted.entry((cx + dx, cy + dy)).or_default().push(i);
            }
        }
    }
    let mut found: Vec<Option<(f64, u32)>> = vec![None; d.points.len()];
    for v in 0..m.points.len() as u32 {
        let q = m.points[v as usize];
        if adj.of(v).is_empty() {
            continue;
        }
        for &i in wanted.get(&cell(q)).into_iter().flatten() {
            let p = d.points[i];
            let dist = (p[0] - q[0]).abs().max((p[1] - q[1]).abs());
            if dist <= SNAP && found[i].is_none_or(|(bd, _)| dist < bd) {
                found[i] = Some((dist, v));
            }
        }
    }
    let find = |i: usize| found[i].map(|(_, v)| v);
    let mut chains: HashSet<u64> = HashSet::new();
    let mut missing = 0usize;
    for &(sa, sb) in &d.segments {
        let (pa, pb) = (d.points[sa], d.points[sb]);
        let (Some(va), Some(vb)) = (find(sa), find(sb)) else {
            missing += 1;
            continue;
        };
        let (dx, dy) = (pb[0] - pa[0], pb[1] - pa[1]);
        let len2 = dx * dx + dy * dy;
        let tol = 1e-9 * len2.sqrt();
        let param = |q: [f64; 2]| ((q[0] - pa[0]) * dx + (q[1] - pa[1]) * dy) / len2;
        let off_line =
            |q: [f64; 2]| ((q[0] - pa[0]) * dy - (q[1] - pa[1]) * dx).abs() / len2.sqrt();
        let mut cur = va;
        let mut t_cur = 0.0;
        let mut ok = true;
        while cur != vb {
            // The next chain vertex: the neighbour on the segment that
            // advances least toward `b`.
            let next = adj
                .of(cur)
                .iter()
                .copied()
                .filter(|&w| {
                    let q = m.points[w as usize];
                    let t = param(q);
                    t > t_cur && t <= 1.0 + 1e-12 && off_line(q) <= tol
                })
                .min_by(|&x, &y| {
                    param(m.points[x as usize]).total_cmp(&param(m.points[y as usize]))
                });
            match next {
                Some(w) => {
                    chains.insert(edge_key(cur, w));
                    t_cur = param(m.points[w as usize]);
                    cur = w;
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            missing += 1;
        }
    }
    if missing > 0 {
        fails.push(format!(
            "segments: {missing} input segments not recovered as mesh edge chains"
        ));
    }
    let stray = boundary.iter().filter(|k| !chains.contains(k)).count();
    if missing == 0 && stray > 0 {
        fails.push(format!(
            "segments: {stray} mesh boundary edges lie on no input segment"
        ));
    }
    chains
}

fn min_angle_deg(a: [f64; 2], b: [f64; 2], c: [f64; 2]) -> f64 {
    let d2 = |p: [f64; 2], q: [f64; 2]| (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2);
    let (la, lb, lc) = (d2(b, c), d2(c, a), d2(a, b));
    let ang = |opp: f64, s1: f64, s2: f64| {
        ((s1 + s2 - opp) / (2.0 * (s1 * s2).sqrt()))
            .clamp(-1.0, 1.0)
            .acos()
            .to_degrees()
    };
    ang(la, lb, lc).min(ang(lb, lc, la)).min(ang(lc, la, lb))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unit square with an `n × n` grid, cells split on the diagonal.
    fn grid(n: usize) -> (Domain, MeshView) {
        let mut points = Vec::new();
        for j in 0..=n {
            for i in 0..=n {
                points.push([i as f64 / n as f64, j as f64 / n as f64]);
            }
        }
        let id = |i: usize, j: usize| (j * (n + 1) + i) as u32;
        let mut tris = Vec::new();
        for j in 0..n {
            for i in 0..n {
                tris.push([id(i, j), id(i + 1, j), id(i + 1, j + 1)]);
                tris.push([id(i, j), id(i + 1, j + 1), id(i, j + 1)]);
            }
        }
        let corners = vec![[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]];
        let domain = Domain {
            points: corners,
            segments: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
            quality: true,
        };
        (domain, MeshView { points, tris })
    }

    fn adjacency(m: &MeshView) -> Adjacency {
        let mut keys: Vec<u64> = m
            .tris
            .iter()
            .flat_map(|t| (0..3).map(move |i| edge_key(t[i], t[(i + 1) % 3])))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        Adjacency::new(m.points.len(), &keys)
    }

    fn fails_on(d: &Domain, m: &MeshView, name: &str) -> bool {
        let f = check(d, m);
        f.iter().any(|s| s.starts_with(name))
    }

    #[test]
    fn a_correct_mesh_passes() {
        let (d, m) = grid(4);
        assert_eq!(check(&d, &m), Vec::<String>::new());
    }

    #[test]
    fn domain_area_and_euler_of_a_plate_with_a_hole() {
        // Outer square 4×4 with a 1×1 hole, plus a separate 1×2 block.
        let points = vec![
            [0.0, 0.0],
            [4.0, 0.0],
            [4.0, 4.0],
            [0.0, 4.0],
            [1.0, 1.0],
            [2.0, 1.0],
            [2.0, 2.0],
            [1.0, 2.0],
            [5.0, 0.0],
            [6.0, 0.0],
            [6.0, 2.0],
            [5.0, 2.0],
        ];
        let mut segments = Vec::new();
        for base in [0, 4, 8] {
            for k in 0..4 {
                segments.push((base + k, base + (k + 1) % 4));
            }
        }
        let d = Domain {
            points,
            segments,
            quality: false,
        };
        let (area, chi) = domain_area_euler(&d).unwrap();
        assert_eq!(area, 16.0 - 1.0 + 2.0);
        assert_eq!(chi, 1);
    }

    #[test]
    fn clockwise_triangle_is_rejected() {
        let (d, mut m) = grid(4);
        m.tris[5].swap(1, 2);
        assert!(fails_on(&d, &m, "orientation"));
    }

    #[test]
    fn missing_triangle_is_rejected_by_area() {
        let (d, mut m) = grid(4);
        m.tris.remove(7);
        assert!(fails_on(&d, &m, "area"));
    }

    #[test]
    fn edge_shared_three_times_is_rejected() {
        // Stack a third triangle on an interior diagonal: the edge check
        // must fire whatever the area check says.
        let (d, mut m) = grid(2);
        let [a, _, c] = m.tris[0];
        m.points.push([0.9, 0.1]);
        let extra = (m.points.len() - 1) as u32;
        m.tris.push([a, extra, c]);
        assert!(fails_on(&d, &m, "edges"));
    }

    #[test]
    fn crack_is_rejected_by_euler() {
        // Give one triangle its own copy of an interior vertex: the area
        // and orientation stay right, but the mesh is no longer a single
        // conforming sheet.
        let (d, mut m) = grid(4);
        let centre = 2 * 5 + 2;
        let t = m.tris.iter().position(|t| t.contains(&centre)).unwrap();
        m.points.push(m.points[centre as usize]);
        let copy = (m.points.len() - 1) as u32;
        for v in m.tris[t].iter_mut() {
            if *v == centre {
                *v = copy;
            }
        }
        let f = check(&d, &m);
        assert!(f.iter().any(|s| s.starts_with("euler")), "{f:?}");
        assert!(!f.iter().any(|s| s.starts_with("area")), "{f:?}");
    }

    #[test]
    fn unrecovered_segment_is_rejected() {
        let (_, m) = grid(4);
        let boundary = HashSet::new();
        // The anti-diagonal, which the grid's cells cut across instead
        // of following.
        let anti = Domain {
            points: vec![[0.0, 1.0], [1.0, 0.0]],
            segments: vec![(0, 1)],
            quality: false,
        };
        let adj = adjacency(&m);
        let mut fails = Vec::new();
        recover_segments(&anti, &m, &adj, &boundary, &mut fails);
        assert!(fails.iter().any(|s| s.starts_with("segments")), "{fails:?}");
        // The main diagonal, which the grid does follow, is recovered.
        let diag = Domain {
            points: vec![[0.0, 0.0], [1.0, 1.0]],
            segments: vec![(0, 1)],
            quality: false,
        };
        let mut fails = Vec::new();
        recover_segments(&diag, &m, &adj, &boundary, &mut fails);
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn hole_in_the_boundary_is_rejected() {
        // Drop a boundary triangle's worth of coverage and re-add it as
        // a detached copy: the mesh boundary then has edges on no input
        // segment.
        let (d, mut m) = grid(4);
        let t = m.tris.remove(0);
        let base = m.points.len() as u32;
        for &v in &t {
            let q = m.points[v as usize];
            m.points.push([q[0] + 2.0, q[1]]);
        }
        m.tris.push([base, base + 1, base + 2]);
        assert!(fails_on(&d, &m, "segments"));
    }

    #[test]
    fn sliver_is_rejected_by_angle() {
        // A 1 × 0.2 strip cut into two triangles: 11.3° corners.
        let d = Domain {
            points: vec![[0.0, 0.0], [1.0, 0.0], [1.0, 0.2], [0.0, 0.2]],
            segments: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
            quality: true,
        };
        let m = MeshView {
            points: d.points.clone(),
            tris: vec![[0, 1, 2], [0, 2, 3]],
        };
        let f = check(&d, &m);
        assert!(f.iter().any(|s| s.starts_with("angle")), "{f:?}");
        assert!(!f.iter().any(|s| s.starts_with("delaunay")), "{f:?}");
    }

    #[test]
    fn illegal_diagonal_is_rejected_by_delaunay() {
        // A kite whose short diagonal is the Delaunay one; the mesh uses
        // the long diagonal instead.
        let d = Domain {
            points: vec![[0.0, 0.0], [1.0, -0.6], [2.0, 0.0], [1.0, 0.6]],
            segments: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
            quality: false,
        };
        let bad = MeshView {
            points: d.points.clone(),
            tris: vec![[0, 1, 2], [0, 2, 3]],
        };
        let good = MeshView {
            points: d.points.clone(),
            tris: vec![[0, 1, 3], [1, 2, 3]],
        };
        let dq = Domain { quality: true, ..d };
        assert!(fails_on(&dq, &bad, "delaunay"));
        assert!(!fails_on(&dq, &good, "delaunay"));
    }

    #[test]
    fn ascii_round_trip() {
        let text =
            b"4 2 0 0\n0 0.0 0.0\n1 1.0 0.0\n2 1.0 1.0\n3 0.0 1.0\n2 3 0\n0 0 1 2\n1 0 2 3\n";
        let m = MeshView::parse_ascii(text).unwrap();
        assert_eq!(m.points.len(), 4);
        assert_eq!(m.tris, vec![[0, 1, 2], [0, 2, 3]]);
        assert!(MeshView::parse_ascii(b"4 2 0 0\n0 0 0\n").is_err());
    }
}
