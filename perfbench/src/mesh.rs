//! The three meshing workloads: `naca-fig11` (sequential pipeline),
//! `highlift-bl` (parallel pipeline at `nproc` ranks) and `plate-pslg`
//! (general PSLG front door).
//!
//! Untraced runs time whole public calls (`generate`,
//! `generate_parallel`, `mesh_pslg`). Traced runs split the same work
//! into layers: naca-fig11 recomposes the sequential pipeline from its
//! public stages and times each call, highlift-bl reads the spans the
//! parallel pipeline records in `PipelineResult.trace`, and plate-pslg
//! times `Pslg::validate` on its own and brackets refinement by the first
//! and last query of its sizing function.

use crate::check::{check, Domain, MeshView};
use crate::util::{median, nproc, peak_rss_mb, secs, Rng};
use crate::{alloc, Opts, Report};
use adm_airfoil::{naca0012_domain, three_element_highlift, HighLiftParams, Pslg, SurfaceLoop};
use adm_core::{
    build_sizing, check_conformity, generate, generate_parallel, merge_tree_spliced,
    mesh_boundary_layer, mesh_digest_hex, mesh_inviscid, mesh_pslg, ComposedSizing,
    GradationLimited, GradedSizing, MeshConfig, SizingFn, TaskLog,
};
use adm_delaunay::{Mesh, RefineParams};
use adm_geom::{Aabb, Point2};
use adm_mpirt::Pool;
use adm_trace::{TraceSnapshot, Tracer, Track};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The input of one job, built from the seed during set-up.
enum Input {
    Airfoil(Box<MeshConfig>),
    Plate {
        pslg: adm_geom::Pslg,
        sizing: Box<dyn SizingFn>,
    },
}

/// Committed example PSLG meshed by `plate-pslg`, relative to the
/// checkout root the benchmark runs from.
const PLATE_POLY: &str = "examples/two_part_plate.poly";

/// Shifts a whole domain, bodies and far field, by `d`. A translation
/// keeps the loops simple and disjoint, so they are not validated a
/// second time.
pub fn shifted(pslg: &Pslg, d: Point2) -> Pslg {
    let by = |p: Point2| Point2::new(p.x + d.x, p.y + d.y);
    Pslg {
        loops: pslg
            .loops
            .iter()
            .map(|l| SurfaceLoop::new(l.name.clone(), l.points.iter().map(|&p| by(p)).collect()))
            .collect(),
        farfield: Aabb {
            min: by(pslg.farfield.min),
            max: by(pslg.farfield.max),
        },
    }
}

/// A shift by multiples of 1/1024 in [-0.5, 0.5) per axis, drawn from
/// `rng`. Every coordinate changes, so no two seeds mesh the same bits,
/// while the geometry relative to the axis-aligned far field and
/// quadrants — and with it the decomposition and the work — stays the
/// same, which a rotation would not keep.
pub fn seeded_shift(rng: &mut Rng) -> Point2 {
    let mut axis = || (rng.below(1024) as f64 - 512.0) / 1024.0;
    Point2::new(axis(), axis())
}

/// NACA 0012 at the fig11 scaling-study size (about 1.2M triangles),
/// shifted by a seeded offset.
fn naca_fig11(seed: u64) -> MeshConfig {
    let pslg = shifted(
        &naca0012_domain(120, 30.0),
        seeded_shift(&mut Rng::new(seed)),
    );
    let mut c = MeshConfig::from_pslg(pslg);
    c.growth = adm_blayer::Geometric::new(1e-4, 1.18).into();
    c.sizing_max_area = 0.005;
    c.nearbody_margin = 0.15;
    c.bl_subdomains = 512;
    c.inviscid_subdomains = 512;
    // Sequential means one core: the worker pool runs inline (same mesh
    // bytes at any width). The pool-parallel paths are exercised by
    // highlift-bl.
    c.merge_threads = 0;
    c
}

/// Three-element high-lift case with a dense surface and a fine
/// boundary layer (about 300k triangles, 91% of them in the layer),
/// shifted by a seeded offset.
fn highlift(seed: u64) -> MeshConfig {
    let pslg = three_element_highlift(&HighLiftParams {
        n_per_side: 1000,
        farfield_chords: 30.0,
    });
    let mut c = MeshConfig::from_pslg(shifted(&pslg, seeded_shift(&mut Rng::new(seed))));
    c.growth = adm_blayer::Geometric::new(2e-5, 1.1).into();
    // The pool runs as wide as the ranks, whatever `ADM_MERGE_THREADS`
    // says in the caller's environment.
    c.merge_threads = nproc();
    c
}

/// `two_part_plate.poly` scaled by a seeded factor in [0.99, 1.01],
/// with a graded sizing fine enough for about 650k triangles.
fn plate(seed: u64) -> Result<(adm_geom::Pslg, Box<dyn SizingFn>), String> {
    let scale = 0.99 + 0.02 * Rng::new(seed).unit();
    let file = std::fs::File::open(PLATE_POLY).map_err(|e| format!("{PLATE_POLY}: {e}"))?;
    let poly = adm_delaunay::read_poly(&mut std::io::BufReader::new(file))
        .map_err(|e| format!("{PLATE_POLY}: {e}"))?;
    let mut pslg = poly.to_pslg();
    for p in pslg.points.iter_mut().chain(pslg.holes.iter_mut()) {
        *p = Point2::new(p.x * scale, p.y * scale);
    }
    let base = GradedSizing::new(&pslg.points, 0.004, 0.01, 1.0, 256);
    let sizing = GradationLimited::new(base, &pslg.points, 0.3);
    Ok((pslg, Box::new(sizing)))
}

fn build_input(workload: &str, seed: u64) -> Result<Input, String> {
    Ok(match workload {
        "naca-fig11" => Input::Airfoil(Box::new(naca_fig11(seed))),
        "highlift-bl" => Input::Airfoil(Box::new(highlift(seed))),
        "plate-pslg" => {
            let (pslg, sizing) = plate(seed)?;
            Input::Plate { pslg, sizing }
        }
        other => return Err(format!("not a mesh workload: {other}")),
    })
}

/// The checker's view of an airfoil domain: the body loops and the far
/// field rectangle.
pub fn airfoil_domain(c: &MeshConfig) -> Domain {
    let mut points = Vec::new();
    let mut segments = Vec::new();
    for l in &c.pslg.loops {
        let base = points.len();
        let n = l.points.len();
        points.extend(l.points.iter().map(|p| [p.x, p.y]));
        segments.extend((0..n).map(|i| (base + i, base + (i + 1) % n)));
    }
    let f = &c.pslg.farfield;
    let base = points.len();
    points.extend([
        [f.min.x, f.min.y],
        [f.max.x, f.min.y],
        [f.max.x, f.max.y],
        [f.min.x, f.max.y],
    ]);
    segments.extend((0..4).map(|i| (base + i, base + (i + 1) % 4)));
    Domain {
        points,
        segments,
        quality: false,
    }
}

/// The checker's view of the input.
fn domain(input: &Input) -> Domain {
    match input {
        Input::Airfoil(c) => airfoil_domain(c),
        Input::Plate { pslg, .. } => Domain {
            points: pslg.points.iter().map(|p| [p.x, p.y]).collect(),
            segments: pslg
                .segments
                .iter()
                .map(|&(a, b)| (a as usize, b as usize))
                .collect(),
            quality: true,
        },
    }
}

/// Seconds from process start until the input of a mesh workload is
/// built from the seed, ready for the first job.
pub fn set_up(workload: &str, opts: &Opts) -> Result<f64, String> {
    let input = build_input(workload, opts.seed)?;
    let s = secs(opts.t_start);
    drop(input);
    Ok(s)
}

/// Runs one meshing job as a user would call it.
fn mesh_once(workload: &str, input: &Input) -> Result<Mesh, String> {
    match input {
        Input::Airfoil(c) if workload == "highlift-bl" => Ok(generate_parallel(c, nproc()).mesh),
        Input::Airfoil(c) => Ok(generate(c).mesh),
        Input::Plate { pslg, sizing } => mesh_pslg(pslg, sizing.as_ref(), &RefineParams::default())
            .map(|r| r.mesh)
            .map_err(|e| e.to_string()),
    }
}

/// Runs `f`, turning a panic into an error, so that a job that panics
/// counts as a failed operation and the run still reports.
fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let why = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {why}"))
    })
}

/// Checks one output, printing the failures. Returns `true` when correct.
fn verify(workload: &str, domain: &Domain, mesh: Mesh) -> (bool, usize) {
    let view = MeshView::from_mesh(&mesh);
    drop(mesh);
    let tris = view.tris.len();
    let fails = check(domain, &view);
    for f in &fails {
        eprintln!("{workload}: check failed: {f}");
    }
    (fails.is_empty(), tris)
}

pub fn run(workload: &str, opts: &Opts) -> Result<Report, String> {
    let input = build_input(workload, opts.seed)?;
    let dom = domain(&input);
    if opts.trace {
        return run_traced(workload, &input, &dom, opts);
    }
    let mut walls = Vec::new();
    // Triangles per second of each correct job.
    let mut rates = Vec::new();
    let mut checking = 0.0;
    let (mut attempted, mut failed, mut incorrect) = (0u64, 0u64, 0u64);
    // At least three jobs, so the median has a middle.
    while walls.iter().sum::<f64>() < opts.seconds || walls.len() < 3 {
        attempted += 1;
        let t = Instant::now();
        let out = guarded(|| mesh_once(workload, &input));
        let wall = secs(t);
        walls.push(wall);
        match out {
            Ok(mesh) => {
                let t = Instant::now();
                let (ok, tris) = verify(workload, &dom, mesh);
                checking += secs(t);
                if ok {
                    rates.push(tris as f64 / wall);
                } else {
                    incorrect += 1;
                }
            }
            Err(e) => {
                eprintln!("{workload}: job failed: {e}");
                failed += 1;
            }
        }
    }
    let wall = median(&walls);
    eprintln!(
        "{workload}: {} jobs {walls:.3?}, median {wall:.3}s, checks {checking:.2}s",
        walls.len(),
    );
    Ok(Report {
        attempted,
        failed,
        incorrect,
        metrics: vec![
            ("wall_s", wall, "s"),
            (
                "tri_per_s",
                if rates.is_empty() {
                    0.0
                } else {
                    median(&rates)
                },
                "1/s",
            ),
            ("req_per_s", 1.0 / wall, "1/s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    })
}

/// Per-layer rows of one traced job.
type Rows = Vec<(&'static str, f64, &'static str)>;

fn run_traced(workload: &str, input: &Input, dom: &Domain, opts: &Opts) -> Result<Report, String> {
    let t_run = Instant::now();
    let mut jobs: Vec<Rows> = Vec::new();
    let (mut attempted, mut failed, mut incorrect) = (0u64, 0u64, 0u64);
    while secs(t_run) < opts.seconds || attempted < 3 {
        attempted += 1;
        let out = guarded(|| match input {
            Input::Airfoil(c) if workload == "naca-fig11" => {
                let (mesh, rows) = recomposed_sequential(c);
                // The recomposition must be the pipeline, not a
                // look-alike: its mesh digest equals `generate`'s.
                if attempted == 1 {
                    let want = mesh_digest_hex(&generate(c).mesh);
                    let got = mesh_digest_hex(&mesh);
                    if want != got {
                        return Err(format!("recomposed digest {got} != generate {want}"));
                    }
                }
                Ok((mesh, rows))
            }
            Input::Airfoil(c) => Ok(traced_parallel(c)),
            Input::Plate { pslg, sizing } => traced_plate(pslg, sizing.as_ref()),
        });
        match out {
            Ok((mesh, rows)) => {
                let (ok, _) = verify(workload, dom, mesh);
                if ok {
                    jobs.push(rows);
                } else {
                    incorrect += 1;
                }
            }
            Err(e) => {
                eprintln!("{workload}: traced job failed: {e}");
                failed += 1;
            }
        }
    }
    // Median of each row over the correct jobs.
    let metrics = jobs
        .first()
        .map(|rows| {
            rows.iter()
                .enumerate()
                .map(|(i, &(name, _, unit))| {
                    let v: Vec<f64> = jobs.iter().map(|r| r[i].1).collect();
                    (name, median(&v), unit)
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(Report {
        attempted,
        failed,
        incorrect,
        metrics,
    })
}

/// Times `f`.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

fn span_total(snap: &TraceSnapshot, name: &str) -> (f64, usize) {
    snap.spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| {
            (t + s.duration().as_secs_f64(), n + 1)
        })
}

/// The sequential pipeline as `generate` runs it, one public call at a
/// time: boundary layers → their decomposed triangulation → sizing →
/// decoupled inviscid refinement → interface repair → tree merge →
/// finish → conformity check.
fn recomposed_sequential(config: &MeshConfig) -> (Mesh, Rows) {
    let t_all = Instant::now();
    let pool = Pool::new(config.merge_threads);
    let surfaces: Vec<Vec<Point2>> = config.pslg.loops.iter().map(|l| l.points.clone()).collect();
    let (layers, bl_build) =
        timed(|| adm_blayer::build_multielement_layers(&surfaces, &config.growth, &config.bl));
    let bl_points: usize = layers.iter().map(|l| l.all_points().len()).sum();
    let hole_seeds = config.pslg.hole_seeds();

    let bl_tracer = Tracer::wall();
    let mut bl_log = TaskLog::with_tracer(bl_tracer.clone(), Track::ROOT);
    let (bl, bl_mesh_s) = timed(|| {
        mesh_boundary_layer(
            &layers,
            &hole_seeds,
            config.bl_subdomains,
            &pool,
            &mut bl_log,
        )
        .expect("boundary-layer meshing failed")
    });
    let (_, leaves) = span_total(&bl_tracer.snapshot(), "task.bl_triangulate");

    let sizing = ComposedSizing::new(
        build_sizing(
            &bl.outer_borders,
            config.effective_sizing_h0(),
            config.sizing_rate,
            config.sizing_max_area,
        ),
        None,
    );
    let inv_tracer = Tracer::wall();
    let mut inv_log = TaskLog::with_tracer(inv_tracer.clone(), Track::ROOT);
    let chord = config.pslg.reference_chord();
    let ((inviscid, inv_allocs), _) = timed(|| {
        alloc::counting(|| {
            mesh_inviscid(
                &bl.outer_borders,
                &hole_seeds,
                &config.pslg.farfield,
                &sizing,
                config.nearbody_margin * chord,
                config.inviscid_subdomains,
                &mut inv_log,
            )
        })
    });
    let snap = inv_tracer.snapshot();
    let (split_s, _) = span_total(&snap, "phase.decompose");
    let refine_s =
        span_total(&snap, "task.inviscid_refine").0 + span_total(&snap, "task.nearbody_refine").0;

    let mut bl = bl;
    let (_, repair_s) = timed(|| {
        adm_core::inviscid::propagate_interface_splits(
            &mut bl.mesh,
            &inviscid.nearbody,
            &bl.outer_borders,
        )
    });
    let mut meshes: Vec<&Mesh> = vec![&bl.mesh, &inviscid.nearbody];
    meshes.extend(inviscid.subdomain_meshes.iter());
    let paths: Vec<[u8; 2]> = (0..meshes.len() as u16).map(|i| i.to_be_bytes()).collect();
    let path_refs: Vec<&[u8]> = paths.iter().map(|p| p.as_slice()).collect();
    let (merger, tree_s) = timed(|| {
        let plan = adm_partition::reduction_plan(&path_refs);
        merge_tree_spliced(&meshes, &plan, &pool, None)
    });
    let ((mesh, finish_allocs), finish_s) = timed(|| alloc::counting(|| merger.finish()));
    let (_, conformity_s) = timed(|| check_conformity(&mesh));
    let wall = secs(t_all);
    let layers_s =
        bl_build + bl_mesh_s + split_s + refine_s + repair_s + tree_s + finish_s + conformity_s;
    let rows = vec![
        ("blayer.build_s", bl_build, "s"),
        ("blayer.points", bl_points as f64, "count"),
        ("partition.bl_mesh_s", bl_mesh_s, "s"),
        ("partition.leaves", leaves as f64, "count"),
        ("decouple.split_s", split_s, "s"),
        (
            "decouple.regions",
            inviscid.subdomain_meshes.len() as f64,
            "count",
        ),
        ("delaunay.refine_s", refine_s, "s"),
        (
            "delaunay.refine.circumcenters",
            inviscid.refine_stats.circumcenters as f64,
            "count",
        ),
        (
            "delaunay.refine.segment_splits",
            inviscid.refine_stats.segment_splits as f64,
            "count",
        ),
        ("delaunay.refine.allocs", inv_allocs as f64, "count"),
        ("inviscid.interface_repair_s", repair_s, "s"),
        ("merge.tree_s", tree_s, "s"),
        ("merge.finish_s", finish_s, "s"),
        ("merge.conformity_s", conformity_s, "s"),
        ("merge.finish.allocs", finish_allocs as f64, "count"),
        ("trace.wall_s", wall, "s"),
        ("trace.coverage", layers_s / wall, "share"),
    ];
    (mesh, rows)
}

/// One `generate_parallel` run, split by the spans it records.
fn traced_parallel(config: &MeshConfig) -> (Mesh, Rows) {
    let ranks = nproc();
    let r = generate_parallel(config, ranks);
    let snap = r.trace.snapshot();
    let (wall, _) = span_total(&snap, "pipeline");
    let (bl_build, _) = span_total(&snap, "phase.bl_build");
    let (setup, _) = span_total(&snap, "phase.setup");
    let (par, _) = span_total(&snap, "phase.parallel_mesh");
    let (root_merge, _) = span_total(&snap, "phase.merge");
    let (bl_tri, leaves) = span_total(&snap, "task.bl_triangulate");
    let (refine_s, regions) = span_total(&snap, "task.inviscid_refine");
    let (nearbody_s, _) = span_total(&snap, "task.nearbody_refine");
    let (busy, _) = span_total(&snap, "lb.task");
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0) as f64;
    let rows = vec![
        ("blayer.build_s", bl_build, "s"),
        ("blayer.points", r.stats.bl_points as f64, "count"),
        ("partition.bl_mesh_s", bl_tri, "s"),
        ("partition.leaves", leaves as f64, "count"),
        ("decouple.regions", regions as f64, "count"),
        ("delaunay.refine_s", refine_s + nearbody_s, "s"),
        (
            "delaunay.refine.circumcenters",
            counter("refine.circumcenters"),
            "count",
        ),
        (
            "delaunay.refine.segment_splits",
            counter("refine.segment_splits"),
            "count",
        ),
        ("merge.root_serial_s", root_merge, "s"),
        ("mpirt.parallel_mesh_s", par, "s"),
        ("mpirt.rank_busy_s", busy, "s"),
        (
            "mpirt.rank_wait_s",
            (ranks as f64 * par - busy).max(0.0),
            "s",
        ),
        ("mpirt.lb.requests", counter("lb.requests_sent"), "count"),
        ("trace.wall_s", wall, "s"),
        ("trace.coverage", (setup + par + root_merge) / wall, "share"),
    ];
    (r.mesh, rows)
}

/// Wraps a sizing function and records when refinement first and last
/// queried it, and the allocation count at those moments. `mesh_pslg`
/// queries its sizing only while refining, so the two stamps bracket the
/// refinement layer from outside.
struct Probe<'a> {
    inner: &'a dyn SizingFn,
    origin: Instant,
    first_ns: AtomicU64,
    last_ns: AtomicU64,
    first_allocs: AtomicU64,
    last_allocs: AtomicU64,
}

impl SizingFn for Probe<'_> {
    fn h(&self, p: Point2) -> f64 {
        self.stamp();
        self.inner.h(p)
    }

    fn target_area(&self, p: Point2) -> f64 {
        self.stamp();
        self.inner.target_area(p)
    }
}

impl Probe<'_> {
    fn stamp(&self) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let allocs = alloc::count_now();
        if self.first_ns.load(Ordering::Relaxed) == u64::MAX {
            self.first_ns.fetch_min(now, Ordering::Relaxed);
            self.first_allocs.fetch_min(allocs, Ordering::Relaxed);
        }
        self.last_ns.fetch_max(now, Ordering::Relaxed);
        self.last_allocs.fetch_max(allocs, Ordering::Relaxed);
    }
}

/// One `mesh_pslg` run: validation timed as its own call, refinement
/// bracketed by the sizing probe, the component merge as the tail after
/// the last sizing query.
fn traced_plate(pslg: &adm_geom::Pslg, sizing: &dyn SizingFn) -> Result<(Mesh, Rows), String> {
    let (valid, validate_s) = timed(|| pslg.validate());
    valid.map_err(|e| e.to_string())?;
    let probe = Probe {
        inner: sizing,
        origin: Instant::now(),
        first_ns: AtomicU64::new(u64::MAX),
        last_ns: AtomicU64::new(0),
        first_allocs: AtomicU64::new(u64::MAX),
        last_allocs: AtomicU64::new(0),
    };
    let ((out, _), wall) =
        timed(|| alloc::counting(|| mesh_pslg(pslg, &probe, &RefineParams::default())));
    let out = out.map_err(|e| e.to_string())?;
    let first = probe.first_ns.load(Ordering::Relaxed) as f64 * 1e-9;
    let last = probe.last_ns.load(Ordering::Relaxed) as f64 * 1e-9;
    let refine_s = last - first;
    let tail_s = wall - last;
    let refine_allocs =
        probe.last_allocs.load(Ordering::Relaxed) - probe.first_allocs.load(Ordering::Relaxed);
    let rows = vec![
        ("pslg.validate_s", validate_s, "s"),
        ("pslg.components", out.components as f64, "count"),
        ("delaunay.refine_s", refine_s, "s"),
        (
            "delaunay.refine.circumcenters",
            out.refine_stats.circumcenters as f64,
            "count",
        ),
        (
            "delaunay.refine.segment_splits",
            out.refine_stats.segment_splits as f64,
            "count",
        ),
        ("delaunay.refine.allocs", refine_allocs as f64, "count"),
        ("merge.tree_s", tail_s, "s"),
        ("trace.wall_s", wall, "s"),
        // `mesh_pslg` validates its input again inside; the separately
        // timed call stands in for that prefix.
        (
            "trace.coverage",
            (validate_s + refine_s + tail_s) / wall,
            "share",
        ),
    ];
    Ok((out.mesh, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference figures for README.md: sequential `generate` against the
    /// parallel pipeline at `nproc` ranks on the two airfoil workloads
    /// (seed 1, median of three). Run with
    /// `cargo test --release -- --ignored --nocapture reference_figures`.
    #[test]
    #[ignore]
    fn reference_figures() {
        for (name, config) in [("naca-fig11", naca_fig11(1)), ("highlift-bl", highlift(1))] {
            let time = |f: &dyn Fn() -> usize| -> (f64, usize) {
                let mut walls = Vec::new();
                let mut tris = 0;
                for _ in 0..3 {
                    let t = Instant::now();
                    tris = f();
                    walls.push(secs(t));
                }
                (median(&walls), tris)
            };
            let (seq, tris) = time(&|| generate(&config).mesh.num_triangles());
            let (par, _) = time(&|| generate_parallel(&config, nproc()).mesh.num_triangles());
            eprintln!(
                "{name}: {tris} triangles, sequential {seq:.3}s, {} ranks {par:.3}s",
                nproc()
            );
        }
    }
}
