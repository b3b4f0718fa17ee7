//! `serve-mix`: the `admeshd` job server on a loopback port inside this
//! process, driven by a closed loop of at most `nproc` clients.
//!
//! The requests are the server's own replay shapes
//! ([`adm_serve::replay::catalog`]: NACA 0012, the three-element
//! high-lift case and a diamond general PSLG, eight shapes in all), each
//! shifted by a seeded offset. One *epoch* is one server lifetime: an
//! empty memory LRU, a fresh disk cache directory, and the same seeded
//! stream of [`ROUNDS`] rounds. Each round sends a fresh shift of every
//! catalog shape, in three phases separated by barriers:
//!
//! 1. **miss** — the [`SHAPES`] new requests, in a seeded order, one at
//!    a time on one connection, so the server inserts them into its LRU
//!    in a known order. Their responses together outweigh the LRU
//!    budget, which flushes every earlier entry;
//! 2. **memory hit** — [`MEM_HITS`] uniform draws over the keys the
//!    round's misses left resident, over all connections at once (a hit
//!    inserts nothing, so order does not matter);
//! 3. **disk hit** — [`DISK_HITS`] distinct requests for keys that were
//!    evicted, over all connections at once.
//!
//! Which keys stay resident follows from the response sizes and the LRU
//! budget alone, so the mix is the same in every epoch and on every run
//! with the same seed. The server's `STATS` counters are checked against
//! it after each epoch. Every distinct response must carry the digest of
//! a direct `generate` of the same request and pass the checker.
//!
//! The mix is an assumption, not measured traffic: a round is 800
//! requests over 8 distinct shapes, the stream of the repository's
//! committed serving benchmark (`serve_throughput`, 800 requests over 8
//! distinct shapes), and [`DISK_HITS`] of its repeats ask for an evicted
//! key, a share that no traffic measured in the repository gives.

use crate::check::{check, MeshView};
use crate::mesh::{airfoil_domain, seeded_shift, shifted};
use crate::util::{median, nproc, peak_rss_mb, secs, tail_quantile, Rng};
use crate::{alloc, Opts, Report};
use adm_core::{generate, mesh_digest_hex, sha256_hex, MeshConfig};
use adm_geom::Point2;
use adm_serve::{
    cache_key, canonical_request, catalog, parse_request, serve, Client, NetOptions, Response,
    Server, ServerConfig, WireResponse,
};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Rounds per epoch.
const ROUNDS: usize = 3;
/// Catalog shapes served, each a fresh key once per round.
const SHAPES: usize = 5;
/// Memory hits per round.
const MEM_HITS: usize = 491;
/// Disk hits per round.
const DISK_HITS: usize = 3;
/// Memory LRU budget in response bytes: room for at most two of the
/// responses (285–395 KB), so a round's misses flush every earlier
/// entry and the first round already evicts [`DISK_HITS`] keys.
const MEM_BUDGET: usize = 768 << 10;

/// Scratch space inside the checkout, removed when the run ends.
const SCRATCH: &str = ".perfbench_tmp";

/// One distinct request of the stream.
struct Request {
    config: MeshConfig,
    payload: String,
}

/// Seeded distinct requests, round by round: every catalog shape, the
/// whole domain shifted by the round's seeded offset. The shift keeps
/// the work of each shape (and the response sizes the LRU sees) the
/// same across seeds.
fn requests(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let mut shifts: Vec<Point2> = Vec::new();
    while shifts.len() < ROUNDS {
        let d = seeded_shift(&mut rng);
        if !shifts.contains(&d) {
            shifts.push(d);
        }
    }
    // The diamond shapes are left out: their meshes do not conform
    // across the near-body box (hanging vertices), on every seed.
    let shapes: Vec<MeshConfig> = catalog(8)
        .into_iter()
        .filter(|c| c.pslg.loops.iter().all(|l| l.name != "diamond"))
        .collect();
    assert_eq!(
        shapes.len(),
        SHAPES,
        "NACA and high-lift shapes in the catalog"
    );
    shifts
        .iter()
        .flat_map(|&d| {
            shapes.iter().map(move |shape| {
                let config = MeshConfig::from_pslg(shifted(&shape.pslg, d));
                let payload = canonical_request(&config).expect("catalog requests are cacheable");
                Request { config, payload }
            })
        })
        .collect()
}

/// The classes a request can fall into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Miss,
    Mem,
    Disk,
}

/// One served response as the client saw it.
struct Seen {
    key: usize,
    class: Class,
    latency_s: f64,
    digest: String,
    len: usize,
}

/// A running server with its accept loop and client connections.
struct Live {
    server: Arc<Server>,
    addr: SocketAddr,
    accept: std::thread::JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
    dir: PathBuf,
}

fn start(dir: PathBuf, clients: usize) -> Result<Live, String> {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let server = Arc::new(
        Server::new(ServerConfig {
            workers: clients,
            pool_threads: nproc(),
            queue_cap: 64,
            mem_cache_bytes: MEM_BUDGET,
            cache_dir: Some(dir.join("cache")),
        })
        .map_err(|e| format!("server start: {e}"))?,
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let s = server.clone();
    let accept = std::thread::spawn(move || serve(listener, s, NetOptions::default()));
    let mut conns = Vec::new();
    for _ in 0..clients {
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.ping().map_err(|e| format!("ping: {e}"))?;
        conns.push(c);
    }
    Ok(Live {
        server,
        addr,
        accept,
        clients: conns,
        dir,
    })
}

impl Live {
    /// Closes the load connections, asks the accept loop to stop, and
    /// joins every server thread.
    fn stop(self) -> Result<(), String> {
        drop(self.clients);
        let mut ctl = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        ctl.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        drop(ctl);
        self.accept
            .join()
            .map_err(|_| "accept loop panicked".to_string())?
            .map_err(|e| format!("accept loop: {e}"))?;
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(())
    }
}

/// Client connections of the closed loop: at most `nproc`, and two.
fn client_count() -> usize {
    nproc().clamp(1, 2)
}

/// Seconds from process start until the first request could be sent:
/// the request stream built, the server up and every client connected.
/// The server is stopped afterwards, outside the measurement.
pub fn set_up(opts: &Opts) -> Result<f64, String> {
    let dir = Path::new(SCRATCH).join(format!("setup-{}", std::process::id()));
    let reqs = requests(opts.seed);
    let live = start(dir, client_count())?;
    let s = secs(opts.t_start);
    drop(reqs);
    live.stop()?;
    remove_scratch_if_empty();
    Ok(s)
}

/// Sends one request and returns what came back with the response
/// bytes. A non-`Ok` response is an error.
fn send(
    c: &mut Client,
    reqs: &[Request],
    key: usize,
    class: Class,
) -> Result<(Seen, Vec<u8>), String> {
    let t = Instant::now();
    let resp = c
        .mesh_raw(0, &reqs[key].payload)
        .map_err(|e| format!("request {key}: {e}"))?;
    let latency_s = secs(t);
    match resp {
        WireResponse::Ok { digest, bytes, .. } => Ok((
            Seen {
                key,
                class,
                latency_s,
                digest,
                len: bytes.len(),
            },
            bytes,
        )),
        other => Err(format!("request {key}: {other:?}")),
    }
}

/// Sends `keys` over all connections at once, split round-robin, and
/// drops the response bytes.
fn fan_out(
    clients: &mut [Client],
    reqs: &[Request],
    keys: &[usize],
    class: Class,
) -> Vec<Result<Seen, String>> {
    let n = clients.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let mine: Vec<usize> = keys.iter().copied().skip(i).step_by(n).collect();
                s.spawn(move || {
                    mine.into_iter()
                        .map(|k| send(c, reqs, k, class).map(|(seen, _)| seen))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Keys left resident after `misses` are inserted in order into an LRU of
/// [`MEM_BUDGET`] bytes whose earlier entries they all evict: the longest
/// suffix that fits (responses larger than the budget are never cached,
/// nor are failed ones, whose size is unknown).
fn resident_after(
    misses: &[usize],
    size: &dyn Fn(usize) -> Option<usize>,
) -> Result<Vec<usize>, String> {
    let cacheable: Vec<(usize, usize)> = misses
        .iter()
        .filter_map(|&k| size(k).map(|n| (k, n)))
        .filter(|&(_, n)| n <= MEM_BUDGET)
        .collect();
    let inserted: usize = cacheable.iter().map(|&(_, n)| n).sum();
    if inserted < MEM_BUDGET {
        return Err(format!(
            "a round's misses insert {inserted} bytes, less than the {MEM_BUDGET}-byte LRU: \
             earlier entries could survive and the mix would not be fixed"
        ));
    }
    let mut resident = Vec::new();
    let mut total = 0;
    for &(k, n) in cacheable.iter().rev() {
        if total + n > MEM_BUDGET {
            break;
        }
        total += n;
        resident.push(k);
    }
    if resident.is_empty() {
        return Err("no response of a round fits the LRU: no memory hits possible".into());
    }
    Ok(resident)
}

/// What one epoch produced.
struct Epoch {
    seen: Vec<Seen>,
    /// Requests that got no `Ok` response.
    errors: Vec<String>,
    stream_s: f64,
    stats: String,
}

/// The first `Ok` response of each key: digest and length. Its bytes
/// are spilled to `spill/<key>` for the checks after the measured
/// window, so the client holds no responses while it measures.
type First = Vec<Option<(String, usize)>>;

/// Runs one epoch's stream on a fresh server.
fn epoch(
    live: &mut Live,
    reqs: &[Request],
    first: &mut First,
    spill: &Path,
    seed: u64,
) -> Result<Epoch, String> {
    let mut rng = Rng::new(seed ^ 0x5EED_57EA);
    let mut seen = Vec::new();
    let mut errors = Vec::new();
    let mut evicted: Vec<usize> = Vec::new();
    let mut stream_s = 0.0;
    for round in 0..ROUNDS {
        let mut misses: Vec<usize> = (round * SHAPES..(round + 1) * SHAPES).collect();
        for i in (1..misses.len()).rev() {
            misses.swap(i, rng.below(i + 1));
        }
        for &k in &misses {
            let t = Instant::now();
            let out = send(&mut live.clients[0], reqs, k, Class::Miss);
            stream_s += secs(t);
            match out {
                Ok((s, bytes)) => {
                    if first[k].is_none() {
                        first[k] = Some((s.digest.clone(), s.len));
                        let path = spill.join(k.to_string());
                        std::fs::write(&path, &bytes)
                            .map_err(|e| format!("{}: {e}", path.display()))?;
                    }
                    seen.push(s);
                }
                Err(e) => errors.push(e),
            }
        }
        let size = |k: usize| first[k].as_ref().map(|f| f.1);
        let resident = resident_after(&misses, &size)?;
        evicted.extend(misses.iter().filter(|k| !resident.contains(k)));

        let hot: Vec<usize> = (0..MEM_HITS)
            .map(|_| resident[rng.below(resident.len())])
            .collect();
        let mut pool = evicted.clone();
        let mut cold = Vec::new();
        for _ in 0..DISK_HITS {
            if pool.is_empty() {
                return Err("too few evicted keys for the disk-hit phase".into());
            }
            cold.push(pool.swap_remove(rng.below(pool.len())));
        }
        let t = Instant::now();
        let hits = fan_out(&mut live.clients, reqs, &hot, Class::Mem);
        let disk = fan_out(&mut live.clients, reqs, &cold, Class::Disk);
        stream_s += secs(t);
        for s in hits.into_iter().chain(disk) {
            match s {
                Ok(s) => seen.push(s),
                Err(e) => errors.push(e),
            }
        }
    }
    let stats = live.clients[0].stats().map_err(|e| format!("STATS: {e}"))?;
    Ok(Epoch {
        seen,
        errors,
        stream_s,
        stats,
    })
}

/// Reads one counter out of the `STATS` JSON.
fn counter(stats: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\":");
    stats
        .find(&pat)
        .and_then(|i| {
            stats[i + pat.len()..]
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|d| d.parse().ok())
        })
        .unwrap_or(0)
}

/// Checks one epoch's `STATS` against the mix the stream was built to
/// produce. Returns the mismatches.
fn check_stats(stats: &str) -> Vec<String> {
    let want = [
        ("serve.mesh_jobs", ROUNDS * SHAPES),
        ("serve.hits_mem", ROUNDS * MEM_HITS),
        ("serve.hits_disk", ROUNDS * DISK_HITS),
        ("serve.coalesced", 0),
        ("serve.errors", 0),
        ("serve.job_failures", 0),
        ("serve.cache_bad", 0),
    ];
    want.iter()
        .filter(|(name, n)| counter(stats, name) != *n as u64)
        .map(|(name, n)| {
            format!(
                "STATS {name} = {}, stream implies {n}",
                counter(stats, name)
            )
        })
        .collect()
}

/// Removes the scratch root once no run uses it.
fn remove_scratch_if_empty() {
    if Path::new(SCRATCH)
        .read_dir()
        .map(|mut d| d.next().is_none())
        .unwrap_or(false)
    {
        let _ = std::fs::remove_dir(SCRATCH);
    }
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let scratch = Path::new(SCRATCH).join(format!("serve-{}", std::process::id()));
    let out = run_in(opts, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    remove_scratch_if_empty();
    out
}

fn run_in(opts: &Opts, scratch: &Path) -> Result<Report, String> {
    let reqs = requests(opts.seed);
    let spill = scratch.join("responses");
    std::fs::create_dir_all(&spill).map_err(|e| format!("{}: {e}", spill.display()))?;
    let mut first: First = vec![None; reqs.len()];
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut stream_total = 0.0;
    // The traced run keeps the last epoch's server up for its probes.
    let mut kept_server: Option<Live> = None;
    while stream_total < opts.seconds || epochs.len() < 2 {
        let dir = scratch.join(format!("epoch-{}", epochs.len()));
        let mut live = start(dir, client_count())?;
        let e = epoch(&mut live, &reqs, &mut first, &spill, opts.seed)?;
        stream_total += e.stream_s;
        epochs.push(e);
        if opts.trace && stream_total >= opts.seconds && epochs.len() >= 2 {
            kept_server = Some(live);
        } else {
            live.stop()?;
        }
    }
    let peak = peak_rss_mb();

    // Everything below runs outside the measured window.
    let mut fails: Vec<String> = Vec::new();
    let mut incorrect = 0u64;
    let mut errors = 0u64;
    for (i, e) in epochs.iter().enumerate() {
        errors += e.errors.len() as u64;
        fails.extend(e.errors.iter().map(|f| format!("epoch {i}: {f}")));
        let bad = check_stats(&e.stats);
        incorrect += u64::from(!bad.is_empty());
        fails.extend(bad.into_iter().map(|f| format!("epoch {i}: {f}")));
    }
    let mut tris = vec![0usize; reqs.len()];
    let mut reference = Vec::new();
    for (k, r) in reqs.iter().enumerate() {
        let want = if opts.trace {
            let dir = scratch.join(format!("shards-{k}"));
            let mut c = r.config.clone();
            c.shard_out = Some(dir.clone());
            let res = generate(&c);
            let d = mesh_digest_hex(&res.mesh);
            reference.push((dir, res));
            d
        } else {
            mesh_digest_hex(&generate(&r.config).mesh)
        };
        let Some((digest, _)) = &first[k] else {
            fails.push(format!("key {k}: never answered"));
            continue;
        };
        let path = spill.join(k.to_string());
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut bad = Vec::new();
        if sha256_hex(&bytes) != want || *digest != want {
            bad.push(format!("digest differs from a direct generate ({want})"));
        }
        match MeshView::parse_ascii(&bytes) {
            Ok(view) => {
                tris[k] = view.tris.len();
                bad.extend(check(&airfoil_domain(&r.config), &view));
            }
            Err(e) => bad.push(format!("unreadable response: {e}")),
        }
        if !bad.is_empty() {
            incorrect += 1;
            for b in bad {
                fails.push(format!("key {k}: {b}"));
            }
        }
    }
    // Every later response of a key must be the same bytes.
    for e in &epochs {
        for s in &e.seen {
            let same = first[s.key]
                .as_ref()
                .is_some_and(|(d, n)| *d == s.digest && *n == s.len);
            if !same {
                incorrect += 1;
                fails.push(format!("key {}: a {:?} response differs", s.key, s.class));
            }
        }
    }
    for f in &fails {
        eprintln!("serve-mix: check failed: {f}");
    }

    let (miss, mem, disk) = (
        latencies(&epochs, Class::Miss),
        latencies(&epochs, Class::Mem),
        latencies(&epochs, Class::Disk),
    );
    let window: f64 = epochs.iter().map(|e| e.stream_s).sum();
    // Throughput per epoch (one pass over the fixed stream), then the
    // median over epochs.
    let per_epoch = |f: &dyn Fn(&Seen) -> f64| -> f64 {
        median(
            &epochs
                .iter()
                .map(|e| e.seen.iter().map(f).sum::<f64>() / e.stream_s)
                .collect::<Vec<_>>(),
        )
    };
    let tri_rate = per_epoch(&|s| tris[s.key] as f64);
    let req_rate = per_epoch(&|_| 1.0);
    let attempted = (epochs.len() * ROUNDS * (SHAPES + MEM_HITS + DISK_HITS)) as u64;
    eprintln!(
        "serve-mix: {} epochs, {attempted} requests ({} miss / {} memory / {} disk answered) \
         in {window:.3}s",
        epochs.len(),
        miss.len(),
        mem.len(),
        disk.len()
    );
    if miss.is_empty() {
        return Err("no request was answered".into());
    }

    let metrics = if opts.trace {
        let live = kept_server
            .take()
            .ok_or("no server kept for the traced probes")?;
        let m = traced_rows(&live, &reqs, &reference, &epochs);
        live.stop()?;
        m?
    } else {
        vec![
            ("wall_s", median(&miss), "s"),
            ("tri_per_s", tri_rate, "1/s"),
            ("req_per_s", req_rate, "1/s"),
            ("peak_rss_mb", peak, "MB"),
        ]
    };
    Ok(Report {
        attempted,
        failed: errors,
        incorrect,
        metrics,
    })
}

/// Median wall time of `f` over `reps` calls.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t)
        })
        .collect();
    median(&v)
}

/// Client latencies of one class over `epochs`.
fn latencies(epochs: &[Epoch], class: Class) -> Vec<f64> {
    epochs
        .iter()
        .flat_map(|e| e.seen.iter())
        .filter(|s| s.class == class)
        .map(|s| s.latency_s)
        .collect()
}

/// Per-layer rows: request parsing and keying, response encoding, shard
/// write/verify/reconstruct (on direct `generate` runs with sharded
/// output, as the server's misses write them), the server's own
/// `serve.mesh_job` spans and `STATS` counters, and client latencies per
/// class.
fn traced_rows(
    live: &Live,
    reqs: &[Request],
    reference: &[(PathBuf, adm_core::PipelineResult)],
    epochs: &[Epoch],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let (miss, mem, disk) = (
        latencies(epochs, Class::Miss),
        latencies(epochs, Class::Mem),
        latencies(epochs, Class::Disk),
    );
    let last_miss = latencies(&epochs[epochs.len() - 1..], Class::Miss);
    let stats = &epochs[0].stats;
    let per_key =
        |f: &dyn Fn(usize) -> f64| -> f64 { median(&(0..reqs.len()).map(f).collect::<Vec<_>>()) };
    let parse_s = per_key(&|k| {
        time_median(9, || {
            std::hint::black_box(parse_request(&reqs[k].payload).expect("canonical payload"));
        })
    });
    let key_s = per_key(&|k| {
        time_median(9, || {
            std::hint::black_box(cache_key(&reqs[k].config).expect("cacheable"));
        })
    });
    let encode_s = per_key(&|k| {
        time_median(3, || {
            std::hint::black_box(Response::from_mesh("k", &reference[k].1.mesh));
        })
    });
    let mut write = Vec::new();
    let mut bytes = Vec::new();
    let mut verify = Vec::new();
    let mut rebuild = Vec::new();
    for (dir, res) in reference {
        let snap = res.trace.snapshot();
        write.push(
            snap.spans
                .iter()
                .filter(|s| s.name == "phase.shard_write")
                .map(|s| s.duration().as_secs_f64())
                .sum::<f64>(),
        );
        bytes.push(snap.counters.get("shard.bytes").copied().unwrap_or(0) as f64);
        let manifest = adm_core::read_manifest(dir).map_err(|e| format!("manifest: {e}"))?;
        verify.push(time_median(3, || {
            adm_core::verify_shards(dir, &manifest).expect("shards verify");
        }));
        rebuild.push(time_median(3, || {
            std::hint::black_box(adm_core::reconstruct(dir, &manifest).expect("reconstruct"));
        }));
    }
    // Allocations of one in-process memory hit: submit a key twice (the
    // first call may load it from disk), count the second.
    let hot = &reqs[0].config;
    live.server
        .submit(hot)
        .map_err(|e| format!("submit: {e:?}"))?;
    let (hit, hit_allocs) = alloc::counting(|| live.server.submit(hot));
    let hit = hit.map_err(|e| format!("submit: {e:?}"))?;
    let jobs: Vec<f64> = live
        .server
        .tracer()
        .snapshot()
        .spans
        .iter()
        .filter(|s| s.name == "serve.mesh_job")
        .map(|s| s.duration().as_secs_f64())
        .collect();
    let job_s = median(&jobs);
    let miss_s = median(&miss);
    let mut rows = vec![
        ("shard.write_s", median(&write), "s"),
        ("shard.bytes", median(&bytes), "bytes"),
        ("shard.verify_s", median(&verify), "s"),
        ("shard.reconstruct_s", median(&rebuild), "s"),
        ("serve.parse_us", parse_s * 1e6, "us"),
        ("serve.key_us", key_s * 1e6, "us"),
        ("serve.response_bytes", hit.bytes.len() as f64, "bytes"),
        ("serve.hit.allocs", hit_allocs as f64, "count"),
        ("serve.mesh_job_ms", job_s * 1e3, "ms"),
        ("serve.response_encode_ms", encode_s * 1e3, "ms"),
        (
            "serve.mesh_jobs",
            counter(stats, "serve.mesh_jobs") as f64,
            "count",
        ),
        (
            "serve.hits_mem",
            counter(stats, "serve.hits_mem") as f64,
            "count",
        ),
        (
            "serve.hits_disk",
            counter(stats, "serve.hits_disk") as f64,
            "count",
        ),
        ("serve.miss_p50_ms", miss_s * 1e3, "ms"),
        ("serve.mem_hit_p50_us", median(&mem) * 1e6, "us"),
        ("serve.disk_hit_p50_ms", median(&disk) * 1e3, "ms"),
        ("trace.wall_s", miss_s, "s"),
        // The kept server's spans are those of the last epoch, so the
        // share is taken over that epoch's misses.
        (
            "trace.coverage",
            (jobs.iter().sum::<f64>() + encode_s * jobs.len() as f64)
                / last_miss.iter().sum::<f64>(),
            "share",
        ),
    ];
    if let Some(p99) = tail_quantile(&mem, 0.99) {
        rows.push(("serve.mem_hit_p99_us", p99 * 1e6, "us"));
    }
    Ok(rows)
}
