//! `paper` and `geofence`: workloads served by a static engine (plain or
//! sharded), measured end to end (`--trace 0`) or layer by layer
//! (`--trace 1`).

use crate::inputs::{self, StaticInputs};
use crate::layers::{self, LayerSums};
use crate::oracle::{GridOracle, Truth};
use crate::util::{median, median_time, nproc, quantile, rss_mib, secs_since, Metrics, Outcome};
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;
use vaq_core::snapshot::{self, SnapshotError};
use vaq_core::{
    AreaQueryEngine, QueryMethod, QueryOutput, QuerySession, QuerySpec, QueryStats,
    ShardedAreaQueryEngine, ShardedQueryOutput,
};
use vaq_delaunay::{SiteMetric, Triangulation};
use vaq_geom::{Point, Polygon};
use vaq_workload::io::polygon_to_wkt;

/// How a static workload builds and queries its engine.
pub struct StaticConfig {
    pub name: &'static str,
    /// The spec every timed query runs.
    pub spec: QuerySpec,
    /// `0` for a plain engine, else the fixed shard count.
    pub shards: usize,
    pub payload_bytes: usize,
    /// Set-ups per run (the reported `setup_s` is their median).
    pub setup_reps: usize,
    /// `--method` of the cold-started `vaq query --load`.
    pub cli_method: &'static str,
    /// Closed-loop queries per round of the end-to-end pass.
    pub loop_slice: usize,
    /// Areas of one `execute_batch` call; divides the closed loop's areas.
    pub batch_slice: usize,
    /// `execute_batch` calls per round, at each thread count.
    pub batches_per_round: usize,
}

// Each phase holds one engine; none sits in a collection, so the size
// difference of the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Engine {
    Plain(AreaQueryEngine),
    Sharded(ShardedAreaQueryEngine),
}

/// One answer: ascending ids and the query's counters.
pub struct Answer {
    pub ids: Vec<u32>,
    pub stats: QueryStats,
}

impl From<QueryOutput> for Answer {
    fn from(out: QueryOutput) -> Answer {
        let r = out.into_result().expect("collect-mode output");
        let ids = r.sorted_indices();
        Answer {
            ids,
            stats: r.stats,
        }
    }
}

impl From<ShardedQueryOutput> for Answer {
    fn from(out: ShardedQueryOutput) -> Answer {
        Answer {
            ids: out.indices,
            stats: out.stats,
        }
    }
}

/// A single-threaded client: a session on a plain engine, the engine
/// itself on a sharded one (its planner lives in the engine).
pub enum Client<'e> {
    Plain(QuerySession<'e>),
    Sharded(&'e ShardedAreaQueryEngine),
}

/// A raw output, converted into an [`Answer`] outside the timed region.
pub enum Raw {
    Plain(QueryOutput),
    Sharded(ShardedQueryOutput),
}

impl Raw {
    pub fn answer(self) -> Answer {
        match self {
            Raw::Plain(o) => o.into(),
            Raw::Sharded(o) => o.into(),
        }
    }
}

impl Client<'_> {
    pub fn run(&mut self, spec: &QuerySpec, area: &Polygon) -> Raw {
        match self {
            Client::Plain(s) => Raw::Plain(s.execute(spec, area)),
            Client::Sharded(e) => Raw::Sharded(e.execute(spec, area)),
        }
    }
}

impl Engine {
    pub fn build(cfg: &StaticConfig, pts: &[Point], ws: Option<&[f64]>) -> Engine {
        if cfg.shards == 0 {
            let mut b = AreaQueryEngine::builder(pts).payload_bytes(cfg.payload_bytes);
            if let Some(w) = ws {
                b = b.weights(w);
            }
            return Engine::Plain(b.build());
        }
        Engine::Sharded(match ws {
            Some(w) => ShardedAreaQueryEngine::build_weighted_with_payload(
                pts,
                w,
                cfg.shards,
                cfg.payload_bytes,
            ),
            None => ShardedAreaQueryEngine::build_with_payload(pts, cfg.shards, cfg.payload_bytes),
        })
    }

    fn is_sharded(&self) -> bool {
        matches!(self, Engine::Sharded(_))
    }

    pub fn client(&self) -> Client<'_> {
        match self {
            Engine::Plain(e) => Client::Plain(e.session()),
            Engine::Sharded(e) => Client::Sharded(e),
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        match self {
            Engine::Plain(e) => snapshot::engine_to_bytes(e),
            Engine::Sharded(e) => snapshot::sharded_to_bytes(e),
        }
    }

    fn decode(sharded: bool, bytes: &[u8]) -> Result<Engine, SnapshotError> {
        Ok(if sharded {
            Engine::Sharded(snapshot::sharded_from_bytes(bytes)?)
        } else {
            Engine::Plain(snapshot::engine_from_bytes(bytes)?)
        })
    }

    fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        match self {
            Engine::Plain(e) => snapshot::save_engine(e, path),
            Engine::Sharded(e) => snapshot::save_sharded(e, path),
        }
    }

    /// One `execute_batch` call, returning its wall time; the outputs are
    /// converted after the clock stops.
    fn batch(&self, spec: &QuerySpec, areas: &[Polygon], threads: usize) -> (f64, Vec<Answer>) {
        match self {
            Engine::Plain(e) => {
                let t = Instant::now();
                let outs = e.execute_batch(spec, areas, threads);
                let dt = secs_since(t);
                (dt, outs.into_iter().map(Answer::from).collect())
            }
            Engine::Sharded(e) => {
                let t = Instant::now();
                let outs = e.execute_batch(spec, areas, threads);
                let dt = secs_since(t);
                (dt, outs.into_iter().map(Answer::from).collect())
            }
        }
    }

    fn record_store(&self) -> Option<&vaq_core::RecordStore> {
        match self {
            Engine::Plain(e) => e.record_store(),
            Engine::Sharded(_) => None,
        }
    }
}

/// Checks one answer against the oracle (the operation fails on a miss)
/// and, when it agrees, the counters' own identities. The workloads'
/// points are distinct, so every accepted candidate is one answer id;
/// the redundant validations (candidates − accepted) then rest on
/// checked counts.
pub fn check(out: &mut Outcome, truth: &Truth<u32>, a: &Answer, what: &str) {
    let ok = out.answer(truth, &a.ids, || what.to_string());
    if ok {
        let s = &a.stats;
        out.property(s.result_size == a.ids.len(), || {
            format!(
                "{what}: result_size {} for {} ids",
                s.result_size,
                a.ids.len()
            )
        });
        out.property(s.accepted == a.ids.len(), || {
            format!("{what}: accepted {} for {} ids", s.accepted, a.ids.len())
        });
        out.property(s.containment_tests >= s.candidates as u64, || {
            format!(
                "{what}: {} containment tests for {} candidates",
                s.containment_tests, s.candidates
            )
        });
    }
}

/// Operations per block of a run; the last of each block is the
/// coincident-point snapshot round trip.
const BLOCK: u64 = 64;

/// Ends the run on whole blocks of [`BLOCK`] operations, so that the
/// round trips are the same share of every run whatever its length:
/// tops the checked operations up with untimed queries of `areas` (from
/// index `from` on, cycling), then runs one round trip per block.
///
/// A round trip encodes an engine over [`inputs::coincident`] (built as
/// the workload builds its own), decodes the bytes and answers one area,
/// checked against the oracle; it fails when decoding fails.
fn close_blocks(
    cfg: &StaticConfig,
    client: &mut Client,
    areas: &[Polygon],
    truths: &[Truth<u32>],
    from: usize,
    weighted: bool,
    out: &mut Outcome,
) {
    let per = BLOCK - 1;
    let mut i = from;
    while !out.attempted.is_multiple_of(per) {
        let k = i % areas.len();
        i += 1;
        let a = client.run(&cfg.spec, &areas[k]).answer();
        check(out, &truths[k], &a, &format!("closing area {k}"));
    }
    let c = inputs::coincident(weighted);
    let truth = GridOracle::new(&c.points).truth(&c.area);
    let engine = Engine::build(cfg, &c.points, c.weights.as_deref());
    for _ in 0..out.attempted / per {
        match Engine::decode(engine.is_sharded(), &engine.to_bytes()) {
            Ok(e) => {
                let a = e.client().run(&cfg.spec, &c.area).answer();
                out.answer(&truth, &a.ids, || {
                    String::from("coincident-point snapshot round trip")
                });
            }
            Err(e) => out.op(false, || {
                format!("coincident-point snapshot round trip: decode: {e}")
            }),
        }
    }
}

/// Spawns `vaq query --load` on the snapshot and times it until it has
/// printed its answer and exited; returns the time and the ids.
fn cold_start(
    vaq: &Path,
    snap: &Path,
    wkt: &Path,
    method: &str,
) -> Result<(f64, Vec<u32>), String> {
    let t = Instant::now();
    let out = Command::new(vaq)
        .arg("query")
        .arg("--load")
        .arg(snap)
        .arg("--area-file")
        .arg(wkt)
        .args(["--method", method])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", vaq.display()))?;
    let dt = secs_since(t);
    if !out.status.success() {
        return Err(format!("vaq query --load exited with {}", out.status));
    }
    let mut ids: Vec<u32> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.trim().parse().ok())
        .collect();
    ids.sort_unstable();
    Ok((dt, ids))
}

/// Runs the cold start once and checks its answer; `None` when it failed.
fn checked_cold_start(
    vaq: &Path,
    snap: &Path,
    wkt: &Path,
    method: &str,
    truth: &Truth<u32>,
    out: &mut Outcome,
) -> Option<f64> {
    match cold_start(vaq, snap, wkt, method) {
        Ok((dt, ids)) => {
            out.answer(truth, &ids, || String::from("cold start"));
            Some(dt)
        }
        Err(e) => {
            out.op(false, || e);
            None
        }
    }
}

/// One timed `execute_batch` call over `areas`, every answer checked;
/// returns its throughput in queries per second.
fn timed_batch(
    engine: &Engine,
    spec: &QuerySpec,
    areas: &[Polygon],
    truths: &[Truth<u32>],
    threads: usize,
    out: &mut Outcome,
) -> f64 {
    let (dt, answers) = engine.batch(spec, areas, threads);
    for (i, a) in answers.iter().enumerate() {
        check(out, &truths[i], a, &format!("batch {threads}t area {i}"));
    }
    areas.len() as f64 / dt
}

/// Whole batches over `areas` on `threads` workers until `budget`
/// seconds of batch time are spent (at least three); the median
/// throughput in queries per second.
fn batch_phase(
    engine: &Engine,
    spec: &QuerySpec,
    areas: &[Polygon],
    truths: &[Truth<u32>],
    threads: usize,
    budget: f64,
    out: &mut Outcome,
) -> f64 {
    let mut qps = Vec::new();
    let mut spent = 0.0;
    while spent < budget || qps.len() < 3 {
        let q = timed_batch(engine, spec, areas, truths, threads, out);
        spent += areas.len() as f64 / q;
        qps.push(q);
    }
    median(&qps)
}

/// Queries the warm-up areas once, untimed, so every timed phase starts
/// from the same planner and cache state.
fn warm_up(
    client: &mut Client,
    spec: &QuerySpec,
    areas: &[Polygon],
    truths: &[Truth<u32>],
    out: &mut Outcome,
) {
    for (i, area) in areas.iter().enumerate() {
        let a = client.run(spec, area).answer();
        check(out, &truths[i], &a, &format!("warm-up area {i}"));
    }
}

const WARM_UP: usize = 16;
/// Repetitions of each snapshot call in the traced pass.
const SNAPSHOT_REPS: usize = 3;
/// Fewest rounds of a run: the medians of saves and cold starts take
/// one sample per round.
const MIN_ROUNDS: usize = 8;
const MIN_LOOP_QUERIES: usize = 1000;

/// The end-to-end pass. After set-up and a first save, the run goes in
/// rounds until `seconds` have passed (and at least [`MIN_ROUNDS`] and
/// [`MIN_LOOP_QUERIES`] closed-loop queries): each round runs a slice of
/// the closed loop, `batches_per_round` batches on one thread and as many
/// on `nproc` threads, one save and one cold start. Interleaving spreads every
/// metric's samples over the whole run, so a slow spell of the machine
/// cannot land on one metric alone. Every answer is checked against the
/// oracle outside the timed calls.
pub fn run_e2e(
    cfg: &StaticConfig,
    inp: &StaticInputs,
    seconds: f64,
    vaq: &Path,
    work: &Path,
    out: &mut Outcome,
    m: &mut Metrics,
) -> Result<u64, String> {
    let oracle = GridOracle::new(&inp.points);
    let loop_truths: Vec<_> = inp.loop_areas.iter().map(|a| oracle.truth(a)).collect();
    let cold_truth = oracle.truth(&inp.cold_area);
    drop(oracle);
    let threads = nproc();

    // Set-up: points in memory -> engine ready. The first build is kept
    // (and sizes the engine's memory); the others are timed and dropped.
    let rss0 = rss_mib();
    let t = Instant::now();
    let engine = Engine::build(cfg, &inp.points, inp.weights.as_deref());
    let mut setups = vec![secs_since(t)];
    let engine_mb = rss_mib() - rss0;
    for _ in 1..cfg.setup_reps {
        let t = Instant::now();
        let extra = Engine::build(cfg, &inp.points, inp.weights.as_deref());
        setups.push(secs_since(t));
        drop(extra);
    }
    let first = engine.client().run(&cfg.spec, &inp.cold_area).answer();
    check(out, &cold_truth, &first, "built engine");
    let snap = work.join(format!("{}.snap", cfg.name));
    let (first_save, saved) = timed(|| engine.save(&snap));
    saved.map_err(|e| format!("save: {e}"))?;
    let bytes = fs::read(&snap).map_err(|e| format!("read snapshot: {e}"))?;
    let sharded = engine.is_sharded();
    drop(engine);
    let wkt = work.join(format!("{}.wkt", cfg.name));
    fs::write(&wkt, polygon_to_wkt(&inp.cold_area)).map_err(|e| e.to_string())?;

    // Every phase serves its own engine loaded from the snapshot, so each
    // starts from the planner state saved right after set-up, and warms
    // up identically.
    let fresh = |out: &mut Outcome| -> Result<Engine, String> {
        let e = Engine::decode(sharded, &bytes).map_err(|e| format!("decode: {e}"))?;
        warm_up(
            &mut e.client(),
            &cfg.spec,
            &inp.loop_areas[..WARM_UP],
            &loop_truths,
            out,
        );
        Ok(e)
    };
    let (loop_engine, one, many) = (fresh(out)?, fresh(out)?, fresh(out)?);
    let mut client = loop_engine.client();
    // The batches run successive slices of the closed loop's areas. A
    // batch plans all its areas from the calibration it starts with, and
    // the planner's calibration follows the last few queries it observed;
    // batches that each start where the previous one left the calibration
    // swung from 100 to 1000 queries per second. So each timed batch of
    // a planned spec follows an identical warm-up: the areas of the slice
    // before it, queried one at a time on the batch's engine, as the
    // closed loop's client would have.
    let planned = cfg.spec.method.is_auto();
    let slices = inp.loop_areas.len() / cfg.batch_slice;
    let batch = |k: usize| {
        let r = (k % slices) * cfg.batch_slice..(k % slices + 1) * cfg.batch_slice;
        (&inp.loop_areas[r.clone()], &loop_truths[r])
    };
    // An untimed first batch on each engine touches its memory once; the
    // timed batches start at the second slice.
    for (engine, th) in [(&one, 1), (&many, threads)] {
        let (areas, truths) = batch(0);
        timed_batch(engine, &cfg.spec, areas, truths, th, out);
    }

    let (mut lat, mut qps1, mut qpsn) = (Vec::new(), Vec::new(), Vec::new());
    let (mut saves, mut colds) = (vec![first_save], Vec::new());
    let start = Instant::now();
    let mut next = 0;
    while saves.len() <= MIN_ROUNDS || lat.len() < MIN_LOOP_QUERIES || secs_since(start) < seconds {
        for _ in 0..cfg.loop_slice {
            let i = next % inp.loop_areas.len();
            next += 1;
            let t = Instant::now();
            let raw = client.run(&cfg.spec, &inp.loop_areas[i]);
            lat.push(secs_since(t));
            check(
                out,
                &loop_truths[i],
                &raw.answer(),
                &format!("loop area {i}"),
            );
        }
        for _ in 0..cfg.batches_per_round {
            let k = qps1.len() + 1;
            let (areas, truths) = batch(k);
            for (engine, th, qps) in [(&one, 1, &mut qps1), (&many, threads, &mut qpsn)] {
                if planned {
                    let (before, before_truths) = batch(k - 1);
                    warm_up(&mut engine.client(), &cfg.spec, before, before_truths, out);
                }
                qps.push(timed_batch(engine, &cfg.spec, areas, truths, th, out));
            }
        }
        // A new file every round: ext4 starts writing a truncated and
        // rewritten file back when it is closed (its replace-by-truncate
        // heuristic), and the next save would wait on the disk.
        let round = work.join(format!("{}-{}.snap", cfg.name, saves.len()));
        let (dt, saved) = timed(|| loop_engine.save(&round));
        saved.map_err(|e| format!("save: {e}"))?;
        saves.push(dt);
        colds.extend(checked_cold_start(
            vaq,
            &round,
            &wkt,
            cfg.cli_method,
            &cold_truth,
            out,
        ));
        let _ = fs::remove_file(&round);
    }
    let _ = fs::remove_file(&snap);
    let queries = lat.len();
    close_blocks(
        cfg,
        &mut client,
        &inp.loop_areas,
        &loop_truths,
        next,
        inp.weights.is_some(),
        out,
    );

    m.put("setup_s", median(&setups), "s");
    m.put("query_p50_us", quantile(&mut lat, 0.50) * 1e6, "us");
    m.put("query_p99_us", quantile(&mut lat, 0.99) * 1e6, "us");
    m.put("qps_1t", median(&qps1), "1/s");
    m.put("qps_nproc", median(&qpsn), "1/s");
    m.put("save_s", median(&saves), "s");
    if colds.is_empty() {
        return Err(String::from("every cold start failed"));
    }
    m.put("cold_start_s", median(&colds), "s");
    m.put(
        "snapshot_bytes_per_point",
        bytes.len() as f64 / inp.points.len() as f64,
        "B",
    );
    m.put("engine_mb", engine_mb, "MiB");
    Ok(queries as u64)
}

/// The triangulations the Delaunay layer is timed on: the whole point
/// set on a plain engine; on a sharded one, the points inside each
/// shard's MBR, as the engine builds them.
struct Tris {
    tris: Vec<(vaq_geom::Rect, Triangulation<SiteMetric>)>,
    build_s: f64,
}

impl Tris {
    fn build(engine: &Engine, inp: &StaticInputs) -> Tris {
        let regions = match engine {
            Engine::Plain(e) => vec![e.data_bounds()],
            Engine::Sharded(e) => e.shard_mbrs(),
        };
        let mut tris = Vec::new();
        let mut build_s = 0.0;
        for r in regions {
            let (pts, ws): (Vec<Point>, Vec<f64>) = inp
                .points
                .iter()
                .enumerate()
                .filter(|(_, p)| r.contains_point(**p))
                .map(|(i, &p)| (p, inp.weights.as_ref().map_or(0.0, |w| w[i])))
                .unzip();
            let weights = inp.weights.is_some().then_some(ws.as_slice());
            let t = Instant::now();
            let tri = Triangulation::with_site_metric(&pts, weights).expect("finite points");
            build_s += secs_since(t);
            tris.push((r, tri));
        }
        Tris { tris, build_s }
    }

    /// The triangulation that holds `p` (the first whose region does).
    fn at(&self, p: Point) -> &Triangulation<SiteMetric> {
        &self
            .tris
            .iter()
            .find(|(r, _)| r.contains_point(p))
            .unwrap_or(&self.tris[0])
            .1
    }

    fn hidden(&self) -> usize {
        self.tris
            .iter()
            .map(|(_, t)| t.hidden_vertices().len())
            .sum()
    }
}

/// The traced pass: times the benchmark's own calls into each layer's
/// public functions and reads the per-query counters.
pub fn run_trace(
    cfg: &StaticConfig,
    inp: &StaticInputs,
    seconds: f64,
    vaq: &Path,
    work: &Path,
    out: &mut Outcome,
    m: &mut Metrics,
) -> Result<u64, String> {
    let oracle = GridOracle::new(&inp.points);
    let truths: Vec<_> = inp.trace_areas.iter().map(|a| oracle.truth(a)).collect();
    let cold_truth = oracle.truth(&inp.cold_area);
    let engine = Engine::build(cfg, &inp.points, inp.weights.as_deref());

    let tris = Tris::build(&engine, inp);
    let t = Instant::now();
    let rtree =
        vaq_rtree::RTree::bulk_load_with_params(&inp.points, vaq_rtree::DEFAULT_MAX_ENTRIES);
    let rtree_build_s = secs_since(t);
    let probe_store;
    let store = match engine.record_store() {
        Some(s) => s,
        None => {
            probe_store = layers::probe_store(inp.points.len());
            &probe_store
        }
    };

    let mut sums = LayerSums::default();
    let mut client = engine.client();
    warm_up(
        &mut client,
        &cfg.spec,
        &inp.trace_areas[..WARM_UP],
        &truths,
        out,
    );
    let planned = cfg.spec.method.is_auto();
    for (i, area) in inp.trace_areas.iter().enumerate() {
        let truth = &truths[i];
        let (tv, v) = timed(|| client.run(&QuerySpec::voronoi(), area));
        let v = v.answer();
        check(out, truth, &v, &format!("voronoi area {i}"));
        let (tt, tr) = timed(|| client.run(&QuerySpec::traditional(), area));
        let tr = tr.answer();
        check(out, truth, &tr, &format!("traditional area {i}"));
        out.property(tr.stats.candidates == truth.in_mbr, || {
            format!(
                "traditional area {i}: {} candidates, {} points in MBR",
                tr.stats.candidates, truth.in_mbr
            )
        });
        let (ta, au) = timed(|| client.run(&QuerySpec::auto(), area));
        let au = au.answer();
        check(out, truth, &au, &format!("auto area {i}"));
        sums.voronoi(tv, &v.stats);
        sums.traditional(tt, &tr.stats);
        sums.auto(
            ta,
            tv.min(tt),
            au.stats.plan.map(|p| p.method == QueryMethod::Voronoi),
        );
        sums.workload(if planned { &au.stats } else { &v.stats });

        let ip = area.interior_point();
        let tri = tris.at(ip);
        let t = Instant::now();
        std::hint::black_box(tri.nearest_vertex(ip, None));
        sums.locate_s += secs_since(t);
        let t = Instant::now();
        let window = rtree.window(&area.mbr());
        sums.window_s += secs_since(t);
        out.property(window.len() == truth.in_mbr, || {
            format!(
                "rtree window area {i}: {} ids, {} points in MBR",
                window.len(),
                truth.in_mbr
            )
        });
        let in_mbr: Vec<Point> = window.iter().map(|&id| inp.points[id as usize]).collect();
        layers::geom_probe(area, &in_mbr, truth, &mut sums, out);
        layers::payload_probe(store, &window, &mut sums);
    }
    drop(client);
    sums.hidden_sites = tris.hidden();
    sums.delaunay_build_s = tris.build_s;
    drop(tris);
    sums.rtree_build_s = rtree_build_s;
    drop(rtree);

    // Snapshot layer and the cold start's share outside it.
    let (encode_s, bytes) = median_time(SNAPSHOT_REPS, || engine.to_bytes());
    let snap = work.join(format!("{}.snap", cfg.name));
    fs::write(&snap, &bytes).map_err(|e| format!("write snapshot: {e}"))?;
    let sharded = engine.is_sharded();
    let (read_s, _) = median_time(SNAPSHOT_REPS, || fs::read(&snap).map(|b| b.len()));
    let (validate_s, info) = median_time(5, || snapshot::inspect_bytes(&bytes).map(|i| i.file_len));
    out.op(info.is_ok(), || format!("inspect_bytes: {:?}", info.err()));
    let (decode_s, decoded) = median_time(SNAPSHOT_REPS, || Engine::decode(sharded, &bytes));
    let decoded = decoded.map_err(|e| format!("decode: {e}"))?;
    let (first_s, first) = timed(|| decoded.client().run(&cfg.spec, &inp.cold_area));
    check(out, &cold_truth, &first.answer(), "decoded engine");
    drop(decoded);
    let wkt = work.join(format!("{}.wkt", cfg.name));
    fs::write(&wkt, polygon_to_wkt(&inp.cold_area)).map_err(|e| e.to_string())?;
    let colds: Vec<f64> = (0..3)
        .filter_map(|_| checked_cold_start(vaq, &snap, &wkt, cfg.cli_method, &cold_truth, out))
        .collect();
    if colds.is_empty() {
        return Err(String::from("every cold start failed"));
    }
    let cold_s = median(&colds);
    let _ = fs::remove_file(&snap);

    let qps1 = batch_phase(
        &engine,
        &cfg.spec,
        &inp.trace_areas,
        &truths,
        1,
        0.1 * seconds,
        out,
    );
    let qpsn = batch_phase(
        &engine,
        &cfg.spec,
        &inp.trace_areas,
        &truths,
        nproc(),
        0.1 * seconds,
        out,
    );

    let n = inp.points.len().min(100_000);
    let mut overlay = LayerSums::default();
    let dynamic = layers::dynamic_probe(
        &inp.points[..n],
        inp.weights.as_ref().map(|w| &w[..n]),
        &inp.trace_areas,
        &mut overlay,
        out,
    );
    close_blocks(
        cfg,
        &mut engine.client(),
        &inp.trace_areas,
        &truths,
        0,
        inp.weights.is_some(),
        out,
    );
    drop(engine);

    sums.report(m, inp.trace_areas.len());
    overlay.report_overlay(m);
    m.put(
        "batch.parallel_efficiency",
        qpsn / (nproc() as f64 * qps1),
        "ratio",
    );
    dynamic.report(m);
    m.put("snapshot.encode_s", encode_s, "s");
    m.put("snapshot.read_s", read_s, "s");
    m.put("snapshot.validate_us", validate_s * 1e6, "us");
    m.put("snapshot.decode_s", decode_s, "s");
    m.put("cli.process_s", cold_s - (read_s + decode_s + first_s), "s");
    Ok(inp.trace_areas.len() as u64)
}

/// Runs `f` once and returns its wall time in seconds with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let r = f();
    (secs_since(t), r)
}
