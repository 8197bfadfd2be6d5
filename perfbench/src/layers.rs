//! Per-layer accounting of the traced pass: the benchmark's own timed
//! calls into each layer's public functions, and sums of the per-query
//! `QueryStats` counters.

use crate::oracle::{LiveOracle, Truth};
use crate::util::{secs_since, Metrics, Outcome, Rng};
use std::hint::black_box;
use std::time::Instant;
use vaq_core::{DynamicAreaQueryEngine, QuerySpec, QueryStats, RecordStore};
use vaq_geom::{Point, Polygon, PreparedPolygon, Rect};

/// Sums over the traced queries and probes of one run.
#[derive(Default)]
pub struct LayerSums {
    pub delaunay_build_s: f64,
    pub hidden_sites: usize,
    pub locate_s: f64,
    pub rtree_build_s: f64,
    pub window_s: f64,
    pub prepare_s: f64,
    pub contains_s: f64,
    pub contains_calls: usize,
    pub payload_s: f64,
    pub payload_reads: usize,
    voronoi: Method,
    traditional: Method,
    auto_s: f64,
    /// Σ per-query min(voronoi, traditional) time: the per-query oracle.
    best_s: f64,
    auto_n: usize,
    auto_voronoi: usize,
    /// Counters of the queries the workload itself runs.
    wl: QueryStats,
    wl_n: usize,
}

/// Time and counters of one fixed method over the traced areas.
#[derive(Default)]
struct Method {
    s: f64,
    n: usize,
    stats: QueryStats,
}

impl Method {
    fn add(&mut self, s: f64, st: &QueryStats) {
        self.s += s;
        self.n += 1;
        self.stats.absorb_shard(st);
    }

    fn per(&self, v: usize) -> f64 {
        v as f64 / self.n.max(1) as f64
    }
}

impl LayerSums {
    pub fn voronoi(&mut self, s: f64, st: &QueryStats) {
        self.voronoi.add(s, st);
    }

    pub fn traditional(&mut self, s: f64, st: &QueryStats) {
        self.traditional.add(s, st);
    }

    /// One planned query: its time, the better fixed method's time, and
    /// whether the plan chose the Voronoi method.
    pub fn auto(&mut self, s: f64, best: f64, chose_voronoi: Option<bool>) {
        self.auto_s += s;
        self.best_s += best;
        self.auto_n += 1;
        self.auto_voronoi += usize::from(chose_voronoi == Some(true));
    }

    /// The counters of one query of the workload's own spec.
    pub fn workload(&mut self, st: &QueryStats) {
        self.wl.absorb_shard(st);
        self.wl.shards_visited += st.shards_visited;
        self.wl.shards_pruned += st.shards_pruned;
        self.wl_n += 1;
    }

    /// The prepared-area cache's hit rate and the delta points scanned per
    /// query, over the queries added with [`LayerSums::workload`].
    pub fn report_overlay(&self, m: &mut Metrics) {
        m.put(
            "query.cache_hit_rate",
            self.wl.prepared_cache.hit_rate(),
            "ratio",
        );
        m.put(
            "dynamic.delta_scanned_per_query",
            self.per_query(self.wl.delta_scanned),
            "count",
        );
    }

    fn per_query(&self, v: usize) -> f64 {
        v as f64 / self.wl_n.max(1) as f64
    }

    /// Puts every per-layer metric these sums carry; `probes` is the
    /// number of areas the layer probes ran on.
    pub fn report(&self, m: &mut Metrics, probes: usize) {
        let per_probe = |s: f64| s / probes.max(1) as f64;
        let wl = &self.wl;
        let per_q = |v: u64| v as f64 / self.wl_n.max(1) as f64;
        m.put("delaunay.build_s", self.delaunay_build_s, "s");
        m.put("delaunay.locate_us", per_probe(self.locate_s) * 1e6, "us");
        m.put("delaunay.hidden_sites", self.hidden_sites as f64, "count");
        m.put("rtree.build_s", self.rtree_build_s, "s");
        m.put("rtree.window_us", per_probe(self.window_s) * 1e6, "us");
        m.put("rtree.nodes_per_query", per_q(wl.index.nodes()), "count");
        m.put(
            "kdtree.hidden_examined_per_query",
            self.per_query(wl.hidden_examined),
            "count",
        );
        m.put(
            "kdtree.hidden_pruned_per_query",
            self.per_query(wl.hidden_pruned),
            "count",
        );
        m.put("geom.prepare_us", per_probe(self.prepare_s) * 1e6, "us");
        m.put(
            "geom.contains_ns",
            self.contains_s / self.contains_calls.max(1) as f64 * 1e9,
            "ns",
        );
        m.put(
            "geom.filter_accepts_per_query",
            per_q(wl.predicates.filter_fast_accepts),
            "count",
        );
        m.put(
            "geom.exact_fallbacks_per_query",
            per_q(wl.predicates.exact_fallbacks),
            "count",
        );
        let v = &self.voronoi;
        m.put("voronoi.query_us", v.s / v.n.max(1) as f64 * 1e6, "us");
        m.put(
            "voronoi.candidates_per_query",
            v.per(v.stats.candidates),
            "count",
        );
        m.put(
            "voronoi.redundant_per_query",
            v.per(v.stats.candidates - v.stats.accepted),
            "count",
        );
        m.put(
            "voronoi.segment_tests_per_query",
            v.per(v.stats.segment_tests as usize),
            "count",
        );
        m.put(
            "voronoi.cell_tests_per_query",
            v.per(v.stats.cell_tests as usize),
            "count",
        );
        let t = &self.traditional;
        m.put("traditional.query_us", t.s / t.n.max(1) as f64 * 1e6, "us");
        m.put(
            "traditional.candidates_per_query",
            t.per(t.stats.candidates),
            "count",
        );
        m.put(
            "traditional.redundant_per_query",
            t.per(t.stats.candidates - t.stats.accepted),
            "count",
        );
        m.put(
            "payload.read_ns",
            self.payload_s / self.payload_reads.max(1) as f64 * 1e9,
            "ns",
        );
        m.put(
            "plan.voronoi_share",
            self.auto_voronoi as f64 / self.auto_n.max(1) as f64,
            "ratio",
        );
        m.put("plan.regret", self.auto_s / self.best_s, "ratio");
        m.put(
            "shard.visited_per_query",
            self.per_query(wl.shards_visited),
            "count",
        );
        m.put(
            "shard.pruned_per_query",
            self.per_query(wl.shards_pruned),
            "count",
        );
    }
}

/// Times `PreparedPolygon::new` on `area` and `contains` over `in_mbr`
/// (the points of the area's MBR), and checks the count against the
/// oracle.
pub fn geom_probe<I>(
    area: &Polygon,
    in_mbr: &[Point],
    truth: &Truth<I>,
    sums: &mut LayerSums,
    out: &mut Outcome,
) {
    let copy = area.clone();
    let t = Instant::now();
    let prepared = PreparedPolygon::new(copy);
    sums.prepare_s += secs_since(t);
    let t = Instant::now();
    let inside = in_mbr.iter().filter(|&&p| prepared.contains(p)).count();
    sums.contains_s += secs_since(t);
    sums.contains_calls += in_mbr.len();
    let (lo, hi) = (
        truth.inside.len(),
        truth.inside.len() + truth.undecided.len(),
    );
    out.op((lo..=hi).contains(&inside), || {
        format!("PreparedPolygon::contains counted {inside}, oracle {lo}..={hi}")
    });
}

/// Records the payload probe reads on engines that hold no records.
pub const PROBE_RECORDS: usize = 100_000;
const PROBE_RECORD_BYTES: usize = 1024;

/// A 1 KiB-record store for the payload probe of workloads whose engine
/// holds no records, at most [`PROBE_RECORDS`] records.
pub fn probe_store(points: usize) -> RecordStore {
    RecordStore::generate(points.clamp(1, PROBE_RECORDS), PROBE_RECORD_BYTES, 0x5EED)
}

/// Times `RecordStore::read` over `ids` (reduced modulo the store size).
pub fn payload_probe(store: &RecordStore, ids: &[u32], sums: &mut LayerSums) {
    let len = store.len() as u32;
    let t = Instant::now();
    let mut acc = 0u64;
    for &id in ids {
        acc = acc.wrapping_add(store.read(id % len));
    }
    black_box(acc);
    sums.payload_s += secs_since(t);
    sums.payload_reads += ids.len();
}

/// The dynamic layer's write path: time of each `insert`, `remove` and
/// fired `maybe_compact`.
#[derive(Default)]
pub struct DynamicLayer {
    pub insert_s: f64,
    pub inserts: usize,
    pub remove_s: f64,
    pub removes: usize,
    pub compact_s: f64,
    pub compactions: usize,
}

impl DynamicLayer {
    pub fn report(&self, m: &mut Metrics) {
        m.put(
            "dynamic.insert_ns",
            self.insert_s / self.inserts.max(1) as f64 * 1e9,
            "ns",
        );
        m.put(
            "dynamic.remove_ns",
            self.remove_s / self.removes.max(1) as f64 * 1e9,
            "ns",
        );
        m.put(
            "dynamic.compact_s",
            self.compact_s / self.compactions.max(1) as f64,
            "s",
        );
    }
}

/// Writes between two queries of the dynamic probe.
const PROBE_QUERY_EVERY: usize = 1000;

/// The dynamic layer on a workload whose own engine is static: a
/// dynamic engine over `points` (the first 10⁵ of the workload) takes
/// inserts and removes until one compaction has fired; every
/// [`PROBE_QUERY_EVERY`] writes it answers the next of `areas` (cycled,
/// so the prepared-area cache sees repeats) with `QuerySpec::auto()`,
/// checked against the benchmark's own copy of the live set. The
/// queries' counters go to `sums` as the workload's own.
pub fn dynamic_probe(
    points: &[Point],
    weights: Option<&[f64]>,
    areas: &[Polygon],
    sums: &mut LayerSums,
    out: &mut Outcome,
) -> DynamicLayer {
    let mut eng = match weights {
        Some(w) => DynamicAreaQueryEngine::with_weights(points, w),
        None => DynamicAreaQueryEngine::new(points),
    };
    let bounds = Rect::from_points(points.iter().copied());
    let mut live = LiveOracle::new(points);
    let mut rng = Rng::new(0xD1CE);
    let mut d = DynamicLayer::default();
    let mut writes = 0;
    while d.compactions == 0 {
        if rng.unit() < 0.6 {
            let p = Point::new(
                bounds.min.x + rng.unit() * bounds.width(),
                bounds.min.y + rng.unit() * bounds.height(),
            );
            let t = Instant::now();
            let id = eng.insert(p);
            d.insert_s += secs_since(t);
            d.inserts += 1;
            live.insert(id, p);
        } else {
            let id = live.pick(&mut rng);
            let t = Instant::now();
            let removed = eng.remove(id);
            d.remove_s += secs_since(t);
            d.removes += 1;
            out.op(removed, || {
                format!("dynamic probe: remove({id}) of a live id refused")
            });
            live.remove(id);
        }
        writes += 1;
        if writes % PROBE_QUERY_EVERY == 0 {
            let area = &areas[(writes / PROBE_QUERY_EVERY) % areas.len().min(8)];
            let r = eng.execute(&QuerySpec::auto(), area);
            out.answer(&live.truth(area), &r.ids, || {
                String::from("dynamic probe query")
            });
            sums.workload(&r.stats);
        }
        let t = Instant::now();
        if eng.maybe_compact() {
            d.compact_s += secs_since(t);
            d.compactions += 1;
        }
    }
    d
}
