//! The workloads' inputs, all derived from the run's `--seed` and all
//! built before any timed region.

use crate::util::{log_uniform, stratified, Rng};
use vaq_geom::{Point, Polygon};
use vaq_workload::{
    generate, generate_weights, random_query_polygon, unit_space, Distribution, PolygonSpec,
    WeightDistribution,
};

/// Input streams of one run; each gets its own generator.
const POINTS: u64 = 1;
const WEIGHTS: u64 = 2;
const LOOP_AREAS: u64 = 3;
const TRACE_AREAS: u64 = 5;
const COLD_AREA: u64 = 6;

/// Inputs of a workload served by a static (plain or sharded) engine.
pub struct StaticInputs {
    pub points: Vec<Point>,
    /// Site weights (power diagram); `None` for a Euclidean engine.
    pub weights: Option<Vec<f64>>,
    /// The closed loop's areas, in the order the loop visits them;
    /// the batches run consecutive slices of them.
    pub loop_areas: Vec<Polygon>,
    /// The traced pass's areas.
    pub trace_areas: Vec<Polygon>,
    /// The area a cold-started process answers.
    pub cold_area: Polygon,
}

/// `count` star polygons (`random_query_polygon`) whose vertex counts and
/// query sizes are each drawn log-uniformly, stratified so every run has
/// the same spread of both.
///
/// With `block` = g² > 1, each run of `block` consecutive areas also holds
/// one area from every pair of a vertex-count g-quantile and a size
/// g-quantile, so every batch over such a block meets the same mix of
/// light and heavy areas.
pub fn star_areas(
    count: usize,
    block: usize,
    vertices: (usize, usize),
    sizes: (f64, f64),
    rng: &mut Rng,
) -> Vec<Polygon> {
    let g = (block as f64).sqrt().round() as usize;
    assert!(
        g * g == block && count.is_multiple_of(block),
        "blocks of g² areas"
    );
    // Each dimension's strata split into g quantile groups, each in the
    // random order the stratified draw left it.
    let groups = |t: Vec<f64>| -> Vec<Vec<f64>> {
        let mut gs = vec![Vec::new(); g];
        for x in t {
            gs[((x * g as f64) as usize).min(g - 1)].push(x);
        }
        // Popped from the back: reversed, a single group (g = 1) pairs
        // the two draws in order.
        gs.iter_mut().for_each(|v| v.reverse());
        gs
    };
    let (mut gv, mut gs) = (
        groups(stratified(count, rng)),
        groups(stratified(count, rng)),
    );
    let mut draws = Vec::with_capacity(count);
    for _ in 0..count / block {
        let start = draws.len();
        for v in gv.iter_mut() {
            for s in gs.iter_mut() {
                let pop = |g: &mut Vec<f64>| g.pop().expect("count/g draws per group");
                draws.push((pop(v), pop(s)));
            }
        }
        rng.shuffle(&mut draws[start..]);
    }
    draws
        .into_iter()
        .map(|(tv, ts)| {
            let k = log_uniform(vertices.0 as f64, vertices.1 as f64 + 1.0, tv).floor() as usize;
            let spec = PolygonSpec {
                vertices: k.clamp(vertices.0, vertices.1),
                query_size: log_uniform(sizes.0, sizes.1, ts),
                ..PolygonSpec::default()
            };
            random_query_polygon(&unit_space(), &spec, rng.next_u64())
        })
        .collect()
}

/// One star polygon at the geometric middle of the ranges: the area a
/// cold-started process answers.
fn middle_area(vertices: usize, sizes: (f64, f64), rng: &mut Rng) -> Polygon {
    let spec = PolygonSpec {
        vertices,
        query_size: (sizes.0 * sizes.1).sqrt(),
        ..PolygonSpec::default()
    };
    random_query_polygon(&unit_space(), &spec, rng.next_u64())
}

/// `paper`: 10⁵ uniform points with 1 KiB records; new 10-vertex star
/// polygons with query sizes log-uniform over the paper's 1 %–32 %.
pub fn paper(seed: u64) -> StaticInputs {
    const SIZES: (f64, f64) = (0.01, 0.32);
    let points = generate(
        100_000,
        Distribution::Uniform,
        Rng::stream(seed, POINTS).next_u64(),
    );
    StaticInputs {
        points,
        weights: None,
        loop_areas: star_areas(512, 1, (10, 10), SIZES, &mut Rng::stream(seed, LOOP_AREAS)),
        trace_areas: star_areas(96, 1, (10, 10), SIZES, &mut Rng::stream(seed, TRACE_AREAS)),
        cold_area: middle_area(10, SIZES, &mut Rng::stream(seed, COLD_AREA)),
    }
}

/// Clusters (a jittered grid of `GEOFENCE_GRID`² centres), their spread,
/// and the largest site radius of `geofence`. The weighted build's cost
/// climbs steeply with the share of hidden sites; these give about 4 %
/// hidden sites and a set-up of about 4 s on 2 vCPUs.
pub const GEOFENCE_GRID: usize = 16;
pub const GEOFENCE_SIGMA: f64 = 0.02;
pub const GEOFENCE_RADIUS: f64 = 0.0006;

/// `geofence`: 10⁶ points in Gaussian clusters around a jittered grid of
/// centres with uniform `generate_weights`
/// radii; star polygons with 6–1024 vertices and query sizes
/// 0.01 %–1 %, both log-uniform, each centred on a random data point.
///
/// Centres on a jittered grid and areas centred on the data keep the
/// density a query meets alike from seed to seed; with random centres
/// and uniformly placed areas, whether the heavy areas land in a cluster
/// or in empty space moved batch throughput by 2× across seeds.
pub fn geofence(seed: u64) -> StaticInputs {
    const SIZES: (f64, f64) = (1e-4, 1e-2);
    const VERTICES: (usize, usize) = (6, 1024);
    const BLOCK: usize = 16;
    let points = grid_clusters(1_000_000, &mut Rng::stream(seed, POINTS));
    let weights = generate_weights(
        points.len(),
        WeightDistribution::Uniform {
            max_radius: GEOFENCE_RADIUS,
        },
        Rng::stream(seed, WEIGHTS).next_u64(),
    );
    let on_data = |areas: Vec<Polygon>, rng: &mut Rng| -> Vec<Polygon> {
        areas
            .into_iter()
            .map(|a| centred_on(&a, points[rng.below(points.len())]))
            .collect()
    };
    let mut rng = Rng::stream(seed, LOOP_AREAS);
    let loop_areas = on_data(star_areas(4096, BLOCK, VERTICES, SIZES, &mut rng), &mut rng);
    let mut rng = Rng::stream(seed, TRACE_AREAS);
    let trace_areas = on_data(star_areas(256, BLOCK, VERTICES, SIZES, &mut rng), &mut rng);
    let mut rng = Rng::stream(seed, COLD_AREA);
    let cold_area = on_data(vec![middle_area(80, SIZES, &mut rng)], &mut rng).remove(0);
    StaticInputs {
        points,
        weights: Some(weights),
        loop_areas,
        trace_areas,
        cold_area,
    }
}

/// `n` points in Gaussian clusters of spread [`GEOFENCE_SIGMA`] around
/// the centres of a [`GEOFENCE_GRID`]² grid, each centre jittered by up
/// to a quarter cell. A draw outside the unit square is drawn again
/// (clamping would pile points up on the square's edges and corners).
fn grid_clusters(n: usize, rng: &mut Rng) -> Vec<Point> {
    let g = GEOFENCE_GRID;
    let centres: Vec<Point> = (0..g * g)
        .map(|c| {
            let jitter = |rng: &mut Rng| (rng.unit() - 0.5) * 0.5;
            let x = ((c % g) as f64 + 0.5 + jitter(rng)) / g as f64;
            let y = ((c / g) as f64 + 0.5 + jitter(rng)) / g as f64;
            Point::new(x, y)
        })
        .collect();
    (0..n)
        .map(|i| {
            let c = centres[i % centres.len()];
            loop {
                // Box–Muller for a 2-D Gaussian offset.
                let r = GEOFENCE_SIGMA * (-2.0 * (1.0 - rng.unit()).ln()).sqrt();
                let (sin, cos) = (std::f64::consts::TAU * rng.unit()).sin_cos();
                let p = Point::new(c.x + r * cos, c.y + r * sin);
                if (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y) {
                    break p;
                }
            }
        })
        .collect()
}

/// `area` translated so its MBR is centred on `at`, then shifted back
/// inside the unit square.
fn centred_on(area: &Polygon, at: Point) -> Polygon {
    let mbr = area.mbr();
    let shift = |lo: f64, hi: f64, c: f64| {
        let d = c - 0.5 * (lo + hi);
        d.clamp(-lo, 1.0 - hi)
    };
    let (dx, dy) = (
        shift(mbr.min.x, mbr.max.x, at.x),
        shift(mbr.min.y, mbr.max.y, at.y),
    );
    let moved = area
        .vertices()
        .iter()
        .map(|v| Point::new(v.x + dx, v.y + dy))
        .collect();
    Polygon::new(moved).expect("a translated star polygon stays a polygon")
}

/// A fixed input, the same for every seed, in which points coincide:
/// 1000 uniform points followed by repeats of the first ten, with
/// `generate_weights` radii up to [`GEOFENCE_RADIUS`] when weighted, and
/// one 10-vertex star of 5 % size to query. Each run round-trips an
/// engine over it through the snapshot codec.
pub struct Coincident {
    pub points: Vec<Point>,
    pub weights: Option<Vec<f64>>,
    pub area: Polygon,
}

pub fn coincident(weighted: bool) -> Coincident {
    const SEED: u64 = 0xC011_1DE5;
    let mut points = generate(1000, Distribution::Uniform, SEED);
    points.extend_from_within(..10);
    let weights = weighted.then(|| {
        generate_weights(
            points.len(),
            WeightDistribution::Uniform {
                max_radius: GEOFENCE_RADIUS,
            },
            SEED,
        )
    });
    let spec = PolygonSpec {
        vertices: 10,
        query_size: 0.05,
        ..PolygonSpec::default()
    };
    Coincident {
        points,
        weights,
        area: random_query_polygon(&unit_space(), &spec, SEED),
    }
}
