//! The `suite` workload: cold phase A into an empty archive, then
//! `Gpu::run` over every lowered trace (21 app × dataset pairs × the hsu,
//! base and stripped lowerings) on a 32-SM machine in event mode with the
//! baseline RT core.
//!
//! The untraced run calls `Suite::prepare_traces` itself. The traced run
//! replays the same phase A call by call with a span around each layer
//! call, so its traces must hash the same as the untraced run's; a
//! mismatch means the replica drifted from the suite and fails the run.

use std::path::Path;
use std::time::Instant;

use hsu_bench::suite::App;
use hsu_bench::{AppTraces, ArchiveCache, Suite, SuiteConfig};
use hsu_btree::BPlusTree;
use hsu_datasets::{ground_truth_knn, recall_at_k, Dataset, DatasetId, QueryStream};
use hsu_geometry::point::{Metric, PointSet};
use hsu_graph::HnswGraph;
use hsu_kernels::btree::{BtreeParams, BtreeWorkload};
use hsu_kernels::bvhnn::{BvhnnParams, BvhnnWorkload};
use hsu_kernels::flann::{FlannParams, FlannWorkload};
use hsu_kernels::ggnn::{GgnnParams, GgnnWorkload};
use hsu_kernels::Variant;
use hsu_sim::config::{RtCoreKind, SimMode};
use hsu_sim::trace::KernelTrace;
use hsu_sim::{Gpu, SimReport};

use crate::report::Outcome;
use crate::spans::{Tracer, ROOT};
use crate::stats::{mean, median, pct};
use crate::{Args, Size};

const VARIANTS: [(Variant, &str); 3] = [
    (Variant::Hsu, "hsu"),
    (Variant::Baseline, "base"),
    (Variant::BaselineStripped, "stripped"),
];

/// Per app: its span key, its speedup and paper-gap metrics, and the mean
/// HSU speedup the paper reports (EXPERIMENTS.md, Fig. 9).
struct AppInfo {
    app: App,
    key: &'static str,
    speedup: &'static str,
    gap: &'static str,
    paper: f64,
}

const APPS: [AppInfo; 4] = [
    AppInfo {
        app: App::Ggnn,
        key: "ggnn",
        speedup: "hsu_speedup.ggnn",
        gap: "paper_gap.ggnn",
        paper: 1.248,
    },
    AppInfo {
        app: App::Flann,
        key: "flann",
        speedup: "hsu_speedup.flann",
        gap: "paper_gap.flann",
        paper: 1.164,
    },
    AppInfo {
        app: App::Bvhnn,
        key: "bvhnn",
        speedup: "hsu_speedup.bvhnn",
        gap: "paper_gap.bvhnn",
        paper: 1.339,
    },
    AppInfo {
        app: App::Btree,
        key: "btree",
        speedup: "hsu_speedup.btree",
        gap: "paper_gap.btree",
        paper: 1.135,
    },
];

fn app_key(app: App) -> &'static str {
    APPS.iter().find(|a| a.app == app).map_or("?", |a| a.key)
}

/// Machine and scale. The 1/16 scale keeps three cold phase-A set-ups
/// plus three simulation passes under a minute; the suite's size floors
/// keep the simulated work close to `--quick`'s.
pub fn config(seed: u64, size: Size) -> (SuiteConfig, usize) {
    let (sms, scale_divisor, setups) = match size {
        Size::Full => (32, 16, 3),
        Size::Smoke => (4, 64, 1),
    };
    let cfg = SuiteConfig {
        sms,
        scale_divisor,
        seed,
        jobs: 1,
        sim_mode: SimMode::Event,
        sim_threads: 0,
        archive_dir: None,
        rt_core: RtCoreKind::Baseline,
    };
    (cfg, setups)
}

/// FNV-1a-64 of each trace's `.hsut` bytes, folded in plan order.
fn hash_traces(traces: &[AppTraces]) -> u64 {
    let mut buf = Vec::new();
    let mut hashes = Vec::new();
    for at in traces {
        for (v, _) in VARIANTS {
            buf.clear();
            hsu_sim::trace_io::write_trace(at.trace(v), &mut buf).expect("writing to a Vec");
            hashes.push(hsu_archive::fnv1a64(&buf));
        }
    }
    hsu_serve::prelude::combine_hashes(hashes)
}

fn warps_of(trace: &KernelTrace) -> u64 {
    trace.thread_count().div_ceil(32) as u64
}

/// One `Gpu::run`, timed; `None` for a failed simulation.
fn sim_one(
    gpu: &Gpu,
    at: &AppTraces,
    v: Variant,
    vname: &str,
) -> (Option<SimReport>, Instant, Instant) {
    let start = Instant::now();
    let r = gpu.run(at.trace(v));
    let end = Instant::now();
    let r = r.map_err(|e| eprintln!("{}/{vname}: {e}", at.label)).ok();
    (r, start, end)
}

/// Every trace and variant once, in plan order, with each run's wall.
fn simulate(gpu: &Gpu, traces: &[AppTraces]) -> (Vec<Option<SimReport>>, Vec<f64>) {
    let mut reports = Vec::new();
    let mut walls = Vec::new();
    for at in traces {
        for (v, vname) in VARIANTS {
            let (r, start, end) = sim_one(gpu, at, v, vname);
            walls.push((end - start).as_secs_f64());
            reports.push(r);
        }
    }
    (reports, walls)
}

pub fn run(args: &Args, work: &Path, o: &mut Outcome) {
    let (cfg, setups) = config(args.seed, args.size);
    o.note("config", format!("{cfg:?}"));
    let gpu = Gpu::new(cfg.gpu_config());
    if args.trace {
        run_traced(args, &cfg, &gpu, work, o);
    } else {
        run_untraced(&cfg, setups, args.seconds, &gpu, work, o);
    }
}

/// Run length one simulation pass is budgeted. A pass takes 9-14 s on a
/// 2-vCPU VM, so three passes and three cold set-ups (about 12 s) make a
/// run at 30 s take about 50 s.
const PASS_SECONDS: f64 = 10.0;

/// Untraced simulation passes for a run of `seconds`: at least one.
fn sim_passes(seconds: f64) -> usize {
    ((seconds / PASS_SECONDS) as usize).max(1)
}

fn cold_prepare(cfg: &SuiteConfig, dir: &Path) -> Vec<AppTraces> {
    let _ = std::fs::remove_dir_all(dir);
    let traces = Suite::prepare_traces(cfg, &ArchiveCache::new(Some(dir.to_path_buf())));
    let _ = std::fs::remove_dir_all(dir);
    traces
}

fn run_untraced(
    cfg: &SuiteConfig,
    setups: usize,
    seconds: f64,
    gpu: &Gpu,
    work: &Path,
    o: &mut Outcome,
) {
    let mut setup_s = Vec::new();
    let mut traces = Vec::new();
    let mut first_hash = None;
    for rep in 0..setups {
        drop(std::mem::take(&mut traces));
        let start = Instant::now();
        traces = cold_prepare(cfg, &work.join(format!("archive-{rep}")));
        setup_s.push(start.elapsed().as_secs_f64());
        let h = hash_traces(&traces);
        let first = *first_hash.get_or_insert(h);
        o.check(h == first, || {
            format!("set-up {rep} built different traces")
        });
    }
    o.set("setup_s", median(&setup_s));
    eprintln!("suite: {} traces, set-up {setup_s:?} s", traces.len() * 3);

    // The pass count follows `--seconds`, never measured speed, so a
    // faster program runs as many passes as its parent. Each trace's
    // wall is its median over the passes, which keeps a host stall during
    // one pass out of the figure; every pass must repeat the first's
    // reports.
    let passes = sim_passes(seconds);
    let (reports, first) = simulate(gpu, &traces);
    let mut walls = vec![first];
    for pass in 1..passes {
        let (again, w) = simulate(gpu, &traces);
        o.check(again == reports, || {
            format!("simulation pass {pass} gave other reports than pass 0")
        });
        walls.push(w);
    }
    let sim_wall_s: f64 = (0..reports.len())
        .map(|i| median(&walls.iter().map(|w| w[i]).collect::<Vec<_>>()))
        .sum();
    check_reports(&traces, &reports, o);
    check_oracle(cfg, &traces, &reports, o);

    o.set("throughput_per_s", reports.len() as f64 / sim_wall_s);
    o.attempted += (passes * reports.len()) as u64;
    o.failed += (passes * reports.iter().filter(|r| r.is_none()).count()) as u64;
    eprintln!(
        "suite: {passes} passes, pass walls {:.3?} s, sim_wall_s {sim_wall_s:.3}, \
         hsu_speedup_geomean {:.4}",
        walls
            .iter()
            .map(|w| w.iter().sum::<f64>())
            .collect::<Vec<_>>(),
        speedups(&traces, &reports).0
    );
}

fn run_traced(args: &Args, cfg: &SuiteConfig, gpu: &Gpu, work: &Path, o: &mut Outcome) {
    // Phase A untraced twice (the suite's own call), then traced (the
    // replica). The first call also pays the process's first touch of its
    // memory, so the overhead compares the traced call with the second.
    let untraced_hash = hash_traces(&cold_prepare(cfg, &work.join("archive-untraced")));
    let start = Instant::now();
    drop(cold_prepare(cfg, &work.join("archive-untraced")));
    let prepare_u = start.elapsed().as_secs_f64();
    let tracer = Tracer::new(Instant::now());
    let dir = work.join("archive-traced");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ArchiveCache::new(Some(dir.clone()));
    let start = Instant::now();
    let root = tracer.open("suite.prepare", ROOT, 0);
    let mut bytes = 0u64;
    let mut graphs = Vec::new();
    let traces = prepare_traced(cfg, &cache, &tracer, root, &mut bytes, &mut graphs);
    tracer.close(root);
    let prepare_t = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);

    // Each simulation untraced and traced back to back, alternating which
    // goes first, so host drift cancels out of the overhead.
    let root = tracer.open("suite.simulate", ROOT, 0);
    let (mut reports, mut traced_reports, mut walls_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sim_u, mut sim_t) = (0.0, 0.0);
    for (i, at) in traces.iter().enumerate() {
        for (j, (v, vname)) in VARIANTS.into_iter().enumerate() {
            let untraced = || sim_one(gpu, at, v, vname);
            let traced = || {
                let (r, start, end) = sim_one(gpu, at, v, vname);
                let name = format!("sim.run.{}.{vname}", app_key(at.app));
                tracer.record(name, root, i as u64, start, end);
                (r, start, end)
            };
            let (u, t) = if (i + j) % 2 == 0 {
                let u = untraced();
                (u, traced())
            } else {
                let t = traced();
                (untraced(), t)
            };
            let wall_u = (u.2 - u.1).as_secs_f64();
            walls_us.push(wall_u * 1e6);
            sim_u += wall_u;
            sim_t += (t.2 - t.1).as_secs_f64();
            reports.push(u.0);
            traced_reports.push(t.0);
        }
    }
    tracer.close(root);
    o.set("latency.p50_us", pct(&walls_us, 50.0));
    o.set("latency.p99_us", pct(&walls_us, 99.0));
    let (untraced_s, traced_s) = (prepare_u + sim_u, prepare_t + sim_t);

    o.check(hash_traces(&traces) == untraced_hash, || {
        "traced phase A built other traces than Suite::prepare_traces".into()
    });
    o.check(traced_reports == reports, || {
        "traced simulations gave other reports".into()
    });
    check_reports(&traces, &reports, o);
    check_oracle(cfg, &traces, &reports, o);
    o.attempted += 2 * reports.len() as u64;
    o.failed += 2 * reports.iter().filter(|r| r.is_none()).count() as u64;

    let spans = tracer.take();
    let self_s = crate::spans::self_seconds_by_name(&spans);
    let get = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    for (metric, span) in [
        ("datasets.generate_s", "datasets.generate"),
        ("graph.build_s", "graph.build"),
        ("kdtree.build_s", "kdtree.build"),
        ("bvh.build_s", "bvh.build"),
        ("btree.build_s", "btree.build"),
        ("kernels.execute_s.ggnn", "kernels.execute.ggnn"),
        ("kernels.execute_s.flann", "kernels.execute.flann"),
        ("kernels.execute_s.bvhnn", "kernels.execute.bvhnn"),
        ("kernels.execute_s.btree", "kernels.execute.btree"),
        ("kernels.lower_s", "kernels.lower"),
        ("archive.write_s", "archive.write"),
    ] {
        o.set(metric, get(span));
    }
    let sum_runs = |pred: &dyn Fn(&str) -> bool| -> f64 {
        self_s
            .iter()
            .filter(|(k, _)| k.starts_with("sim.run.") && pred(k))
            .map(|(_, v)| v)
            .sum()
    };
    let sim_s = sum_runs(&|_| true);
    for (metric, key) in [
        ("sim.run_s.ggnn", ".ggnn."),
        ("sim.run_s.flann", ".flann."),
        ("sim.run_s.bvhnn", ".bvhnn."),
        ("sim.run_s.btree", ".btree."),
    ] {
        o.set(metric, sum_runs(&|k| k.contains(key)));
    }
    for (metric, key) in [
        ("sim.run_s.hsu", ".hsu"),
        ("sim.run_s.base", ".base"),
        ("sim.run_s.stripped", ".stripped"),
    ] {
        o.set(metric, sum_runs(&|k| k.ends_with(key)));
    }
    o.set("archive.bytes_written", bytes as f64);
    let all: Vec<&KernelTrace> = traces
        .iter()
        .flat_map(|at| VARIANTS.map(|(v, _)| at.trace(v)))
        .collect();
    o.set(
        "kernels.trace_warps",
        all.iter().map(|t| warps_of(t)).sum::<u64>() as f64,
    );
    o.set(
        "kernels.trace_ops",
        all.iter().map(|t| t.total_instructions()).sum::<u64>() as f64,
    );
    model_metrics(&traces, &reports, sim_s, o);
    graph_metrics(cfg.seed, &graphs, o);
    o.set("trace.overhead_s", traced_s - untraced_s);
    eprintln!(
        "suite: phase A untraced {prepare_u:.3} s, traced {prepare_t:.3} s; \
         simulation untraced {sim_u:.3} s, traced {sim_t:.3} s"
    );

    let path = args.out.join(format!("spans-suite-seed{}.tsv", args.seed));
    match crate::spans::write_tsv(&path, &spans) {
        Ok(()) => o.note("span_file", path.display()),
        Err(e) => o.check(false, || format!("writing {}: {e}", path.display())),
    }
}

/// Every report retires every warp of its trace.
fn check_reports(traces: &[AppTraces], reports: &[Option<SimReport>], o: &mut Outcome) {
    let mut i = 0;
    for at in traces {
        for (v, vname) in VARIANTS {
            if let Some(r) = &reports[i] {
                let want = warps_of(at.trace(v));
                o.check(r.warps_retired == want, || {
                    format!(
                        "{}/{vname}: retired {} of {want} warps",
                        at.label, r.warps_retired
                    )
                });
            }
            i += 1;
        }
    }
}

/// The three smallest traces (by instruction count, so the sample is
/// fixed by the inputs) re-run on the stepped oracle must give the same
/// report up to the scheduler counters.
fn check_oracle(
    cfg: &SuiteConfig,
    traces: &[AppTraces],
    reports: &[Option<SimReport>],
    o: &mut Outcome,
) {
    let oracle = Gpu::new(cfg.clone().with_sim_mode(SimMode::Stepped).gpu_config());
    let mut by_size: Vec<(u64, usize, &KernelTrace)> = Vec::new();
    for (i, at) in traces.iter().enumerate() {
        for (j, (v, _)) in VARIANTS.iter().enumerate() {
            let t = at.trace(*v);
            by_size.push((t.total_instructions(), i * 3 + j, t));
        }
    }
    by_size.sort_by_key(|&(n, i, _)| (n, i));
    for &(_, i, t) in by_size.iter().take(3) {
        let stepped = oracle.run(t).ok();
        let same = match (&stepped, &reports[i]) {
            (Some(a), Some(b)) => a.normalized() == b.normalized(),
            _ => false,
        };
        o.check(same, || {
            format!(
                "trace {i} ({}): event report differs from stepped",
                t.name()
            )
        });
    }
}

/// Geometric-mean HSU speedup over all app × dataset pairs, and per app
/// in `APPS` order.
fn speedups(traces: &[AppTraces], reports: &[Option<SimReport>]) -> (f64, Vec<f64>) {
    let mut all = Vec::new();
    let mut per_app = vec![Vec::new(); APPS.len()];
    for (i, at) in traces.iter().enumerate() {
        if let (Some(h), Some(b)) = (&reports[3 * i], &reports[3 * i + 1]) {
            let s = h.speedup_over(b);
            all.push(s);
            if let Some(k) = APPS.iter().position(|a| a.app == at.app) {
                per_app[k].push(s);
            }
        }
    }
    let geomean = hsu_bench::suite::geomean;
    (geomean(&all), per_app.iter().map(|v| geomean(v)).collect())
}

/// Modelled components summed over every report, plus host cost per
/// simulated tick.
fn model_metrics(traces: &[AppTraces], reports: &[Option<SimReport>], sim_s: f64, o: &mut Outcome) {
    let ok: Vec<&SimReport> = reports.iter().flatten().collect();
    let sum = |f: &dyn Fn(&SimReport) -> u64| ok.iter().map(|r| f(r)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let ticks = sum(&|r| r.sched.ticks_executed);
    let skipped = sum(&|r| r.sched.cycles_skipped);
    o.set("sim.ticks", ticks);
    o.set("sim.ns_per_tick", ratio(sim_s * 1e9, ticks));
    o.set("sim.skip_fraction", ratio(skipped, ticks + skipped));
    o.set("sim.cycles", sum(&|r| r.cycles));
    o.set("l1.accesses", sum(&|r| r.l1_accesses()));
    o.set(
        "l1.miss_rate",
        ratio(
            sum(&|r| r.memory.l1.misses),
            sum(&|r| r.memory.l1.accesses()),
        ),
    );
    o.set("l1.mshr_stalls", sum(&|r| r.memory.l1.mshr_stalls));
    o.set("l2.accesses", sum(&|r| r.memory.l2.accesses()));
    o.set(
        "l2.miss_rate",
        ratio(
            sum(&|r| r.memory.l2.misses),
            sum(&|r| r.memory.l2.accesses()),
        ),
    );
    o.set("dram.accesses", sum(&|r| r.memory.dram.accesses));
    o.set(
        "dram.row_locality",
        ratio(
            sum(&|r| r.memory.dram.accesses),
            sum(&|r| r.memory.dram.activations),
        ),
    );
    o.set("rt.warp_insts", sum(&|r| r.rt.warp_instructions));
    o.set("rt.dispatch_stalls", sum(&|r| r.rt.dispatch_stalls));
    o.set(
        "rt.occupancy_mean",
        ratio(sum(&|r| r.rt.occupancy_sum), sum(&|r| r.rt.cycles)),
    );
    let hsu: Vec<&SimReport> = reports.iter().step_by(3).flatten().collect();
    let done: u64 = hsu.iter().map(|r| r.rt.pipeline.total_completed()).sum();
    let unit_cycles: u64 = hsu.iter().map(|r| r.cycles * r.num_sms as u64).sum();
    o.set("hsu.ops_per_cycle", ratio(done as f64, unit_cycles as f64));
    let (geo, per_app) = speedups(traces, reports);
    o.set("sim.hsu_speedup_geomean", geo);
    for (info, s) in APPS.iter().zip(per_app) {
        o.set(info.speedup, s);
        o.set(info.gap, (s - info.paper).abs());
    }
}

/// A GGNN set's points and graph, kept from the traced replica.
struct BuiltGraph {
    data: PointSet,
    graph: HnswGraph,
    metric: Metric,
    ef: usize,
}

/// Queries per GGNN set behind the graph search counters.
const GRAPH_SAMPLE: u64 = 64;

/// `HnswGraph::search` work per query and recall@10 against brute force,
/// over a fixed sample of perturbed points from each GGNN set. Recall
/// below `MIN_RECALL` fails the run.
fn graph_metrics(seed: u64, graphs: &[BuiltGraph], o: &mut Outcome) {
    const K: usize = 10;
    const MIN_RECALL: f64 = 0.9;
    let (mut tests, mut hops, mut queries) = (0u64, 0u64, 0u64);
    let mut recalls = Vec::new();
    for g in graphs {
        let stream = QueryStream::new(&g.data, seed);
        let qs: Vec<Vec<f32>> = (0..GRAPH_SAMPLE).map(|i| stream.nth(&g.data, i)).collect();
        let found: Vec<Vec<u32>> = qs
            .iter()
            .map(|q| {
                let (nb, st) = g.graph.search(&g.data, q, K, g.ef);
                tests += st.distance_tests;
                hops += st.hops;
                nb.into_iter().map(|(id, _)| id).collect()
            })
            .collect();
        queries += qs.len() as u64;
        let rows = PointSet::from_rows(g.data.dim(), qs.concat());
        let truth = ground_truth_knn(&g.data, &rows, K, g.metric);
        recalls.push(recall_at_k(&found, &truth, K));
    }
    let recall = mean(&recalls);
    o.check(recall >= MIN_RECALL, || {
        format!("GGNN graph recall@{K} {recall:.4} < {MIN_RECALL}")
    });
    let per_query = |x: u64| x as f64 / queries.max(1) as f64;
    o.set("graph.distance_tests_per_query", per_query(tests));
    o.set("graph.hops_per_query", per_query(hops));
    o.set("graph.recall_at_10", recall);
}

// ---------------------------------------------------------------------
// The traced replica of `Suite::prepare_traces` (cold path, jobs = 1).
// Sizes and archive keys mirror crates/bench/src/suite.rs.
// ---------------------------------------------------------------------

/// `(points, queries)` per GGNN dataset, as the suite sizes them.
fn ggnn_size(id: DatasetId) -> (usize, usize) {
    match id {
        DatasetId::Deep1b => (8000, 192),
        DatasetId::FashionMnist => (2000, 128),
        DatasetId::Mnist => (2000, 128),
        DatasetId::Gist => (1500, 128),
        DatasetId::Glove => (5000, 192),
        DatasetId::LastFm => (6000, 192),
        DatasetId::Nytimes => (4000, 192),
        DatasetId::Sift1m => (6000, 192),
        DatasetId::Sift10k => (3000, 192),
        _ => unreachable!("not a GGNN dataset"),
    }
}

struct Replica<'a> {
    cfg: &'a SuiteConfig,
    cache: &'a ArchiveCache,
    tracer: &'a Tracer,
    parent: u64,
    request: u64,
    bytes: &'a mut u64,
    graphs: &'a mut Vec<BuiltGraph>,
}

impl Replica<'_> {
    fn scaled(&self, n: usize) -> usize {
        (n / self.cfg.scale_divisor).max(64)
    }

    fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.time(name, self.parent, self.request, f)
    }

    fn store(&mut self, stem: &str, key: &str, f: impl FnOnce(&ArchiveCache)) {
        self.time("archive.write", || f(self.cache));
        if let Some(p) = self.cache.path_for(stem, key) {
            *self.bytes += std::fs::metadata(p).map_or(0, |m| m.len());
        }
    }

    fn dataset(&mut self, id: DatasetId, n: usize) -> PointSet {
        let seed = self.cfg.seed;
        let ds = self.time("datasets.generate", || {
            Dataset::generate_scaled(id, seed, Some(n))
        });
        let key = format!("hsar-dataset-v1|{id:?}|seed={seed}|n={n}");
        let stem = format!("dataset-{id:?}");
        self.store(&stem, &key, |c| c.store_dataset(&stem, &key, &ds));
        ds.points().cloned().expect("suite datasets are point sets")
    }

    fn lower(&self, wl: impl Fn(Variant) -> KernelTrace) -> Vec<KernelTrace> {
        VARIANTS
            .iter()
            .map(|(v, _)| self.time("kernels.lower", || wl(*v)))
            .collect()
    }

    fn store_traces(&mut self, stem: &str, key: &str, names: &[&str], traces: &[&KernelTrace]) {
        let named: Vec<(&str, &KernelTrace)> =
            names.iter().copied().zip(traces.iter().copied()).collect();
        self.store(stem, key, |c| c.store_traces(stem, key, &named));
    }

    fn ggnn(&mut self, id: DatasetId) -> Vec<AppTraces> {
        let seed = self.cfg.seed;
        let spec = hsu_datasets::spec(id);
        let (points, queries) = ggnn_size(id);
        let n = self.scaled(points);
        let metric = spec.metric.expect("GGNN datasets have a metric");
        let params = GgnnParams {
            points: n,
            dim: spec.dims,
            queries: self.scaled(queries).max(48).min(queries.max(48)),
            metric,
            k: 10,
            ef: 64,
            m: 16,
            seed,
        };
        let data = self.dataset(id, n);
        let gcfg = GgnnWorkload::graph_config(&params);
        let graph = self.time("graph.build", || {
            HnswGraph::build(&data, metric, gcfg.clone(), seed)
        });
        let gkey = format!("hsar-graph-v1|{id:?}|seed={seed}|n={n}|metric={metric:?}|{gcfg:?}");
        let gstem = format!("graph-{id:?}");
        self.store(&gstem, &gkey, |c| c.store_graph(&gstem, &gkey, &graph));
        let wl = self.time("kernels.execute.ggnn", || {
            GgnnWorkload::build_with_graph(&params, &data, &graph)
        });
        let traces = self.lower(|v| wl.trace(v));
        let tkey = format!("hsar-traces-v1|ggnn|{id:?}|{params:?}");
        let tstem = format!("traces-ggnn-{id:?}");
        let refs: Vec<&KernelTrace> = traces.iter().collect();
        self.store_traces(&tstem, &tkey, &["hsu", "base", "stripped"], &refs);
        self.graphs.push(BuiltGraph {
            data,
            graph,
            metric,
            ef: params.ef,
        });
        vec![app_traces(App::Ggnn, id, traces)]
    }

    fn three_d(&mut self, id: DatasetId) -> Vec<AppTraces> {
        let seed = self.cfg.seed;
        let spec = hsu_datasets::spec(id);
        let n = self.scaled(spec.scaled_points.min(15_000));
        let queries = self.scaled(4096).max(2048);
        let fparams = FlannParams {
            points: n,
            queries,
            k: 5,
            checks: 16,
            seed,
        };
        let bparams = BvhnnParams {
            points: n,
            queries,
            radius_scale: 1.5,
            flavor: Default::default(),
            seed,
        };
        let data = self.dataset(id, n);
        let tree = self.time("kdtree.build", || FlannWorkload::build_tree(&data));
        let kkey = format!("hsar-kdtree-v1|{id:?}|seed={seed}|n={n}|leaf=4|metric=euclid");
        let kstem = format!("kdtree-{id:?}");
        self.store(&kstem, &kkey, |c| c.store_kdtree(&kstem, &kkey, &tree));
        let fw = self.time("kernels.execute.flann", || {
            FlannWorkload::build_with_tree(&fparams, &data, &tree)
        });
        let (bvh2, radius) = self.time("bvh.build", || BvhnnWorkload::plan(&bparams, &data));
        let bkey = format!(
            "hsar-bvh-v1|{id:?}|seed={seed}|n={n}|flavor={:?}|rs={}",
            bparams.flavor, bparams.radius_scale
        );
        let bstem = format!("bvh-{id:?}");
        self.store(&bstem, &bkey, |c| c.store_bvh(&bstem, &bkey, &bvh2, radius));
        let bw = self.time("kernels.execute.bvhnn", || {
            BvhnnWorkload::build_with_bvh(&bparams, &data, &bvh2, radius)
        });
        let ftr = self.lower(|v| fw.trace(v));
        let btr = self.lower(|v| bw.trace(v));
        let tkey = format!("hsar-traces-v1|3d|{id:?}|{fparams:?}|{bparams:?}");
        let tstem = format!("traces-3d-{id:?}");
        let refs: Vec<&KernelTrace> = ftr.iter().chain(btr.iter()).collect();
        let names = [
            "flann-hsu",
            "flann-base",
            "flann-stripped",
            "bvhnn-hsu",
            "bvhnn-base",
            "bvhnn-stripped",
        ];
        self.store_traces(&tstem, &tkey, &names, &refs);
        vec![
            app_traces(App::Flann, id, ftr),
            app_traces(App::Bvhnn, id, btr),
        ]
    }

    fn btree(&mut self, id: DatasetId) -> Vec<AppTraces> {
        let spec = hsu_datasets::spec(id);
        let params = BtreeParams {
            keys: self.scaled(spec.scaled_points),
            queries: self.scaled(8192).max(2048),
            branch: 256,
            seed: self.cfg.seed,
        };
        let (pairs, lookups) = self.time("datasets.generate", || {
            BtreeWorkload::generate_inputs(&params)
        });
        let tree = self.time("btree.build", || {
            BPlusTree::bulk_build(pairs.clone(), params.branch)
        });
        let ikey = format!("hsar-btree-v1|{id:?}|{params:?}");
        let istem = format!("btree-{id:?}");
        self.store(&istem, &ikey, |c| c.store_btree(&istem, &ikey, &tree));
        let wl = self.time("kernels.execute.btree", || {
            BtreeWorkload::build_with_tree(&pairs, &lookups, tree)
        });
        let traces = self.lower(|v| wl.trace(v));
        let tkey = format!("hsar-traces-v1|btree|{id:?}|{params:?}");
        let tstem = format!("traces-btree-{id:?}");
        let refs: Vec<&KernelTrace> = traces.iter().collect();
        self.store_traces(&tstem, &tkey, &["hsu", "base", "stripped"], &refs);
        vec![app_traces(App::Btree, id, traces)]
    }
}

fn app_traces(app: App, id: DatasetId, traces: Vec<KernelTrace>) -> AppTraces {
    let [hsu, base, stripped]: [KernelTrace; 3] =
        traces.try_into().expect("three lowerings per workload");
    AppTraces {
        app,
        dataset: id,
        label: format!("{}{}", app.prefix(), hsu_datasets::spec(id).abbr),
        hsu,
        base,
        stripped,
    }
}

fn prepare_traced(
    cfg: &SuiteConfig,
    cache: &ArchiveCache,
    tracer: &Tracer,
    root: u64,
    bytes: &mut u64,
    graphs: &mut Vec<BuiltGraph>,
) -> Vec<AppTraces> {
    let mut out = Vec::new();
    let jobs = DatasetId::HIGH_DIM
        .iter()
        .map(|&id| (id, 0))
        .chain(DatasetId::THREE_D.iter().map(|&id| (id, 1)))
        .chain([(DatasetId::BTree1m, 2), (DatasetId::BTree10k, 2)]);
    for (request, (id, kind)) in jobs.enumerate() {
        let job = tracer.open("suite.build_job", root, request as u64);
        let mut r = Replica {
            cfg,
            cache,
            tracer,
            parent: job,
            request: request as u64,
            bytes,
            graphs,
        };
        out.extend(match kind {
            0 => r.ggnn(id),
            1 => r.three_d(id),
            _ => r.btree(id),
        });
        tracer.close(job);
    }
    out
}
