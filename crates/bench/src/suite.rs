//! Workload construction and the cached simulation runs.

use crate::cache::ArchiveCache;
use crate::runner::{FaultPolicy, JobOutcome, RunRecord};
use hsu_datasets::{Dataset, DatasetId};
use hsu_kernels::btree::{BtreeParams, BtreeWorkload};
use hsu_kernels::bvhnn::{BvhnnParams, BvhnnWorkload};
use hsu_kernels::flann::{FlannParams, FlannWorkload};
use hsu_kernels::ggnn::{GgnnParams, GgnnWorkload};
use hsu_kernels::{offloadable_fraction, Variant};
use hsu_sim::config::{GpuConfig, RtCoreKind, SimMode};
use hsu_sim::trace::KernelTrace;
use hsu_sim::{Gpu, SimError, SimReport};

/// Which application a run belongs to (the paper's four workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Graph-based ANN (GGNN).
    Ggnn,
    /// k-d tree ANN (FLANN) — "F" prefix in the figures.
    Flann,
    /// BVH radius ANN — "B" prefix in the figures.
    Bvhnn,
    /// B+-tree key-value store.
    Btree,
}

impl App {
    /// Figure label, including the paper's F/B dataset prefixes.
    pub fn prefix(self) -> &'static str {
        match self {
            App::Ggnn => "",
            App::Flann => "F-",
            App::Bvhnn => "B-",
            App::Btree => "",
        }
    }

    /// Application name.
    pub fn name(self) -> &'static str {
        match self {
            App::Ggnn => "GGNN",
            App::Flann => "FLANN",
            App::Bvhnn => "BVH-NN",
            App::Btree => "B+",
        }
    }
}

/// One application × dataset simulation bundle.
#[derive(Debug)]
pub struct AppRun {
    /// Application.
    pub app: App,
    /// Dataset label (with F-/B- prefix where the paper uses one).
    pub label: String,
    /// Dataset id.
    pub dataset: DatasetId,
    /// HSU-lowered run.
    pub hsu: SimReport,
    /// Baseline (no RT hardware) run.
    pub base: SimReport,
    /// Baseline with offloadable ops stripped (Fig. 7 probe).
    pub stripped: SimReport,
}

impl AppRun {
    /// HSU speedup over the baseline.
    pub fn speedup(&self) -> f64 {
        self.hsu.speedup_over(&self.base)
    }

    /// Offloadable-cycle fraction (Fig. 7).
    pub fn offloadable(&self) -> f64 {
        offloadable_fraction(&self.base, &self.stripped)
    }
}

/// Suite-level knobs.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// SMs to simulate (scaled machine; the paper uses 80).
    pub sms: usize,
    /// Global workload down-scale: 1 = the suite's standard sizes, larger
    /// values shrink datasets/queries proportionally (used by `--quick` and
    /// the test suite).
    pub scale_divisor: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the run matrix (1 = fully sequential). Results
    /// are identical for every value; only wall-time changes.
    pub jobs: usize,
    /// How the simulator advances time. Reports (and therefore every
    /// figure and table) are identical for every mode; only wall-time and
    /// the scheduler counters change.
    pub sim_mode: SimMode,
    /// Inert: nothing reads this field, because every simulation runs on
    /// one thread. It remains only so struct literals that name every
    /// field (`perfbench/src/suite.rs`) keep compiling, and goes away with
    /// the next change to the benchmark.
    pub sim_threads: usize,
    /// Directory for the content-keyed `.hsar` build cache
    /// ([`crate::cache::ArchiveCache`]). `None` (the default) builds cold.
    /// Warm or cold, populated or empty, suite output is byte-identical —
    /// the cache only skips the dataset/index/trace construction work.
    pub archive_dir: Option<std::path::PathBuf>,
    /// Which RT-unit organization the simulated machine uses. A machine
    /// knob, not a workload knob: the archive cache keys pin generator
    /// inputs only, so both organizations share cached traces.
    pub rt_core: RtCoreKind,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            // Every measured row in EXPERIMENTS.md was produced on this
            // 8-SM machine; `simbench` overrides to the larger 32-SM
            // machine (closer to the paper's 80) for the scheduler bench.
            sms: 8,
            scale_divisor: 1,
            seed: 7,
            jobs: 1,
            sim_mode: SimMode::default(),
            sim_threads: 0,
            archive_dir: None,
            rt_core: RtCoreKind::default(),
        }
    }
}

impl SuiteConfig {
    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        SuiteConfig {
            sms: 4,
            scale_divisor: 4,
            ..SuiteConfig::default()
        }
    }

    /// The same configuration with a different worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The same configuration with a different simulation mode.
    pub fn with_sim_mode(mut self, mode: SimMode) -> Self {
        self.sim_mode = mode;
        self
    }

    /// The same configuration with an archive-cache directory attached.
    pub fn with_archive_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.archive_dir = Some(dir.into());
        self
    }

    /// The same configuration with a different RT-unit organization.
    pub fn with_rt_core(mut self, kind: RtCoreKind) -> Self {
        self.rt_core = kind;
        self
    }

    /// The GPU configuration the suite simulates.
    pub fn gpu_config(&self) -> GpuConfig {
        GpuConfig {
            num_sms: self.sms,
            sim_mode: self.sim_mode,
            rt_core: self.rt_core,
            ..GpuConfig::small()
        }
    }

    fn scaled(&self, n: usize) -> usize {
        (n / self.scale_divisor).max(64)
    }
}

/// Standard suite sizes per GGNN dataset: `(points, queries)`. Sizes are
/// simulator-scale (documented in DESIGN.md §2); dimensions and metrics come
/// from the catalog and are exact.
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

/// The three lowered traces of one application × dataset — everything phase
/// B (simulation) and the sensitivity sweeps (Figs. 10/11) need, and exactly
/// what the archive cache stores. A warm run reconstructs these from
/// `.hsar` files without touching the generators or index builders.
#[derive(Debug)]
pub struct AppTraces {
    /// Application.
    pub app: App,
    /// Dataset id.
    pub dataset: DatasetId,
    /// Figure label (with F-/B- prefix where the paper uses one).
    pub label: String,
    /// HSU-lowered trace.
    pub hsu: KernelTrace,
    /// Baseline (no RT hardware) trace.
    pub base: KernelTrace,
    /// Baseline with offloadable ops stripped (Fig. 7 probe).
    pub stripped: KernelTrace,
}

impl AppTraces {
    /// The trace for one lowering variant.
    pub fn trace(&self, v: Variant) -> &KernelTrace {
        match v {
            Variant::Hsu => &self.hsu,
            Variant::Baseline => &self.base,
            Variant::BaselineStripped => &self.stripped,
        }
    }
}

/// The complete workload suite with cached standard-machine runs.
#[derive(Debug)]
pub struct Suite {
    /// Configuration used.
    pub config: SuiteConfig,
    /// The simulated GPU.
    pub gpu: Gpu,
    /// Retained lowered traces per app × dataset, in plan order (GGNN,
    /// then FLANN/BVH-NN interleaved per 3-D set, then B+). The
    /// sensitivity sweeps (Figs. 10/11) re-simulate these.
    pub traces: Vec<AppTraces>,
    /// Cached standard-machine runs for every app × dataset.
    pub runs: Vec<AppRun>,
    /// Per-simulation observability records, in run order (three per
    /// [`AppRun`]: hsu, base, stripped). Render with
    /// [`crate::runner::records_table`].
    pub records: Vec<RunRecord>,
}

/// Workload-construction jobs for phase A of [`Suite::build`]. One job per
/// dataset; the 3-D sets build FLANN and BVH-NN together so the generated
/// point cloud is shared, exactly as the sequential code did.
enum BuildJob {
    Ggnn(DatasetId),
    ThreeD(DatasetId),
    Btree(DatasetId),
}

/// Result of a fault-tolerant suite build: the suite (holding every app ×
/// dataset whose three variants all simulated) plus the per-job dispositions
/// for the partial report.
#[derive(Debug)]
pub struct SuiteBuild {
    /// The suite; under `keep_going`, apps with any failed variant are
    /// dropped from [`Suite::runs`].
    pub suite: Suite,
    /// Per-simulation outcomes in submission order (report values already
    /// moved into the suite). Render with [`crate::runner::outcomes_table`].
    pub outcomes: Vec<JobOutcome<()>>,
}

impl SuiteBuild {
    /// `true` when every simulation produced a report.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(JobOutcome::is_ok)
    }
}

impl Suite {
    /// Builds every workload and simulates the three lowerings.
    ///
    /// This is the expensive entry point (tens of seconds at standard
    /// scale); use [`SuiteConfig::quick`] for smoke tests and
    /// [`SuiteConfig::jobs`] to fan the run matrix across worker threads.
    /// Results are bit-identical for every `jobs` value: construction and
    /// simulation are pure functions of the config, and the runner merges
    /// results in stable key order.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or any simulation fails —
    /// callers that need partial results use [`Suite::build_with_policy`].
    pub fn build(config: SuiteConfig) -> Self {
        match Self::build_with_policy(config, &FaultPolicy::default()) {
            Ok(build) => {
                if let Some(bad) = build.outcomes.iter().find(|o| !o.is_ok()) {
                    let detail = match &bad.result {
                        Err(e) => e.to_string(),
                        Ok(()) => unreachable!("failed outcome without an error"),
                    };
                    panic!("suite build failed at {}: {detail}", bad.key);
                }
                build.suite
            }
            Err(e) => panic!("suite build failed: {e}"),
        }
    }

    /// Fault-tolerant variant of [`Suite::build`]: the simulation matrix
    /// runs under [`crate::runner::run_jobs_ft`], so a panicking, failing,
    /// or timed-out simulation is isolated, retried per `policy`, and — when
    /// `policy.keep_going` is set — reported while the remaining jobs still
    /// run to completion.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the GPU configuration fails
    /// validation (nothing is built or simulated). Per-job failures are
    /// *not* errors; they are reported in [`SuiteBuild::outcomes`].
    pub fn build_with_policy(
        config: SuiteConfig,
        policy: &FaultPolicy,
    ) -> Result<SuiteBuild, SimError> {
        config.gpu_config().validate()?;
        let gpu = Gpu::new(config.gpu_config());

        // Phase A: construct (or load from the archive cache) every
        // lowered trace in parallel. Each job derives everything from
        // `config` — no shared RNG or other mutable state — so results are
        // identical for any worker count, and identical warm or cold.
        let cache = ArchiveCache::new(config.archive_dir.clone());
        let traces = Self::prepare_traces(&config, &cache);
        if cache.enabled() {
            eprintln!(
                "archive cache: {} hits, {} misses ({})",
                cache.hits(),
                cache.misses(),
                config
                    .archive_dir
                    .as_deref()
                    .unwrap_or_else(|| std::path::Path::new("?"))
                    .display()
            );
        }

        // Phase B: the simulation matrix — every (app × dataset × variant)
        // triple is one job with a stable key; reports come back in
        // submission order, so `runs` is identical for any worker count.
        const VARIANTS: [(Variant, &str); 3] = [
            (Variant::Hsu, "hsu"),
            (Variant::Baseline, "base"),
            (Variant::BaselineStripped, "stripped"),
        ];
        let mut sim_jobs = Vec::new();
        for at in &traces {
            for (variant, vname) in VARIANTS {
                let key = format!("{}/{vname}", at.label);
                sim_jobs.push((key.clone(), (key, at, variant)));
            }
        }
        let outs = crate::runner::run_jobs_ft(
            config.jobs,
            policy,
            sim_jobs,
            |_, (key, at, variant), limits| {
                let trace = at.trace(*variant);
                crate::runner::timed_run(key.clone(), || gpu.run_guarded(trace, limits))
            },
        );

        let mut runs = Vec::new();
        let mut records = Vec::new();
        let mut outcomes = Vec::new();
        let mut outs = outs.into_iter();
        for at in &traces {
            // One triple (hsu/base/stripped) per planned app × dataset; the
            // pool returns an outcome for every submitted job.
            let mut triple = Vec::with_capacity(3);
            for _ in 0..VARIANTS.len() {
                let Some(out) = outs.next() else {
                    unreachable!("pool returned an outcome per job");
                };
                triple.push(out);
            }
            let all_ok = triple.iter().all(JobOutcome::is_ok);
            let mut reports = Vec::with_capacity(VARIANTS.len());
            for o in triple {
                let result = match o.result {
                    Ok(v) => {
                        reports.push(v);
                        Ok(())
                    }
                    Err(e) => Err(e),
                };
                outcomes.push(JobOutcome {
                    key: o.key,
                    attempts: o.attempts,
                    status: o.status,
                    result,
                });
            }
            if all_ok {
                let mut reports = reports.into_iter();
                let (Some((hsu, r0)), Some((base, r1)), Some((stripped, r2))) =
                    (reports.next(), reports.next(), reports.next())
                else {
                    unreachable!("all-ok triple yields three reports");
                };
                runs.push(AppRun {
                    app: at.app,
                    label: at.label.clone(),
                    dataset: at.dataset,
                    hsu,
                    base,
                    stripped,
                });
                records.extend([r0, r1, r2]);
            }
        }

        Ok(SuiteBuild {
            suite: Suite {
                config,
                gpu,
                traces,
                runs,
                records,
            },
            outcomes,
        })
    }

    /// Phase A on its own: produce every lowered trace the simulation
    /// matrix consumes, in plan order, consulting `cache` before building.
    /// This is the part of a suite run the archive cache can skip entirely;
    /// `simbench` times it cold vs warm.
    pub fn prepare_traces(config: &SuiteConfig, cache: &ArchiveCache) -> Vec<AppTraces> {
        let mut build_jobs = Vec::new();
        for id in DatasetId::HIGH_DIM {
            build_jobs.push(BuildJob::Ggnn(id));
        }
        for id in DatasetId::THREE_D {
            build_jobs.push(BuildJob::ThreeD(id));
        }
        for id in [DatasetId::BTree1m, DatasetId::BTree10k] {
            build_jobs.push(BuildJob::Btree(id));
        }
        crate::runner::run_jobs(config.jobs, build_jobs, |_, job| {
            build_one(config, cache, job)
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Runs for one application, in dataset order.
    pub fn runs_for(&self, app: App) -> impl Iterator<Item = &AppRun> + '_ {
        self.runs.iter().filter(move |r| r.app == app)
    }

    /// Retained traces for one application, in dataset order.
    pub fn traces_for(&self, app: App) -> impl Iterator<Item = &AppTraces> + '_ {
        self.traces.iter().filter(move |t| t.app == app)
    }

    /// Geometric-mean HSU speedup for one application (the paper reports
    /// per-app averages in §VI-C).
    pub fn mean_speedup(&self, app: App) -> f64 {
        let speedups: Vec<f64> = self.runs_for(app).map(|r| r.speedup()).collect();
        geomean(&speedups)
    }
}

/// Geometric mean; 1.0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The three variant traces of one workload, in the fixed (hsu, base,
/// stripped) order the trace archives use.
fn lower_all(wl: &impl Lowerable) -> [KernelTrace; 3] {
    [
        wl.trace(Variant::Hsu),
        wl.trace(Variant::Baseline),
        wl.trace(Variant::BaselineStripped),
    ]
}

/// The one method every workload shares that phase A needs.
trait Lowerable {
    fn trace(&self, v: Variant) -> KernelTrace;
}

macro_rules! impl_lowerable {
    ($($ty:ty),*) => {$(
        impl Lowerable for $ty {
            fn trace(&self, v: Variant) -> KernelTrace {
                <$ty>::trace(self, v)
            }
        }
    )*};
}
impl_lowerable!(GgnnWorkload, FlannWorkload, BvhnnWorkload, BtreeWorkload);

fn app_traces(app: App, id: DatasetId, traces: Vec<KernelTrace>) -> AppTraces {
    let mut it = traces.into_iter();
    let (Some(hsu), Some(base), Some(stripped)) = (it.next(), it.next(), it.next()) else {
        unreachable!("trace archives carry exactly three variants per app");
    };
    AppTraces {
        app,
        dataset: id,
        label: format!("{}{}", app.prefix(), hsu_datasets::spec(id).abbr),
        hsu,
        base,
        stripped,
    }
}

/// The generated dataset for one suite slot, via the cache when possible.
/// The key pins the generator version, dataset id, seed, and exact size, so
/// a restored dataset is bit-identical to a regenerated one.
fn cached_dataset(cache: &ArchiveCache, id: DatasetId, seed: u64, n: usize) -> Dataset {
    let dkey = format!("hsar-dataset-v1|{id:?}|seed={seed}|n={n}");
    let stem = format!("dataset-{id:?}");
    if let Some(ds) = cache.load_dataset(&stem, &dkey, id) {
        return ds;
    }
    let ds = Dataset::generate_scaled(id, seed, Some(n));
    cache.store_dataset(&stem, &dkey, &ds);
    ds
}

/// Executes one phase-A construction job. Pure function of the config: the
/// parallel build is deterministic because nothing here reads shared state
/// (the archive cache only short-circuits work whose result the key fully
/// determines). Returns the job's [`AppTraces`] in plan order — one entry
/// for GGNN and B+ jobs, `[FLANN, BVH-NN]` for the shared 3-D jobs.
///
/// Cache layering, outermost first: a trace-archive hit skips everything;
/// on a miss the dataset and index archives are consulted before their
/// generators run, and every rebuilt artifact is stored back.
fn build_one(config: &SuiteConfig, cache: &ArchiveCache, job: BuildJob) -> Vec<AppTraces> {
    let seed = config.seed;
    match job {
        BuildJob::Ggnn(id) => {
            let spec = hsu_datasets::spec(id);
            let (points, queries) = ggnn_size(id);
            let n = config.scaled(points);
            let Some(metric) = spec.metric else {
                panic!("ANN dataset {id:?} has no metric");
            };
            let params = GgnnParams {
                points: n,
                dim: spec.dims,
                queries: config.scaled(queries).max(48).min(queries.max(48)),
                metric,
                k: 10,
                ef: 64,
                m: 16,
                seed,
            };
            let tkey = format!("hsar-traces-v1|ggnn|{id:?}|{params:?}");
            let tstem = format!("traces-ggnn-{id:?}");
            let names = ["hsu", "base", "stripped"];
            if let Some(traces) = cache.load_traces(&tstem, &tkey, &names) {
                return vec![app_traces(App::Ggnn, id, traces)];
            }
            let data = cached_dataset(cache, id, seed, n);
            let Some(data) = data.points().cloned() else {
                panic!("GGNN dataset {id:?} is not a point dataset");
            };
            let gcfg = GgnnWorkload::graph_config(&params);
            let gkey = format!("hsar-graph-v1|{id:?}|seed={seed}|n={n}|metric={metric:?}|{gcfg:?}");
            let gstem = format!("graph-{id:?}");
            let graph = cache.load_graph(&gstem, &gkey).unwrap_or_else(|| {
                let graph = hsu_graph::HnswGraph::build(&data, metric, gcfg, seed);
                cache.store_graph(&gstem, &gkey, &graph);
                graph
            });
            let wl = GgnnWorkload::build_with_graph(&params, &data, &graph);
            let traces = lower_all(&wl);
            cache.store_traces(
                &tstem,
                &tkey,
                &names.iter().copied().zip(traces.iter()).collect::<Vec<_>>(),
            );
            vec![app_traces(App::Ggnn, id, traces.into())]
        }
        BuildJob::ThreeD(id) => {
            let spec = hsu_datasets::spec(id);
            let n = config.scaled(spec.scaled_points.min(15_000));
            let queries = config.scaled(4096).max(2048);
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
            let tkey = format!("hsar-traces-v1|3d|{id:?}|{fparams:?}|{bparams:?}");
            let tstem = format!("traces-3d-{id:?}");
            let names = [
                "flann-hsu",
                "flann-base",
                "flann-stripped",
                "bvhnn-hsu",
                "bvhnn-base",
                "bvhnn-stripped",
            ];
            if let Some(mut traces) = cache.load_traces(&tstem, &tkey, &names) {
                let bvhnn = traces.split_off(3);
                return vec![
                    app_traces(App::Flann, id, traces),
                    app_traces(App::Bvhnn, id, bvhnn),
                ];
            }
            let data = cached_dataset(cache, id, seed, n);
            let Some(data) = data.points().cloned() else {
                panic!("3-D dataset {id:?} is not a point dataset");
            };
            let kkey = format!("hsar-kdtree-v1|{id:?}|seed={seed}|n={n}|leaf=4|metric=euclid");
            let kstem = format!("kdtree-{id:?}");
            let tree = cache.load_kdtree(&kstem, &kkey).unwrap_or_else(|| {
                let tree = FlannWorkload::build_tree(&data);
                cache.store_kdtree(&kstem, &kkey, &tree);
                tree
            });
            let fw = FlannWorkload::build_with_tree(&fparams, &data, &tree);
            let bkey = format!(
                "hsar-bvh-v1|{id:?}|seed={seed}|n={n}|flavor={:?}|rs={}",
                bparams.flavor, bparams.radius_scale
            );
            let bstem = format!("bvh-{id:?}");
            let (bvh2, radius) = cache.load_bvh(&bstem, &bkey).unwrap_or_else(|| {
                let (bvh2, radius) = BvhnnWorkload::plan(&bparams, &data);
                cache.store_bvh(&bstem, &bkey, &bvh2, radius);
                (bvh2, radius)
            });
            let bw = BvhnnWorkload::build_with_bvh(&bparams, &data, &bvh2, radius);
            let ftr = lower_all(&fw);
            let btr = lower_all(&bw);
            let all: Vec<(&str, &KernelTrace)> = names
                .iter()
                .copied()
                .zip(ftr.iter().chain(btr.iter()))
                .collect();
            cache.store_traces(&tstem, &tkey, &all);
            vec![
                app_traces(App::Flann, id, ftr.into()),
                app_traces(App::Bvhnn, id, btr.into()),
            ]
        }
        BuildJob::Btree(id) => {
            let spec = hsu_datasets::spec(id);
            let params = BtreeParams {
                keys: config.scaled(spec.scaled_points),
                queries: config.scaled(8192).max(2048),
                branch: 256,
                seed,
            };
            let tkey = format!("hsar-traces-v1|btree|{id:?}|{params:?}");
            let tstem = format!("traces-btree-{id:?}");
            let names = ["hsu", "base", "stripped"];
            if let Some(traces) = cache.load_traces(&tstem, &tkey, &names) {
                return vec![app_traces(App::Btree, id, traces)];
            }
            let (pairs, lookups) = BtreeWorkload::generate_inputs(&params);
            let ikey = format!("hsar-btree-v1|{id:?}|{params:?}");
            let istem = format!("btree-{id:?}");
            let tree = cache.load_btree(&istem, &ikey).unwrap_or_else(|| {
                let tree = hsu_btree::BPlusTree::bulk_build(pairs.clone(), params.branch);
                cache.store_btree(&istem, &ikey, &tree);
                tree
            });
            let wl = BtreeWorkload::build_with_tree(&pairs, &lookups, tree);
            let traces = lower_all(&wl);
            cache.store_traces(
                &tstem,
                &tkey,
                &names.iter().copied().zip(traces.iter()).collect::<Vec<_>>(),
            );
            vec![app_traces(App::Btree, id, traces.into())]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_math() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "two suite builds are slow unoptimized; run with --release"
    )]
    fn parallel_build_matches_sequential() {
        let cfg = SuiteConfig {
            sms: 2,
            scale_divisor: 32,
            ..SuiteConfig::default()
        };
        let seq = Suite::build(cfg.clone());
        let par = Suite::build(cfg.with_jobs(8));
        assert_eq!(seq.runs.len(), par.runs.len());
        for (a, b) in seq.runs.iter().zip(&par.runs) {
            assert_eq!(a.label, b.label);
            assert_eq!(
                a.hsu, b.hsu,
                "{} hsu report drifted under --jobs 8",
                a.label
            );
            assert_eq!(a.base, b.base, "{} base report drifted", a.label);
            assert_eq!(
                a.stripped, b.stripped,
                "{} stripped report drifted",
                a.label
            );
        }
        // Observability records keep stable keys and counters; only
        // wall-times may differ between the two builds.
        assert_eq!(seq.records.len(), par.records.len());
        for (ra, rb) in seq.records.iter().zip(&par.records) {
            assert_eq!(ra.key, rb.key);
            assert_eq!(ra.cycles, rb.cycles);
            assert_eq!(ra.peak_warp_buffer, rb.peak_warp_buffer);
        }
    }

    #[test]
    fn quick_suite_reproduces_paper_ordering() {
        let suite = Suite::build(SuiteConfig::quick());
        // 9 GGNN + 5 FLANN + 5 BVH-NN + 2 B+ = 21 app-dataset runs.
        assert_eq!(suite.runs.len(), 21);
        // Three observability records (hsu/base/stripped) per app run.
        assert_eq!(suite.records.len(), 63);
        // Every HSU run must beat its baseline (Fig. 9: all speedups > 1).
        for r in &suite.runs {
            assert!(
                r.speedup() > 0.95,
                "{} regressed: speedup {:.3}",
                r.label,
                r.speedup()
            );
        }
        // The paper's per-app ordering: BVH-NN > GGNN > FLANN > B+ on
        // average, with B+ the smallest.
        let bvh = suite.mean_speedup(App::Bvhnn);
        let btree = suite.mean_speedup(App::Btree);
        assert!(bvh > btree, "BVH-NN {bvh:.3} !> B+ {btree:.3}");
        // Offloadable fractions are sane.
        for r in &suite.runs {
            let f = r.offloadable();
            assert!((0.0..1.0).contains(&f), "{}: fraction {f}", r.label);
        }
    }
}
