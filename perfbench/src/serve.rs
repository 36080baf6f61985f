//! The `serve-graph` and `serve-btree` workloads: an open loop that sends
//! seeded Poisson arrivals to a one-shard, one-worker engine (batch 64).
//! The sending thread is the only other busy thread, so a run keeps at
//! most two cores busy.
//!
//! A run measures latency at one fixed nominal rate, then walks a
//! staircase on a fixed ladder of rates to find the rate at which a probe
//! stops meeting the workload's p99 limit with no refusal, no growing
//! backlog and a sender that kept to its schedule.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hsu_bench::ArchiveCache;
use hsu_btree::BPlusTree;
use hsu_datasets::{ground_truth_knn, QueryStream};
use hsu_datasets::{Dataset, DatasetId};
use hsu_geometry::point::PointSet;
use hsu_graph::{GraphConfig, HnswGraph};
use hsu_kernels::btree::{BtreeParams, BtreeWorkload};
use hsu_serve::batch::QueryBatch;
use hsu_serve::prelude::*;

use crate::report::Outcome;
use crate::schedule::{phase_seed, poisson_schedule, Ladder, Settled, SplitMix64};
use crate::spans::{Tracer, ROOT};
use crate::stats::{mean, median, pct};
use crate::{Args, Size};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Graph,
    Btree,
}

/// Everything that fixes a serve workload; printed as its config.
#[derive(Debug, Clone)]
pub struct Spec {
    pub family: Family,
    /// Indexed points (graph) or keys (btree).
    pub size: usize,
    pub k: usize,
    pub ef: usize,
    pub batch: usize,
    pub queue_capacity: usize,
    /// Offered rate of the latency phase.
    pub nominal_rate: f64,
    /// A ladder rung fails when its p99 exceeds this.
    pub p99_limit_us: f64,
    /// ... or when more queries than arrive in this long are queued over
    /// its second half (the median of its backlog samples there): the
    /// backlog grew.
    pub backlog_limit_s: f64,
    pub ladder: Ladder,
    /// Ladder probes per run; they share 90 % of `--seconds`.
    pub probes: usize,
    /// Latency-phase windows; p50 and p99 are medians over windows, so
    /// one host stall moves one window, not the result.
    pub windows: usize,
    /// Share of `--seconds` an untraced run spends in the latency phase;
    /// the rest is split over `probes` ladder probes, whose result is
    /// the gated metric. A traced run spends half in each of its passes.
    pub latency_share: f64,
    pub setups: usize,
    /// Distinct queries; the stream cycles through them.
    pub pool: usize,
}

impl Spec {
    pub fn new(family: Family, size: Size) -> Spec {
        let smoke = size == Size::Smoke;
        // On a 2-vCPU VM the graph engine tops out near 30-55k queries/s
        // and the btree engine near 0.9-1.2M/s. The latency phase runs at a low
        // rate, where a query rarely waits behind another, so its p50
        // measures hand-off plus search. The ladder spans from about a
        // third of that capacity to about four times it. A busy host stalls
        // a thread for 100 ms and more, so the p99 limit sits above that
        // and the queue can hold such a stall at full rate. Overload shows
        // as a backlog past 20 ms of arrivals over the second half of a
        // probe: 5 % overload grows it by 50 ms a second.
        let ladder = Ladder {
            base: 0.0,
            step: 1.05,
            rungs: 56,
            stride: 8,
        };
        let base = Spec {
            family,
            size: 0,
            k: 10,
            ef: 32,
            batch: 64,
            queue_capacity: 1 << 20,
            nominal_rate: 0.0,
            p99_limit_us: 200_000.0,
            backlog_limit_s: 0.02,
            ladder,
            probes: 24,
            windows: 20,
            latency_share: 0.1,
            setups: 0,
            pool: 0,
        };
        match family {
            Family::Graph => Spec {
                size: if smoke { 500 } else { 2000 },
                nominal_rate: 2_000.0,
                ladder: Ladder {
                    base: 10_000.0,
                    ..ladder
                },
                setups: if smoke { 1 } else { 3 },
                pool: 2048,
                ..base
            },
            Family::Btree => Spec {
                size: if smoke { 10_000 } else { 100_000 },
                nominal_rate: 50_000.0,
                ladder: Ladder {
                    base: 300_000.0,
                    ..ladder
                },
                setups: if smoke { 1 } else { 25 },
                pool: 1 << 16,
                ..base
            },
        }
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            shards: 1,
            workers_per_shard: 1,
            batch: self.batch,
            queue_capacity: self.queue_capacity,
            ..EngineConfig::default()
        }
    }
}

/// A probe fails when the sender took longer than its schedule by more
/// than this share: the engine was then offered less than the rung's rate.
const MIN_SEND_RATIO: f64 = 0.98;

/// The served index plus what the checks need to know about it.
struct Served {
    index: Arc<dyn SearchIndex>,
    pool: Vec<Query>,
    /// Reference answer per key (btree): the last value bulk-loaded under
    /// it, as `BPlusTree::bulk_build` keeps.
    reference: HashMap<u32, u64>,
    data: Option<PointSet>,
}

const GRAPH_SET: DatasetId = DatasetId::Sift10k;

fn btree_params(spec: &Spec, seed: u64) -> BtreeParams {
    BtreeParams {
        keys: spec.size,
        queries: 0,
        branch: 256,
        seed,
    }
}

/// The served index, and the points a graph index serves.
type Opened = (Arc<dyn SearchIndex>, Option<PointSet>);

/// Opens the index the engine serves, through `cache`.
fn open(spec: &Spec, seed: u64, cache: &ArchiveCache) -> Result<Opened, ServeError> {
    Ok(match spec.family {
        Family::Graph => {
            let g = GraphIndex::open(cache, GRAPH_SET, spec.size, seed, spec.k, spec.ef)?;
            let data = g.data().clone();
            (Arc::new(g), Some(data))
        }
        Family::Btree => (Arc::new(BtreeIndex::open(cache, spec.size, seed)), None),
    })
}

/// Cold opens into empty archive directories; returns the last index and
/// each open's wall time.
fn cold_opens(
    spec: &Spec,
    seed: u64,
    work: &Path,
    reps: usize,
) -> Result<(Opened, Vec<f64>), ServeError> {
    let mut walls = Vec::new();
    let mut opened = None;
    for rep in 0..reps {
        drop(opened.take());
        let dir = work.join(format!("index-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        opened = Some(open(spec, seed, &ArchiveCache::new(Some(dir.clone())))?);
        walls.push(start.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok((opened.expect("at least one set-up"), walls))
}

/// Query pool drawn from `--seed`: perturbed dataset points (graph), or
/// keys that are 70 % present and 30 % uniform over the key space
/// (btree), the mix the suite's B+ workload uses.
fn served(spec: &Spec, seed: u64, (index, data): Opened) -> Served {
    let mut rng = SplitMix64::new(phase_seed(seed, 100));
    match data {
        Some(data) => {
            let stream = QueryStream::new(&data, phase_seed(seed, 101));
            let pool = (0..spec.pool as u64)
                .map(|i| Query::Vector(stream.nth(&data, i)))
                .collect();
            Served {
                index,
                pool,
                reference: HashMap::new(),
                data: Some(data),
            }
        }
        None => {
            let (pairs, _) = BtreeWorkload::generate_inputs(&btree_params(spec, seed));
            let reference: HashMap<u32, u64> = pairs.iter().copied().collect();
            let pool = (0..spec.pool)
                .map(|_| {
                    let key = if rng.below(10) < 7 {
                        pairs[rng.below(pairs.len() as u64) as usize].0
                    } else {
                        rng.below(1 << 24) as u32
                    };
                    Query::Key(key)
                })
                .collect();
            Served {
                index,
                pool,
                reference,
                data: None,
            }
        }
    }
}

/// One sent query's fate.
struct Sent {
    pool_ix: usize,
    /// Due time relative to the phase start.
    due: Duration,
    late: Duration,
    admit: Duration,
    result: Result<(QueryOutput, Instant), ServeError>,
}

struct Phase {
    start: Instant,
    sent: Vec<Sent>,
    /// Admitted but not completed, sampled as the sender reaches each
    /// tenth of the schedule; the last sample follows the last send.
    backlog: Vec<u64>,
    /// The schedule's span over the sender's (first due time to last
    /// send): 1 when the sender kept to the schedule, below 1 when it
    /// offered a lower rate than asked.
    send_ratio: f64,
    /// From the first due time to the last completion.
    wall: Duration,
}

impl Phase {
    fn latency_us(&self, s: &Sent) -> Option<f64> {
        s.result.as_ref().ok().map(|(_, done)| {
            done.saturating_duration_since(self.start + s.due)
                .as_secs_f64()
                * 1e6
        })
    }

    fn late_us(&self) -> Vec<f64> {
        self.sent
            .iter()
            .map(|x| x.late.as_secs_f64() * 1e6)
            .collect()
    }

    /// The median backlog sample over the phase's second half: a host
    /// stall that holds the worker at one sample does not read as a queue
    /// that grew, while overload, which grows it steadily, does.
    fn late_backlog(&self) -> f64 {
        let half: Vec<f64> = self.backlog[self.backlog.len() / 2..]
            .iter()
            .map(|&b| b as f64)
            .collect();
        median(&half)
    }

    fn failures(&self) -> u64 {
        self.sent.iter().filter(|s| s.result.is_err()).count() as u64
    }

    fn latencies(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        self.sent[range]
            .iter()
            .filter_map(|s| self.latency_us(s))
            .collect()
    }

    /// p50 and p99 of each of `windows` consecutive slices of the phase.
    fn window_percentiles(&self, windows: usize) -> (Vec<f64>, Vec<f64>) {
        let n = self.sent.len();
        (0..windows)
            .map(|w| {
                let l = self.latencies(w * n / windows..(w + 1) * n / windows);
                (pct(&l, 50.0), pct(&l, 99.0))
            })
            .unzip()
    }
}

/// Spins until `t`, yielding so a worker woken onto this core runs at
/// once, and returns the time it saw. It never sleeps: a sleeping vCPU can
/// take milliseconds to wake, which would show up as sender lateness in
/// every latency.
fn wait_until(t: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= t {
            return now;
        }
        std::hint::spin_loop();
    }
}

/// Backlog samples per phase.
const BACKLOG_SAMPLES: u64 = 10;

/// Sends `due` (ns offsets) on schedule, then redeems every ticket.
fn drive(
    engine: &Engine,
    pool: &[Query],
    due: &[u64],
    first: usize,
    tracer: Option<(&Tracer, u64)>,
) -> Phase {
    let before = engine.stats();
    let in_flight = || {
        let now = engine.stats();
        (now.admitted - before.admitted).saturating_sub(now.completed - before.completed)
    };
    let span = due.last().copied().unwrap_or(0);
    let (mut backlog, mut next_sample) = (Vec::new(), 1);
    let start = Instant::now() + Duration::from_millis(2);
    let mut pending = Vec::with_capacity(due.len());
    for (i, &d) in due.iter().enumerate() {
        let due = Duration::from_nanos(d);
        let due_at = start + due;
        let sent_at = wait_until(due_at);
        let pool_ix = (first + i) % pool.len();
        let query = pool[pool_ix].clone();
        let ticket = engine.try_submit(query);
        let admitted_at = Instant::now();
        if let Some((t, parent)) = tracer {
            t.record("engine.admit", parent, i as u64, sent_at, admitted_at);
        }
        if next_sample < BACKLOG_SAMPLES && d * BACKLOG_SAMPLES >= span * next_sample {
            backlog.push(in_flight());
            next_sample += 1;
        }
        pending.push((
            pool_ix,
            due,
            sent_at - due_at,
            admitted_at - sent_at,
            ticket,
        ));
    }
    backlog.push(in_flight());
    let send_ratio = match (due.last(), pending.last()) {
        (Some(&d), Some((_, _, late, admit, _))) => {
            let sent = d as f64 + (*late + *admit).as_secs_f64() * 1e9;
            if sent > 0.0 {
                d as f64 / sent
            } else {
                1.0
            }
        }
        _ => 1.0,
    };
    let mut last = start;
    let sent = pending
        .into_iter()
        .map(|(pool_ix, due, late, admit, ticket)| {
            let result = ticket.and_then(|t| {
                let (r, done) = t.wait_timed();
                last = last.max(done);
                r.map(|out| (out, done))
            });
            Sent {
                pool_ix,
                due,
                late,
                admit,
                result,
            }
        })
        .collect();
    Phase {
        start,
        sent,
        backlog,
        send_ratio,
        wall: last.saturating_duration_since(start),
    }
}

/// Records every `query_batch` call the engine's worker makes, as
/// `ChaosIndex` wraps an index, without changing any answer.
struct Recorder {
    inner: Arc<dyn SearchIndex>,
    tracer: Arc<Tracer>,
    parent: u64,
    batches: Mutex<Vec<(Instant, Instant, usize)>>,
}

impl SearchIndex for Recorder {
    fn family(&self) -> IndexFamily {
        self.inner.family()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn query_batch(&self, batch: &QueryBatch) -> Vec<QueryOutput> {
        let start = Instant::now();
        let out = self.inner.query_batch(batch);
        let end = Instant::now();
        let mut b = self.batches.lock().expect("batch log poisoned");
        self.tracer
            .record("index.batch", self.parent, b.len() as u64, start, end);
        b.push((start, end, batch.len()));
        out
    }
}

/// Direct answers for the whole pool, 64 queries per `query_batch`.
fn direct_hashes(index: &dyn SearchIndex, pool: &[Query]) -> (Vec<u64>, Vec<QueryOutput>) {
    let mut outs = Vec::with_capacity(pool.len());
    for chunk in pool.chunks(64) {
        let mut b = QueryBatch::new();
        for q in chunk {
            b.push(q);
        }
        outs.extend(index.query_batch(&b));
    }
    (outs.iter().map(hash_output).collect(), outs)
}

/// Served answers must hash as the direct answers do, and every btree
/// answer must be the reference lookup.
fn check_phase(name: &str, s: &Served, direct: &[u64], phase: &Phase, o: &mut Outcome) {
    let ok: Vec<&Sent> = phase.sent.iter().filter(|x| x.result.is_ok()).collect();
    let served = combine_hashes(ok.iter().map(|x| match &x.result {
        Ok((out, _)) => hash_output(out),
        Err(_) => unreachable!("filtered to successes"),
    }));
    let want = combine_hashes(ok.iter().map(|x| direct[x.pool_ix]));
    o.check(served == want, || {
        format!("{name}: served answers differ from direct query_batch answers")
    });
    if s.index.family() == IndexFamily::Btree {
        let wrong = ok
            .iter()
            .filter(|x| {
                let (Query::Key(k), Ok((out, _))) = (&s.pool[x.pool_ix], &x.result) else {
                    return true;
                };
                *out != QueryOutput::Value(s.reference.get(k).copied())
            })
            .count();
        o.check(wrong == 0, || {
            format!("{name}: {wrong} btree answers differ from the reference lookup")
        });
    }
}

/// Recall@k of the direct answers for the first `n` pool queries against
/// brute-force ground truth.
fn recall(spec: &Spec, s: &Served, outs: &[QueryOutput], n: usize) -> f64 {
    let Some(data) = &s.data else { return 1.0 };
    let n = n.min(s.pool.len());
    let mut qs = Vec::with_capacity(n * data.dim());
    for q in &s.pool[..n] {
        if let Query::Vector(v) = q {
            qs.extend_from_slice(v);
        }
    }
    let queries = PointSet::from_rows(data.dim(), qs);
    let metric = hsu_datasets::spec(GRAPH_SET)
        .metric
        .expect("ANN set has a metric");
    let truth = ground_truth_knn(data, &queries, spec.k, metric);
    let mut hit = 0usize;
    for (t, out) in truth.iter().zip(outs) {
        if let QueryOutput::Neighbors(nb) = out {
            hit += nb
                .iter()
                .filter(|(id, _)| t.contains(&(*id as usize)))
                .count();
        }
    }
    hit as f64 / (n * spec.k) as f64
}

/// The floor below which graph answers count as wrong.
const MIN_RECALL: f64 = 0.9;

fn checks_common(spec: &Spec, s: &Served, o: &mut Outcome) -> (Vec<u64>, f64) {
    let (direct, outs) = direct_hashes(s.index.as_ref(), &s.pool);
    let r = recall(spec, s, &outs, 256);
    o.check(r >= MIN_RECALL, || {
        format!("recall@{} {r:.4} < {MIN_RECALL}", spec.k)
    });
    (direct, r)
}

pub fn run(args: &Args, family: Family, work: &Path, o: &mut Outcome) {
    let spec = Spec::new(family, args.size);
    o.note("config", format!("{spec:?}"));
    let result = if args.trace {
        run_traced(args, &spec, work, o)
    } else {
        run_untraced(args, &spec, work, o)
    };
    if let Err(e) = result {
        o.check(false, || format!("opening the index: {e}"));
    }
}

fn latency_schedule(spec: &Spec, args: &Args, seconds: f64) -> Vec<u64> {
    poisson_schedule(phase_seed(args.seed, 1), spec.nominal_rate, seconds)
}

fn run_untraced(args: &Args, spec: &Spec, work: &Path, o: &mut Outcome) -> Result<(), ServeError> {
    let (opened, setup) = cold_opens(spec, args.seed, work, spec.setups)?;
    o.set("setup_s", median(&setup));
    eprintln!("{:?}: cold opens {setup:?} s", spec.family);
    let s = served(spec, args.seed, opened);
    let (direct, _) = checks_common(spec, &s, o);
    let engine = Engine::new(Arc::clone(&s.index), spec.engine_config());

    // Latency at the nominal rate, as medians over windows.
    let due = latency_schedule(spec, args, args.seconds * spec.latency_share);
    let phase = drive(&engine, &s.pool, &due, 0, None);
    check_phase("latency phase", &s, &direct, &phase, o);
    let n = phase.sent.len();
    let (p50s, p99s) = phase.window_percentiles(spec.windows);
    o.note("latency_p50_us", format!("{:.1}", median(&p50s)));
    o.note("latency_p99_us", format!("{:.1}", median(&p99s)));
    // The ladder's ticket logs grow with the rates it reaches; memory is
    // taken before it, so a faster engine does not read as a bigger one.
    o.set("peak_rss_mib", crate::host::peak_rss_mib());
    o.attempted += n as u64;
    o.failed += phase.failures();
    let late = phase.late_us();
    o.note("loadgen_late_p50_us", format!("{:.1}", pct(&late, 50.0)));
    o.note("loadgen_late_p99_us", format!("{:.1}", pct(&late, 99.0)));
    eprintln!(
        "{:?}: {n} queries at {}/s, window p50 {p50s:.0?} us, p99 {p99s:.0?} us, late p99 {:.1} us",
        spec.family,
        spec.nominal_rate,
        pct(&late, 99.0)
    );

    // The ladder: each probe is its own seeded schedule.
    let probe_s = args.seconds * (1.0 - spec.latency_share) / spec.probes as f64;
    let mut offset = n;
    // Over the passing probes: the sender's worst late p99 and lowest
    // send ratio, which show whether the rates passed were really offered.
    let (mut pass_late_p99, mut pass_send_ratio, mut sender_fails) = (0.0f64, 1.0f64, 0);
    let mut attempt = 0;
    let (settled, probed) = spec.ladder.staircase(spec.probes, |rung| {
        let rate = spec.ladder.rate(rung);
        attempt += 1;
        let due = poisson_schedule(phase_seed(args.seed, 1000 + attempt), rate, probe_s);
        let p = drive(&engine, &s.pool, &due, offset, None);
        offset += p.sent.len();
        check_phase("ladder", &s, &direct, &p, o);
        let p99 = pct(&p.latencies(0..p.sent.len()), 99.0);
        let late_p99 = pct(&p.late_us(), 99.0);
        let backlog_ok = p.late_backlog() <= rate * spec.backlog_limit_s;
        let sender_ok = p.send_ratio >= MIN_SEND_RATIO;
        let pass = p.failures() == 0 && p99 <= spec.p99_limit_us && backlog_ok && sender_ok;
        eprintln!(
            "{:?}: rung {rung} {rate}/s p99 {p99:.0} us backlog {} fails {} \
             send ratio {:.4} late p99 {late_p99:.1} us -> {}",
            spec.family,
            p.late_backlog(),
            p.failures(),
            p.send_ratio,
            if pass { "pass" } else { "fail" }
        );
        if pass {
            pass_late_p99 = pass_late_p99.max(late_p99);
            pass_send_ratio = pass_send_ratio.min(p.send_ratio);
        } else {
            sender_fails += u32::from(!sender_ok);
        }
        pass
    });
    // A rate at either end of the ladder is a clipped reading, not a
    // measurement: fail the run rather than print it.
    let top = spec.ladder.rungs - 1;
    match settled {
        Settled::At(rung) => o.set("throughput_per_s", spec.ladder.rate_at(rung)),
        Settled::Below => o.check(false, || {
            format!(
                "ladder out of range: rung 0 ({}/s) fails",
                spec.ladder.rate(0)
            )
        }),
        Settled::Above => o.check(false, || {
            format!(
                "ladder out of range: the top rung ({}/s) passes",
                spec.ladder.rate(top)
            )
        }),
        Settled::Unsettled => o.check(false, || {
            format!("the ladder did not settle in {} probes", spec.probes)
        }),
    }
    o.note("ladder_probes", format!("{probed:?}"));
    o.note("ladder_late_p99_us", format!("{pass_late_p99:.1}"));
    o.note("ladder_send_ratio_min", format!("{pass_send_ratio:.4}"));
    o.note("ladder_sender_fails", sender_fails);
    drop(engine);
    Ok(())
}

/// The traced replica of the cold open: the same calls `GraphIndex::open`
/// / `BtreeIndex::open` make, each in a span, storing under the same
/// archive keys so the real open that follows is an archive hit.
fn open_traced(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    t: &Tracer,
    root: u64,
) -> (u64, Option<HnswGraph>, Option<BPlusTree>) {
    let cache = ArchiveCache::new(Some(dir.to_path_buf()));
    let mut bytes = 0;
    let mut store = |stem: &str, key: &str, f: &dyn Fn(&ArchiveCache)| {
        t.time("archive.write", root, 0, || f(&cache));
        if let Some(p) = cache.path_for(stem, key) {
            bytes += std::fs::metadata(p).map_or(0, |m| m.len());
        }
    };
    match spec.family {
        Family::Graph => {
            let n = spec.size;
            let ds = t.time("datasets.generate", root, 0, || {
                Dataset::generate_scaled(GRAPH_SET, seed, Some(n))
            });
            let dkey = format!("hsar-dataset-v1|{GRAPH_SET:?}|seed={seed}|n={n}");
            let dstem = format!("dataset-{GRAPH_SET:?}");
            store(&dstem, &dkey, &|c| c.store_dataset(&dstem, &dkey, &ds));
            let data = ds.points().cloned().expect("Sift10k is a point set");
            let metric = hsu_datasets::spec(GRAPH_SET)
                .metric
                .expect("ANN set has a metric");
            let gcfg = GraphConfig {
                m: 16,
                ef_construction: spec.ef.max(32),
                ..Default::default()
            };
            let graph = t.time("graph.build", root, 0, || {
                HnswGraph::build(&data, metric, gcfg.clone(), seed)
            });
            let gkey =
                format!("hsar-graph-v1|{GRAPH_SET:?}|seed={seed}|n={n}|metric={metric:?}|{gcfg:?}");
            let gstem = format!("graph-{GRAPH_SET:?}");
            store(&gstem, &gkey, &|c| c.store_graph(&gstem, &gkey, &graph));
            (bytes, Some(graph), None)
        }
        Family::Btree => {
            let params = btree_params(spec, seed);
            let (pairs, _) = t.time("datasets.generate", root, 0, || {
                BtreeWorkload::generate_inputs(&params)
            });
            let tree = t.time("btree.build", root, 0, || {
                BPlusTree::bulk_build(pairs, params.branch)
            });
            let ikey = format!(
                "hsar-btree-v1|serve|keys={}|branch=256|seed={seed}",
                spec.size
            );
            store("btree-serve", &ikey, &|c| {
                c.store_btree("btree-serve", &ikey, &tree)
            });
            (bytes, None, Some(tree))
        }
    }
}

fn run_traced(args: &Args, spec: &Spec, work: &Path, o: &mut Outcome) -> Result<(), ServeError> {
    let due = latency_schedule(spec, args, args.seconds / 2.0);

    // Untraced reference pass: cold open, then the latency phase.
    let start = Instant::now();
    let (opened, _) = cold_opens(spec, args.seed, work, 1)?;
    let open_u = start.elapsed();
    let s = served(spec, args.seed, opened);
    let (direct, recall) = checks_common(spec, &s, o);
    let engine = Engine::new(Arc::clone(&s.index), spec.engine_config());
    let phase_u = drive(&engine, &s.pool, &due, 0, None);
    drop(engine);
    check_phase("untraced pass", &s, &direct, &phase_u, o);
    let untraced_s = (open_u + phase_u.wall).as_secs_f64();

    // Traced pass.
    let tracer = Arc::new(Tracer::new(Instant::now()));
    let dir = work.join("index-traced");
    let _ = std::fs::remove_dir_all(&dir);
    let start = Instant::now();
    let root = tracer.open("serve.open", ROOT, 0);
    let (bytes, graph, tree) = open_traced(spec, args.seed, &dir, &tracer, root);
    tracer.close(root);
    let open_t = start.elapsed();
    let cache = ArchiveCache::new(Some(dir.clone()));
    let (index, _) = open(spec, args.seed, &cache)?;
    o.check(cache.misses() == 0, || {
        "the traced open stored under other archive keys than the index open reads".into()
    });
    let _ = std::fs::remove_dir_all(&dir);
    let phase_root = tracer.open("loadgen.phase", ROOT, 0);
    let recorder = Arc::new(Recorder {
        inner: Arc::clone(&index),
        tracer: Arc::clone(&tracer),
        parent: phase_root,
        batches: Mutex::new(Vec::new()),
    });
    let engine = Engine::new(recorder.clone(), spec.engine_config());
    let phase = drive(&engine, &s.pool, &due, 0, Some((&tracer, phase_root)));
    drop(engine);
    tracer.close(phase_root);
    let traced_s = (open_t + phase.wall).as_secs_f64();
    check_phase("traced pass", &s, &direct, &phase, o);
    let (traced_direct, _) = direct_hashes(index.as_ref(), &s.pool);
    o.check(traced_direct == direct, || {
        "the traced open answers differently from the untraced one".into()
    });
    o.attempted += (phase_u.sent.len() + phase.sent.len()) as u64;
    o.failed += phase_u.failures() + phase.failures();

    let spans = tracer.take();
    let self_s = crate::spans::self_seconds_by_name(&spans);
    let get = |k: &str| self_s.get(k).copied().unwrap_or(0.0);
    o.set("datasets.generate_s", get("datasets.generate"));
    o.set("graph.build_s", get("graph.build"));
    o.set("btree.build_s", get("btree.build"));
    o.set("archive.write_s", get("archive.write"));
    o.set("archive.bytes_written", bytes as f64);

    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let admit: Vec<f64> = phase.sent.iter().map(|x| us(x.admit)).collect();
    o.set("engine.admit_us.p50", pct(&admit, 50.0));
    o.set("engine.admit_us.p99", pct(&admit, 99.0));
    let batches = recorder.batches.lock().expect("batch log poisoned").clone();
    let service: Vec<f64> = batches.iter().map(|&(a, b, _)| us(b - a)).collect();
    // A query's wait is its latency minus the service time of the batch
    // that answered it: the last batch to end before its completion stamp.
    let ends: Vec<Instant> = batches.iter().map(|&(_, b, _)| b).collect();
    let waits: Vec<f64> = phase
        .sent
        .iter()
        .filter_map(|x| {
            let (_, done) = x.result.as_ref().ok()?;
            let bi = ends.partition_point(|e| e <= done).checked_sub(1)?;
            Some(phase.latency_us(x)? - service[bi])
        })
        .collect();
    o.set("engine.queue_wait_us.p50", pct(&waits, 50.0));
    o.set("engine.queue_wait_us.p99", pct(&waits, 99.0));
    let fills: Vec<f64> = batches
        .iter()
        .map(|&(_, _, n)| n as f64 / spec.batch as f64)
        .collect();
    o.set("engine.batch_fill", mean(&fills));
    let busy: f64 = service.iter().sum::<f64>() * 1e-6;
    o.set(
        "engine.worker_busy_ratio",
        busy / phase.wall.as_secs_f64().max(1e-9),
    );
    o.set(
        "engine.shed_ratio",
        phase.failures() as f64 / phase.sent.len().max(1) as f64,
    );
    o.set("index.batch_us.p50", pct(&service, 50.0));
    o.set("index.batch_us.p99", pct(&service, 99.0));
    o.set("loadgen.late_p99_us", pct(&phase.late_us(), 99.0));
    let (p50s, p99s) = phase_u.window_percentiles(spec.windows);
    o.set("latency.p50_us", median(&p50s));
    o.set("latency.p99_us", median(&p99s));
    if let (Some(graph), Some(data)) = (&graph, &s.data) {
        let (mut dist, mut hops) = (0u64, 0u64);
        for q in &s.pool {
            if let Query::Vector(v) = q {
                let (_, st) = graph.search(data, v, spec.k, spec.ef);
                dist += st.distance_tests;
                hops += st.hops;
            }
        }
        let n = s.pool.len() as f64;
        o.set("graph.distance_tests_per_query", dist as f64 / n);
        o.set("graph.hops_per_query", hops as f64 / n);
        o.set("graph.recall_at_10", recall);
    }
    if let Some(tree) = &tree {
        let keys: Vec<u32> = s
            .pool
            .iter()
            .filter_map(|q| match q {
                Query::Key(k) => Some(*k),
                Query::Vector(_) => None,
            })
            .collect();
        let nodes: u64 = tree
            .get_many_counted(&keys)
            .iter()
            .map(|(_, st)| st.internal_visits + st.leaf_visits)
            .sum();
        o.set(
            "btree.nodes_per_query",
            nodes as f64 / keys.len().max(1) as f64,
        );
    }
    o.set("trace.overhead_s", traced_s - untraced_s);
    eprintln!(
        "{:?}: untraced pass {untraced_s:.3} s, traced pass {traced_s:.3} s, {} batches",
        spec.family,
        batches.len()
    );

    let name = match spec.family {
        Family::Graph => "serve-graph",
        Family::Btree => "serve-btree",
    };
    let path = args.out.join(format!("spans-{name}-seed{}.tsv", args.seed));
    match crate::spans::write_tsv(&path, &spans) {
        Ok(()) => o.note("span_file", path.display()),
        Err(e) => o.check(false, || format!("writing {}: {e}", path.display())),
    }
    Ok(())
}
