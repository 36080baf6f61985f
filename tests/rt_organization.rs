//! Cross-organization differential harness: the treelet-scheduled RT core
//! must be *functionally* identical to the baseline organization.
//!
//! The two organizations time node fetches and datapath issue differently
//! — staging-buffer hits skip memory, the ray-scheduling queue reorders
//! entry drain, fetches throttle to the staging capacity — so cycle counts,
//! memory-traffic counters, occupancy integrals and stall counters may all
//! diverge. What must NOT diverge is anything a search *result* depends on:
//! which instructions executed, how many ISA beats each expanded to, what
//! the kernel retired, and what error payloads a malformed run produces.
//!
//! Three layers of evidence, mirroring `sim_equivalence.rs`:
//!
//! 1. property tests over random kernels × random machine geometries ×
//!    random staging-buffer depths, crossed with both `SimMode`s per
//!    organization (each organization must also stay self-consistent across
//!    modes — {Baseline, Treelet} × {Stepped, Event}),
//! 2. the five golden workloads, run under both organizations, with the
//!    baseline leg additionally pinned against `golden_reports.rs` numbers
//!    (adding the second core must not move the first),
//! 3. the full suite matrix under the Treelet core (release builds only).
//!
//! ci.sh runs the golden-workload leg at smoke scale: if the two RT cores
//! ever diverge in report payloads, CI fails here.

use hsu::prelude::*;
use hsu::sim::config::RtCoreKind;
use hsu::sim::trace::{KernelTrace, ThreadOp, ThreadTrace};
use proptest::prelude::*;

/// The functional projection of a [`SimReport`]: every column a search
/// result depends on, and none of the timing/locality columns the two
/// organizations are allowed to disagree about.
#[derive(Debug, PartialEq)]
struct FunctionalReport {
    kernel: String,
    issued: [u64; 7],
    issued_weighted: [u64; 7],
    warps_retired: u64,
    rt_warp_instructions: u64,
    rt_isa_instructions: u64,
    rt_pipeline_issued: [u64; 5],
    rt_pipeline_completed: [u64; 5],
}

fn functional(report: &SimReport) -> FunctionalReport {
    FunctionalReport {
        kernel: report.kernel.clone(),
        issued: report.issued,
        issued_weighted: report.issued_weighted,
        warps_retired: report.warps_retired,
        rt_warp_instructions: report.rt.warp_instructions,
        rt_isa_instructions: report.rt.isa_instructions,
        rt_pipeline_issued: report.rt.pipeline.issued,
        rt_pipeline_completed: report.rt.pipeline.completed,
    }
}

/// Runs `kernel` under one organization in both modes, asserts the
/// modes are bit-identical (normalized), and returns the event-mode report.
fn run_org(cfg: &GpuConfig, kernel: &KernelTrace, kind: RtCoreKind) -> SimReport {
    let cfg = cfg.clone().with_rt_core(kind);
    let stepped = Gpu::new(cfg.clone().with_sim_mode(SimMode::Stepped))
        .run(kernel)
        .expect("stepped run failed");
    let event = Gpu::new(cfg.with_sim_mode(SimMode::Event))
        .run(kernel)
        .expect("event run failed");
    assert_eq!(
        stepped.normalized(),
        event.normalized(),
        "{}: architectural counters diverged between modes",
        kind.name()
    );
    event
}

/// The full matrix check for one kernel on one machine: {Baseline, Treelet}
/// × {Stepped, Event} agree on every functional column;
/// organization-specific columns stay in their lane.
fn assert_orgs_agree(cfg: &GpuConfig, kernel: &KernelTrace) -> (SimReport, SimReport) {
    let baseline = run_org(cfg, kernel, RtCoreKind::Baseline);
    let treelet = run_org(cfg, kernel, RtCoreKind::Treelet);
    assert_eq!(
        functional(&baseline),
        functional(&treelet),
        "organizations diverged on a functional column"
    );
    // The staging/treelet columns belong to the treelet organization alone.
    assert_eq!(baseline.rt.staging_hits, 0);
    assert_eq!(baseline.rt.staging_evictions, 0);
    assert_eq!(baseline.rt.treelet_transitions, 0);
    (baseline, treelet)
}

fn arb_op() -> impl Strategy<Value = ThreadOp> {
    prop_oneof![
        (1u32..16).prop_map(|count| ThreadOp::Alu { count }),
        (0u64..1 << 16, 1u32..128).prop_map(|(a, b)| ThreadOp::Load {
            addr: a * 8,
            bytes: b
        }),
        (1u32..8).prop_map(|count| ThreadOp::Shared { count }),
        (0u64..1 << 12).prop_map(|n| ThreadOp::HsuRayIntersect {
            node_addr: n * 64,
            bytes: 64,
            triangle: n % 3 == 0,
        }),
        (0u64..1 << 12, 1u32..256).prop_map(|(a, d)| ThreadOp::HsuDistance {
            metric: if d % 2 == 0 {
                Metric::Euclidean
            } else {
                Metric::Angular
            },
            dim: d,
            candidate_addr: a * 4,
        }),
        (0u64..1 << 10, 1u32..256).prop_map(|(a, s)| ThreadOp::HsuKeyCompare {
            node_addr: a * 4,
            separators: s,
        }),
    ]
}

fn arb_kernel() -> impl Strategy<Value = KernelTrace> {
    prop::collection::vec(prop::collection::vec(arb_op(), 0..10), 1..60).prop_map(|threads| {
        let mut k = KernelTrace::new("prop");
        for ops in threads {
            let mut t = ThreadTrace::new();
            for op in ops {
                t.push(op);
            }
            k.push_thread(t);
        }
        k
    })
}

/// Machine geometries that stress the organizational seams: tiny staging
/// pools (heavy throttling + eviction), small warp buffers (grant stalls),
/// and small MSHR files (push-back-front replay).
fn arb_config() -> impl Strategy<Value = GpuConfig> {
    (
        (1usize..3, 1usize..5, 2usize..9), // num_sms, sub_cores, max_warps
        (1usize..9, 1u64..17),             // l1_mshrs, l1_latency
        1usize..9,                         // warp_buffer_entries
        1usize..7,                         // rt_staging_buffers
    )
        .prop_map(
            |(
                (num_sms, sub_cores, max_warps_per_sm),
                (l1_mshrs, l1_latency),
                warp_buffer_entries,
                rt_staging_buffers,
            )| {
                GpuConfig {
                    num_sms,
                    sub_cores,
                    max_warps_per_sm,
                    l1_mshrs,
                    l1_latency,
                    rt_staging_buffers,
                    ..GpuConfig::tiny()
                }
                .with_hsu(HsuConfig::default().with_warp_buffer(warp_buffer_entries))
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The core cross-organization property: for ANY kernel on ANY machine,
    /// the treelet core computes exactly what the baseline computes — in
    /// both simulation modes — while only timing columns move.
    #[test]
    fn organizations_agree_on_random_kernels_and_machines(
        kernel in arb_kernel(),
        cfg in arb_config(),
    ) {
        assert_orgs_agree(&cfg, &kernel);
    }
}

/// Builds the five golden workloads at the pinned seed.
fn golden_traces() -> Vec<(&'static str, KernelTrace)> {
    use hsu_kernels::btree::{BtreeParams, BtreeWorkload};
    use hsu_kernels::bvhnn::{BvhnnParams, BvhnnWorkload};
    use hsu_kernels::flann::{FlannParams, FlannWorkload};
    use hsu_kernels::ggnn::{GgnnParams, GgnnWorkload};
    use hsu_kernels::rtindex::{RtIndexParams, RtIndexWorkload};

    let seed = 7;
    let mut traces = Vec::new();
    let ggnn = GgnnWorkload::build(&GgnnParams {
        points: 600,
        dim: 32,
        queries: 16,
        k: 5,
        ef: 16,
        m: 8,
        seed,
        ..Default::default()
    });
    traces.push(("ggnn", ggnn.trace(Variant::Hsu)));
    let flann = FlannWorkload::build(&FlannParams {
        points: 800,
        queries: 32,
        k: 5,
        checks: 16,
        seed,
    });
    traces.push(("flann", flann.trace(Variant::Hsu)));
    let bvhnn = BvhnnWorkload::build(&BvhnnParams {
        points: 800,
        queries: 32,
        seed,
        ..Default::default()
    });
    traces.push(("bvhnn", bvhnn.trace(Variant::Hsu)));
    let btree = BtreeWorkload::build(&BtreeParams {
        keys: 2000,
        queries: 128,
        branch: 64,
        seed,
    });
    traces.push(("btree", btree.trace(Variant::Hsu)));
    let rtindex = RtIndexWorkload::build(&RtIndexParams {
        keys: 1024,
        lookups: 128,
        seed,
    });
    traces.push(("rtindex", rtindex.trace(Variant::Hsu)));
    traces
}

/// The golden matrix: five workloads × two organizations × two modes.
/// This is the leg ci.sh runs at smoke scale.
#[test]
fn golden_workloads_agree_across_organizations() {
    let mut total_hits = 0;
    for (name, trace) in &golden_traces() {
        let (baseline, treelet) = assert_orgs_agree(&GpuConfig::tiny(), trace);
        eprintln!(
            "{name}: staging_hits={} evictions={} transitions={} cycles {} -> {}",
            treelet.rt.staging_hits,
            treelet.rt.staging_evictions,
            treelet.rt.treelet_transitions,
            baseline.cycles,
            treelet.cycles
        );
        total_hits += treelet.rt.staging_hits;
        assert!(
            baseline.cycles > 0 && treelet.cycles > 0,
            "{name}: degenerate run"
        );
    }
    // The treelet core is a different machine, not a different program: the
    // hierarchical walks revisit node lines (shared upper levels), so the
    // staging pool must show hits somewhere across the suite.
    assert!(
        total_hits > 0,
        "the staging pool never hit — the treelet core is not actually \
         staging node lines"
    );
}

/// Adding the second organization must not perturb the first: the baseline
/// org's golden cycle counts stay exactly the `golden_reports.rs` numbers.
#[test]
fn baseline_organization_still_matches_the_golden_cycles() {
    let pinned = [
        ("ggnn", 14848u64),
        ("flann", 23313),
        ("bvhnn", 67849),
        ("btree", 1244),
        ("rtindex", 6676),
    ];
    for (name, trace) in &golden_traces() {
        let report = Gpu::new(GpuConfig::tiny()).run(trace).expect("run failed");
        let (_, expect) = pinned
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(n, c)| (n, c))
            .expect("unknown golden");
        assert_eq!(
            report.cycles, expect,
            "{name}: baseline golden cycles moved — the RT-core refactor \
             changed the default organization's timing"
        );
    }
}

/// The full suite matrix under the treelet core: every app × dataset ×
/// variant cell must produce the same functional columns as the baseline
/// suite. Release builds only (two full suite builds are slow unoptimized).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "two full suite builds are slow unoptimized; run with --release"
)]
fn full_suite_matrix_agrees_across_organizations() {
    use hsu_bench::{Suite, SuiteConfig};

    let cfg = SuiteConfig {
        sms: 8,
        scale_divisor: 32,
        ..SuiteConfig::default()
    };
    let baseline = Suite::build(cfg.clone());
    let treelet = Suite::build(cfg.with_rt_core(RtCoreKind::Treelet));
    assert_eq!(baseline.runs.len(), treelet.runs.len());
    for (a, b) in baseline.runs.iter().zip(&treelet.runs) {
        assert_eq!(a.label, b.label, "matrix ordering drifted");
        for (variant, ra, rb) in [
            ("hsu", &a.hsu, &b.hsu),
            ("base", &a.base, &b.base),
            ("stripped", &a.stripped, &b.stripped),
        ] {
            assert_eq!(
                functional(ra),
                functional(rb),
                "{}/{variant} diverged between organizations",
                a.label
            );
        }
    }
}
