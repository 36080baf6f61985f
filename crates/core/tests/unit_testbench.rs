//! Unit-level testbench for the HSU front end + datapath, mirroring the
//! paper's RTL verification: "test cases covering all ray-box, ray-triangle,
//! Euclidean, Angular, and mixed modes" (§VI-K).

use hsu_core::arbiter::SubCoreArbiter;
use hsu_core::exec::{self, DistanceAccumulator};
use hsu_core::node::{BoxChild, BoxNode, KeyNode, NodeKind, TriangleNode};
use hsu_core::pipeline::{DatapathPipeline, OperatingMode};
use hsu_core::warp_buffer::{WarpBuffer, WARP_WIDTH};
use hsu_core::{HsuConfig, HsuInstruction};
use hsu_geometry::{Aabb, Ray, Triangle, Vec3};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random-stimulus verification of all five modes' functional results, with
/// the operations interleaved through the pipeline like the mixed-mode RTL
/// test.
#[test]
fn mixed_mode_random_stimulus() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let mut pipe = DatapathPipeline::new();

    for trial in 0..200u64 {
        let mode = OperatingMode::ALL[(trial % 5) as usize];
        assert!(pipe.issue(mode, trial));
        pipe.tick();

        match mode {
            OperatingMode::RayBox => {
                let ray = Ray::new(
                    Vec3::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0), -3.0),
                    Vec3::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5), 1.0),
                );
                let children: Vec<BoxChild> = (0..4)
                    .map(|i| {
                        let lo = Vec3::new(
                            rng.gen_range(-2.0..1.0),
                            rng.gen_range(-2.0..1.0),
                            rng.gen_range(-1.0..2.0),
                        );
                        BoxChild {
                            aabb: Aabb::new(lo, lo + Vec3::splat(rng.gen_range(0.1..1.5))),
                            ptr: i,
                            kind: NodeKind::Box,
                        }
                    })
                    .collect();
                let node = BoxNode::new(children.clone());
                let hsu_core::isa::HsuResult::BoxHits { sorted } =
                    exec::execute_box(&ray, &node, f32::INFINITY)
                else {
                    panic!("wrong variant")
                };
                // Cross-check each reported hit against the scalar slab test.
                for &(ptr, t) in sorted.iter().flatten() {
                    let child = &children[ptr as usize];
                    let reference = ray
                        .intersect_aabb(&child.aabb, f32::INFINITY)
                        .expect("reported hit must be a real hit");
                    assert!((reference.t_near - t).abs() < 1e-5);
                }
            }
            OperatingMode::RayTriangle => {
                let tri = Triangle::new(
                    Vec3::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), 1.0),
                    Vec3::new(rng.gen_range(1.0..2.0), rng.gen_range(-1.0..1.0), 1.0),
                    Vec3::new(rng.gen_range(-1.0..1.0), rng.gen_range(1.0..2.0), 1.0),
                );
                let ray = Ray::new(
                    Vec3::new(rng.gen_range(-0.5..1.5), rng.gen_range(-0.5..1.5), 0.0),
                    Vec3::new(0.0, 0.0, 1.0),
                );
                let node = TriangleNode {
                    triangle: tri,
                    triangle_id: trial as u32,
                };
                match exec::execute_triangle(&ray, &node, f32::INFINITY) {
                    hsu_core::isa::HsuResult::TriangleHit {
                        hit,
                        t_num,
                        t_denom,
                        ..
                    } => {
                        let reference = tri.intersect(&ray, f32::INFINITY);
                        assert_eq!(hit, reference.is_some(), "hit status mismatch");
                        if let Some(r) = reference {
                            assert!((t_num / t_denom - r.t()).abs() < 1e-5);
                        }
                    }
                    other => panic!("wrong variant {other:?}"),
                }
            }
            OperatingMode::Euclid | OperatingMode::Angular => {
                let dim = rng.gen_range(1..200usize);
                let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let c: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let mut acc = DistanceAccumulator::new();
                if mode == OperatingMode::Euclid {
                    let beats = dim.div_ceil(16);
                    let mut out = None;
                    for b in 0..beats {
                        let lo = b * 16;
                        let hi = (lo + 16).min(dim);
                        out = acc.euclid_beat(&q[lo..hi], &c[lo..hi], b + 1 < beats);
                    }
                    let expect = hsu_geometry::point::euclidean_squared(&q, &c);
                    assert!((out.unwrap() - expect).abs() < 1e-3 * (1.0 + expect));
                } else {
                    let beats = dim.div_ceil(8);
                    let mut out = None;
                    for b in 0..beats {
                        let lo = b * 8;
                        let hi = (lo + 8).min(dim);
                        out = acc.angular_beat(&q[lo..hi], &c[lo..hi], b + 1 < beats);
                    }
                    let (dot, norm) = out.unwrap();
                    assert!((dot - hsu_geometry::point::dot(&q, &c)).abs() < 1e-3);
                    assert!((norm - hsu_geometry::point::norm_squared(&c)).abs() < 1e-3);
                }
            }
            OperatingMode::KeyCompare => {
                let n = rng.gen_range(1..=36usize);
                let mut seps: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1000.0)).collect();
                seps.sort_by(f32::total_cmp);
                let key = rng.gen_range(-10.0..1010.0f32);
                let node = KeyNode::new(seps.clone());
                let result = exec::execute_key_compare(key, &node, 36);
                let expect = seps.iter().filter(|&&s| key >= s).count();
                assert_eq!(result.key_child_index(), expect);
            }
        }
    }

    // Drain: the pipeline completed every op exactly once.
    while !pipe.is_empty() {
        pipe.tick();
    }
    assert_eq!(pipe.stats().total_completed(), 200);
    for mode in OperatingMode::ALL {
        assert_eq!(pipe.stats().completed[mode.index()], 40);
    }
}

/// Full front-end flow: four sub-cores dispatch through the arbiter into the
/// warp buffer, lanes gather operands, the datapath drains them, entries
/// write back — all masks conserved.
#[test]
fn front_end_conserves_lanes_under_contention() {
    let cfg = HsuConfig::default();
    let mut buffer = WarpBuffer::new(cfg.warp_buffer_entries);
    let mut arbiter = SubCoreArbiter::new(4);
    let mut pipe = DatapathPipeline::new();
    let mut rng = ChaCha8Rng::seed_from_u64(7);

    let total_warps = 64usize;
    let mut dispatched = 0usize;
    let mut retired = 0usize;
    let mut next_warp = 0usize;
    let mut lanes_seen = 0u64;
    let mut lanes_expected = 0u64;
    // (entry, lane) pairs waiting for "memory".
    let mut pending_mem: Vec<(usize, usize, u64)> = Vec::new();
    let mut cycle = 0u64;

    while retired < total_warps {
        cycle += 1;
        assert!(cycle < 100_000, "testbench deadlock");

        // Dispatch: all four sub-cores contend every cycle.
        if dispatched < total_warps && !buffer.is_full() {
            let requesting = [true; 4];
            if let Some(_sc) = arbiter.grant(&requesting, &[false; 4]) {
                let mask: u32 = rng.gen_range(1..=u32::MAX);
                let lanes: Vec<Option<HsuInstruction>> = (0..WARP_WIDTH)
                    .map(|l| {
                        (mask & (1 << l) != 0)
                            .then(|| HsuInstruction::ray_intersect(l as u64 * 64, 64))
                    })
                    .collect();
                let entry = buffer.allocate(next_warp, _sc, mask, lanes).expect("space");
                lanes_expected += mask.count_ones() as u64;
                for l in 0..WARP_WIDTH {
                    if mask & (1 << l) != 0 {
                        pending_mem.push((entry, l, cycle + rng.gen_range(1..40)));
                    }
                }
                next_warp += 1;
                dispatched += 1;
            }
        }

        // Memory responses arrive.
        pending_mem.retain(|&(entry, lane, at)| {
            if at <= cycle {
                buffer.mark_valid(entry, lane);
                false
            } else {
                true
            }
        });

        // Datapath issues one ready lane per cycle.
        let pick = buffer
            .ready_entries()
            .map(|(id, e)| (id, e.next_issuable_lane().expect("ready entry has a lane")))
            .next();
        if let Some((entry, lane)) = pick {
            assert!(pipe.issue(OperatingMode::RayBox, (entry as u64) << 8 | lane as u64));
            buffer.mark_issued(entry, lane);
        }

        // Completions come back 9 cycles later.
        if let Some(done) = pipe.tick() {
            let entry = (done.tag >> 8) as usize;
            let lane = (done.tag & 0xff) as usize;
            buffer.mark_completed(entry, lane);
            lanes_seen += 1;
        }

        // Writeback.
        let finished: Vec<usize> = buffer
            .iter()
            .filter(|(_, e)| e.writeback_ready())
            .map(|(id, _)| id)
            .collect();
        for id in finished {
            buffer.release(id);
            retired += 1;
        }
    }

    assert_eq!(retired, total_warps);
    assert_eq!(
        lanes_seen, lanes_expected,
        "every active lane completed once"
    );
    assert_eq!(buffer.occupancy(), 0);
}
