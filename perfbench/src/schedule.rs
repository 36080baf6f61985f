//! Seeded open-loop arrival schedules and the rate ladder.

/// SplitMix64: a tiny, well-mixed generator, so schedules depend on the
/// seed alone and not on any library's stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is finite).
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derives an independent stream seed for one phase of one run.
pub fn phase_seed(seed: u64, phase: u64) -> u64 {
    SplitMix64::new(seed ^ phase.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// Due times, in nanoseconds from the phase start, of a Poisson arrival
/// process at `rate_per_s` over `duration_s`: independent users send at
/// exponential gaps whatever the server does (an open loop).
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_s: f64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let horizon = duration_s * 1e9;
    let mean_gap = 1e9 / rate_per_s;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 16);
    loop {
        t += -rng.next_unit().ln() * mean_gap;
        if t >= horizon {
            return out;
        }
        out.push(t as u64);
    }
}

/// A fixed geometric ladder of offered rates: `rung(i) = base * step^i`.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    pub base: f64,
    pub step: f64,
    pub rungs: usize,
    /// The staircase's first step, in rungs.
    pub stride: usize,
}

/// Where a staircase on the ladder settled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Settled {
    /// The mean rung of the probes made at a one-rung step, from the
    /// first failure at that step on.
    At(f64),
    /// Rung 0 failed at a one-rung step, or no probe ever passed: the
    /// ladder starts too high.
    Below,
    /// A probe at the top rung passed: the ladder ends too low.
    Above,
    /// The probe budget ran out before a failure at a one-rung step.
    Unsettled,
}

impl Ladder {
    pub fn rate(&self, i: usize) -> f64 {
        (self.base * self.step.powi(i as i32)).round()
    }

    /// The rate at a fractional rung.
    pub fn rate_at(&self, rung: f64) -> f64 {
        (self.base * self.step.powf(rung)).round()
    }

    /// Finds the rung where probes start to fail with a staircase of
    /// `budget` probes from rung 0: up a step after a pass, down a step
    /// after a failure, halving the step (from `stride` to one rung) at
    /// each change of direction. The result is the mean rung of the probes
    /// made at a one-rung step from the first failure there on: the rung
    /// at which about half the probes pass. On a host whose speed drifts, this averages the boundary over
    /// many probes, where stopping at the first failure would read it at
    /// one instant. Returns where it settled and the rungs probed, in order.
    pub fn staircase(
        &self,
        budget: usize,
        mut probe: impl FnMut(usize) -> bool,
    ) -> (Settled, Vec<usize>) {
        let top = self.rungs - 1;
        let mut step = self.stride.max(1);
        let (mut rung, mut last) = (0usize, None);
        let (mut probed, mut settled) = (Vec::with_capacity(budget), Vec::new());
        for _ in 0..budget {
            let pass = probe(rung);
            probed.push(rung);
            if last == Some(!pass) {
                step = (step / 2).max(1);
            }
            last = Some(pass);
            // The climb after an early failure is not the boundary:
            // count probes from the first failure at a one-rung step.
            if step == 1 && (!pass || !settled.is_empty()) {
                settled.push(rung as f64);
            }
            if pass && rung == top {
                return (Settled::Above, probed);
            }
            if step == 1 && !pass && rung == 0 {
                return (Settled::Below, probed);
            }
            rung = if pass {
                (rung + step).min(top)
            } else {
                rung.saturating_sub(step)
            };
        }
        if settled.is_empty() {
            let never_passed = last == Some(false) && probed.iter().all(|&r| r == 0);
            let how = if never_passed {
                Settled::Below
            } else {
                Settled::Unsettled
            };
            return (how, probed);
        }
        let mean = settled.iter().sum::<f64>() / settled.len() as f64;
        (Settled::At(mean), probed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_per_seed_and_differ_across_seeds() {
        let a = poisson_schedule(phase_seed(7, 1), 5000.0, 0.5);
        let b = poisson_schedule(phase_seed(7, 1), 5000.0, 0.5);
        let c = poisson_schedule(phase_seed(8, 1), 5000.0, 0.5);
        let d = poisson_schedule(phase_seed(7, 2), 5000.0, 0.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(a.iter().all(|&t| t < 500_000_000));
        // About rate * duration arrivals (Poisson sd ~ 50 here).
        assert!((2300..2700).contains(&a.len()), "{} arrivals", a.len());
    }

    fn ladder() -> Ladder {
        Ladder {
            base: 100.0,
            step: 1.1,
            rungs: 20,
            stride: 4,
        }
    }

    #[test]
    fn staircase_settles_between_the_last_pass_and_the_first_failure() {
        let l = ladder();
        for capacity in 0..l.rungs - 1 {
            let (settled, probed) = l.staircase(24, |i| i <= capacity);
            assert_eq!(probed.len(), 24, "capacity rung {capacity}");
            let Settled::At(mean) = settled else {
                panic!("capacity rung {capacity}: {settled:?}");
            };
            let c = capacity as f64;
            assert!((c..=c + 1.0).contains(&mean), "{capacity}: {mean}");
        }
    }

    #[test]
    fn staircase_reports_a_ladder_that_does_not_reach() {
        let l = ladder();
        assert_eq!(l.staircase(24, |_| false).0, Settled::Below);
        assert_eq!(l.staircase(24, |_| true).0, Settled::Above);
        // A rung-0 failure before the step comes down is not a verdict.
        let mut first = true;
        let (settled, _) = l.staircase(24, |i| !std::mem::take(&mut first) && i <= 9);
        assert!(matches!(settled, Settled::At(m) if (9.0..=10.0).contains(&m)));
        assert_eq!(l.staircase(2, |i| i <= 9).0, Settled::Unsettled);
    }

    #[test]
    fn staircase_absorbs_a_spurious_failure() {
        // One failure at rung 8, far below the boundary at 15/16, moves
        // the estimate by less than a rung.
        let l = ladder();
        let mut seen = false;
        let (settled, probed) = l.staircase(40, |i| {
            if i == 8 && !seen {
                seen = true;
                return false;
            }
            i <= 15
        });
        let Settled::At(mean) = settled else {
            panic!("{settled:?} after {probed:?}");
        };
        assert!((14.5..=16.0).contains(&mean), "{mean} after {probed:?}");
    }

    #[test]
    fn ladder_rates_are_fixed() {
        let l = ladder();
        assert_eq!(l.rate(0), 100.0);
        assert_eq!(l.rate(2), 121.0);
        assert_eq!(l.rate_at(2.0), 121.0);
        assert_eq!(l.rate_at(0.5), 105.0);
    }
}
