//! The benchmark's own input and schedule generator: everything a
//! workload feeds the system is a pure function of `--seed`.

/// SplitMix64: small, fast, and good enough for schedules and messages.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `label` under `seed`, so adding a
    /// stream never shifts the values another one draws.
    pub fn new(seed: u64, label: &str) -> Rng {
        Rng(derive(seed, label))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so its logarithm is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A sub-seed of `seed` for one named purpose (FNV-1a of the label
/// mixed through one SplitMix64 step).
pub fn derive(seed: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Rng(h).next_u64()
}

/// Poisson arrivals at `rate_per_s` over `duration_s`: the due time of
/// each request in seconds from the start of the leg, ascending.
/// Independent users make exponential gaps.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, duration_s: f64) -> Vec<f64> {
    let mut due = Vec::with_capacity((rate_per_s * duration_s * 1.2) as usize + 8);
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate_per_s;
        if t >= duration_s {
            return due;
        }
        due.push(t);
    }
}

/// Seed of the arrival trace every open-loop leg replays.
const TRACE_SEED: u64 = 0x5354_5249_5821;

/// The open-loop arrival trace at `rate_per_s` over `duration_s`: one
/// Poisson draw at unit rate, fixed in the benchmark like a recorded
/// trace and played `rate_per_s` times as fast. `rng` (the run's seed)
/// only picks where in the cycle the replay starts. A tail percentile
/// of a few hundred requests follows the handful of clumps its schedule
/// happens to hold: drawn afresh per seed, the p95 of one and the same
/// program spread half as much again as it does on a replayed trace.
pub fn replay_schedule(rng: &mut Rng, rate_per_s: f64, duration_s: f64) -> Vec<f64> {
    let mut trace = Rng::new(TRACE_SEED, "open_loop.trace");
    let start = rng.unit() * duration_s;
    let mut due: Vec<f64> = poisson_schedule(&mut trace, 1.0, rate_per_s * duration_s)
        .into_iter()
        .map(|t| (t / rate_per_s + start) % duration_s)
        .collect();
    due.sort_by(f64::total_cmp);
    due
}

/// `count` messages of `bits` bits.
pub fn messages(rng: &mut Rng, count: usize, bits: u32) -> Vec<u64> {
    (0..count).map(|_| rng.below(1 << bits)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule_and_inputs() {
        let make = |seed| {
            let mut rng = Rng::new(seed, "service_open.r24");
            let schedule = poisson_schedule(&mut rng, 24.0, 12.0);
            let inputs = messages(&mut Rng::new(seed, "inputs"), schedule.len(), 3);
            (schedule, inputs)
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7).0, make(8).0);
        assert_ne!(make(7).1, make(8).1);
    }

    #[test]
    fn replayed_trace_is_the_same_cycle_started_where_the_seed_says() {
        let replay = |seed| replay_schedule(&mut Rng::new(seed, "service_open.r16"), 16.0, 12.0);
        let (a, b) = (replay(7), replay(8));
        assert_eq!(a, replay(7));
        assert_ne!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..12.0).contains(&t)));
        // The gaps around the cycle are the same in the same order,
        // from another starting point.
        let gaps = |due: &[f64]| -> Vec<f64> {
            let wrap = due[0] + 12.0 - due[due.len() - 1];
            due.windows(2).map(|w| w[1] - w[0]).chain([wrap]).collect()
        };
        let (ga, gb) = (gaps(&a), gaps(&b));
        assert_eq!(ga.len(), gb.len());
        let shift = (0..gb.len())
            .find(|&s| (0..ga.len()).all(|i| (ga[i] - gb[(i + s) % gb.len()]).abs() < 1e-9))
            .expect("one cycle, rotated");
        assert_ne!(shift, 0);
    }

    #[test]
    fn schedule_is_ascending_inside_the_window_at_the_offered_rate() {
        let mut rng = Rng::new(3, "rate");
        let schedule = poisson_schedule(&mut rng, 200.0, 50.0);
        assert!(schedule.windows(2).all(|w| w[0] < w[1]));
        assert!(schedule.iter().all(|&t| t > 0.0 && t < 50.0));
        // 10 000 expected arrivals; five standard deviations is 500.
        assert!((schedule.len() as f64 - 10_000.0).abs() < 500.0);
    }

    #[test]
    fn streams_are_independent_of_each_other() {
        assert_ne!(derive(1, "a"), derive(1, "b"));
        assert_ne!(derive(1, "a"), derive(2, "a"));
        let m = messages(&mut Rng::new(5, "m"), 1000, 3);
        assert!(m.iter().all(|&v| v < 8));
        assert!((0..8).all(|v| m.contains(&v)));
    }
}
