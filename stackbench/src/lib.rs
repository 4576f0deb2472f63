//! Measurement helpers of the stack benchmark: percentiles and the tail
//! rule, open-loop schedules timed from due time, the rate ladder's stop
//! rule, failure accounting, in-memory spans, the host-shape record and the
//! result line. The workloads themselves live in the binary (`main.rs`).

pub mod host;
pub mod report;
pub mod trace;

/// The `q`-quantile of `sorted` (ascending) by nearest rank: the smallest
/// sample with at least `q·n` samples at or below it. `0.0` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `samples` (any order).
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Percentiles the tail rule may pick, highest first.
pub const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Samples a reported percentile needs beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the percentile the rule picked, its value and the
/// sample count it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, as a fraction (`0.99`).
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken from.
    pub n: usize,
}

/// Samples strictly beyond the `q`-quantile's nearest-rank sample.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The tail rule: the highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it (the median when none has).
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let q = TAIL_LADDER.into_iter().find(|&q| beyond(s.len(), q) >= TAIL_MIN_BEYOND).unwrap_or(0.5);
    Tail { q, value: quantile(&s, q), n: s.len() }
}

/// An open-loop arrival schedule: request `i` is due at `due_ns[i]` after
/// the schedule's start, whatever happened to earlier requests.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// Due offsets in ns, ascending.
    pub due_ns: Vec<u64>,
}

impl Schedule {
    /// Appends `count` requests at `rate` per second starting `from_ns`
    /// after the schedule's start; returns the end offset.
    pub fn push_rate(&mut self, from_ns: u64, rate: f64, count: usize) -> u64 {
        let gap = 1e9 / rate;
        for i in 0..count {
            self.due_ns.push(from_ns + (i as f64 * gap) as u64);
        }
        from_ns + (count as f64 * gap) as u64
    }

    /// Latency of request `i` answered at `done_ns`, timed from its due
    /// time — a stall (in the system or in the generator) therefore shows
    /// up in every request that fell due during it.
    pub fn latency_us(&self, i: usize, done_ns: u64) -> f64 {
        done_ns.saturating_sub(self.due_ns[i]) as f64 / 1e3
    }

    /// How late request `i` was sent.
    pub fn lag_us(&self, i: usize, sent_ns: u64) -> f64 {
        sent_ns.saturating_sub(self.due_ns[i]) as f64 / 1e3
    }
}

/// One step of the rate ladder, as measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LadderStep {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// p99 latency of the step's requests; failed ones count as over any
    /// limit.
    pub p99_us: f64,
    /// Requests sent in the step.
    pub sent: usize,
    /// Requests that failed (error, refusal, Busy, wrong output).
    pub failed: usize,
    /// The backlog grew until it hit the generator's cap and the step was
    /// cut short — sustained overload, as opposed to a transient stall that
    /// drains.
    pub cut: bool,
    /// Requests answered per second from the step's first due time to its
    /// last reply — the service rate, below `rate` once the system
    /// saturates.
    pub served_rps: f64,
}

impl LadderStep {
    /// The step meets the limit: p99 under it, nothing failed, and the
    /// backlog did not grow to the cap.
    pub fn passes(&self, p99_limit_us: f64) -> bool {
        self.failed == 0 && self.p99_us <= p99_limit_us && !self.cut
    }
}

/// The ladder's stop rule: the ladder climbs while steps pass and stops at
/// the first that does not. Returns the index of the last passing step
/// (`None` when the first step already fails).
pub fn ladder_last_pass(steps: &[LadderStep], p99_limit_us: f64) -> Option<usize> {
    steps.iter().position(|s| !s.passes(p99_limit_us)).unwrap_or(steps.len()).checked_sub(1)
}

/// Goodput: the highest rate meeting the limit. Steps are whole rates, so
/// the first failing step refines the figure between the last passing rate
/// and its own: a step that saturated (backlog grew) contributes the rate
/// it was actually served at, one that failed on p99 alone an
/// interpolation on log p99, and one with failed requests nothing.
pub fn goodput(steps: &[LadderStep], p99_limit_us: f64) -> f64 {
    let last = ladder_last_pass(steps, p99_limit_us);
    let floor = last.map_or(0.0, |k| steps[k].rate);
    let Some(bad) = steps.get(last.map_or(0, |k| k + 1)) else { return floor };
    let refined = if bad.failed > 0 {
        floor
    } else if bad.cut {
        bad.served_rps
    } else if bad.p99_us <= steps[last.unwrap_or(0)].p99_us {
        floor
    } else {
        let ok_p99 = last.map_or(0.0, |k| steps[k].p99_us).max(1.0);
        let frac = (p99_limit_us.ln() - ok_p99.ln()) / (bad.p99_us.ln() - ok_p99.ln());
        floor + (bad.rate - floor) * frac
    };
    refined.clamp(floor, bad.rate)
}

/// What became of one attempted operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with the right output.
    Ok,
    /// Transport or program error.
    Error,
    /// Refused by the program (reject frame, refused load).
    Refused,
    /// Backpressure: the queue was full.
    Busy,
    /// Answered, but the output differs from the reference.
    Wrong,
}

/// Attempted and failed operations. Everything but [`Outcome::Ok`] is a
/// failure: errors, refusals, Busy and wrong outputs alike.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Bit-exact equality of two fp32 slices (`-0.0 != 0.0`, NaN payloads
/// compared as bits).
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
