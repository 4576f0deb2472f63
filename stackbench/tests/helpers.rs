//! Tests of the benchmark's own measurement helpers.

use stackbench::report::{END_TO_END, PER_LAYER};
use stackbench::{
    beyond, goodput, ladder_last_pass, quantile, sorted, tail, LadderStep, Outcome, Schedule, Tally,
};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // 1000 samples: p99.9 has 1 beyond, p99 has exactly 10.
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&v);
    assert_eq!((t.q, t.value, t.n), (0.99, 990.0, 1000));
    // One sample fewer leaves p99 with 9 beyond: the rule drops to p90.
    let t = tail(&v[..999]);
    assert_eq!(t.q, 0.9);
    assert_eq!(beyond(999, 0.9), 99);
    // 10 000 samples support p99.9 (10 beyond).
    let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
    assert_eq!(tail(&v).q, 0.999);
    // Too few samples for any tail: the median.
    assert_eq!(tail(&[3.0, 1.0, 2.0]).q, 0.5);
    assert_eq!(tail(&[3.0, 1.0, 2.0]).value, 2.0);
}

#[test]
fn quantiles_use_nearest_rank() {
    let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
    assert_eq!(quantile(&v, 0.5), 2.0);
    assert_eq!(quantile(&v, 0.75), 3.0);
    assert_eq!(quantile(&v, 1.0), 4.0);
    assert_eq!(quantile(&[], 0.5), 0.0);
}

#[test]
fn due_time_latency_carries_a_stall_to_later_requests() {
    // 1000 req/s: request i is due at i ms.
    let mut s = Schedule::default();
    let end = s.push_rate(0, 1000.0, 20);
    assert_eq!(end, 20_000_000);
    assert_eq!(s.due_ns[5], 5_000_000);
    // A 10 ms stall from t = 5 ms: requests 5..15 are sent late, all at
    // t = 15 ms, and each is answered 100 µs after it is sent.
    let sent = |i: usize| if (5..15).contains(&i) { 15_000_000 } else { s.due_ns[i] };
    let lat: Vec<f64> = (0..20).map(|i| s.latency_us(i, sent(i) + 100_000)).collect();
    // Timed from due time, the stall shows in every request it delayed.
    assert_eq!(lat[4], 100.0);
    assert_eq!(lat[5], 10_100.0);
    assert_eq!(lat[14], 1_100.0);
    assert_eq!(lat[15], 100.0);
    // Timed from send time it would vanish; the generator's lag keeps it.
    assert_eq!(s.lag_us(5, sent(5)), 10_000.0);
    assert_eq!(s.lag_us(15, sent(15)), 0.0);
    // An answer "before" the due time never reads negative.
    assert_eq!(s.latency_us(3, 0), 0.0);
}

fn step(rate: f64, p99_us: f64, failed: usize, cut: bool, served_rps: f64) -> LadderStep {
    LadderStep { rate, p99_us, sent: 1000, failed, cut, served_rps }
}

#[test]
fn ladder_stops_at_the_first_step_over_the_p99_limit() {
    let steps = [
        step(1000.0, 500.0, 0, false, 1000.0),
        step(2000.0, 900.0, 0, false, 2000.0),
        step(3000.0, 4000.0, 0, false, 3000.0),
        // Passes again, but the ladder already stopped.
        step(4000.0, 800.0, 0, false, 4000.0),
    ];
    assert_eq!(ladder_last_pass(&steps, 1000.0), Some(1));
    // Interpolated on log p99 between 2000 (900 µs) and 3000 (4000 µs).
    let g = goodput(&steps, 1000.0);
    assert!(g > 2000.0 && g < 2100.0, "{g}");
}

#[test]
fn ladder_stops_when_the_backlog_grows_to_the_cap() {
    let steps = [
        step(1000.0, 500.0, 0, false, 1000.0),
        step(2000.0, 600.0, 0, true, 1700.0),
        step(3000.0, 600.0, 0, false, 3000.0),
    ];
    assert!(!steps[1].passes(1000.0));
    assert_eq!(ladder_last_pass(&steps, 1000.0), Some(0));
    // A saturated step contributes the rate it was served at.
    assert_eq!(goodput(&steps, 1000.0), 1700.0);
    // ... but never less than the last passing rate.
    let low = [step(1000.0, 500.0, 0, false, 1000.0), step(2000.0, 600.0, 0, true, 900.0)];
    assert_eq!(goodput(&low, 1000.0), 1000.0);
}

#[test]
fn ladder_step_with_failures_never_passes() {
    let steps = [step(1000.0, 500.0, 0, false, 1000.0), step(2000.0, 500.0, 1, false, 2000.0)];
    assert_eq!(ladder_last_pass(&steps, 1000.0), Some(0));
    assert_eq!(goodput(&steps, 1000.0), 1000.0);
    // Every step passing: the top rate.
    assert_eq!(goodput(&steps[..1], 1000.0), 1000.0);
    // The first step failing: no passing step.
    assert_eq!(ladder_last_pass(&steps[1..], 1000.0), None);
}

#[test]
fn error_rate_counts_every_kind_of_failure() {
    let mut t = Tally::default();
    for o in
        [Outcome::Ok, Outcome::Ok, Outcome::Error, Outcome::Refused, Outcome::Busy, Outcome::Wrong]
    {
        t.record(o);
    }
    assert_eq!((t.attempted, t.failed), (6, 4));
    assert!((t.error_rate() - 4.0 / 6.0).abs() < 1e-12);
    let mut all_ok = Tally::default();
    all_ok.record(Outcome::Ok);
    t.merge(all_ok);
    assert_eq!((t.attempted, t.failed), (7, 4));
    assert_eq!(Tally::default().error_rate(), 0.0);
}

#[test]
fn metric_catalogue_matches_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let names = json.matches("\"name\":").count();
    let workloads = json.matches("\"why\":").count();
    assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + workloads);
}
