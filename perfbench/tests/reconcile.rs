//! The stage spans of each `table1` target reconcile with its measured
//! `Engine::check` time, so a per-stage saving shows in the total, or
//! visibly fails to. A test binary of its own, so the other tests' threads
//! do not run beside it and disturb the timings.

use perfbench::layers::{self, StageSums, Target};
use perfbench::table1;

/// A stage sum may differ from the measured `Engine::check` time by this
/// share of it, plus [`SLACK_S`]: the replay runs the same public calls
/// but in a separate execution, with its own allocations and host noise.
const TOLERANCE: f64 = 0.25;

/// Absolute slack for checks of a few milliseconds, where timer and
/// allocator noise dominate.
const SLACK_S: f64 = 0.002;

/// Checks and replays each target [`ROUNDS`] times, alternating; returns
/// `(name, fastest check seconds, fastest replayed stage seconds)`. Host
/// interference only ever slows a run down, so the fastest of several
/// alternating runs is the estimate it disturbs least.
fn reconcile(ts: &[Target], cfg: &barracuda::BarracudaConfig) -> Vec<(String, f64, f64)> {
    ts.iter()
        .map(|t| {
            let (mut check, mut stages) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..ROUNDS {
                let c = table1::check_fresh(t, cfg);
                assert!(c.ok, "{}: wrong verdict", t.name);
                check = check.min(c.check_s);
                let r = layers::replay(std::slice::from_ref(t), &[], cfg);
                assert_eq!(r.mismatches, 0, "{}: replay verdict", t.name);
                stages = stages.min(StageSums::from_tracer(&r.tracer, 1.0).per_op());
            }
            (t.name.clone(), check, stages)
        })
        .collect()
}

/// Alternating check/replay rounds per target.
const ROUNDS: usize = 9;

#[test]
fn table1_stage_spans_sum_to_the_check_time() {
    let cfg = table1::config();
    let rows = reconcile(&table1::targets(1), &cfg);
    let (mut check_total, mut stage_total) = (0.0, 0.0);
    for (name, check, stages) in &rows {
        println!("{name:<40} check {check:.6} s  stages {stages:.6} s");
        check_total += check;
        stage_total += stages;
    }
    let bad: Vec<_> = rows
        .iter()
        .filter(|(_, c, s)| (c - s).abs() > TOLERANCE * c + SLACK_S)
        .collect();
    assert!(bad.is_empty(), "stage sums off their check time: {bad:?}");
    assert!(
        (check_total - stage_total).abs() <= TOLERANCE * check_total,
        "pass: check {check_total} s, stages {stage_total} s"
    );
}
