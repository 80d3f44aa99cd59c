//! The one SLO scenario is one function of `(shape, seed)`: neither the
//! recorder handle nor the shelf backend may move a wire message — the
//! property that lets `cd_bench::pins` hold a single wire value for
//! `e_slo` and `e_obs`, mem and file.

use cd_bench::scenario::{Backend, Outcome as Run};
use cd_bench::slo::run;
use dh_obs::Obs;

const SHAPE: (usize, usize, usize) = (300, 150, 400);
const SEED: u64 = 0x510;

fn pass(file_backend: bool, grey: bool, obs: Obs) -> Run {
    run(SHAPE, SEED, if file_backend { Backend::File } else { Backend::Mem }, grey, obs)
}

#[test]
fn wire_fingerprint_ignores_recorder_and_backend() {
    let bare = pass(false, false, Obs::off());
    assert!(bare.gets.len() > SHAPE.2 / 2, "a 70/30 mix: {} gets", bare.gets.len());
    assert!(bare.gets.iter().all(|&(_, ticks)| ticks > 0), "a get takes engine time");
    assert!(bare.churn_events == 2 && bare.repair.msgs > 0, "churn must bite: {:?}", bare.repair);
    for (file_backend, obs) in
        [(false, Obs::recording(1 << 10)), (true, Obs::off()), (true, Obs::recording(1 << 10))]
    {
        let other = pass(file_backend, false, obs);
        assert_eq!(other.wire_fp, bare.wire_fp, "file = {file_backend}");
        assert_eq!(other.repair, bare.repair);
    }
}

#[test]
fn recorder_fold_is_identical_across_backends() {
    let mem = pass(false, false, Obs::recording(1 << 10));
    let file = pass(true, false, Obs::recording(1 << 10));
    assert_ne!(mem.obs.fingerprint(), 0);
    assert_eq!(mem.obs.fingerprint(), file.obs.fingerprint());
    assert!(file.obs.recorded() > mem.obs.recorded(), "the WAL's storage plane is recorded too");
}

#[test]
fn grey_pass_runs_the_same_schedule_over_a_different_substrate() {
    let healthy = pass(false, false, Obs::off());
    let grey = pass(false, true, Obs::off());
    assert_ne!(grey.wire_fp, healthy.wire_fp);
    let ops = |run: &Run| run.gets.iter().map(|&(op, _)| op).collect::<Vec<_>>();
    assert_eq!(ops(&grey), ops(&healthy), "same keys, same op mix");
    assert_eq!(grey.wire_fp, pass(true, true, Obs::off()).wire_fp);
}
