//! The command line of `subq-bench`: anything but a known verb over known
//! experiment ids prints the registry's ids and exits 2, before anything
//! is measured.

use std::process::Command;

#[test]
fn unknown_verb_or_experiment_prints_the_ids_and_exits_2() {
    for args in [
        &[][..],
        &["perf"],
        &["table", "e99"],
        &["check", "e5", "e99"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_subq-bench"))
            .args(args)
            .output()
            .expect("the binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let usage = String::from_utf8_lossy(&output.stderr);
        for experiment in subq_bench::EXPERIMENTS {
            assert!(usage.contains(experiment.id), "{args:?}: {usage}");
        }
    }
}
