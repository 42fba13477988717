//! `subq-bench check [ids… | all]` and `subq-bench table [ids… | all]`
//! over the experiment registry (see the library's module doc). Run from
//! the repository root, where the `BENCH_*.json` files live; `check`
//! reads them, so run it before `table` rewrites them.

use std::path::Path;
use std::process::ExitCode;
use subq_bench::{check, table, Experiment, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (verb, ids) = args
        .split_first()
        .map_or(("", &[][..]), |(verb, ids)| (verb.as_str(), ids));
    let named = |e: &Experiment| ids.is_empty() || ids.iter().any(|id| id == "all" || id == e.id);
    let selected: Vec<&Experiment> = EXPERIMENTS.iter().filter(|e| named(e)).collect();
    let unknown_id = ids
        .iter()
        .any(|id| id != "all" && EXPERIMENTS.iter().all(|e| e.id != id));
    let root = Path::new(".");
    match verb {
        "check" if !unknown_id => {
            let failures = check(&selected, root);
            for failure in &failures {
                eprintln!("FAILED {failure}");
            }
            ExitCode::from(u8::from(!failures.is_empty()))
        }
        "table" if !unknown_id => match table(&selected, root) {
            Ok(()) => ExitCode::SUCCESS,
            Err(error) => {
                eprintln!("cannot write the table: {error}");
                ExitCode::FAILURE
            }
        },
        _ => {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            eprintln!(
                "usage: subq-bench (check | table) [all | {}]",
                ids.join(" | ")
            );
            ExitCode::from(2)
        }
    }
}
