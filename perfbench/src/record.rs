//! Cross-run determinism check. Every run writes its deterministic
//! witnesses (simulated throughput bits, evaluation counts, ...) to
//! `.perfbench/records/<build>/<workload>-<seed>.txt` under the working
//! directory, and a later run of the same build, workload and seed must
//! reproduce them exactly. Records are keyed by a hash of the benchmark
//! executable, so a rebuilt program starts a fresh record.

use crate::common::{Args, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn build_key() -> Option<String> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    let hash = crate::common::fnv1a(bytes.iter().map(|&b| u64::from(b)));
    Some(format!("{hash:016x}"))
}

fn parse(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter_map(|line| {
            let (key, value) = line.split_once('=')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Compares the run's witnesses with the stored record and stores the
/// union.
pub fn check(args: &Args, report: &mut Report) {
    let Some(build) = build_key() else {
        println!("record: executable unreadable, cross-run check skipped");
        return;
    };
    let dir = PathBuf::from(".perfbench").join("records").join(build);
    let path = dir.join(format!("{}-{}.txt", args.workload, args.seed));
    let mut stored = std::fs::read_to_string(&path)
        .map(|text| parse(&text))
        .unwrap_or_default();
    let mut compared = 0;
    for (key, value) in report.witnesses.clone() {
        match stored.get(key) {
            Some(&old) if old != value => report.fail(format!(
                "{key} differs from an earlier run of this seed: {value} vs {old}"
            )),
            Some(_) => compared += 1,
            None => {
                stored.insert(key.to_string(), value);
            }
        }
    }
    println!(
        "record: {compared} of {} witnesses compared with an earlier run of this seed",
        report.witnesses.len()
    );
    let text: String = stored.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    if let Err(err) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        println!("record: cannot write {}: {err}", path.display());
    }
}
