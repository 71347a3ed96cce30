//! Unit tests of the harness: the metric and workload names agree with
//! `BENCHMARK.json`, only `api.rs` names the program, and a `--smoke`
//! scale runs every workload, untraced and traced, end to end.

use super::*;
use crate::api::{json_parse, Json};
use std::collections::BTreeSet;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Rank children of the process backend respawn this test binary with
/// `shm_child_entry --include-ignored` and land here.
#[test]
#[ignore = "re-entry hook for process-backend rank children"]
fn shm_child_entry() {
    api::child_entry_from_env();
}

fn names_of(list: &Json) -> Vec<String> {
    let items = list.as_arr().expect("a list of objects");
    items
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn names_match_benchmark_json() {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let bench = json_parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| names_of(bench.get(key).expect(key));
    let ours = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(listed("workloads"), ours(&workloads));
    assert_eq!(listed("end_to_end"), ours(&end_to_end));
    assert_eq!(listed("per_layer"), ours(&per_layer));

    let all: Vec<&str> = [workloads, end_to_end, per_layer].concat();
    for name in &all {
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(
            name.len() <= 64 && name.chars().all(legal),
            "bad name {name}"
        );
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
    }
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );
    for name in EXACT {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not a per-layer metric"
        );
    }
    // Units, directions and reasons are stated once here and once there.
    for (list, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for (item, (name, unit, better)) in
            bench.get(list).unwrap().as_arr().unwrap().iter().zip(defs)
        {
            assert_eq!(
                item.get("unit").and_then(Json::as_str),
                Some(*unit),
                "{name}"
            );
            assert_eq!(
                item.get("better").and_then(Json::as_str),
                Some(*better),
                "{name}"
            );
        }
    }
    for (item, w) in bench
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .zip(&WORKLOADS)
    {
        assert_eq!(
            item.get("why").and_then(Json::as_str),
            Some(w.why),
            "{}",
            w.name
        );
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
}

#[test]
fn only_api_names_the_program() {
    let src = manifest_dir().join("src");
    for entry in std::fs::read_dir(&src).expect("src directory") {
        let path = entry.expect("directory entry").path();
        if path
            .file_name()
            .is_some_and(|f| f == "api.rs" || f == "tests.rs")
        {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("source file");
        for krate in ["edgeswitch_", "mpilite::"] {
            assert!(
                !text.contains(krate),
                "{} names {krate} past api.rs",
                path.display()
            );
        }
    }
}

#[test]
fn arguments_parse_as_the_driver_passes_them() {
    let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    let args = parse_args(&argv(
        "--workload svc-jobs-pa100k --seed 7 --seconds 3 --trace 1",
    ))
    .expect("driver arguments");
    assert_eq!(args.workload.name, "svc-jobs-pa100k");
    assert_eq!(
        (args.seed, args.seconds, args.trace, args.smoke),
        (7, 3.0, true, false)
    );
    assert!(parse_args(&argv("--seed 7")).is_err());
    assert!(parse_args(&argv("--workload nope")).is_err());
    assert!(parse_args(&argv("--workload svc-jobs-pa100k --seconds -1")).is_err());
}

/// Every listed metric reported, finite, and nothing failed.
fn assert_complete(report: &Report, defs: &[(&str, &str, &str)], what: &str) {
    assert_eq!(report.failures, Vec::<String>::new(), "{what}");
    assert!(report.attempted >= 1, "{what}");
    for (name, value) in &report.metrics {
        assert!(
            defs.iter().any(|m| m.0 == *name),
            "{what}: unlisted metric {name}"
        );
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
    let json = report.to_json(defs);
    let parsed = json_parse(&json).expect("the result line parses");
    let metrics = parsed.get("metrics").expect("metrics");
    for (name, unit, _) in defs {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{what}: {name}"
        );
    }
    assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
}

/// `--smoke` end to end for one workload: the untraced run, the traced
/// run with its span file, and a second traced run whose exact metrics
/// must repeat.
fn smoke(index: usize) {
    let w = &WORKLOADS[index];
    let out_dir = manifest_dir().join("out").join("test").join(w.name);
    std::fs::create_dir_all(&out_dir).expect("test output directory");
    let plain = end_to_end(w, 5, 0.0, true, &out_dir);
    assert_complete(&plain, &END_TO_END, w.name);
    for (name, _, _) in END_TO_END {
        assert!(
            plain.value(name) > 0.0,
            "{}: {name} must never read 0",
            w.name
        );
    }
    let traced = ledger::run(w, 5, 0.0, true, &out_dir);
    assert_complete(&traced, &PER_LAYER, w.name);
    let spans = std::fs::read_to_string(out_dir.join(format!("{}.trace.json", w.name)))
        .expect("the span file");
    let spans = json_parse(&spans).expect("the span file parses");
    assert!(spans
        .get("spans")
        .and_then(Json::as_arr)
        .is_some_and(|s| s.len() > 10));
    let again = ledger::run(w, 5, 0.0, true, &out_dir);
    for name in EXACT {
        assert_eq!(
            traced.value(name),
            again.value(name),
            "{}: {name} must repeat",
            w.name
        );
    }
    // The layers this workload enters report; each exact row is entered
    // by at least the workload that owns it.
    assert!(traced.value("core.parallel.sim4.steps") > 0.0);
    assert!(traced.value("core.wire.bytes_per_msg") > 0.0);
    let owned = match w.kind {
        Kind::SeqSwitch => "core.sequential.attempts",
        Kind::Curveball => "core.trade.neighbors_moved_per_trade",
        Kind::ThrSwitch => "core.parallel.msg_wait_share",
        Kind::ProcSwitch | Kind::GenBoot => "core.proc.fixed_cost_s",
        Kind::Svc => "svc.ckpt.bytes_written_per_job",
    };
    assert!(traced.value(owned) > 0.0, "{}: {owned}", w.name);
}

#[test]
fn smoke_seq_switch() {
    smoke(0);
}

#[test]
fn smoke_thr_switch() {
    smoke(1);
}

#[test]
fn smoke_proc_switch() {
    smoke(2);
}

#[test]
fn smoke_genboot() {
    smoke(3);
}

#[test]
fn smoke_curveball() {
    smoke(4);
}

#[test]
fn smoke_svc() {
    smoke(5);
}
