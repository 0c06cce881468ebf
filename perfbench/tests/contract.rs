//! The benchmark's own tests, at a tiny size: determinism of inputs and
//! exact counts, typed failure accounting, and the metric names and units
//! `BENCHMARK.json` promises.

use fcbench_perfbench::report::FailKind;
use fcbench_perfbench::{contract_metrics, run, serve, spec, Opts, Outcome, Scale};

fn tiny_run(workload: &str, seed: u64, trace: bool, scale: &Scale) -> Outcome {
    let opts = Opts {
        workload: workload.into(),
        seed,
        seconds: 0.2,
        trace,
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "fcbench-perfbench-test-{}-{workload}-{seed}-{trace}",
            std::process::id()
        )),
    };
    let outcome = run(&opts, scale).expect("known workload");
    std::fs::remove_dir_all(&opts.out_dir).ok();
    outcome
}

#[test]
fn same_seed_gives_identical_inputs_and_exact_counts() {
    let scale = Scale::tiny();
    for workload in spec::WORKLOADS {
        let a = tiny_run(workload, 7, false, &scale);
        let b = tiny_run(workload, 7, false, &scale);
        let c = tiny_run(workload, 8, false, &scale);
        assert!(a.correct() && b.correct(), "{workload}: {:?}", a.tally);
        assert_eq!(a.inputs, b.inputs, "{workload}: inputs differ for one seed");
        assert_ne!(a.inputs, c.inputs, "{workload}: another seed, same inputs");
        for exact in ["pool.jobs", "container.records"] {
            assert_eq!(
                a.layers.get(exact),
                b.layers.get(exact),
                "{workload}: {exact}"
            );
        }
        assert_eq!(
            a.e2e.get("compression_ratio"),
            b.e2e.get("compression_ratio"),
            "{workload}"
        );
    }
}

#[test]
fn another_seed_gives_another_arrival_schedule() {
    let a = serve::schedule(1, 20, 500.0, 1.0);
    assert_eq!(a, serve::schedule(1, 20, 500.0, 1.0));
    assert_ne!(a, serve::schedule(2, 20, 500.0, 1.0));
    // Poisson at 500/s over a second: a few hundred arrivals.
    assert!((350..650).contains(&a.len()), "{} arrivals", a.len());
}

#[test]
fn a_refused_request_is_counted_not_panicked() {
    let mut scale = Scale::tiny();
    // Below one large request (2048 single-precision elements).
    scale.serve_max_request_bytes = 4096;
    let outcome = tiny_run("serve-openloop", 3, false, &scale);
    assert!(!outcome.correct());
    assert!(outcome.tally.failed() > 0);
    assert!(outcome.tally.failed() < outcome.tally.attempted);
    assert_eq!(outcome.tally.count(FailKind::Other), outcome.tally.failed());
    let ok_rate = outcome.e2e.get("ok_rate").expect("ok_rate set");
    let error_rate = outcome.layers.get("error_rate").expect("error_rate set");
    assert!(error_rate > 0.0 && (ok_rate + error_rate - 1.0).abs() < 1e-12);
}

/// `(name, unit)` of each metric object in the `section` array of
/// `BENCHMARK.json`, which holds one metric per line.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let e2e: Vec<(String, String)> = spec::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<(String, String)> = spec::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let scale = Scale::tiny();
    for workload in spec::WORKLOADS {
        for trace in [false, true] {
            let outcome = tiny_run(workload, 5, trace, &scale);
            assert!(
                outcome.correct(),
                "{workload} trace={trace}: {:?}",
                outcome.tally
            );
            let printed = contract_metrics(&outcome, trace);
            let expected: Vec<(String, &str)> = if trace {
                spec::per_layer()
            } else {
                spec::END_TO_END
                    .iter()
                    .map(|&(n, u)| (n.to_string(), u))
                    .collect()
            };
            assert_eq!(printed.names().count(), expected.len());
            for (name, unit) in expected {
                assert_eq!(printed.unit(&name), Some(unit), "{workload}: {name}");
                let v = printed.get(&name).expect("printed");
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                if !trace {
                    assert!(v > 0.0, "{workload}: end-to-end {name} is 0");
                }
            }
            if trace {
                assert!(outcome.layers.get("trace.spans").unwrap_or(0.0) > 0.0);
            }
        }
    }
}
