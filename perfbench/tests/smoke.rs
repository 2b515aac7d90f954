//! Quick-mode smoke runs: every workload, untraced and traced, on small
//! inputs. Each must pass its own output checks and report every metric
//! of its list.

use perfbench::{run, Opts, END_TO_END, PER_LAYER, WORKLOADS};

fn quick(seed: u64) -> Opts {
    Opts {
        seed,
        seconds: 0.0,
        quick: true,
    }
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for workload in WORKLOADS {
        for traced in [false, true] {
            let out = run(workload, quick(7), traced).expect("known workload");
            assert!(
                out.correct(),
                "{workload} (traced: {traced}) failed its checks: {:?}",
                out.failures
            );
            assert!(out.attempted > 0);
            let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            for (name, _) in list {
                let value = out.metrics.get(name).copied();
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} (traced: {traced}) lacks {name}"
                );
                if !traced {
                    assert!(value > Some(0.0), "{workload}: {name} reads {value:?}");
                }
            }
            assert_eq!(out.fingerprint.workload, workload);
        }
    }
}

#[test]
fn the_seed_alone_decides_the_inputs() {
    let a = run("flood_engine", quick(1), false).unwrap().fingerprint;
    let b = run("flood_engine", quick(1), false).unwrap().fingerprint;
    assert_eq!(a, b, "same seed, same work and outputs");
    let c = run("flood_engine", quick(2), false).unwrap().fingerprint;
    assert_ne!(a.config_hash, c.config_hash);
    assert!(a.check_comparable(&c).is_err(), "other seed, other work");
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run("no_such_workload", quick(1), false).is_err());
}
