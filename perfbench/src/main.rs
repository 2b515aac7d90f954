//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <file>] [--quick]
//! perfbench spread [--bounds BENCHMARK.json] <record>...
//! perfbench compare [--bounds BENCHMARK.json] --base <record>... --new <record>...
//! ```
//!
//! A run prints one line per metric and, last, the JSON result line. It
//! exits 1 when an output check failed and 2 on a usage error or a
//! refused comparison.

use std::process::ExitCode;

use perfbench::record::{self, Record};
use perfbench::{Opts, END_TO_END, PER_LAYER};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <tower_tcp|flood_engine|daemon_sweep> [--seed <n>] \
         [--seconds <s>] [--trace <0|1>] [--out <file>] [--quick]\n       \
         perfbench spread [--bounds <BENCHMARK.json>] <record>...\n       \
         perfbench compare [--bounds <BENCHMARK.json>] --base <record>... --new <record>..."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("spread") => spread(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => run(&args),
    }
}

fn run(args: &[String]) -> ExitCode {
    let (mut workload, mut out, mut quick) = (None, None, false);
    let (mut seed, mut seconds, mut trace) = (
        Some(perfbench::DEFAULT_SEED),
        Some(perfbench::DEFAULT_SECONDS),
        Some(false),
    );
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--out" => out = Some(value.clone()),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, trace)
    else {
        return usage("--workload is required; --seed, --seconds and --trace need valid values");
    };
    let opts = Opts {
        seed,
        seconds,
        quick,
    };
    let outcome = match perfbench::run(&workload, opts, traced) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    for failure in &outcome.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!("fingerprint {}", outcome.fingerprint.to_json());
    let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in list {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("{workload} {name} {value} {unit}");
    }
    // Context outside the metric list: the host-speed yardstick and the
    // rates before rescaling to the reference host speed.
    for (name, value) in &outcome.metrics {
        if !list.iter().any(|(n, _)| n == name) {
            println!("{workload} {name} {value} (context)");
        }
    }
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, record::record_json(&outcome, traced, seconds)) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", record::result_line(&outcome, traced));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Splits `--bounds <file>` off the front of `args`.
fn bounds(args: &[String]) -> Result<(Vec<record::Bound>, &[String]), String> {
    let (path, rest) = match args {
        [flag, path, rest @ ..] if flag == "--bounds" => (path.as_str(), rest),
        _ => ("BENCHMARK.json", args),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok((record::parse_bounds(&text)?, rest))
}

fn load(paths: &[String]) -> Result<Vec<Record>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
            record::parse_record(&text).map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

fn spread(args: &[String]) -> ExitCode {
    let result = bounds(args).and_then(|(bounds, files)| Ok((bounds, load(files)?)));
    let (bounds, records) = match result {
        Ok(r) => r,
        Err(e) => return usage(&e),
    };
    if records.is_empty() {
        return usage("spread needs at least one record");
    }
    let (text, ok) = record::spread_report(&records, &bounds);
    print!("{text}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn compare(args: &[String]) -> ExitCode {
    let (bounds, rest) = match bounds(args) {
        Ok(r) => r,
        Err(e) => return usage(&e),
    };
    let Some(split) = rest.iter().position(|a| a == "--new") else {
        return usage("compare needs --base <records> --new <records>");
    };
    if rest.first().map(String::as_str) != Some("--base") {
        return usage("compare needs --base <records> --new <records>");
    }
    let (base, new) = match (load(&rest[1..split]), load(&rest[split + 1..])) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => return usage(&e),
    };
    match record::compare_report(&base, &new, &bounds) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(refusal) => {
            eprintln!("perfbench: {refusal}");
            ExitCode::from(2)
        }
    }
}
