//! Command line: `servebench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--out-dir <dir>] [--shards <n>]`. Prints diagnostics
//! on stderr and, as the last line of stdout, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--shards` overrides
//! the workload's shard count for the README's scaling row, within the
//! cores: shards plus the log writer never outnumber them.

use servebench::serve::{run, Options, Workload};
use servebench::stats::host_speed;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("servebench: {msg}");
    eprintln!(
        "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] [--shards <n>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/servebench");
    let mut shards = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = Some(s),
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage(&format!("bad trace {value:?}")),
            },
            "--out-dir" => out_dir = PathBuf::from(value),
            "--shards" => match value.parse::<usize>() {
                Ok(n) => shards = Some(n),
                _ => return usage(&format!("bad shards {value:?}")),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    // Every shard is a worker thread.
    if let Some(n) = shards {
        let max = workload.max_shards();
        if !(1..=max).contains(&n) {
            return usage(&format!(
                "{} may run 1 to {max} shards on this machine, not {n}",
                workload.name()
            ));
        }
    }
    let host_before = host_speed();
    let mut opts = Options::new(workload, seed, seconds, trace, out_dir);
    if let Some(n) = shards {
        opts.shards = n;
    }
    let outcome = run(&opts);
    let host_after = host_speed();

    for f in &outcome.failures {
        eprintln!("servebench: CHECK FAILED: {f}");
    }
    let mut diag: Vec<String> = outcome
        .diag
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
        .collect();
    diag.push(format!(
        "\"host_alu_ns\": [{}, {}]",
        host_before.alu_ns, host_after.alu_ns
    ));
    diag.push(format!(
        "\"host_mem_ns\": [{}, {}]",
        host_before.mem_ns, host_after.mem_ns
    ));
    eprintln!(
        "servebench-diag {{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {trace}, {}}}",
        workload.name(),
        diag.join(", ")
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
