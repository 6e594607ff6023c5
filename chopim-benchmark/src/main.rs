//! `chopim-benchmark` — the repository benchmark: one workload per
//! invocation, end-to-end metrics from the untraced build and per-layer
//! metrics from the `perf-counters` build with `--trace 1`.
//!
//! ```text
//! chopim-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! It prints each metric as `name value unit (n=samples)`, writes
//! `bench-out/<workload>.json` (traced: `<workload>.traced.json` and the
//! span file `trace_<workload>.json`), and ends its standard output with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. It
//! exits 1 when a check failed, 2 on bad arguments. See `BENCHMARK.md`.

#![forbid(unsafe_code)]

mod layers;
#[cfg(test)]
mod manifest;
mod measure;
mod metrics;
mod spans;
mod stats;
mod workloads;

use chopim_dram::perfcount;

use crate::workloads::{Bench, ALL};

const USAGE: &str =
    "usage: chopim-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]";

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut bench, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = ALL.iter().map(|b| b.name()).collect();
                bench = Some(Bench::parse(value).ok_or_else(|| {
                    format!(
                        "unknown workload `{value}`; choose one of {}",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write `body` under `bench-out/`, warning rather than failing: the
/// printed result line is the benchmark's output of record.
fn write_out(file: &str, body: &str) {
    let path = std::path::Path::new("bench-out").join(file);
    let result = std::fs::create_dir_all("bench-out").and_then(|()| std::fs::write(&path, body));
    if let Err(e) = result {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn main() {
    // `ChopimConfig::default()` reads these knobs, also inside library
    // code the benchmark cannot configure (the SVRG time model): clear
    // them so every run measures the same engine. Nothing else runs yet.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CHOPIM_") {
            std::env::remove_var(&key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.trace && !perfcount::ENABLED {
        eprintln!("--trace 1 needs a build with `--features perf-counters`");
        std::process::exit(2);
    }

    let name = args.bench.name();
    eprintln!(
        "{name}: seed {} for {} s{} on {} hardware threads",
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let o = measure::run(args.bench, args.seed, args.seconds, args.trace, 1);

    for (def, value) in &o.metrics.0 {
        match o.samples.iter().find(|(m, _)| *m == def.name) {
            Some((_, n)) => println!("{} {value} {} (n={n})", def.name, def.unit),
            None => println!("{} {value} {}", def.name, def.unit),
        }
    }
    for (key, value) in &o.notes {
        println!("{key} {value}");
    }
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        o.metrics.to_json()
    );
    let list = |xs: &[f64]| xs.iter().map(f64::to_string).collect::<Vec<_>>().join(", ");
    let failures: Vec<String> = o.failures.iter().map(|f| json_string(f)).collect();
    let record = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, \"report_digest\": \"{:016x}\", \
         \"wall_s_samples\": [{}], \"setup_s_samples\": [{}], \"failures\": [{}], \"result\": {line}}}\n",
        args.seed,
        u8::from(args.trace),
        o.digest,
        list(&o.wall_samples),
        list(&o.setup_samples),
        failures.join(", ")
    );
    if let Some(tr) = &o.tracer {
        write_out(&format!("{name}.traced.json"), &record);
        write_out(&format!("trace_{name}.json"), &tr.to_chrome_json());
    } else {
        write_out(&format!("{name}.json"), &record);
    }
    println!("{line}");
    if o.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload op_sweep --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.bench, a.seed, a.seconds, a.trace),
            (Bench::OpSweep, 3, 10.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload op_sweep").is_err());
        assert!(args("--workload op_sweep --seed 1 --trace 2").is_err());
        assert!(args("--workload op_sweep --seed").is_err());
    }
}
