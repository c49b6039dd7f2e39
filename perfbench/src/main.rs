//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's record as one JSON line, then, as the last line of
//! standard output, `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! A traced run also writes its spans as JSON lines under `perfbench/out/`.

use perfbench::run::{run, Options, Report};
use perfbench::workload::{Size, Workload};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <fem-ldoor|circuit-g3|poisson-cg> --seed <u64> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
        perturb_outputs: false,
    })
}

fn result_line(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    ))
}

fn write_trace(report: &Report, opts: &Options) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-seed{}.spans.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    report.tracer.write_jsonl(&mut out)?;
    out.flush()?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let line = match result_line(&report) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.trace {
        match write_trace(&report, &opts) {
            Ok(path) => eprintln!("perfbench: spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
        for (name, (count, total, own)) in report.tracer.summary() {
            eprintln!("span {name:<24} n={count:<6} total={total:.6}s self={own:.6}s");
        }
    }
    let record: Vec<String> = report
        .record
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("{{\"record\":{{{}}}}}", record.join(","));
    println!("{line}");
    ExitCode::SUCCESS
}
