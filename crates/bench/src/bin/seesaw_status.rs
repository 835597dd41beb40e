//! `seesaw-status`: renders a sweep's live `status.json` as a human
//! table.
//!
//! ```text
//! seesaw-status [PATH] [--follow] [--assert-done] [--interval-ms N]
//! seesaw-status --check-prom FILE
//! ```
//!
//! `PATH` is the status directory (or the `status.json` itself);
//! defaults to `SEESAW_STATUS`, then `target/status`. The writer
//! replaces the file atomically, so polling it (`--follow`) always
//! reads one complete document. `--assert-done` exits nonzero unless
//! the snapshot is terminal — the CI smoke step uses it. `--check-prom`
//! validates a Prometheus textfile with the independent parser and
//! exits accordingly.

use seesaw_sim::Table;
use seesaw_trace::json::Json;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: seesaw-status [PATH] [--follow] [--assert-done] [--interval-ms N]\n       seesaw-status --check-prom FILE"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<PathBuf> = None;
    let mut follow = false;
    let mut assert_done = false;
    let mut interval_ms = 500u64;
    let mut check_prom: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--follow" => follow = true,
            "--assert-done" => assert_done = true,
            "--interval-ms" => {
                i += 1;
                interval_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--check-prom" => {
                i += 1;
                check_prom = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--help" | "-h" => usage(),
            a if a.starts_with('-') => usage(),
            a => {
                if path.replace(PathBuf::from(a)).is_some() {
                    usage();
                }
            }
        }
        i += 1;
    }

    if let Some(file) = check_prom {
        let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
            eprintln!("error: reading {}: {e}", file.display());
            std::process::exit(2);
        });
        match seesaw_trace::prometheus::validate(&text) {
            Ok(report) => {
                println!(
                    "{}: valid Prometheus text format ({} samples, {} gauges, {} histograms)",
                    file.display(),
                    report.samples,
                    report.gauges,
                    report.histograms
                );
                return;
            }
            Err(e) => {
                eprintln!("{}: {e}", file.display());
                std::process::exit(1);
            }
        }
    }

    let path = resolve_path(path);
    loop {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!(
                "error: reading {}: {e} (is a sweep running with SEESAW_STATUS set?)",
                path.display()
            );
            std::process::exit(2);
        });
        let doc = Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: {} is not valid JSON: {e}", path.display());
            std::process::exit(2);
        });
        let state = doc.get("state").and_then(Json::as_str).unwrap_or("?");
        println!("{}", render(&doc));
        let done = state == "done";
        if done || !follow {
            if assert_done && !done {
                eprintln!("error: sweep is not terminal (state: {state})");
                std::process::exit(1);
            }
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
        println!();
    }
}

fn resolve_path(arg: Option<PathBuf>) -> PathBuf {
    let base = arg.unwrap_or_else(|| match std::env::var("SEESAW_STATUS") {
        Ok(v) if !v.is_empty() => PathBuf::from(v),
        _ => PathBuf::from("target/status"),
    });
    if base.is_dir() || base.file_name().is_none_or(|f| f != "status.json") {
        base.join("status.json")
    } else {
        base
    }
}

fn render(doc: &Json) -> String {
    let str_of = |v: Option<&Json>| v.and_then(Json::as_str).unwrap_or("?").to_string();
    let u64_of = |v: Option<&Json>| v.and_then(Json::as_u64).unwrap_or(0);
    let f64_of = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0);

    let mut out = format!(
        "sweep {} — {} ({} threads, {:.1}s elapsed)\n",
        str_of(doc.get("sweep")),
        str_of(doc.get("state")),
        u64_of(doc.get("threads")),
        u64_of(doc.get("elapsed_ms")) as f64 / 1e3,
    );

    let mut t = Table::new(vec![
        "#".to_string(),
        "cell".to_string(),
        "digest".to_string(),
        "state".to_string(),
        "phase".to_string(),
        "progress".to_string(),
        "Minstr".to_string(),
        "try".to_string(),
    ]);
    for cell in doc
        .get("cells")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
    {
        let state = str_of(cell.get("state"));
        let cached = cell.get("cached").and_then(Json::as_bool).unwrap_or(false);
        t.row(vec![
            u64_of(cell.get("index")).to_string(),
            str_of(cell.get("label")),
            str_of(cell.get("digest")),
            if cached {
                format!("{state} (cached)")
            } else {
                state
            },
            str_of(cell.get("phase")),
            format!("{:.0}%", f64_of(cell.get("fraction")) * 100.0),
            format!("{:.2}", u64_of(cell.get("instructions")) as f64 / 1e6),
            format!(
                "{}/{}",
                u64_of(cell.get("attempt")),
                u64_of(cell.get("retries"))
            ),
        ]);
    }
    out.push_str(&t.to_string());

    if let Some(r) = doc.get("rollup") {
        out.push_str(&format!(
            "rollup: {} cells ({} done, {} running, {} queued, {} retrying, {} failed, {} skipped; {} cached) — {:.2} Minstr/s",
            u64_of(r.get("cells")),
            u64_of(r.get("done")),
            u64_of(r.get("running")),
            u64_of(r.get("queued")),
            u64_of(r.get("retrying")),
            u64_of(r.get("failed")),
            u64_of(r.get("skipped")),
            u64_of(r.get("cached")),
            f64_of(r.get("minstr_per_sec")),
        ));
        let eta = f64_of(r.get("eta_seconds"));
        if eta > 0.0 {
            out.push_str(&format!(", ETA {eta:.0}s"));
        }
        out.push('\n');
    }
    if let Some(s) = doc.get("supervisor") {
        let noisy = u64_of(s.get("panics_caught"))
            + u64_of(s.get("timeouts"))
            + u64_of(s.get("retries"))
            + u64_of(s.get("permanent_failures"))
            + u64_of(s.get("cells_skipped"));
        if noisy > 0 {
            out.push_str(&format!(
                "supervisor: {} panics, {} timeouts, {} retries, {} permanent failures, {} skipped\n",
                u64_of(s.get("panics_caught")),
                u64_of(s.get("timeouts")),
                u64_of(s.get("retries")),
                u64_of(s.get("permanent_failures")),
                u64_of(s.get("cells_skipped")),
            ));
        }
    }
    match doc.get("store") {
        Some(Json::Null) | None => {}
        Some(s) => out.push_str(&format!(
            "store: {} hits / {} misses, {} writes\n",
            u64_of(s.get("hits")),
            u64_of(s.get("misses")),
            u64_of(s.get("writes")),
        )),
    }
    out
}
