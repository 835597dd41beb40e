//! Records a workload's reference stream to a binary trace file, the way
//! the paper's Pin traces were captured once and replayed everywhere.
//!
//! ```sh
//! cargo run --release -p seesaw-bench --bin record_trace -- redis 500000 redis.sstr
//! ```

use seesaw_workloads::{catalog, TraceFile, TraceGenerator};

fn main() {
    let mut args = std::env::args().skip(1);
    let workload = args.next().unwrap_or_else(|| "redis".into());
    let count: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(500_000);
    let path = args.next().unwrap_or_else(|| format!("{workload}.sstr"));

    let Some(spec) = catalog().into_iter().find(|w| w.name == workload) else {
        eprintln!("unknown workload {workload}; known:");
        for w in catalog() {
            eprintln!("  {}", w.name);
        }
        std::process::exit(1);
    };

    let mut generator = TraceGenerator::new(&spec, 0x7ace);
    let trace = TraceFile::record(&mut generator, count);
    let writes = trace.refs().iter().filter(|r| r.is_write).count();
    trace.save(&path).expect("write trace file");
    println!(
        "recorded {count} refs ({} instructions, {:.1}% writes) of {workload} to {path}",
        trace.instructions(),
        100.0 * writes as f64 / count as f64,
    );
    let reloaded = TraceFile::load(&path).expect("read back");
    assert_eq!(reloaded.refs().len(), count);
    println!("verified: file replays identically");
}
