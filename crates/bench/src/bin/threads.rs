//! Thread-scaling of the exact engine: the same workloads at 1, 2, 4, and
//! 8 workers, checking both wall-clock time and that the posterior is
//! bit-for-bit identical at every thread count.
//!
//! Run with: `cargo run --release -p bayonet-bench --bin threads`
//!
//! Note on reading the numbers: speedup is bounded by the number of
//! *physical* cores the host exposes. On a single-core container every
//! extra worker is pure overhead (thread spawn + chunk hand-off), so the
//! interesting signal there is that the overhead stays small and the
//! answers stay identical; run on a multi-core host to see the speedup.

use bayonet::{scenarios, ExactOptions, Rat, Sched};
use bayonet_bench::{fmt_duration, time_exact_with};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn main() -> Result<(), bayonet::Error> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("exact-engine thread scaling (host exposes {cores} core(s))\n");

    let workloads: Vec<(&str, bayonet::Network)> = vec![
        ("gossip K4", scenarios::gossip(4, Sched::Uniform)?),
        ("gossip K5", scenarios::gossip(5, Sched::Uniform)?),
        (
            "reliability chain (10 diamonds)",
            scenarios::reliability_chain(10, &Rat::ratio(1, 1000), Sched::Uniform)?,
        ),
    ];

    for (name, network) in &workloads {
        println!("{name}:");
        println!("{:>9} {:>9} {:>9}", "threads", "time", "speedup");
        let mut baseline = None;
        let mut reference = None;
        for threads in THREADS {
            let opts = ExactOptions {
                threads,
                ..ExactOptions::default()
            };
            let m = time_exact_with(network, 0, &opts)?;
            match &reference {
                None => reference = Some(m.value.clone()),
                Some(r) => assert_eq!(
                    r, &m.value,
                    "{name}: posterior diverged at {threads} threads"
                ),
            }
            let base = *baseline.get_or_insert(m.elapsed);
            println!(
                "{:>9} {:>9} {:>8.2}x",
                threads,
                fmt_duration(m.elapsed),
                base.as_secs_f64() / m.elapsed.as_secs_f64()
            );
        }
        println!();
    }
    Ok(())
}
