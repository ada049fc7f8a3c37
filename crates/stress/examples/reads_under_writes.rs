//! Unthrottled zipfian point lookups beside a fixed-**rate** writer: what
//! an epoch swap costs the reads next to it, at any client count
//! (EXPERIMENTS.md "The epoch pin under more clients").
//!
//! ```text
//! cargo run --release --offline -p vcgp-stress --example reads_under_writes -- CLIENTS SEED
//! ```
//!
//! The reads are the `stress --mix points --zipf-s 0.99` scenario through
//! [`driver::run_scenario`]; the writes come from one thread of this file
//! calling [`ShardedGraphService::submit_mutation`] on a fixed schedule
//! (10/s for 8 s), whatever the readers achieve — the run stays read-bound.
//! `stress --write-ratio R` cannot show this: its write rate is R × the
//! read rate, which ends writer-bound long before the readers' pin is the
//! limit. Prints one line: `clients seed ops_s writes swaps errors`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcgp_graph::generators;
use vcgp_stress::dist::DistSpec;
use vcgp_stress::driver;
use vcgp_stress::epoch::{mutation_op, MutationConfig};
use vcgp_stress::scenario::ScenarioSpec;
use vcgp_stress::service::ServiceConfig;
use vcgp_stress::shard::ShardedGraphService;

const SECONDS: f64 = 8.0;
const WRITE_STEP: Duration = Duration::from_millis(100);

fn main() {
    let arg = |i: usize| -> u64 {
        let arg = std::env::args()
            .nth(i)
            .expect("usage: reads_under_writes CLIENTS SEED");
        arg.parse().expect("a number")
    };
    let (clients, seed) = (arg(1) as usize, arg(2));

    let graph = Arc::new(generators::gnm_connected(65_536, 524_288, 7));
    let mut spec = ScenarioSpec::preset("points", DistSpec::parse("zipfian:0.99").unwrap(), 0.0)
        .expect("built-in preset");
    spec.phases[0].duration = Some(SECONDS);
    spec.clients = Some(clients);
    spec.seed = Some(seed);
    let scenario = spec.resolve(&graph).expect("preset resolves");
    let service = ShardedGraphService::start(
        Arc::clone(&graph),
        ServiceConfig {
            executors: 1,
            mutations: Some(MutationConfig::default()),
            ..ServiceConfig::default()
        },
        2,
    );

    let done = AtomicBool::new(false);
    let (report, writes) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let origin = Instant::now();
            let mut sent = 0u64;
            while !done.load(Ordering::Relaxed) {
                service
                    .submit_mutation(mutation_op(seed, sent, graph.num_vertices()))
                    .expect("the writer accepts");
                sent += 1;
                std::thread::sleep(
                    (origin + WRITE_STEP * sent as u32).saturating_duration_since(Instant::now()),
                );
            }
            sent
        });
        let report = driver::run_scenario(&service, &scenario);
        done.store(true, Ordering::Relaxed);
        (report, writer.join().unwrap())
    });
    service.shutdown();
    println!(
        "{clients} {seed} {:.0} {writes} {} {}",
        report.throughput(),
        report.epochs.stats.swaps,
        report.errors
    );
}
