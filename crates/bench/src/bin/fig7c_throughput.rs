//! Figure 7c: sustained data-reduction throughput (operations/second)
//! vs number of back-ends.
//!
//! Paper series: flat, 4-way, 8-way; moderate fan-outs let reductions
//! pipeline through the tree ("keeping reduction throughput high as
//! application size increases") at ~70 ops/s, while the flat topology
//! collapses to single digits.
//!
//! Run with: `cargo run -p mrnet-bench --release --bin fig7c_throughput`
//!
//! Quick bench mode — `--quick [path]` — skips the simulator tables and
//! instead measures live threaded trees at 2–3 small fan-outs, writing
//! the throughput series as JSON (default `BENCH_fig7c.json`) so CI can
//! track the perf trajectory of the real send pipeline over time.

use std::time::Instant;

use mrnet::obs::{trace, tracectx};
use mrnet::simulate::{reduction_throughput, SMALL_PACKET};
use mrnet_bench::{
    experiment_topology, fanout_label, print_header, print_row, print_trace_latency_table,
    BenchTree,
};
use mrnet_packet::BatchPolicy;
use mrnet_sim::LogGpParams;

/// One `--quick` measurement: pipelined reduction waves through a live
/// threaded tree, reported as waves/second and leaf-packets/second
/// (each wave aggregates one packet from every back-end).
fn quick_case(fanout: Option<usize>, backends: usize, waves: usize) -> (f64, f64) {
    let tree = BenchTree::new(
        experiment_topology(fanout, backends),
        BatchPolicy::default(),
    );
    tree.reduction_waves(waves / 10); // warm-up
    let start = Instant::now();
    tree.reduction_waves(waves);
    let secs = start.elapsed().as_secs_f64();
    tree.shutdown();
    let ops = waves as f64 / secs;
    (ops, ops * backends as f64)
}

/// `--quick [path]`: live-tree throughput at small fan-outs, printed
/// and written as JSON for the CI perf-trajectory step.
fn quick_bench(path: &str) {
    const WAVES: usize = 300;
    let cases = [(Some(2), 4usize), (Some(4), 8), (None, 8)];
    let mut rows = Vec::new();
    println!("fig7c quick bench: {WAVES} pipelined reduction waves per live tree\n");
    println!(
        "{:>10} {:>10} {:>14} {:>14}",
        "topology", "backends", "waves/s", "leaf pkts/s"
    );
    for (fanout, backends) in cases {
        let (ops, pkts) = quick_case(fanout, backends, WAVES);
        println!(
            "{:>10} {backends:>10} {ops:>14.1} {pkts:>14.1}",
            fanout_label(fanout)
        );
        rows.push(format!(
            "    {{\"topology\": \"{}\", \"backends\": {backends}, \"waves_per_sec\": {ops:.1}, \"leaf_pkts_per_sec\": {pkts:.1}}}",
            fanout_label(fanout)
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"fig7c_quick\",\n  \"waves\": {WAVES},\n  \"series\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(path, &json).expect("write bench json");
    println!("\nwrote {path}");

    // With MRNET_TRACE=1 the quick run also produces the distributed-
    // tracing latency breakdown: every wave through one more live tree
    // is traced, the per-hop table is printed, and shutdown dumps the
    // full snapshot (trace histograms included) to MRNET_METRICS_FILE
    // for the CI perf-trajectory artifacts.
    if trace::enabled() {
        tracectx::set_sample_every(1);
        println!("\nper-hop latency, live 2-way tree with 4 back-ends (every wave traced):\n");
        let tree = BenchTree::new(experiment_topology(Some(2), 4), BatchPolicy::default());
        tree.reduction_waves(WAVES);
        // Let straggler down-wave TRACE_REPORTs drain before reading.
        std::thread::sleep(std::time::Duration::from_millis(200));
        print_trace_latency_table(&tree.net);
        tree.shutdown();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--quick") {
        let path = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_fig7c.json".to_owned());
        return quick_bench(&path);
    }
    println!("Figure 7c: pipelined reduction throughput (ops/second) vs back-ends\n");
    let fanouts = [None, Some(4), Some(8)];
    print_header(
        "backends",
        &fanouts.iter().map(|&f| fanout_label(f)).collect::<Vec<_>>(),
    );
    for backends in [4usize, 8, 16, 32, 64, 128, 256, 384, 512] {
        let row: Vec<f64> = fanouts
            .iter()
            .map(|&fanout| {
                let topo = experiment_topology(fanout, backends);
                reduction_throughput(&topo, LogGpParams::blue_pacific(), SMALL_PACKET, 50)
            })
            .collect();
        print_row(backends, &row);
    }
    println!("\npaper shape: trees sustain ~70 ops/s out to 512 back-ends; flat collapses");

    // Live-tree cross-check: pipeline reduction waves through a real
    // threaded tree with every wave traced, then report the assembled
    // per-hop latencies and the per-node packet and filter costs.
    println!("\nper-hop latency, live 2-way tree with 4 back-ends (every wave traced):\n");
    trace::set_enabled(true);
    tracectx::set_sample_every(1);
    let tree = BenchTree::new(experiment_topology(Some(2), 4), BatchPolicy::default());
    tree.reduction_waves(200);
    // Let straggler down-wave TRACE_REPORTs drain before reading.
    std::thread::sleep(std::time::Duration::from_millis(200));
    print_trace_latency_table(&tree.net);
    tree.shutdown();
}
