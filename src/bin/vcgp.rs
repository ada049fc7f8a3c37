//! `vcgp` — command-line front end for the workspace: generate graphs,
//! inspect them, and run any Table 1 algorithm on an edge-list file.
//!
//! ```text
//! vcgp gen <family> [args...] -o graph.txt     # write a generated graph
//! vcgp info <file> [--directed]                # n, m, degrees, components
//! vcgp run <algorithm> <file> [options]        # run + print stats
//! ```
//!
//! Families: `path N`, `cycle N`, `tree N SEED`, `grid R C`,
//! `gnm N M SEED`, `gnm-connected N M SEED`, `rmat SCALE M SEED`,
//! `bipartite NL NR M SEED`, `labeled N M LABELS SEED`.
//!
//! Algorithms: `cc`, `sv`, `wcc`, `scc`, `pagerank`, `sssp`, `diameter`,
//! `mst`, `coloring`, `matching`, `bc`, `triangles`, `reach`.
//!
//! A malformed command line exits 2 and a file that cannot be read or
//! written exits 1, each with a one-line `error:` on stderr.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::exit;
use vcgp::core::BspCostModel;
use vcgp::graph::{generators, io, Graph};
use vcgp::pregel::{PregelConfig, RunStats};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("help") | Some("--help") | None => {
            usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `vcgp help`")),
    };
    if let Err(msg) = result {
        eprintln!("error: {msg}");
        exit(2);
    }
}

/// A graph file that cannot be read or written exits 1; every `Err` the
/// commands return is a malformed command line and exits 2.
fn io_failure(msg: String) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

fn usage() {
    eprintln!(
        "vcgp — vertex-centric graph processing\n\n\
         USAGE:\n  vcgp gen <family> [args...] -o <file>\n  \
         vcgp info <file> [--directed]\n  \
         vcgp run <algorithm> <file> [--directed] [--workers N] [--source S]\n\n\
         FAMILIES: path N | cycle N | tree N SEED | grid R C | gnm N M SEED |\n\
         \u{20}         gnm-connected N M SEED | rmat SCALE M SEED |\n\
         \u{20}         bipartite NL NR M SEED | labeled N M LABELS SEED\n\n\
         ALGORITHMS: cc sv wcc scc pagerank sssp diameter mst coloring\n\
         \u{20}           matching bc triangles reach"
    );
}

/// The value after `key`, or `None` when `key` is absent; `key` last on
/// the line, with no value, is an error.
fn flag_value<'a>(args: &'a [String], key: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == key) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("{key} needs a value")),
        },
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: {s:?}"))
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let out = flag_value(args, "-o")?.ok_or("gen needs -o <file>")?;
    // The family and its arguments are everything before `-o`.
    let args = &args[..args.iter().position(|a| a == "-o").unwrap_or(args.len())];
    let family = args.first().ok_or("gen needs a family")?;
    let p = |i: usize, what: &str| -> Result<usize, String> {
        parse(args.get(i).ok_or_else(|| format!("missing {what}"))?, what)
    };
    let s = |i: usize| -> Result<u64, String> { parse(args.get(i).ok_or("missing seed")?, "seed") };
    let graph = match family.as_str() {
        "path" => generators::path(p(1, "n")?),
        "cycle" => generators::cycle(p(1, "n")?),
        "tree" => generators::random_tree(p(1, "n")?, s(2)?),
        "grid" => generators::grid(p(1, "rows")?, p(2, "cols")?),
        "gnm" => generators::gnm(p(1, "n")?, p(2, "m")?, s(3)?),
        "gnm-connected" => generators::gnm_connected(p(1, "n")?, p(2, "m")?, s(3)?),
        "rmat" => generators::rmat(p(1, "scale")? as u32, p(2, "m")?, s(3)?),
        "bipartite" => generators::bipartite(p(1, "nl")?, p(2, "nr")?, p(3, "m")?, s(4)?),
        "labeled" => {
            generators::labeled_digraph(p(1, "n")?, p(2, "m")?, p(3, "labels")? as u32, s(4)?)
        }
        other => return Err(format!("unknown family {other:?}")),
    };
    let file =
        File::create(out).unwrap_or_else(|e| io_failure(format!("cannot create {out}: {e}")));
    // Dropping a BufWriter discards its flush error: flush it here.
    let mut writer = BufWriter::new(file);
    io::write_edge_list(&graph, &mut writer)
        .and_then(|()| writer.flush())
        .unwrap_or_else(|e| io_failure(format!("cannot write {out}: {e}")));
    println!(
        "wrote {} (n = {}, m = {}, directed = {})",
        out,
        graph.num_vertices(),
        graph.num_edges(),
        graph.is_directed()
    );
    Ok(())
}

fn load(path: &str, directed: bool) -> Graph {
    let file = File::open(path).unwrap_or_else(|e| io_failure(format!("cannot open {path}: {e}")));
    io::read_edge_list(BufReader::new(file), directed).unwrap_or_else(|e| io_failure(e.to_string()))
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("info needs a file")?;
    let directed = args.iter().any(|a| a == "--directed");
    let g = load(path, directed);
    let stats = vcgp::graph::properties::degree_stats(&g);
    println!("file:      {path}");
    println!("vertices:  {}", g.num_vertices());
    println!("edges:     {}", g.num_edges());
    println!("directed:  {}", g.is_directed());
    println!("weighted:  {}", g.is_weighted());
    println!("labeled:   {}", g.is_labeled());
    println!(
        "degrees:   min {} / mean {:.2} / max {}",
        stats.min, stats.mean, stats.max
    );
    if !g.is_directed() && g.num_vertices() > 0 {
        let (_, count) = vcgp::graph::traversal::connected_components(&g);
        println!("components: {count}");
        if count == 1 {
            if let Some(d) = vcgp::graph::properties::double_sweep_diameter(&g, 0) {
                println!("diameter:  >= {d} (double sweep)");
            }
        }
    }
    Ok(())
}

fn print_stats(stats: &RunStats) {
    let model = BspCostModel::default();
    println!(
        "\nsupersteps: {}; messages: {}; work units: {}; wall: {:.1} ms",
        stats.supersteps(),
        stats.total_messages(),
        stats.total_work(),
        stats.wall.as_secs_f64() * 1e3
    );
    println!(
        "BSP cost (g = L = 1, p = {}): T = {:.3e}, time-processor product = {:.3e}",
        stats.num_workers,
        model.total_time(stats),
        model.time_processor_product(stats)
    );
}

/// The flags of `vcgp run` that take a value.
const RUN_VALUE_FLAGS: [&str; 3] = ["--workers", "--source", "--target"];

fn cmd_run(args: &[String]) -> Result<(), String> {
    // The algorithm and the file are the arguments that are neither a flag
    // nor a flag's value, wherever the flags stand.
    let mut positional = args.iter().enumerate().filter(|&(i, a)| {
        let is_value = i > 0 && RUN_VALUE_FLAGS.contains(&args[i - 1].as_str());
        !is_value && a != "--directed" && !RUN_VALUE_FLAGS.contains(&a.as_str())
    });
    let mut next = || positional.next().map(|(_, a)| a.as_str());
    let algorithm = next().ok_or("run needs an algorithm")?;
    let needs_digraph = match algorithm {
        "wcc" | "scc" | "pagerank" => true,
        "cc" | "sv" | "sssp" | "diameter" | "mst" | "coloring" | "matching" | "bc"
        | "triangles" | "reach" => false,
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    let path = next().ok_or("run needs a file")?;
    let directed_flag = args.iter().any(|a| a == "--directed");
    let workers = flag_value(args, "--workers")?
        .map(|v| parse::<usize>(v, "--workers"))
        .transpose()?
        .unwrap_or(4);
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let source: u32 = flag_value(args, "--source")?
        .map(|v| parse(v, "--source"))
        .transpose()?
        .unwrap_or(0);
    let target: Option<u32> = flag_value(args, "--target")?
        .map(|v| parse(v, "--target"))
        .transpose()?;
    if algorithm == "reach" && target.is_none() {
        return Err("reach needs --target T".into());
    }
    let g = load(path, directed_flag || needs_digraph);
    let cfg = PregelConfig::default().with_workers(workers);

    match algorithm {
        "cc" => {
            let r = vcgp::algorithms::cc_hashmin::run(&g, &cfg);
            let distinct: std::collections::HashSet<u32> = r.components.iter().copied().collect();
            println!("hash-min connected components: {}", distinct.len());
            print_stats(&r.stats);
        }
        "sv" => {
            let r = vcgp::algorithms::cc_sv::run(&g, &cfg);
            let distinct: std::collections::HashSet<u32> = r.components.iter().copied().collect();
            println!(
                "S-V connected components: {} ({} spanning-forest edges)",
                distinct.len(),
                r.tree_edges.len()
            );
            print_stats(&r.stats);
        }
        "wcc" => {
            let r = vcgp::algorithms::wcc::run(&g, &cfg);
            let distinct: std::collections::HashSet<u32> = r.components.iter().copied().collect();
            println!("weakly connected components: {}", distinct.len());
            print_stats(&r.stats);
        }
        "scc" => {
            let r = vcgp::algorithms::scc::run(&g, &cfg);
            println!("strongly connected components: {}", r.count);
            print_stats(&r.stats);
        }
        "pagerank" => {
            let r = vcgp::algorithms::pagerank::run(&g, 0.85, 30, &cfg);
            let mut top: Vec<(usize, f64)> = r.scores.iter().copied().enumerate().collect();
            top.sort_by(|a, b| b.1.total_cmp(&a.1));
            println!("pagerank top 5:");
            for (v, s) in top.iter().take(5) {
                println!("  {v}: {s:.6}");
            }
            print_stats(&r.stats);
        }
        "sssp" => {
            let r = vcgp::algorithms::sssp::run(&g, source, &cfg);
            let reached = r.dist.iter().filter(|d| d.is_finite()).count();
            let max = r
                .dist
                .iter()
                .copied()
                .filter(|d| d.is_finite())
                .fold(0.0, f64::max);
            println!("sssp from {source}: {reached} reachable, max distance {max:.3}");
            print_stats(&r.stats);
        }
        "diameter" => {
            let r = vcgp::algorithms::diameter::run(&g, &cfg);
            println!("diameter: {}", r.diameter);
            print_stats(&r.stats);
        }
        "mst" => {
            let r = vcgp::algorithms::mst_boruvka::run(&g, &cfg);
            println!(
                "minimum spanning forest: {} edges, total weight {:.4}",
                r.edges.len(),
                r.total_weight
            );
            print_stats(&r.stats);
        }
        "coloring" => {
            let r = vcgp::algorithms::coloring_mis::run(&g, &cfg);
            println!("coloring: {} colors", r.num_colors);
            print_stats(&r.stats);
        }
        "matching" => {
            let r = vcgp::algorithms::matching_preis::run(&g, &cfg);
            println!(
                "matching: {} edges, total weight {:.4}",
                r.size, r.total_weight
            );
            print_stats(&r.stats);
        }
        "bc" => {
            let r = vcgp::algorithms::betweenness::run(&g, None, &cfg);
            let mut top: Vec<(usize, f64)> = r.scores.iter().copied().enumerate().collect();
            top.sort_by(|a, b| b.1.total_cmp(&a.1));
            println!("betweenness top 5:");
            for (v, s) in top.iter().take(5) {
                println!("  {v}: {s:.2}");
            }
            print_stats(&r.stats);
        }
        "triangles" => {
            let r = vcgp::algorithms::triangle_counting::run(&g, &cfg);
            let mean_cc: f64 = r.clustering.iter().sum::<f64>() / g.num_vertices().max(1) as f64;
            println!(
                "triangles: {} total, mean clustering coefficient {:.4}",
                r.total, mean_cc
            );
            print_stats(&r.stats);
        }
        "reach" => {
            let target = target.expect("checked before the graph loaded");
            let r = vcgp::algorithms::st_reachability::run(&g, source, target, &cfg);
            match r.distance {
                Some(d) => println!(
                    "{source} -> {target}: reachable, distance {d}, footprint {} vertices",
                    r.visited
                ),
                None => println!("{source} -> {target}: unreachable"),
            }
            print_stats(&r.stats);
        }
        _ => unreachable!("the algorithm was checked before the graph loaded"),
    }
    Ok(())
}
