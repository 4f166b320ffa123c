//! Regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p oe-bench --bin figures -- all
//! cargo run --release -p oe-bench --bin figures -- fig7 fig8
//! cargo run --release -p oe-bench --bin figures -- --quick all
//! ```

use oe_bench::{figures, Scenario};
use oe_simdevice::clock::secs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    if ids.is_empty() {
        eprintln!(
            "usage: figures [--quick] <id>...\n  ids: all table1 table2 table5 fig2 fig3 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 latency ablations"
        );
        std::process::exit(2);
    }
    let sc = if quick {
        Scenario::quick()
    } else {
        Scenario::default_paper()
    };
    // Default checkpoint interval: a few checkpoints per measured window
    // (the paper's 20-minute default scaled to the simulated epoch).
    let interval = if quick { secs(0.01) } else { secs(0.025) };

    println!(
        "scenario: {} keys, dim {}, {} fields, batch {}, cache {:.3}% of model, {} warm + {} measured batches",
        sc.num_keys,
        sc.dim,
        sc.fields,
        sc.batch_size,
        sc.cache_frac * 100.0,
        sc.warm_batches,
        sc.measure_batches
    );

    for id in ids {
        match id {
            "all" => figures::all(&sc, interval),
            "table1" => figures::table1(&sc),
            "table2" => figures::table2(&sc),
            "table5" => figures::table5(&sc),
            "fig2" => figures::fig2(&sc),
            "fig3" => figures::fig3(&sc),
            "fig6" => figures::fig6(&sc, interval),
            "fig7" => figures::fig7(&sc),
            "fig8" => figures::fig8(&sc),
            "fig9" => figures::fig9(&sc),
            "fig10" => figures::fig10(&sc),
            "fig11" => figures::fig11(&sc),
            "fig12" => figures::fig12(&sc, interval),
            "fig13" => figures::fig13(&sc, interval),
            "fig14" => figures::fig14(&sc),
            "ablations" => figures::ablations(&sc),
            "fig15" => figures::fig15(&sc),
            "latency" => figures::latency(&sc),
            other => {
                eprintln!("unknown figure id: {other}");
                std::process::exit(2);
            }
        }
    }
}
