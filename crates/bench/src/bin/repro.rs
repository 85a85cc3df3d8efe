//! Reproduces the paper's evaluation: `repro [section ...]` runs the named
//! sections of [`pop_bench::repro`] (every one when none is named), at the
//! `POP_SCALE` config, caching datasets under `POP_CACHE_DIR` and writing
//! artefacts under `POP_OUT_DIR`.

use pop_bench::{cache_dir, config_from_env, out_dir, repro};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = repro::run(&config_from_env(), &cache_dir(), &out_dir(), &names) {
        eprintln!("repro: {e}");
        std::process::exit(2);
    }
}
