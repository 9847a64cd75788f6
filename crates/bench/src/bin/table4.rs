//! Reproduces paper Table 4: "Analyses built on top of Wasabi" — name,
//! hooks used, and lines of code. LoC are counted from the real analysis
//! sources embedded at compile time (comments, blanks, and unit tests
//! excluded).
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin table4 [-- --smoke]
//! ```
//!
//! The table takes milliseconds, so `--smoke` runs it unchanged.

use wasabi_analyses::{count_loc, source_inventory};
use wasabi_bench::Mode;

/// The paper's JS line counts, for side-by-side comparison.
const PAPER_LOC: [usize; 8] = [42, 9, 11, 14, 18, 208, 10, 11];

fn main() {
    Mode::from_args();
    println!("Table 4: Analyses built on top of Wasabi");
    println!();
    println!(
        "{:<28} {:<30} {:>9} {:>12}",
        "Analysis", "Hooks", "LoC", "paper (JS)"
    );
    println!("{:-<28} {:-<30} {:->9} {:->12}", "", "", "", "");
    for (i, (name, hooks, source)) in source_inventory().into_iter().enumerate() {
        let loc = count_loc(source);
        println!("{name:<28} {hooks:<30} {loc:>9} {:>12}", PAPER_LOC[i]);
    }
    println!();
    println!("note: Rust LoC count the analysis module without its unit tests;");
    println!("instruction+branch coverage share one module, so both rows report");
    println!("that file. Rust is more verbose than the paper's JavaScript, but");
    println!("the shape holds: every analysis is a few dozen to a couple hundred");
    println!("lines, with taint analysis the largest by an order of magnitude.");
}
