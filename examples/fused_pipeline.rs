//! All eight Table-4 analyses of the paper, fused onto ONE
//! instrumentation and execution pass over a PolyBench kernel (the
//! pipeline generalization of §2.4.2 selective instrumentation).
//!
//! ```sh
//! cargo run --release --example fused_pipeline
//! ```

use wasabi_repro::analyses::registry;
use wasabi_repro::core::Wasabi;
use wasabi_repro::workloads::{compile, polybench};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = compile(&polybench::by_name("gemm", 12).expect("known kernel"));

    let mut analyses = registry::table4();

    let mut builder = Wasabi::builder();
    for analysis in &mut analyses {
        builder = builder.analysis(analysis.as_mut());
    }
    let mut pipeline = builder.build(&module)?;
    pipeline.run("main", &[])?;

    // One pipeline is one session: instrumented once for the union hook
    // set, executed once by `run`.
    eprintln!(
        "ran {} analyses over gemm in 1 instrumentation pass ({} hooks, built in {:.1} ms) \
         and 1 execution pass",
        pipeline.len(),
        pipeline.hooks().len(),
        pipeline.session().build_time().as_secs_f64() * 1e3,
    );
    for report in pipeline.reports() {
        println!("{}", report.to_json());
    }
    Ok(())
}
