//! Quickstart: run the mini-WRF model with the FSBM scheme on a reduced
//! CONUS thunderstorm case and watch storms rain.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wrf_offload_repro::prelude::*;

fn main() {
    // Figure 1: how WRF decomposes the full CONUS-12km domain.
    let dd = two_d_decomposition(Domain::new(425, 50, 300), 16, 3);
    println!("{}", dd.render_figure1(4));

    // A ~1/10-scale CONUS-12km case (43 × 30 columns, 20 levels) with the
    // lookup-optimized scheme of §VI-A.
    let cfg = ModelConfig::functional(SbmVersion::Lookup, 0.10, 20);
    let mut model = Model::single_rank(cfg);

    println!(
        "domain: {}x{}x{} points, {} storms",
        cfg.case.nx,
        cfg.case.ny,
        cfg.case.nz,
        model.case.storms.len()
    );
    let act = model.case.activity(&model.patch);
    println!(
        "convective columns: {} of {} ({:.1}%)",
        act.active_columns,
        act.columns,
        100.0 * act.active_fraction()
    );

    println!(
        "\n{:>5} {:>9} {:>9} {:>11} {:>12}",
        "step", "active", "coal", "entries", "precip kg/m2"
    );
    for step in 1..=12 {
        let r = model.step();
        println!(
            "{:>5} {:>9} {:>9} {:>11} {:>12.4}",
            step,
            r.sbm.active_points,
            r.sbm.coal_points,
            r.sbm.coal_entries,
            model.state.precip_acc,
        );
    }

    println!(
        "\ntotal condensate: {:.3e} (kg/kg · points)",
        model.state.total_condensate_sum()
    );
    println!(
        "accumulated surface precipitation: {:.4} kg/m² (column-summed)",
        model.state.precip_acc
    );
    println!(
        "\nNext: `cargo run --release -p wrf-gate --bin repro paper` regenerates the paper's \
         tables into BENCH_paper.json and checks their shapes."
    );
}
