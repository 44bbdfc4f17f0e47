//! `miniwrf` — the `wrf.exe` analogue: run the functional model from a
//! WRF-style namelist.
//!
//! ```sh
//! miniwrf path/to/namelist.input
//! ```
//!
//! With `--autocompare`, every step also runs the baseline scheme on a
//! cloned state and reports the per-step digit agreement — the
//! `-gpu=autocompare` mode of §VII-B. It runs only on the plain
//! single-rank loop: a nested run, more than one rank, checkpoints or
//! shared devices refuse it.

use fsbm_core::point::Floored;
use miniwrf::model::{Model, RunReport};
use miniwrf::namelist::config_from_namelist;
use miniwrf::nest::run_nested;
use miniwrf::parallel::run_parallel_checked;
use miniwrf::restart::{run_parallel_restartable, RestartConfig};
use wrf_cases::wrfout::save_state;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let autocompare = args.iter().any(|a| a == "--autocompare");
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "namelist.input".to_string());

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("miniwrf: cannot read `{path}`: {e}");
            std::process::exit(1);
        }
    };
    let cfg = match config_from_namelist(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("miniwrf: {e}");
            std::process::exit(1);
        }
    };
    let steps = cfg.steps();
    // Checkpoints and device admission live in the rank drivers, which
    // accept a single rank too.
    let ranked = cfg.ranks > 1 || cfg.restart_interval > 0 || cfg.gpus > 0;
    if autocompare && (ranked || cfg.nest.is_some()) {
        eprintln!(
            "miniwrf: --autocompare runs only the plain single-rank loop \
             (no &case nest, nproc = 1, restart_interval = 0, gpus = 0)"
        );
        std::process::exit(1);
    }
    eprintln!(
        "miniwrf: {}x{}x{} grid, dt={}s, {} steps, {} rank(s), scheme `{}`",
        cfg.case.nx,
        cfg.case.ny,
        cfg.case.nz,
        cfg.case.dt,
        steps,
        cfg.ranks,
        cfg.version.label()
    );

    // &case nest_*: one-way nested integration — the parent advances
    // coarse steps, the refined child takes `ratio` substeps per parent
    // step with parent-forced lateral boundaries. Histories go to
    // wrfout_d01.bin (parent) and wrfout_d02.bin (child), WRF-style. The
    // namelist refuses a nest with ranks, checkpoints or devices.
    if let Some(spec) = cfg.nest {
        let run = match run_nested(cfg, steps) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("miniwrf: nested run failed: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "nest d02: ratio {} at ({},{}) size {}x{} parent cells ({} substeps)",
            spec.ratio,
            spec.i0,
            spec.j0,
            spec.w,
            spec.h,
            steps * spec.ratio.max(1) as usize
        );
        println!(
            "done: d01 condensate {:.3e}, precip {:.4} kg/m^2; d02 condensate {:.3e}, \
             precip {:.4} kg/m^2",
            run.parent.total_condensate_sum(),
            run.parent.precip_acc,
            run.child.total_condensate_sum(),
            run.child.precip_acc
        );
        for (name, state) in [
            ("wrfout_d01.bin", &run.parent),
            ("wrfout_d02.bin", &run.child),
        ] {
            let out = std::path::Path::new(name);
            match save_state(out, state) {
                Ok(()) => println!("history written to {}", out.display()),
                Err(e) => eprintln!("miniwrf: could not write history: {e}"),
            }
        }
        return;
    }

    if ranked {
        // With &time_control restart_interval > 0, run under the
        // fault-tolerant supervisor: periodic per-rank restart files
        // and automatic relaunch from the newest complete set.
        let out = if cfg.restart_interval > 0 {
            let rcfg = RestartConfig::new("restart", cfg.restart_interval);
            match run_parallel_restartable(cfg, steps, &rcfg, None) {
                Ok((out, stats)) => {
                    println!("{}", stats.one_line());
                    out
                }
                Err(e) => {
                    eprintln!("miniwrf: supervised run failed: {e}");
                    std::process::exit(1);
                }
            }
        } else {
            // &parallel gpus: admission against the shared device pool
            // can fail (the §VII-A memory cap), so surface the typed
            // error instead of panicking; exclusive devices admit nothing.
            match run_parallel_checked(cfg, steps) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("miniwrf: {e}");
                    std::process::exit(1);
                }
            }
        };
        let precip: f64 = out.reports.iter().map(|r| r.precip).sum();
        let entries: u64 = out.reports.iter().map(|r| r.coal_entries).sum();
        println!("steps: {steps}");
        println!("total kernel entries: {entries}");
        println!("accumulated precipitation: {precip:.4} kg/m^2 (column-summed)");
        for (rank, r) in out.reports.iter().enumerate() {
            println!(
                "  rank {rank}: sbm {:.2e} flops, dynamics {:.2e} flops, {}",
                r.sbm_work.total().flops,
                r.rk3.tend.flops + r.rk3.update.flops,
                floored_field(&r.floored)
            );
            if let Some(s) = r.share {
                println!(
                    "    share: device {}/{} sharers={} service={:.3}s queue={:.3}s",
                    s.device, s.devices, s.sharers, s.service_secs, s.queue_secs
                );
            }
        }
        return;
    }

    let mut model = Model::single_rank(cfg);
    let mut run = RunReport::default();
    for step in 1..=steps {
        let rep = if autocompare {
            let (rep, digits) = model.step_autocompare();
            println!(
                "step {step:>4}: coal points {:>7}, agreement >= {digits} digits",
                rep.sbm.coal_points
            );
            rep
        } else {
            let rep = model.step();
            if step % 12 == 0 || step == steps {
                println!(
                    "step {step:>4}: active {:>8}  coal {:>7}  precip {:>10.4}",
                    rep.sbm.active_points, rep.sbm.coal_points, model.state.precip_acc
                );
            }
            rep
        };
        run.absorb(rep);
    }
    println!(
        "done: condensate {:.3e}, precip {:.4} kg/m^2, {}",
        model.state.total_condensate_sum(),
        model.state.precip_acc,
        floored_field(&run.floored)
    );
    // History write (the wrfout the `diffwrf` binary compares).
    let out = std::path::Path::new("wrfout_d01.bin");
    match save_state(out, &model.state) {
        Ok(()) => println!("history written to {}", out.display()),
        Err(e) => eprintln!("miniwrf: could not write history: {e}"),
    }
}

/// The summary field of what the bin-tail floor removed over a run: the
/// values (transport and sedimentation) and the mass (sedimentation's,
/// the one write that knows a value's bin).
fn floored_field(f: &Floored) -> String {
    format!("floored {} bin values ({:.3e} kg/kg)", f.values, f.mass)
}
