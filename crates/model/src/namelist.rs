//! WRF-style `namelist.input` parsing for [`ModelConfig`].
//!
//! WRF is configured through Fortran namelists; this module accepts the
//! same shape for the options this reproduction exercises:
//!
//! ```text
//! &domains
//!   e_we = 425, e_sn = 300, e_vert = 50,
//!   dx = 12000.0, dt = 5.0,
//! /
//! &physics
//!   mp_physics = 'fsbm_lookup',
//! /
//! &parallel
//!   nproc = 16, numtiles = 1,
//! /
//! ```
//!
//! Groups and keys not listed are ignored (as WRF ignores unknown
//! registry entries at this level); malformed syntax is an error, and so
//! is a block or key this reproduction used to read and no longer does
//! (`&ensemble`, `&parallel schedule`, `&parallel gpu_ranks_per_device`),
//! rather than a run that quietly drops it. Each setting has one key, and
//! a combination the drivers would ignore is an error naming both keys
//! (see [`refuse_ignored`]).

use crate::config::ModelConfig;
use fsbm_core::scheme::SbmVersion;
use std::collections::BTreeMap;
use wrf_cases::CaseKind;
use wrf_dycore::nest::NestSpec;

/// What went wrong, beyond the rendered message — so callers can react
/// to a typo'd key differently from malformed syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NamelistErrorKind {
    /// Malformed syntax or an unusable value.
    Invalid,
    /// A key this reproduction does not know inside a block it checks
    /// (`&parallel` / `&case`), e.g. the typo `backennd`.
    UnknownKey {
        /// The checked block (without the `&`).
        group: String,
        /// The offending key, as written (lowercased).
        key: String,
    },
}

/// A parse error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamelistError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub message: String,
    /// Structured cause.
    pub kind: NamelistErrorKind,
}

impl NamelistError {
    fn invalid(line: usize, message: impl Into<String>) -> NamelistError {
        NamelistError {
            line,
            message: message.into(),
            kind: NamelistErrorKind::Invalid,
        }
    }

    fn unknown_key(group: &str, key: &str, known: &[&str]) -> NamelistError {
        NamelistError {
            line: 0,
            message: format!(
                "unknown key `{key}` in &{group} (known: {})",
                known.join(", ")
            ),
            kind: NamelistErrorKind::UnknownKey {
                group: group.to_string(),
                key: key.to_string(),
            },
        }
    }
}

impl std::fmt::Display for NamelistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "namelist error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NamelistError {}

/// A parsed namelist: group → key → raw value string.
pub type Namelist = BTreeMap<String, BTreeMap<String, String>>;

/// Removes a trailing `!` comment, but only outside quoted strings:
/// Fortran namelists allow `!` inside character literals, so
/// `title = 'conus!12km'  ! the real comment` keeps its value intact.
fn strip_comment(raw: &str) -> &str {
    let mut in_quote: Option<char> = None;
    for (pos, c) in raw.char_indices() {
        match in_quote {
            Some(q) if c == q => in_quote = None,
            Some(_) => {}
            None => match c {
                '\'' | '"' => in_quote = Some(c),
                '!' => return &raw[..pos],
                _ => {}
            },
        }
    }
    raw
}

/// Parses namelist text into groups of key/value strings.
pub fn parse(text: &str) -> Result<Namelist, NamelistError> {
    let mut out = Namelist::new();
    let mut current: Option<String> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = strip_comment(raw).trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(name) = trimmed.strip_prefix('&') {
            if current.is_some() {
                return Err(NamelistError::invalid(line, "nested group (missing `/`?)"));
            }
            let name = name.trim().to_ascii_lowercase();
            if name.is_empty() {
                return Err(NamelistError::invalid(line, "group with no name"));
            }
            out.entry(name.clone()).or_default();
            current = Some(name);
            continue;
        }
        if trimmed == "/" {
            if current.take().is_none() {
                return Err(NamelistError::invalid(line, "`/` outside a group"));
            }
            continue;
        }
        let Some(group) = &current else {
            return Err(NamelistError::invalid(
                line,
                format!("assignment `{trimmed}` outside any group"),
            ));
        };
        // One or more `key = value` pairs separated by commas.
        for piece in trimmed.trim_end_matches(',').split(',') {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            let Some((k, v)) = piece.split_once('=') else {
                return Err(NamelistError::invalid(
                    line,
                    format!("expected `key = value`, got `{piece}`"),
                ));
            };
            out.get_mut(group).expect("group exists").insert(
                k.trim().to_ascii_lowercase(),
                v.trim().trim_matches('\'').trim_matches('"').to_string(),
            );
        }
    }
    if current.is_some() {
        return Err(NamelistError::invalid(
            text.lines().count(),
            "unterminated group (missing `/`)",
        ));
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(
    nl: &Namelist,
    group: &str,
    key: &str,
    default: T,
) -> Result<T, NamelistError> {
    match nl.get(group).and_then(|g| g.get(key)) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            NamelistError::invalid(0, format!("cannot parse &{group} {key} = `{raw}`"))
        }),
    }
}

/// The `mp_physics` names accepted for the four scheme versions.
pub fn version_from_name(name: &str) -> Option<SbmVersion> {
    match name.to_ascii_lowercase().as_str() {
        "fsbm" | "fsbm_baseline" | "30" => Some(SbmVersion::Baseline),
        "fsbm_lookup" => Some(SbmVersion::Lookup),
        "fsbm_offload2" | "fsbm_collapse2" => Some(SbmVersion::OffloadCollapse2),
        "fsbm_offload3" | "fsbm_collapse3" | "fsbm_gpu" => Some(SbmVersion::OffloadCollapse3),
        _ => None,
    }
}

/// Keys accepted in `&parallel`.
const KNOWN_PARALLEL: &[&str] = &["nproc", "numtiles", "gpus", "backend"];

/// Keys accepted in `&case` (idealized-case selection + one-way nest).
const KNOWN_CASE: &[&str] = &["name", "nest_ratio", "nest_i", "nest_j", "nest_w", "nest_h"];

/// What this reproduction used to read and no longer does — a whole
/// block (`None`) or one key of a block — and what to set instead. Each
/// is an error naming its replacement: ignored, `&ensemble` would run
/// one integration where it asked for several; reported only as
/// unknown, a removed key would not say which key now holds its setting.
const REMOVED: &[(&str, Option<&str>, &str)] = &[
    (
        "ensemble",
        None,
        "run each member solo with &scenario seed = base + member * stride",
    ),
    (
        "parallel",
        Some("schedule"),
        "set &physics mp_physics (`fsbm_auto` for the search)",
    ),
    (
        "parallel",
        Some("gpu_ranks_per_device"),
        "set &parallel gpus = \u{2308}nproc / K\u{2309}",
    ),
];

/// Rejects what [`REMOVED`] lists, then unknown keys in the blocks this
/// reproduction owns outright (`&parallel`, `&case`): a typo like
/// `backennd = 'v100-32gb'` would otherwise run silently on the default
/// backend. Groups WRF owns (`&domains`, `&physics`, ...) keep the
/// registry's ignore-unknown behavior. Runs before any key is read.
fn reject_unknown_keys(nl: &Namelist) -> Result<(), NamelistError> {
    for &(group, key, instead) in REMOVED {
        let Some(g) = nl.get(group) else { continue };
        let what = match key {
            None => format!("the &{group} block"),
            Some(key) if g.contains_key(key) => format!("&{group} {key}"),
            Some(_) => continue,
        };
        return Err(NamelistError::invalid(
            0,
            format!("{what} was removed: {instead}"),
        ));
    }
    for (group, known) in [("parallel", KNOWN_PARALLEL), ("case", KNOWN_CASE)] {
        if let Some(g) = nl.get(group) {
            if let Some(key) = g.keys().find(|k| !known.contains(&k.as_str())) {
                return Err(NamelistError::unknown_key(group, key, known));
            }
        }
    }
    Ok(())
}

/// Builds a [`ModelConfig`] from WRF-style namelist text: registry
/// defaults overlaid with the recognized keys, unknown keys in the
/// blocks this reproduction owns rejected, and `mp_physics = 'fsbm_auto'`
/// resolved by the configured backend's schedule search.
pub fn config_from_namelist(text: &str) -> Result<ModelConfig, NamelistError> {
    let nl = parse(text)?;
    reject_unknown_keys(&nl)?;
    let mut cfg = ModelConfig::paper_default(SbmVersion::Lookup);
    cfg.case.nx = get(&nl, "domains", "e_we", cfg.case.nx)?;
    cfg.case.ny = get(&nl, "domains", "e_sn", cfg.case.ny)?;
    cfg.case.nz = get(&nl, "domains", "e_vert", cfg.case.nz)?;
    cfg.case.dx = get(&nl, "domains", "dx", cfg.case.dx)?;
    cfg.case.dz = get(&nl, "domains", "dz", cfg.case.dz)?;
    cfg.case.dt = get(&nl, "domains", "dt", cfg.case.dt)?;
    // The &case block selects a library scenario: its seed, storm
    // placement, sounding, moisture/CCN loading, and wind shear are
    // overlaid on the configured grid (which stays under &domains
    // control, via the one shared column builder). Explicit &scenario
    // keys still win — they are read after the overlay.
    if let Some(name) = nl.get("case").and_then(|g| g.get("name")) {
        let kind = CaseKind::from_name(name).ok_or_else(|| {
            let known: Vec<&str> = CaseKind::ALL.iter().map(|k| k.slug()).collect();
            NamelistError::invalid(
                0,
                format!("unknown &case name `{name}` (known: {})", known.join(", ")),
            )
        })?;
        let lib = kind.params(1.0);
        cfg.case.seed = lib.seed;
        cfg.case.n_storms = lib.n_storms;
        cfg.case.sounding = lib.sounding;
        cfg.case.moisture = lib.moisture;
        cfg.case.placement = lib.placement;
        cfg.case.wind = lib.wind;
    }
    cfg.case.n_storms = get(&nl, "scenario", "n_storms", cfg.case.n_storms)?;
    cfg.case.seed = get(&nl, "scenario", "seed", cfg.case.seed)?;
    cfg.minutes = get(&nl, "domains", "run_minutes", cfg.minutes)?;
    // WRF keeps restart cadence in &time_control (there in minutes;
    // here in steps, matching the step-driven mini model). 0 = off.
    cfg.restart_interval = get(
        &nl,
        "time_control",
        "restart_interval",
        cfg.restart_interval,
    )?;
    cfg.ranks = get(&nl, "parallel", "nproc", cfg.ranks)?;
    cfg.tiles = get(&nl, "parallel", "numtiles", cfg.tiles)?;
    // Device sharing (§VII-A): the device count the ranks share
    // round-robin (0 = exclusive devices).
    cfg.gpus = get(&nl, "parallel", "gpus", cfg.gpus)?;
    // Hardware backend the performance plane prices on (&parallel
    // backend = 'v100', ...). Functional results are backend-independent,
    // so this never changes physics — only modeled times, admission
    // capacities and calibration.
    if let Some(name) = nl.get("parallel").and_then(|g| g.get("backend")) {
        cfg.backend = gpu_sim::machine::backend_by_name(name).ok_or_else(|| {
            let known: Vec<&str> = gpu_sim::machine::ZOO.iter().map(|b| b.name).collect();
            NamelistError::invalid(
                0,
                format!(
                    "unknown &parallel backend `{name}` (known: {})",
                    known.join(", ")
                ),
            )
        })?;
    }
    // The scheme version, `fsbm_lookup` when &physics does not say.
    // `fsbm_auto` asks the codee autotuner for the searched-best schedule
    // on the configured backend (parsed above) and takes the version
    // implementing that geometry.
    let physics =
        (nl.get("physics").and_then(|g| g.get("mp_physics"))).map_or("fsbm_lookup", String::as_str);
    cfg.version = if physics.eq_ignore_ascii_case("fsbm_auto") {
        crate::schedule::auto_version(cfg.backend)
    } else {
        version_from_name(physics)
            .ok_or_else(|| NamelistError::invalid(0, format!("unknown mp_physics `{physics}`")))?
    };
    if cfg.case.nx < 8 || cfg.case.ny < 8 || cfg.case.nz < 4 {
        return Err(NamelistError::invalid(
            0,
            "domain too small (need e_we, e_sn >= 8 and e_vert >= 4)",
        ));
    }
    // One-way nest geometry (&case nest_*): a ratio-refined child over
    // the w × h parent-cell window at (nest_i, nest_j). Validated
    // against the final grid so an out-of-range window fails loudly.
    let nest_ratio: i32 = get(&nl, "case", "nest_ratio", 0)?;
    if nest_ratio > 0 {
        let spec = NestSpec {
            ratio: nest_ratio,
            i0: get(&nl, "case", "nest_i", 1)?,
            j0: get(&nl, "case", "nest_j", 1)?,
            w: get(&nl, "case", "nest_w", 0)?,
            h: get(&nl, "case", "nest_h", 0)?,
        };
        spec.validate(cfg.case.nx, cfg.case.ny, cfg.halo)
            .map_err(|e| NamelistError::invalid(0, format!("&case nest: {e}")))?;
        cfg.nest = Some(spec);
    } else if nl
        .get("case")
        .is_some_and(|g| g.keys().any(|k| k.starts_with("nest_")))
    {
        return Err(NamelistError::invalid(
            0,
            "&case nest_* keys require nest_ratio >= 1",
        ));
    }
    refuse_ignored(&cfg, physics)?;
    Ok(cfg)
}

/// Refuses what no driver would honour, naming the keys involved:
/// `nproc = 0` (the decomposition needs a rank), `numtiles = 0`; a nest
/// with `nproc > 1`, `restart_interval > 0` or `gpus > 0` (the nest
/// driver runs one rank, writes no checkpoint and admits no device);
/// `gpus > 0` with a CPU scheme (only offloaded versions are admitted
/// to a device); `numtiles > 1` with an offloaded scheme (its collision
/// units are device threads, not tiles). Runs on the resolved
/// configuration, so `fsbm_auto` is judged by the version it picked;
/// `physics` is the `mp_physics` value as written.
fn refuse_ignored(cfg: &ModelConfig, physics: &str) -> Result<(), NamelistError> {
    let refuse = |what: String| Err(NamelistError::invalid(0, what));
    if cfg.ranks == 0 {
        return refuse("&parallel nproc = 0: a run needs at least one rank".into());
    }
    if cfg.tiles == 0 {
        return refuse("&parallel numtiles = 0: a rank needs at least one tile".into());
    }
    if cfg.nest.is_some() {
        for (key, value, set) in [
            ("&parallel nproc", cfg.ranks, cfg.ranks > 1),
            (
                "&time_control restart_interval",
                cfg.restart_interval,
                cfg.restart_interval > 0,
            ),
            ("&parallel gpus", cfg.gpus, cfg.gpus > 0),
        ] {
            if set {
                return refuse(format!(
                    "&case nest_ratio with {key} = {value}: a nested run is one rank \
                     without checkpoints or shared devices"
                ));
            }
        }
    }
    let offloaded = cfg.version.offloaded();
    if cfg.gpus > 0 && !offloaded {
        return refuse(format!(
            "&parallel gpus = {} with &physics mp_physics = '{physics}' ({}): only an \
             offloaded scheme (fsbm_collapse2, fsbm_collapse3) runs on a device",
            cfg.gpus,
            cfg.version.label()
        ));
    }
    if cfg.tiles > 1 && offloaded {
        return refuse(format!(
            "&parallel numtiles = {} with &physics mp_physics = '{physics}' ({}): an \
             offloaded scheme launches device threads, not tiles",
            cfg.tiles,
            cfg.version.label()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r"
! CONUS-12km at reduced scale
&domains
  e_we = 48, e_sn = 36, e_vert = 20,
  dx = 12000.0, dt = 5.0, run_minutes = 2.0,
/
&physics
  mp_physics = 'fsbm_gpu',
/
&parallel
  nproc = 4, numtiles = 1,
/
";

    #[test]
    fn parses_the_sample() {
        let cfg = config_from_namelist(SAMPLE).unwrap();
        assert_eq!(cfg.case.nx, 48);
        assert_eq!(cfg.case.ny, 36);
        assert_eq!(cfg.case.nz, 20);
        assert_eq!(cfg.version, SbmVersion::OffloadCollapse3);
        assert_eq!(cfg.ranks, 4);
        assert_eq!(cfg.steps(), 24);
    }

    #[test]
    fn defaults_fill_missing_groups() {
        let cfg = config_from_namelist("&physics\n mp_physics = 'fsbm'\n/\n").unwrap();
        assert_eq!(cfg.version, SbmVersion::Baseline);
        assert_eq!(cfg.case.nx, 425);
        assert_eq!(cfg.ranks, 16);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let nl = parse("! all comments\n\n&a\n x = 1 ! trailing\n/\n").unwrap();
        assert_eq!(nl["a"]["x"], "1");
    }

    #[test]
    fn bang_inside_quotes_is_not_a_comment() {
        let nl = parse("&g\n title = 'conus!12km'\n/\n").unwrap();
        assert_eq!(nl["g"]["title"], "conus!12km");
        // Double quotes too, and a real comment after the string.
        let nl = parse("&g\n t = \"a!b\" ! comment, x = 9\n/\n").unwrap();
        assert_eq!(nl["g"]["t"], "a!b");
        assert!(!nl["g"].contains_key("x"));
        // An unterminated quote swallows the rest of the line rather
        // than resurrecting the comment.
        assert_eq!(
            strip_comment("v = 'open ! not a comment"),
            "v = 'open ! not a comment"
        );
    }

    #[test]
    fn restart_interval_parsed_from_time_control() {
        let cfg = config_from_namelist("&time_control\n restart_interval = 6\n/\n").unwrap();
        assert_eq!(cfg.restart_interval, 6);
        // Default off.
        let cfg = config_from_namelist("").unwrap();
        assert_eq!(cfg.restart_interval, 0);
    }

    #[test]
    fn gpu_knobs_parsed_from_parallel() {
        // Exclusive by default.
        let cfg = config_from_namelist("").unwrap();
        assert_eq!(cfg.gpus, 0);
        // Direct device count, for an offloaded scheme.
        let physics = "&physics\n mp_physics = 'fsbm_collapse3'\n/\n";
        let cfg = config_from_namelist(&format!("{physics}&parallel\n nproc = 32, gpus = 16\n/\n"))
            .unwrap();
        assert_eq!(cfg.gpus, 16);
        // Non-dividing rank counts leave the last device less shared.
        let cfg = config_from_namelist(&format!("{physics}&parallel\n nproc = 33, gpus = 17\n/\n"))
            .unwrap();
        assert_eq!((cfg.ranks, cfg.gpus), (33, 17));
    }

    #[test]
    fn backend_parsed_from_parallel() {
        // Default: the A100-80GB bundle.
        let cfg = config_from_namelist("").unwrap();
        assert!(std::ptr::eq(
            cfg.backend,
            gpu_sim::machine::default_backend()
        ));
        // Canonical names and aliases, case-insensitively.
        let cfg = config_from_namelist("&parallel\n backend = 'v100-32gb'\n/\n").unwrap();
        assert_eq!(cfg.backend.name, "v100-32gb");
        let cfg = config_from_namelist("&parallel\n backend = 'MI250X'\n/\n").unwrap();
        assert_eq!(cfg.backend.name, "mi250x-gcd");
        let cfg = config_from_namelist("&parallel\n backend = 'grace'\n/\n").unwrap();
        assert!(cfg.backend.is_cpu());
        // Unknown names list the zoo.
        let err = config_from_namelist("&parallel\n backend = 'h100'\n/\n").unwrap_err();
        assert!(err.message.contains("unknown &parallel backend"), "{err}");
        assert!(err.message.contains("a100-80gb"), "{err}");
        // Composes with the sharing knobs.
        let cfg = config_from_namelist(
            "&physics\n mp_physics = 'fsbm_collapse3'\n/\n\
             &parallel\n nproc = 32, gpus = 16, backend = 'a100-40gb'\n/\n",
        )
        .unwrap();
        assert_eq!((cfg.gpus, cfg.backend.name), (16, "a100-40gb"));
    }

    /// A leftover `&ensemble` block used to parse into a service
    /// request; ignored like a WRF registry group, it would quietly run
    /// one integration instead.
    #[test]
    fn removed_ensemble_block_is_a_typed_error() {
        for text in [
            "&ensemble\n/\n",
            "&ensemble\n members = 8, seed_stride = 5\n/\n",
        ] {
            let err = config_from_namelist(text).unwrap_err();
            assert_eq!(err.kind, NamelistErrorKind::Invalid);
            assert!(err.message.contains("&ensemble"), "{err}");
            assert!(err.message.contains("&scenario seed"), "{err}");
        }
    }

    /// Regression: a typo'd key in `&parallel` used to be
    /// silently ignored, so `backennd = 'v100-32gb'` ran on the default
    /// backend with no diagnostic.
    #[test]
    fn unknown_keys_in_owned_blocks_rejected() {
        let err = config_from_namelist("&parallel\n backennd = 'v100-32gb'\n/\n").unwrap_err();
        assert_eq!(
            err.kind,
            NamelistErrorKind::UnknownKey {
                group: "parallel".into(),
                key: "backennd".into(),
            }
        );
        assert!(err.message.contains("`backennd`"), "{err}");
        assert!(err.message.contains("&parallel"), "{err}");
        assert!(err.message.contains("backend"), "{err}");

        // Groups WRF owns keep ignoring unknown registry entries.
        let cfg = config_from_namelist("&domains\n cu_physics = 1\n/\n").unwrap();
        assert_eq!(cfg.case.nx, 425);
        // And every known key still passes.
        assert!(config_from_namelist(
            "&physics\n mp_physics = 'fsbm_collapse3'\n/\n\
             &parallel\n nproc = 4, numtiles = 1, gpus = 2, backend = 'a100-80gb'\n/\n"
        )
        .is_ok());
    }

    /// `&parallel gpu_ranks_per_device = K` was a second spelling of
    /// `gpus = ⌈nproc / K⌉`; a leftover one names the key that replaced it.
    #[test]
    fn removed_gpu_ranks_per_device_is_a_typed_error() {
        for text in [
            "&parallel\n nproc = 32, gpu_ranks_per_device = 2\n/\n",
            // Before any key is read: an unparsable value elsewhere
            // does not hide it.
            "&parallel\n nproc = banana, gpus = 16, gpu_ranks_per_device = 2\n/\n",
        ] {
            let err = config_from_namelist(text).unwrap_err();
            assert_eq!(err.kind, NamelistErrorKind::Invalid);
            assert!(err.message.contains("gpu_ranks_per_device"), "{err}");
            assert!(err.message.contains("&parallel gpus"), "{err}");
        }
    }

    /// `&parallel schedule` was a second spelling of `&physics
    /// mp_physics` (`'v1'..'v4'` for the paper's v0–v3); a leftover one
    /// names `mp_physics` and the search's value.
    #[test]
    fn removed_schedule_key_is_a_typed_error() {
        for value in ["auto", "v4", "v9"] {
            let text = format!("&parallel\n schedule = '{value}'\n/\n");
            let err = config_from_namelist(&text).unwrap_err();
            assert_eq!(err.kind, NamelistErrorKind::Invalid);
            assert!(err.message.contains("&parallel schedule"), "{err}");
            assert!(err.message.contains("&physics mp_physics"), "{err}");
            assert!(err.message.contains("fsbm_auto"), "{err}");
        }
    }

    #[test]
    fn fsbm_auto_resolves_through_the_search() {
        // The slab collapse(3) schedule wins on the default backend.
        let cfg = config_from_namelist("&physics\n mp_physics = 'fsbm_auto'\n/\n").unwrap();
        assert_eq!(cfg.version, SbmVersion::OffloadCollapse3);
        assert_eq!(cfg.version, crate::schedule::auto_version(cfg.backend));
        // Case-insensitive, and steered by &parallel backend.
        let cfg = config_from_namelist(
            "&physics\n mp_physics = 'FSBM_AUTO'\n/\n&parallel\n backend = 'grace-cpu'\n/\n",
        )
        .unwrap();
        assert_eq!(cfg.backend.name, "grace-cpu");
        assert_eq!(cfg.version, crate::schedule::auto_version(cfg.backend));
    }

    #[test]
    fn case_block_selects_a_library_scenario() {
        // No block: the legacy CONUS default.
        let cfg = config_from_namelist("").unwrap();
        assert_eq!(cfg.case, wrf_cases::ConusParams::full());
        // A named case overlays its ingredients, keeping the grid under
        // &domains control.
        let cfg = config_from_namelist(
            "&domains\n e_we = 48, e_sn = 36\n/\n&case\n name = 'squall_line'\n/\n",
        )
        .unwrap();
        assert_eq!((cfg.case.nx, cfg.case.ny), (48, 36));
        let lib = CaseKind::SquallLine.params(1.0);
        assert_eq!(cfg.case.seed, lib.seed);
        assert_eq!(cfg.case.n_storms, lib.n_storms);
        assert_eq!(cfg.case.sounding, lib.sounding);
        assert_eq!(cfg.case.moisture, lib.moisture);
        assert_eq!(cfg.case.placement, lib.placement);
        assert_eq!(cfg.case.wind, lib.wind);
        // Aliases parse; explicit &scenario keys still win.
        let cfg = config_from_namelist("&case\n name = 'maritime'\n/\n&scenario\n seed = 7\n/\n")
            .unwrap();
        let lib = CaseKind::ShallowConvection.params(1.0);
        assert_eq!(
            (cfg.case.placement, cfg.case.wind),
            (lib.placement, lib.wind)
        );
        assert_eq!(cfg.case.seed, 7);
        // Unknown names list the library.
        let err = config_from_namelist("&case\n name = 'derecho'\n/\n").unwrap_err();
        assert!(err.message.contains("unknown &case name"), "{err}");
        assert!(err.message.contains("squall_line"), "{err}");
        // Typo'd keys are rejected like the other owned blocks.
        let err = config_from_namelist("&case\n nmae = 'supercell'\n/\n").unwrap_err();
        assert_eq!(
            err.kind,
            NamelistErrorKind::UnknownKey {
                group: "case".into(),
                key: "nmae".into(),
            }
        );
    }

    #[test]
    fn case_nest_keys_build_a_validated_spec() {
        let cfg = config_from_namelist(
            "&domains\n e_we = 21, e_sn = 15, e_vert = 8\n/\n\
             &case\n name = 'supercell', nest_ratio = 2, nest_i = 7, nest_j = 5, \
             nest_w = 8, nest_h = 6\n/\n&parallel\n nproc = 1\n/\n",
        )
        .unwrap();
        let spec = cfg.nest.unwrap();
        assert_eq!(
            (spec.ratio, spec.i0, spec.j0, spec.w, spec.h),
            (2, 7, 5, 8, 6)
        );
        // Out-of-range windows are rejected against the final grid.
        let err = config_from_namelist(
            "&domains\n e_we = 21, e_sn = 15\n/\n\
             &case\n nest_ratio = 2, nest_i = 18, nest_j = 5, nest_w = 8, nest_h = 6\n/\n",
        )
        .unwrap_err();
        assert!(err.message.contains("&case nest"), "{err}");
        // nest_* without a ratio is a loud error, not a silent no-nest.
        let err = config_from_namelist("&case\n nest_w = 8\n/\n").unwrap_err();
        assert!(err.message.contains("nest_ratio"), "{err}");
        // No nest keys: no nest.
        assert!(config_from_namelist("").unwrap().nest.is_none());
    }

    /// Asserts that `text` is refused as `Invalid`, naming every key in
    /// `keys`.
    fn refused(text: &str, keys: &[&str]) {
        let err = config_from_namelist(text).unwrap_err();
        assert_eq!(err.kind, NamelistErrorKind::Invalid, "{err}");
        for key in keys {
            assert!(err.message.contains(key), "`{key}` not named: {err}");
        }
    }

    /// A valid nest on a gate-sized grid, then `extra`.
    fn nested(extra: &str) -> String {
        "&domains\n e_we = 21, e_sn = 15, e_vert = 8\n/\n\
         &case\n name = 'squall_line', nest_ratio = 2, nest_i = 7, nest_j = 5, \
         nest_w = 8, nest_h = 6\n/\n"
            .to_string()
            + extra
    }

    /// The nest driver runs one rank: `nproc > 1` used to be refused
    /// only by `miniwrf`, after parsing.
    #[test]
    fn nest_with_ranks_is_refused() {
        refused(
            &nested("&parallel\n nproc = 2\n/\n"),
            &["&case nest_ratio", "&parallel nproc = 2"],
        );
        assert!(config_from_namelist(&nested("&parallel\n nproc = 1\n/\n")).is_ok());
    }

    /// The nest driver writes no checkpoint: `restart_interval` was
    /// accepted and dropped.
    #[test]
    fn nest_with_restart_interval_is_refused() {
        refused(
            &nested("&time_control\n restart_interval = 1\n/\n&parallel\n nproc = 1\n/\n"),
            &["&case nest_ratio", "&time_control restart_interval = 1"],
        );
    }

    /// The nest driver admits no device: `gpus` was accepted and dropped,
    /// even for an offloaded scheme.
    #[test]
    fn nest_with_gpus_is_refused() {
        refused(
            &nested(
                "&physics\n mp_physics = 'fsbm_collapse3'\n/\n&parallel\n nproc = 1, gpus = 1\n/\n",
            ),
            &["&case nest_ratio", "&parallel gpus = 1"],
        );
    }

    /// Only offloaded versions are admitted to a device: `gpus` with a
    /// CPU scheme — named, or the `fsbm_lookup` default — ran with no
    /// admission and no share line.
    #[test]
    fn gpus_with_cpu_physics_is_refused() {
        refused(
            "&physics\n mp_physics = 'fsbm'\n/\n&parallel\n nproc = 2, gpus = 1\n/\n",
            &["&parallel gpus = 1", "&physics mp_physics = 'fsbm'"],
        );
        refused(
            "&parallel\n nproc = 2, gpus = 1\n/\n",
            &["&parallel gpus = 1", "&physics mp_physics = 'fsbm_lookup'"],
        );
        assert!(config_from_namelist("&parallel\n nproc = 2, gpus = 0\n/\n").is_ok());
    }

    /// An offloaded scheme's collision units are device threads: its
    /// pool and launch ignore `numtiles`.
    #[test]
    fn tiles_with_offloaded_physics_is_refused() {
        refused(
            "&physics\n mp_physics = 'fsbm_collapse2'\n/\n&parallel\n numtiles = 4\n/\n",
            &[
                "&parallel numtiles = 4",
                "&physics mp_physics = 'fsbm_collapse2'",
            ],
        );
        // The CPU versions run WRF tiles.
        let cfg = config_from_namelist("&parallel\n numtiles = 4\n/\n").unwrap();
        assert_eq!((cfg.tiles, cfg.version), (4, SbmVersion::Lookup));
    }

    /// `nproc = 0` parsed, then panicked in the process-mesh choice once
    /// a rank driver ran (checked here without running one).
    #[test]
    fn zero_ranks_is_refused() {
        refused("&parallel\n nproc = 0\n/\n", &["&parallel nproc = 0"]);
    }

    /// `numtiles = 0` was quietly run as one tile.
    #[test]
    fn zero_tiles_is_refused() {
        refused("&parallel\n numtiles = 0\n/\n", &["&parallel numtiles = 0"]);
    }

    #[test]
    fn multiple_pairs_per_line() {
        let nl = parse("&g\n a = 1, b = 2.5, c = 'hi',\n/\n").unwrap();
        assert_eq!(nl["g"]["a"], "1");
        assert_eq!(nl["g"]["b"], "2.5");
        assert_eq!(nl["g"]["c"], "hi");
    }

    #[test]
    fn syntax_errors_reported_with_lines() {
        assert!(parse("x = 1\n").unwrap_err().message.contains("outside"));
        assert!(parse("&a\n&b\n/\n").unwrap_err().message.contains("nested"));
        assert!(parse("&a\n x = 1\n")
            .unwrap_err()
            .message
            .contains("unterminated"));
        assert!(parse("/\n").unwrap_err().message.contains("outside"));
        assert!(parse("&a\n garbage\n/\n")
            .unwrap_err()
            .message
            .contains("key = value"));
    }

    #[test]
    fn bad_values_rejected() {
        assert!(config_from_namelist("&domains\n e_we = banana\n/\n").is_err());
        assert!(config_from_namelist("&physics\n mp_physics = 'wsm6'\n/\n").is_err());
        assert!(config_from_namelist("&domains\n e_we = 2\n/\n").is_err());
    }

    #[test]
    fn version_names() {
        assert_eq!(version_from_name("FSBM_LOOKUP"), Some(SbmVersion::Lookup));
        assert_eq!(
            version_from_name("fsbm_collapse2"),
            Some(SbmVersion::OffloadCollapse2)
        );
        assert_eq!(version_from_name("thompson"), None);
    }

    /// Every group with the keys `config_from_namelist` reads from it.
    const GROUPS: &[(&str, &[&str])] = &[
        (
            "domains",
            &["e_we", "e_sn", "e_vert", "dx", "dz", "dt", "run_minutes"],
        ),
        ("physics", &["mp_physics"]),
        ("scenario", &["n_storms", "seed"]),
        ("time_control", &["restart_interval"]),
        ("parallel", KNOWN_PARALLEL),
        ("case", KNOWN_CASE),
    ];

    /// Values that stress the typed parsers and the geometry checks
    /// behind them: signs, extremes, non-numbers, a name from each table.
    const VALUES: &[&str] = &[
        "0",
        "1",
        "2",
        "3",
        "12",
        "40",
        "-1",
        "2.5",
        "1073741823",
        "2147483647",
        "-2147483648",
        "18446744073709551615",
        "1e308",
        "nan",
        "inf",
        "",
        "banana",
        "'fsbm_gpu'",
        "'fsbm_auto'",
        "'v100'",
        "'squall_line'",
    ];

    /// A namelist assigning `VALUES[pick]` to each of `keys` in `group`;
    /// a pick past the table leaves the key out.
    fn assign(group: &str, keys: &[&str], picks: &mut impl Iterator<Item = usize>) -> String {
        let mut text = format!("&{group}\n");
        for (key, pick) in keys.iter().zip(picks) {
            if let Some(v) = VALUES.get(pick) {
                text += &format!("  {key} = {v},\n");
            }
        }
        text + "/\n"
    }

    proptest::proptest! {
        /// Arbitrary bytes — raw, and folded onto the namelist's own
        /// alphabet so the line parser gets past its first token — are
        /// `Ok` or a `NamelistError`, never a panic.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..300)) {
            let _ = config_from_namelist(&String::from_utf8_lossy(&bytes));
            const ALPHABET: &[u8] = b"&/=,!'\" \n\naew_19-.\xc3\xa9";
            let folded: Vec<u8> = bytes.iter().map(|b| ALPHABET[*b as usize % ALPHABET.len()]).collect();
            let _ = config_from_namelist(&String::from_utf8_lossy(&folded));
        }

        /// Every recognized key holding every kind of value (two picks in
        /// three leave a key at its default, so later keys are reached).
        #[test]
        fn arbitrary_values_never_panic(
            picks in proptest::collection::vec(0usize..3 * VALUES.len(), 30),
        ) {
            let mut picks = picks.into_iter();
            let text: String = GROUPS.iter().map(|(g, keys)| assign(g, keys, &mut picks)).collect();
            let _ = config_from_namelist(&text);
        }

        /// Grid and nest geometry over integer extremes: the window
        /// checks must reject, not overflow (the suite runs unoptimized,
        /// where overflow panics).
        #[test]
        fn extreme_grid_and_nest_integers_never_panic(
            picks in proptest::collection::vec(0usize..11, 7),
        ) {
            let mut picks = picks.into_iter();
            let text = assign("domains", &["e_we", "e_sn"], &mut picks)
                + &assign("case", &KNOWN_CASE[1..], &mut picks);
            let _ = config_from_namelist(&text);
        }
    }

    /// The shipped `namelist.input` and every fenced namelist block of
    /// `README.md` (one whose first line opens a group) parse: what the
    /// documents show is a configuration the drivers honour.
    #[test]
    fn shipped_and_documented_namelists_parse() {
        let readme = include_str!("../../../README.md");
        let blocks: Vec<&str> = (readme.split("```").skip(1).step_by(2))
            .filter_map(|fenced| fenced.split_once('\n').map(|(_, body)| body))
            .filter(|body| body.trim_start().starts_with('&'))
            .collect();
        assert!(
            blocks.len() >= 4,
            "README namelist blocks: {}",
            blocks.len()
        );
        for text in blocks
            .into_iter()
            .chain([include_str!("../../../namelist.input")])
        {
            if let Err(e) = config_from_namelist(text) {
                panic!("{e}:\n{text}");
            }
        }
    }

    /// Every truncated prefix of the shipped `namelist.input` is `Ok` or
    /// a typed error, and the whole file parses.
    #[test]
    fn truncated_sample_namelist_never_panics() {
        let text = include_str!("../../../namelist.input");
        assert!(config_from_namelist(text).is_ok());
        for end in (0..text.len()).filter(|&n| text.is_char_boundary(n)) {
            let _ = config_from_namelist(&text[..end]);
        }
    }
}
