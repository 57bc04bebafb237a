//! Campaigns: seed × parameter grids over a scenario, run in parallel.
//!
//! A [`CampaignSpec`] pairs one [`ScenarioSpec`] with a [`ParamGrid`]
//! sweeping seeds and (optionally) `n`, `k`, `α`, `γ` and — for
//! `[faults]`-bearing scenarios — message `loss`, mean link
//! `delay`, and Byzantine `corruption` rate — as the full
//! cross product (the default), zipped position-by-position (`zip =
//! true`, for sweeps whose axes all move together), or **mixed**: a
//! [`ZipSpec::Axes`] group (`zip = ["n", "gamma"]`) fuses the named
//! axes into one position-by-position slot while the remaining axes
//! still cross — e.g. `n` with a matched `γ`, swept against every `k`.
//! [`expand`] unrolls the grid into an ordered list of
//! [`CampaignCell`]s — the order is a pure function of the spec, which
//! is what makes campaign reruns byte-identical — and [`run_campaign`]
//! executes the cells across all cores, with optional streaming
//! persistence, per-cell telemetry files and a live progress callback.
//!
//! [`expand`]: CampaignSpec::expand

use crate::checkpoint::ScenarioCheckpoint;
use crate::engine::{run_scenario, CheckpointPolicy, RunOptions, ScenarioOutcome};
use crate::results::ResultStore;
use crate::spec::{DelaySpec, ScenarioSpec, SpecError};
use crate::value::{decode, encode, DecodeError, Value};
use laacad::{Recorder, SessionTelemetry};
use laacad_exec::parallel_map_visit;
use std::time::Instant;

/// The sweep axes. Empty vectors mean "use the scenario's own value".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamGrid {
    /// Seeds to run (one cell per seed per parameter combination).
    /// Empty means the single seed `0`.
    pub seeds: Vec<u64>,
    /// Node-count overrides.
    pub n: Vec<usize>,
    /// Coverage-degree overrides.
    pub k: Vec<usize>,
    /// Step-size overrides.
    pub alpha: Vec<f64>,
    /// Transmission-range overrides (an explicit `γ` per cell; the
    /// scenario's own value — or the derived recommendation — applies
    /// where empty).
    pub gamma: Vec<f64>,
    /// Message-loss probability overrides (requires the scenario to
    /// carry a `[faults]` section).
    pub loss: Vec<f64>,
    /// Mean link-delay overrides, in ticks: `0` means no delay, any
    /// other value an exponential distribution with that mean (requires
    /// a `[faults]` section).
    pub delay: Vec<f64>,
    /// Byzantine corruption-rate overrides (requires a `[faults]`
    /// section): the probability that a transmitted HELLO is replaced by
    /// an adversarially mutated payload.
    pub corruption: Vec<f64>,
    /// How the parameter axes combine (seeds always cross): full cross
    /// product, all axes zipped, or a named zip group alongside crossed
    /// axes. See [`ZipSpec`].
    pub zip: ZipSpec,
}

/// How a [`ParamGrid`]'s parameter axes combine into tuples.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ZipSpec {
    /// Full cross product of the non-empty axes (the default; TOML
    /// `zip = false` or absent).
    #[default]
    None,
    /// Zip **every** non-empty parameter axis position by position —
    /// they must share one length (TOML `zip = true`).
    All,
    /// Zip exactly the named axes (`"n"`, `"k"`, `"alpha"`, `"gamma"`,
    /// `"loss"`, `"delay"`, `"corruption"`) as one fused group of
    /// equal-length lists; the remaining non-empty axes still cross
    /// against it (TOML `zip = ["n", "gamma"]`). The group occupies its
    /// first member's position in the canonical `n` × `k` × `alpha` ×
    /// `gamma` × `loss` × `delay` × `corruption` expansion order.
    Axes(Vec<String>),
}

impl ParamGrid {
    fn from_value(v: &Value, path: &str) -> Result<Self, SpecError> {
        let list_u64 = |key: &str| -> Result<Vec<u64>, SpecError> {
            match v.get(key) {
                None => Ok(Vec::new()),
                Some(a) => {
                    let p = format!("{path}.{key}");
                    a.as_array()
                        .ok_or_else(|| SpecError::from(DecodeError::new(&p, "expected array")))?
                        .iter()
                        .enumerate()
                        .map(|(i, x)| {
                            decode::to_usize(x, &format!("{p}[{i}]"))
                                .map(|u| u as u64)
                                .map_err(SpecError::from)
                        })
                        .collect()
                }
            }
        };
        let list_usize = |key: &str| -> Result<Vec<usize>, SpecError> {
            list_u64(key).map(|xs| xs.into_iter().map(|x| x as usize).collect())
        };
        let list_f64 = |key: &str| -> Result<Vec<f64>, SpecError> {
            match v.get(key) {
                None => Ok(Vec::new()),
                Some(a) => {
                    let p = format!("{path}.{key}");
                    a.as_array()
                        .ok_or_else(|| SpecError::from(DecodeError::new(&p, "expected array")))?
                        .iter()
                        .enumerate()
                        .map(|(i, x)| {
                            x.as_f64().ok_or_else(|| {
                                SpecError::from(DecodeError::new(
                                    format!("{p}[{i}]"),
                                    "expected number",
                                ))
                            })
                        })
                        .collect()
                }
            }
        };
        let mut seeds = list_u64("seeds")?;
        if seeds.is_empty() {
            if let (Some(start), Some(count)) = (
                decode::opt_usize(v, "seed_start", path)?,
                decode::opt_usize(v, "seed_count", path)?,
            ) {
                seeds = (0..count as u64).map(|i| start as u64 + i).collect();
            }
        }
        let zip = match v.get("zip") {
            None => ZipSpec::None,
            Some(Value::Bool(true)) => ZipSpec::All,
            Some(Value::Bool(false)) => ZipSpec::None,
            Some(Value::Array(items)) => {
                let p = format!("{path}.zip");
                ZipSpec::Axes(
                    items
                        .iter()
                        .enumerate()
                        .map(|(i, x)| {
                            x.as_str().map(str::to_owned).ok_or_else(|| {
                                SpecError::from(DecodeError::new(
                                    format!("{p}[{i}]"),
                                    "expected axis name string",
                                ))
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
            Some(_) => {
                return Err(DecodeError::new(
                    format!("{path}.zip"),
                    "expected bool or array of axis names",
                )
                .into())
            }
        };
        Ok(ParamGrid {
            seeds,
            n: list_usize("n")?,
            k: list_usize("k")?,
            alpha: list_f64("alpha")?,
            gamma: list_f64("gamma")?,
            loss: list_f64("loss")?,
            delay: list_f64("delay")?,
            corruption: list_f64("corruption")?,
            zip,
        })
    }

    fn to_value(&self) -> Value {
        let mut t = Value::table();
        if !self.seeds.is_empty() {
            t.insert(
                "seeds",
                Value::Array(self.seeds.iter().map(|&s| Value::Int(s as i64)).collect()),
            );
        }
        if !self.n.is_empty() {
            t.insert(
                "n",
                Value::Array(self.n.iter().map(|&x| encode::int(x)).collect()),
            );
        }
        if !self.k.is_empty() {
            t.insert(
                "k",
                Value::Array(self.k.iter().map(|&x| encode::int(x)).collect()),
            );
        }
        if !self.alpha.is_empty() {
            t.insert(
                "alpha",
                Value::Array(self.alpha.iter().map(|&x| Value::Float(x)).collect()),
            );
        }
        if !self.gamma.is_empty() {
            t.insert(
                "gamma",
                Value::Array(self.gamma.iter().map(|&x| Value::Float(x)).collect()),
            );
        }
        if !self.loss.is_empty() {
            t.insert(
                "loss",
                Value::Array(self.loss.iter().map(|&x| Value::Float(x)).collect()),
            );
        }
        if !self.delay.is_empty() {
            t.insert(
                "delay",
                Value::Array(self.delay.iter().map(|&x| Value::Float(x)).collect()),
            );
        }
        if !self.corruption.is_empty() {
            t.insert(
                "corruption",
                Value::Array(self.corruption.iter().map(|&x| Value::Float(x)).collect()),
            );
        }
        match &self.zip {
            ZipSpec::None => {}
            ZipSpec::All => t.insert("zip", Value::Bool(true)),
            ZipSpec::Axes(axes) => t.insert(
                "zip",
                Value::Array(axes.iter().map(|a| Value::Str(a.clone())).collect()),
            ),
        }
        t
    }
}

/// One resolved parameter tuple of the sweep: `(n, k, α, γ override,
/// loss override, delay override, corruption override)`.
type ParamTuple = (
    usize,
    usize,
    f64,
    Option<f64>,
    Option<f64>,
    Option<f64>,
    Option<f64>,
);

/// A scenario plus the grid to sweep it over.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (result files are named after it).
    pub name: String,
    /// The scenario template.
    pub scenario: ScenarioSpec,
    /// The sweep.
    pub grid: ParamGrid,
    /// Checkpoint cadence in rounds (`0` = off, the default). When set,
    /// [`run_campaign`] writes a `<name>.cell<index>.checkpoint`
    /// file (the `laacad-checkpoint/2` format of [`crate::checkpoint`])
    /// beside the result store every `checkpoint_every` rounds of each
    /// synchronous cell, removes it when the cell completes, and
    /// **resumes from it** when a killed campaign is rerun — with
    /// results bit-identical to an uninterrupted run. Scenarios carrying
    /// a `[faults]` section run on the asynchronous executor, which has
    /// no snapshot support: [`CampaignSpec::expand`] rejects them when
    /// this is set, and [`run_campaign`] refuses a cadence without a
    /// result directory to write the files to.
    pub checkpoint_every: usize,
}

/// One fully resolved unit of campaign work.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Position in the expansion order (also the JSONL line index).
    pub index: usize,
    /// The scenario with all overrides applied.
    pub scenario: ScenarioSpec,
    /// Seed for this cell.
    pub seed: u64,
    /// Effective node count.
    pub n: usize,
    /// Effective coverage degree.
    pub k: usize,
    /// Effective step size.
    pub alpha: f64,
    /// Explicit transmission-range override, when the grid swept one.
    pub gamma: Option<f64>,
    /// Message-loss override, when the grid swept one.
    pub loss: Option<f64>,
    /// Mean link-delay override (in ticks), when the grid swept one.
    pub delay: Option<f64>,
    /// Corruption-rate override, when the grid swept one.
    pub corruption: Option<f64>,
}

/// Outcome of one cell: the resolved parameters plus the run result (a
/// cell whose overrides are unbuildable — e.g. sweeping `n` over a
/// custom placement — reports the error instead of aborting the
/// campaign).
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell parameters.
    pub cell: CellInfo,
    /// The run outcome or the error that prevented it.
    pub outcome: Result<ScenarioOutcome, SpecError>,
}

/// Compact cell identification carried into the result store.
#[derive(Debug, Clone, PartialEq)]
pub struct CellInfo {
    /// Expansion index.
    pub index: usize,
    /// Scenario name.
    pub scenario: String,
    /// Seed.
    pub seed: u64,
    /// Node count.
    pub n: usize,
    /// Coverage degree.
    pub k: usize,
    /// Step size.
    pub alpha: f64,
    /// Explicit transmission-range override, when the grid swept one.
    pub gamma: Option<f64>,
    /// Message-loss override, when the grid swept one.
    pub loss: Option<f64>,
    /// Mean link-delay override (in ticks), when the grid swept one.
    pub delay: Option<f64>,
    /// Corruption-rate override, when the grid swept one.
    pub corruption: Option<f64>,
}

impl CampaignSpec {
    /// A campaign running `scenario` once per seed with no overrides.
    pub fn over_seeds(scenario: ScenarioSpec, seeds: impl IntoIterator<Item = u64>) -> Self {
        CampaignSpec {
            name: scenario.name.clone(),
            scenario,
            grid: ParamGrid {
                seeds: seeds.into_iter().collect(),
                ..ParamGrid::default()
            },
            checkpoint_every: 0,
        }
    }

    /// Unrolls the grid into cells, in deterministic order. With the
    /// default cross product: `n` (outer) × `k` × `alpha` × `gamma` ×
    /// `seeds` (inner); with `zip = true`: one tuple per position of the
    /// zipped axes (outer) × `seeds` (inner); with a `zip = [...]`
    /// group: the fused group replaces its first member's slot in the
    /// cross product, the other axes cross as usual.
    ///
    /// # Errors
    ///
    /// Fails only when an override cannot be expressed at all — a
    /// node-count sweep over a custom placement, zipped axes of unequal
    /// lengths, or a zip group naming an unknown or empty axis;
    /// per-cell *run* failures are reported in the cell's
    /// [`CellResult`] instead.
    pub fn expand(&self) -> Result<Vec<CampaignCell>, SpecError> {
        let seeds: &[u64] = if self.grid.seeds.is_empty() {
            &[0]
        } else {
            &self.grid.seeds
        };
        let base_n = self.scenario.placement.node_count();
        let tuples = match &self.grid.zip {
            ZipSpec::None => self.crossed_tuples(base_n),
            ZipSpec::All => self.zipped_tuples(base_n)?,
            ZipSpec::Axes(group) => self.grouped_tuples(base_n, group)?,
        };
        if (!self.grid.loss.is_empty()
            || !self.grid.delay.is_empty()
            || !self.grid.corruption.is_empty())
            && self.scenario.laacad.faults.is_none()
        {
            return Err(SpecError::Build(
                "the grid sweeps `loss`/`delay`/`corruption` but the scenario has \
                 no [faults] section to override"
                    .into(),
            ));
        }
        if self.checkpoint_every > 0 && self.scenario.laacad.faults.is_some() {
            return Err(SpecError::Build(
                "`checkpoint_every` cannot be combined with a [faults] section: \
                 the asynchronous executor has no snapshot support"
                    .into(),
            ));
        }
        let mut cells = Vec::with_capacity(tuples.len() * seeds.len());
        for (n, k, alpha, gamma, loss, delay, corruption) in tuples {
            for &seed in seeds {
                let mut scenario = self.scenario.clone();
                if n != base_n {
                    scenario.placement = scenario.placement.with_node_count(n)?;
                }
                scenario.laacad.k = k;
                scenario.laacad.alpha = alpha;
                if let Some(g) = gamma {
                    scenario.laacad.gamma = Some(g);
                }
                if loss.is_some() || delay.is_some() || corruption.is_some() {
                    let faults = scenario
                        .laacad
                        .faults
                        .as_mut()
                        .expect("checked above: fault axes require a [faults] section");
                    if let Some(l) = loss {
                        faults.loss = l;
                    }
                    if let Some(d) = delay {
                        faults.delay = if d == 0.0 {
                            DelaySpec::None
                        } else {
                            DelaySpec::Exp { mean: d }
                        };
                    }
                    if let Some(c) = corruption {
                        faults.corruption_rate = c;
                    }
                }
                cells.push(CampaignCell {
                    index: cells.len(),
                    scenario,
                    seed,
                    n,
                    k,
                    alpha,
                    gamma,
                    loss,
                    delay,
                    corruption,
                });
            }
        }
        Ok(cells)
    }

    /// The cross product of the non-empty parameter axes (defaults fill
    /// in for empty ones).
    fn crossed_tuples(&self, base_n: usize) -> Vec<ParamTuple> {
        let ns: Vec<usize> = if self.grid.n.is_empty() {
            vec![base_n]
        } else {
            self.grid.n.clone()
        };
        let ks: Vec<usize> = if self.grid.k.is_empty() {
            vec![self.scenario.laacad.k]
        } else {
            self.grid.k.clone()
        };
        let alphas: Vec<f64> = if self.grid.alpha.is_empty() {
            vec![self.scenario.laacad.alpha]
        } else {
            self.grid.alpha.clone()
        };
        let gammas: Vec<Option<f64>> = if self.grid.gamma.is_empty() {
            vec![None]
        } else {
            self.grid.gamma.iter().map(|&g| Some(g)).collect()
        };
        let losses: Vec<Option<f64>> = if self.grid.loss.is_empty() {
            vec![None]
        } else {
            self.grid.loss.iter().map(|&x| Some(x)).collect()
        };
        let delays: Vec<Option<f64>> = if self.grid.delay.is_empty() {
            vec![None]
        } else {
            self.grid.delay.iter().map(|&x| Some(x)).collect()
        };
        let corruptions: Vec<Option<f64>> = if self.grid.corruption.is_empty() {
            vec![None]
        } else {
            self.grid.corruption.iter().map(|&x| Some(x)).collect()
        };
        let mut tuples = Vec::new();
        for &n in &ns {
            for &k in &ks {
                for &alpha in &alphas {
                    for &gamma in &gammas {
                        for &loss in &losses {
                            for &delay in &delays {
                                for &corruption in &corruptions {
                                    tuples.push((n, k, alpha, gamma, loss, delay, corruption));
                                }
                            }
                        }
                    }
                }
            }
        }
        tuples
    }

    /// Position-by-position tuples of the non-empty parameter axes.
    ///
    /// # Errors
    ///
    /// Fails when the non-empty axes disagree on length.
    fn zipped_tuples(&self, base_n: usize) -> Result<Vec<ParamTuple>, SpecError> {
        let lengths: Vec<(&str, usize)> = [
            ("n", self.grid.n.len()),
            ("k", self.grid.k.len()),
            ("alpha", self.grid.alpha.len()),
            ("gamma", self.grid.gamma.len()),
            ("loss", self.grid.loss.len()),
            ("delay", self.grid.delay.len()),
            ("corruption", self.grid.corruption.len()),
        ]
        .into_iter()
        .filter(|&(_, len)| len > 0)
        .collect();
        let Some(&(_, len)) = lengths.first() else {
            // No parameter axes at all: one default tuple.
            return Ok(vec![(
                base_n,
                self.scenario.laacad.k,
                self.scenario.laacad.alpha,
                None,
                None,
                None,
                None,
            )]);
        };
        if let Some(&(axis, other)) = lengths.iter().find(|&&(_, l)| l != len) {
            return Err(SpecError::Build(format!(
                "zip grid axes disagree on length: `{}` has {} entries but `{axis}` has {other}",
                lengths[0].0, len
            )));
        }
        Ok((0..len)
            .map(|i| {
                (
                    self.grid.n.get(i).copied().unwrap_or(base_n),
                    self.grid
                        .k
                        .get(i)
                        .copied()
                        .unwrap_or(self.scenario.laacad.k),
                    self.grid
                        .alpha
                        .get(i)
                        .copied()
                        .unwrap_or(self.scenario.laacad.alpha),
                    self.grid.gamma.get(i).copied(),
                    self.grid.loss.get(i).copied(),
                    self.grid.delay.get(i).copied(),
                    self.grid.corruption.get(i).copied(),
                )
            })
            .collect())
    }

    /// Tuples for a **mixed** grid: the axes named in `group` fuse into
    /// one position-by-position slot — placed where the group's first
    /// axis sits in the canonical `n`, `k`, `alpha`, `gamma` order —
    /// and every other non-empty axis crosses against it.
    ///
    /// # Errors
    ///
    /// Fails on unknown or duplicate axis names, a zip axis with no
    /// values, and group members of unequal lengths.
    fn grouped_tuples(
        &self,
        base_n: usize,
        group: &[String],
    ) -> Result<Vec<ParamTuple>, SpecError> {
        const AXES: [&str; 7] = ["n", "k", "alpha", "gamma", "loss", "delay", "corruption"];
        if group.is_empty() {
            // An empty group zips nothing: plain cross product.
            return Ok(self.crossed_tuples(base_n));
        }
        for (i, axis) in group.iter().enumerate() {
            if !AXES.contains(&axis.as_str()) {
                return Err(SpecError::Build(format!(
                    "unknown zip axis `{axis}` (expected one of n, k, alpha, gamma, \
                     loss, delay, corruption)"
                )));
            }
            if group[..i].contains(axis) {
                return Err(SpecError::Build(format!("duplicate zip axis `{axis}`")));
            }
        }
        let axis_len = |name: &str| match name {
            "n" => self.grid.n.len(),
            "k" => self.grid.k.len(),
            "alpha" => self.grid.alpha.len(),
            "gamma" => self.grid.gamma.len(),
            "loss" => self.grid.loss.len(),
            "delay" => self.grid.delay.len(),
            _ => self.grid.corruption.len(),
        };
        let group_len = axis_len(&group[0]);
        for axis in group {
            let len = axis_len(axis);
            if len == 0 {
                return Err(SpecError::Build(format!(
                    "zip axis `{axis}` has no values to pair"
                )));
            }
            if len != group_len {
                return Err(SpecError::Build(format!(
                    "zip grid axes disagree on length: `{}` has {group_len} entries \
                     but `{axis}` has {len}",
                    group[0]
                )));
            }
        }
        let ns: Vec<usize> = if self.grid.n.is_empty() {
            vec![base_n]
        } else {
            self.grid.n.clone()
        };
        let ks: Vec<usize> = if self.grid.k.is_empty() {
            vec![self.scenario.laacad.k]
        } else {
            self.grid.k.clone()
        };
        let alphas: Vec<f64> = if self.grid.alpha.is_empty() {
            vec![self.scenario.laacad.alpha]
        } else {
            self.grid.alpha.clone()
        };
        let gammas: Vec<Option<f64>> = if self.grid.gamma.is_empty() {
            vec![None]
        } else {
            self.grid.gamma.iter().map(|&g| Some(g)).collect()
        };
        let losses: Vec<Option<f64>> = if self.grid.loss.is_empty() {
            vec![None]
        } else {
            self.grid.loss.iter().map(|&x| Some(x)).collect()
        };
        let delays: Vec<Option<f64>> = if self.grid.delay.is_empty() {
            vec![None]
        } else {
            self.grid.delay.iter().map(|&x| Some(x)).collect()
        };
        let corruptions: Vec<Option<f64>> = if self.grid.corruption.is_empty() {
            vec![None]
        } else {
            self.grid.corruption.iter().map(|&x| Some(x)).collect()
        };
        #[derive(Clone, Copy)]
        enum Slot {
            Group,
            N,
            K,
            Alpha,
            Gamma,
            Loss,
            Delay,
            Corruption,
        }
        let in_group = |name: &str| group.iter().any(|a| a == name);
        let mut slots: Vec<(Slot, usize)> = Vec::new();
        for axis in AXES {
            if in_group(axis) {
                if !slots.iter().any(|&(s, _)| matches!(s, Slot::Group)) {
                    slots.push((Slot::Group, group_len));
                }
            } else {
                slots.push(match axis {
                    "n" => (Slot::N, ns.len()),
                    "k" => (Slot::K, ks.len()),
                    "alpha" => (Slot::Alpha, alphas.len()),
                    "gamma" => (Slot::Gamma, gammas.len()),
                    "loss" => (Slot::Loss, losses.len()),
                    "delay" => (Slot::Delay, delays.len()),
                    _ => (Slot::Corruption, corruptions.len()),
                });
            }
        }
        // Row-major odometer over the slots (last slot fastest), so a
        // group behaves exactly like one ordinary axis at its position.
        let total: usize = slots.iter().map(|&(_, len)| len).product();
        let mut tuples = Vec::with_capacity(total);
        let mut picks = vec![0usize; slots.len()];
        for mut index in 0..total {
            for (s, &(_, len)) in slots.iter().enumerate().rev() {
                picks[s] = index % len;
                index /= len;
            }
            let (mut n, mut k, mut alpha, mut gamma, mut loss, mut delay, mut corruption) = (
                ns[0],
                ks[0],
                alphas[0],
                gammas[0],
                losses[0],
                delays[0],
                corruptions[0],
            );
            for (s, &(slot, _)) in slots.iter().enumerate() {
                let p = picks[s];
                match slot {
                    Slot::Group => {
                        if in_group("n") {
                            n = ns[p];
                        }
                        if in_group("k") {
                            k = ks[p];
                        }
                        if in_group("alpha") {
                            alpha = alphas[p];
                        }
                        if in_group("gamma") {
                            gamma = gammas[p];
                        }
                        if in_group("loss") {
                            loss = losses[p];
                        }
                        if in_group("delay") {
                            delay = delays[p];
                        }
                        if in_group("corruption") {
                            corruption = corruptions[p];
                        }
                    }
                    Slot::N => n = ns[p],
                    Slot::K => k = ks[p],
                    Slot::Alpha => alpha = alphas[p],
                    Slot::Gamma => gamma = gammas[p],
                    Slot::Loss => loss = losses[p],
                    Slot::Delay => delay = delays[p],
                    Slot::Corruption => corruption = corruptions[p],
                }
            }
            tuples.push((n, k, alpha, gamma, loss, delay, corruption));
        }
        Ok(tuples)
    }

    /// Decodes a campaign document (`name`, `[scenario]`, `[grid]`).
    pub fn from_value(v: &Value) -> Result<Self, SpecError> {
        let scenario = ScenarioSpec::from_value(
            v.get("scenario")
                .ok_or_else(|| DecodeError::new("campaign.scenario", "missing required field"))?,
        )?;
        let grid = match v.get("grid") {
            None => ParamGrid::default(),
            Some(g) => ParamGrid::from_value(g, "campaign.grid")?,
        };
        let name = match decode::opt_str(v, "name", "campaign")? {
            Some(n) => n,
            None => scenario.name.clone(),
        };
        let checkpoint_every = decode::opt_usize(v, "checkpoint_every", "campaign")?.unwrap_or(0);
        Ok(CampaignSpec {
            name,
            scenario,
            grid,
            checkpoint_every,
        })
    }

    /// Encodes the campaign as a [`Value`] tree.
    pub fn to_value(&self) -> Value {
        let mut t = Value::table();
        t.insert("name", Value::Str(self.name.clone()));
        if self.checkpoint_every > 0 {
            t.insert("checkpoint_every", encode::int(self.checkpoint_every));
        }
        t.insert("scenario", self.scenario.to_value());
        t.insert("grid", self.grid.to_value());
        t
    }

    /// Parses a TOML campaign document.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        let v = crate::toml::parse(text).map_err(SpecError::Toml)?;
        Self::from_value(&v)
    }

    /// Serializes as TOML.
    pub fn to_toml(&self) -> String {
        crate::toml::to_string(&self.to_value())
    }

    /// Loads a campaign — or a bare scenario, promoted to a one-cell
    /// campaign — from a TOML/JSON file.
    pub fn from_path(path: &std::path::Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::Build(format!("cannot read {}: {e}", path.display())))?;
        let v = match path.extension().and_then(|e| e.to_str()) {
            Some("json") => crate::json::parse(&text).map_err(SpecError::Json)?,
            _ => crate::toml::parse(&text).map_err(SpecError::Toml)?,
        };
        if v.get("scenario").is_some() {
            Self::from_value(&v)
        } else {
            let scenario = ScenarioSpec::from_value(&v)?;
            Ok(CampaignSpec {
                name: scenario.name.clone(),
                scenario,
                grid: ParamGrid::default(),
                checkpoint_every: 0,
            })
        }
    }
}

/// Live progress of a campaign run, handed to the
/// [`CampaignRunOptions::progress`] callback after every completed cell
/// (cells complete in expansion order).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignProgress {
    /// Cells finished so far (≥ 1 whenever the callback fires).
    pub completed: usize,
    /// Total cells in the expansion.
    pub total: usize,
    /// Wall-clock seconds since the campaign started executing.
    pub elapsed_secs: f64,
    /// Throughput so far, in cells per minute.
    pub cells_per_minute: f64,
    /// Estimated seconds until the last cell lands (`None` until any
    /// throughput has been observed).
    pub eta_secs: Option<f64>,
}

/// What [`run_campaign`] does besides running the cells. Every option
/// only observes: the results are bit-identical whatever the options.
#[derive(Default)]
pub struct CampaignRunOptions<'a> {
    /// Result directory. Every cell's JSONL line and CSV row are
    /// appended to `<name>.jsonl` / `<name>.csv` there — and flushed —
    /// the moment the cell (and every cell before it, to keep expansion
    /// order) completes, so a campaign killed halfway leaves every
    /// finished row on disk. Checkpoint and telemetry files land here
    /// too.
    pub store: Option<&'a ResultStore>,
    /// Record telemetry for **every** cell (needs a store). Cells whose
    /// scenario sets `laacad.telemetry = true` are recorded whenever
    /// there is a store.
    pub telemetry: bool,
    /// Called after each completed cell with the live progress.
    pub progress: Option<&'a mut dyn FnMut(&CampaignProgress)>,
}

/// Expands and executes a campaign across all cores, one
/// [`run_scenario`] per cell.
///
/// Results come back in expansion order (not completion order), so two
/// runs of the same campaign produce identical result sequences — and,
/// with a [`CampaignRunOptions::store`], byte-identical files
/// ([`crate::to_jsonl`] / [`crate::to_csv`] of the returned results).
///
/// With a store, every recorded cell (see
/// [`CampaignRunOptions::telemetry`]) runs with a [`SessionTelemetry`]
/// recorder and leaves two files beside the results:
///
/// * `<name>.cell<index>.telemetry.jsonl` — the deterministic work
///   metrics (counter deltas per round, no timestamps), byte-stable
///   across reruns and worker counts;
/// * `<name>.cell<index>.trace.json` — a Chrome trace-event file of
///   wall-clock stage spans (open in Perfetto or `chrome://tracing`).
///
/// With [`CampaignSpec::checkpoint_every`] set, each synchronous cell
/// writes `<name>.cell<index>.checkpoint` to the store on that cadence,
/// resumes from an existing file (a killed campaign rerun; an
/// unreadable or corrupt file restarts the cell) and removes it when
/// the cell completes.
///
/// # Errors
///
/// [`SpecError::Build`] when the grid cannot be expanded, or when
/// `checkpoint_every` or [`CampaignRunOptions::telemetry`] is set
/// without a store to write to; [`SpecError::Io`] when a file operation
/// fails. Individual cell failures are embedded in the returned
/// [`CellResult`]s.
pub fn run_campaign(
    campaign: &CampaignSpec,
    options: CampaignRunOptions<'_>,
) -> Result<Vec<CellResult>, SpecError> {
    let cells = campaign.expand()?;
    let CampaignRunOptions {
        store,
        telemetry,
        mut progress,
    } = options;
    if store.is_none() && (campaign.checkpoint_every > 0 || telemetry) {
        return Err(SpecError::Build(
            "`checkpoint_every` and telemetry write files beside the results: \
             run the campaign with a result directory"
                .into(),
        ));
    }
    let mut files = store
        .map(|s| s.open_stream(&campaign.name).map(|f| (s, f)))
        .transpose()
        .map_err(|e| SpecError::Io(e.to_string()))?;
    let total = cells.len();
    let started = Instant::now();
    let mut completed = 0usize;
    let mut write_err: Option<std::io::Error> = None;
    let outputs = parallel_map_visit(
        0,
        cells,
        |cell| {
            let record = store.is_some() && (telemetry || cell.scenario.laacad.telemetry);
            run_cell(cell, record, campaign, store)
        },
        |_, (result, recorded)| {
            if let (Some((store, files)), None) = (files.as_mut(), &write_err) {
                let written = files.append(result).and_then(|()| match recorded {
                    Some(t) => write_cell_telemetry(store, &campaign.name, result.cell.index, t),
                    None => Ok(()),
                });
                write_err = written.err();
            }
            completed += 1;
            if let Some(cb) = progress.as_deref_mut() {
                let elapsed_secs = started.elapsed().as_secs_f64();
                let cells_per_minute = if elapsed_secs > 0.0 {
                    completed as f64 / elapsed_secs * 60.0
                } else {
                    0.0
                };
                let eta_secs = (cells_per_minute > 0.0)
                    .then(|| (total - completed) as f64 * elapsed_secs / completed as f64);
                cb(&CampaignProgress {
                    completed,
                    total,
                    elapsed_secs,
                    cells_per_minute,
                    eta_secs,
                });
            }
        },
    );
    if let Some(e) = write_err {
        return Err(SpecError::Io(e.to_string()));
    }
    Ok(outputs.into_iter().map(|(r, _)| r).collect())
}

fn cell_info(cell: &CampaignCell) -> CellInfo {
    CellInfo {
        index: cell.index,
        scenario: cell.scenario.name.clone(),
        seed: cell.seed,
        n: cell.n,
        k: cell.k,
        alpha: cell.alpha,
        gamma: cell.gamma,
        loss: cell.loss,
        delay: cell.delay,
        corruption: cell.corruption,
    }
}

/// Runs one campaign cell, with a [`SessionTelemetry`] recorder when
/// `record` is set (handed back for a cell that ran) and the campaign's
/// checkpoint cadence when it has one and a store. `[faults]` cells never get here with a cadence:
/// [`CampaignSpec::expand`] refuses that combination up front.
fn run_cell(
    cell: CampaignCell,
    record: bool,
    campaign: &CampaignSpec,
    store: Option<&ResultStore>,
) -> (CellResult, Option<SessionTelemetry>) {
    let mut recorder: Option<Box<dyn Recorder>> =
        record.then(|| Box::new(SessionTelemetry::new()) as Box<dyn Recorder>);
    let checkpoint_path = store.filter(|_| campaign.checkpoint_every > 0).map(|s| {
        s.dir()
            .join(format!("{}.cell{}.checkpoint", campaign.name, cell.index))
    });
    let outcome = match &checkpoint_path {
        None => run_scenario(
            &cell.scenario,
            cell.seed,
            RunOptions {
                recorder: recorder.as_mut(),
                checkpoint: None,
            },
        ),
        Some(path) => {
            // An unreadable or corrupt checkpoint file must not wedge the
            // campaign — start the cell over instead of failing it.
            let resume = std::fs::read(path)
                .ok()
                .and_then(|bytes| ScenarioCheckpoint::from_bytes(&bytes).ok());
            let mut sink = |ckpt: &ScenarioCheckpoint| {
                std::fs::write(path, ckpt.to_bytes()).map_err(|e| SpecError::Io(e.to_string()))
            };
            let checkpoint = Some(CheckpointPolicy {
                every: campaign.checkpoint_every,
                resume: resume.as_ref(),
                sink: &mut sink,
            });
            let options = RunOptions {
                recorder: recorder.as_mut(),
                checkpoint,
            };
            let outcome = run_scenario(&cell.scenario, cell.seed, options);
            if outcome.is_ok() {
                let _ = std::fs::remove_file(path);
            }
            outcome
        }
    };
    let telemetry = recorder
        .filter(|_| outcome.is_ok())
        .and_then(|r| r.as_any().downcast_ref::<SessionTelemetry>().cloned());
    (
        CellResult {
            cell: cell_info(&cell),
            outcome,
        },
        telemetry,
    )
}

/// Writes one cell's telemetry pair beside the campaign result files.
fn write_cell_telemetry(
    store: &ResultStore,
    name: &str,
    index: usize,
    telemetry: &SessionTelemetry,
) -> std::io::Result<()> {
    std::fs::write(
        store
            .dir()
            .join(format!("{name}.cell{index}.telemetry.jsonl")),
        telemetry.jsonl.finish(),
    )?;
    std::fs::write(
        store.dir().join(format!("{name}.cell{index}.trace.json")),
        telemetry.trace.finish(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_order_is_deterministic() {
        let mut campaign = CampaignSpec::over_seeds(ScenarioSpec::uniform("grid", 10, 1), [1, 2]);
        campaign.grid.k = vec![1, 2];
        campaign.grid.n = vec![10, 20];
        let cells = campaign.expand().unwrap();
        assert_eq!(cells.len(), 8);
        let params: Vec<(usize, usize, u64)> = cells.iter().map(|c| (c.n, c.k, c.seed)).collect();
        assert_eq!(
            params,
            vec![
                (10, 1, 1),
                (10, 1, 2),
                (10, 2, 1),
                (10, 2, 2),
                (20, 1, 1),
                (20, 1, 2),
                (20, 2, 1),
                (20, 2, 2),
            ]
        );
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.scenario.placement.node_count(), c.n);
            assert_eq!(c.scenario.laacad.k, c.k);
        }
    }

    #[test]
    fn campaign_runs_in_parallel_and_in_order() {
        let mut spec = ScenarioSpec::uniform("par", 12, 1);
        spec.laacad.max_rounds = 40;
        let campaign = CampaignSpec::over_seeds(spec, [5, 6, 7, 8]);
        let results = run_campaign(&campaign, CampaignRunOptions::default()).unwrap();
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.cell.index, i);
            assert_eq!(r.cell.seed, 5 + i as u64);
            let out = r.outcome.as_ref().unwrap();
            assert_eq!(out.seed, r.cell.seed);
            assert!(out.coverage.covered_fraction > 0.9);
        }
    }

    #[test]
    fn n_sweep_over_custom_placement_fails_cleanly() {
        let mut spec = ScenarioSpec::uniform("bad", 4, 1);
        spec.placement = crate::spec::PlacementSpec::Custom {
            points: vec![(0.2, 0.2), (0.8, 0.8), (0.2, 0.8), (0.8, 0.2)],
        };
        let mut campaign = CampaignSpec::over_seeds(spec, [1]);
        campaign.grid.n = vec![8];
        assert!(campaign.expand().is_err());
    }

    #[test]
    fn campaign_toml_round_trip() {
        let mut campaign = CampaignSpec::over_seeds(ScenarioSpec::uniform("rt", 10, 2), [3, 4]);
        campaign.grid.alpha = vec![0.5, 1.0];
        campaign.grid.gamma = vec![0.3, 0.4];
        campaign.grid.zip = ZipSpec::All;
        let text = campaign.to_toml();
        let back = CampaignSpec::from_toml(&text).unwrap();
        assert_eq!(campaign, back, "TOML:\n{text}");
    }

    #[test]
    fn gamma_axis_crosses_and_overrides() {
        let mut campaign = CampaignSpec::over_seeds(ScenarioSpec::uniform("g", 10, 1), [1]);
        campaign.grid.k = vec![1, 2];
        campaign.grid.gamma = vec![0.3, 0.5];
        let cells = campaign.expand().unwrap();
        assert_eq!(cells.len(), 4);
        let params: Vec<(usize, Option<f64>)> = cells.iter().map(|c| (c.k, c.gamma)).collect();
        assert_eq!(
            params,
            vec![
                (1, Some(0.3)),
                (1, Some(0.5)),
                (2, Some(0.3)),
                (2, Some(0.5)),
            ]
        );
        for c in &cells {
            assert_eq!(c.scenario.laacad.gamma, c.gamma, "override applied");
        }
    }

    #[test]
    fn zip_grid_pairs_axes_position_by_position() {
        let mut campaign = CampaignSpec::over_seeds(ScenarioSpec::uniform("z", 10, 1), [1, 2]);
        campaign.grid.zip = ZipSpec::All;
        campaign.grid.n = vec![10, 40, 90];
        campaign.grid.gamma = vec![0.5, 0.3, 0.2];
        let cells = campaign.expand().unwrap();
        assert_eq!(cells.len(), 6, "3 zipped tuples × 2 seeds");
        let params: Vec<(usize, Option<f64>, u64)> =
            cells.iter().map(|c| (c.n, c.gamma, c.seed)).collect();
        assert_eq!(
            params,
            vec![
                (10, Some(0.5), 1),
                (10, Some(0.5), 2),
                (40, Some(0.3), 1),
                (40, Some(0.3), 2),
                (90, Some(0.2), 1),
                (90, Some(0.2), 2),
            ]
        );
        // Unmentioned axes keep the scenario's own values.
        assert!(cells.iter().all(|c| c.k == 1));
    }

    #[test]
    fn zip_grid_rejects_unequal_axis_lengths() {
        let mut campaign = CampaignSpec::over_seeds(ScenarioSpec::uniform("bad-zip", 10, 1), [1]);
        campaign.grid.zip = ZipSpec::All;
        campaign.grid.n = vec![10, 20];
        campaign.grid.k = vec![1, 2, 3];
        let err = campaign.expand().unwrap_err();
        assert!(err.to_string().contains("zip"), "{err}");
    }

    #[test]
    fn zip_group_crosses_against_remaining_axes() {
        // (n, gamma) move together; k crosses against the fused pair.
        let mut campaign = CampaignSpec::over_seeds(ScenarioSpec::uniform("mix", 10, 1), [1, 2]);
        campaign.grid.zip = ZipSpec::Axes(vec!["n".into(), "gamma".into()]);
        campaign.grid.n = vec![40, 90];
        campaign.grid.gamma = vec![0.3, 0.2];
        campaign.grid.k = vec![1, 2];
        let cells = campaign.expand().unwrap();
        assert_eq!(cells.len(), 8, "2 fused tuples × 2 k × 2 seeds");
        let params: Vec<(usize, usize, Option<f64>, u64)> =
            cells.iter().map(|c| (c.n, c.k, c.gamma, c.seed)).collect();
        // The group sits in `n`'s slot of the canonical order, so it is
        // outermost, k next, seeds innermost.
        assert_eq!(
            params,
            vec![
                (40, 1, Some(0.3), 1),
                (40, 1, Some(0.3), 2),
                (40, 2, Some(0.3), 1),
                (40, 2, Some(0.3), 2),
                (90, 1, Some(0.2), 1),
                (90, 1, Some(0.2), 2),
                (90, 2, Some(0.2), 1),
                (90, 2, Some(0.2), 2),
            ]
        );
        for c in &cells {
            assert_eq!(c.scenario.placement.node_count(), c.n);
            assert_eq!(c.scenario.laacad.gamma, c.gamma);
        }
    }

    #[test]
    fn zip_group_takes_its_first_members_slot() {
        // Group (k, gamma): n crosses OUTSIDE the group because the
        // group occupies k's position in the canonical order.
        let mut campaign = CampaignSpec::over_seeds(ScenarioSpec::uniform("slot", 10, 1), [7]);
        campaign.grid.zip = ZipSpec::Axes(vec!["k".into(), "gamma".into()]);
        campaign.grid.k = vec![1, 2];
        campaign.grid.gamma = vec![0.4, 0.3];
        campaign.grid.alpha = vec![0.5, 0.9];
        let cells = campaign.expand().unwrap();
        let params: Vec<(usize, f64, Option<f64>)> =
            cells.iter().map(|c| (c.k, c.alpha, c.gamma)).collect();
        assert_eq!(
            params,
            vec![
                (1, 0.5, Some(0.4)),
                (1, 0.9, Some(0.4)),
                (2, 0.5, Some(0.3)),
                (2, 0.9, Some(0.3)),
            ]
        );
    }

    #[test]
    fn zip_group_toml_round_trips() {
        let mut campaign = CampaignSpec::over_seeds(ScenarioSpec::uniform("rt-mix", 10, 1), [1]);
        campaign.grid.zip = ZipSpec::Axes(vec!["n".into(), "gamma".into()]);
        campaign.grid.n = vec![40, 90];
        campaign.grid.gamma = vec![0.3, 0.2];
        campaign.grid.k = vec![1, 2];
        let text = campaign.to_toml();
        let back = CampaignSpec::from_toml(&text).unwrap();
        assert_eq!(campaign, back, "TOML:\n{text}");
    }

    #[test]
    fn corruption_axis_crosses_and_overrides() {
        let mut spec = ScenarioSpec::uniform("byz", 10, 1);
        spec.laacad.faults = Some(crate::spec::FaultSpec::default());
        let mut campaign = CampaignSpec::over_seeds(spec, [1]);
        campaign.grid.loss = vec![0.0, 0.1];
        campaign.grid.corruption = vec![0.0, 0.2];
        let cells = campaign.expand().unwrap();
        assert_eq!(cells.len(), 4, "2 loss × 2 corruption");
        let params: Vec<(Option<f64>, Option<f64>)> =
            cells.iter().map(|c| (c.loss, c.corruption)).collect();
        assert_eq!(
            params,
            vec![
                (Some(0.0), Some(0.0)),
                (Some(0.0), Some(0.2)),
                (Some(0.1), Some(0.0)),
                (Some(0.1), Some(0.2)),
            ]
        );
        for c in &cells {
            let faults = c.scenario.laacad.faults.as_ref().unwrap();
            assert_eq!(Some(faults.corruption_rate), c.corruption);
            assert_eq!(Some(faults.loss), c.loss);
        }
    }

    #[test]
    fn corruption_axis_requires_faults_section() {
        let mut campaign = CampaignSpec::over_seeds(ScenarioSpec::uniform("no-f", 10, 1), [1]);
        campaign.grid.corruption = vec![0.1];
        let err = campaign.expand().unwrap_err();
        assert!(err.to_string().contains("[faults]"), "{err}");
    }

    #[test]
    fn corruption_axis_toml_round_trips() {
        let mut spec = ScenarioSpec::uniform("rt-byz", 10, 1);
        spec.laacad.faults = Some(crate::spec::FaultSpec::default());
        let mut campaign = CampaignSpec::over_seeds(spec, [1, 2]);
        campaign.grid.corruption = vec![0.0, 0.1, 0.3];
        let text = campaign.to_toml();
        let back = CampaignSpec::from_toml(&text).unwrap();
        assert_eq!(campaign, back, "TOML:\n{text}");
    }

    #[test]
    fn checkpoint_every_with_faults_is_rejected() {
        let mut spec = ScenarioSpec::uniform("ckpt-async", 10, 1);
        spec.laacad.faults = Some(crate::spec::FaultSpec::default());
        let mut campaign = CampaignSpec::over_seeds(spec, [3]);
        campaign.expand().expect("no cadence, no conflict");

        campaign.checkpoint_every = 5;
        let err = campaign.expand().unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, SpecError::Build(_)), "{err:?}");
        assert!(
            msg.contains("checkpoint_every") && msg.contains("[faults]"),
            "{msg}"
        );

        // The decoded form is refused the same way.
        let back = CampaignSpec::from_toml(&campaign.to_toml()).unwrap();
        assert!(back.expand().is_err());
    }

    #[test]
    fn checkpoint_every_without_a_store_is_rejected() {
        let mut spec = ScenarioSpec::uniform("ckpt-nowhere", 10, 1);
        spec.laacad.max_rounds = 20;
        let mut campaign = CampaignSpec::over_seeds(spec, [3]);
        campaign.checkpoint_every = 5;
        let err = run_campaign(&campaign, CampaignRunOptions::default()).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, SpecError::Build(_)), "{err:?}");
        assert!(msg.contains("checkpoint_every"), "{msg}");

        // Asking for telemetry files without a store is refused too.
        campaign.checkpoint_every = 0;
        let options = CampaignRunOptions {
            telemetry: true,
            ..CampaignRunOptions::default()
        };
        let err = run_campaign(&campaign, options).unwrap_err();
        assert!(matches!(err, SpecError::Build(_)), "{err:?}");
    }

    #[test]
    fn zip_group_validates_axis_names_and_lengths() {
        let base = || CampaignSpec::over_seeds(ScenarioSpec::uniform("bad-mix", 10, 1), [1]);

        let mut campaign = base();
        campaign.grid.zip = ZipSpec::Axes(vec!["rho".into()]);
        let err = campaign.expand().unwrap_err();
        assert!(err.to_string().contains("unknown zip axis"), "{err}");

        let mut campaign = base();
        campaign.grid.zip = ZipSpec::Axes(vec!["n".into(), "n".into()]);
        campaign.grid.n = vec![10, 20];
        let err = campaign.expand().unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");

        let mut campaign = base();
        campaign.grid.zip = ZipSpec::Axes(vec!["n".into(), "gamma".into()]);
        campaign.grid.n = vec![10, 20];
        let err = campaign.expand().unwrap_err();
        assert!(err.to_string().contains("no values"), "{err}");

        let mut campaign = base();
        campaign.grid.zip = ZipSpec::Axes(vec!["n".into(), "gamma".into()]);
        campaign.grid.n = vec![10, 20];
        campaign.grid.gamma = vec![0.3];
        let err = campaign.expand().unwrap_err();
        assert!(err.to_string().contains("disagree on length"), "{err}");
    }
}
