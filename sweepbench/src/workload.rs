//! The workloads: which sweep points each sends, in what order,
//! and what every answer must be.
//!
//! A workload is one *pass*: a list of request lines sent closed-loop by
//! a single client. The seed only permutes the pass, names the points and
//! places the coordinator's repeats and invalid lines, so every seed
//! sends the same multiset of computations and the figures of two seeds
//! are comparable.

use c240_isa::PRESET_NAMES;
use macs_core::sweep::SweepPoint;
use macs_experiments::sweep::Ablation;

/// Every workload the benchmark runs.
pub const NAMES: [&str; 2] = ["sweep_exact", "coord_repeat"];

/// Pass counts of the rows the coordinator's journal is warm-started
/// with; its fresh points use one pass, so no fresh key is ever in the
/// journal.
const JOURNAL_PASSES: [i64; 3] = [2, 3, 4];

/// Repeats per coordinator pass: journal rows and earlier fresh rows.
const JOURNAL_REPEATS: usize = 190;
const FRESH_REPEATS: usize = 100;

/// One sweep point the benchmark generates.
#[derive(Debug, Clone)]
pub struct Spec {
    pub kernel: u32,
    pub machine: &'static str,
    pub ablation: Ablation,
    pub passes: Option<i64>,
    pub fast_forward: Option<bool>,
}

impl Spec {
    fn new(kernel: u32, machine: &'static str, ablation: Ablation) -> Spec {
        Spec {
            kernel,
            machine,
            ablation,
            passes: None,
            fast_forward: None,
        }
    }

    /// The paper's configuration of one kernel: Table 4's `t_p` column.
    pub fn paper(kernel: u32) -> Spec {
        Spec::new(kernel, "c240", Ablation::Baseline)
    }

    /// One of the ten points `tp_err_vs_paper_pct` is scored on.
    pub fn is_paper(&self) -> bool {
        self.machine == "c240"
            && self.ablation == Ablation::Baseline
            && self.passes.is_none()
    }

    /// The golden-reference name: every field that changes the simulated
    /// result. Fast-forward is left out on purpose — it must not change
    /// the result, so its rows are checked against the exact reference.
    pub fn name(&self) -> String {
        let passes = self
            .passes
            .map_or_else(|| "d".to_string(), |p| p.to_string());
        format!(
            "lfk{}/{}/{}/p{}",
            self.kernel,
            self.machine,
            self.ablation.tag(),
            passes
        )
    }

    /// The point as the sweep protocol's value type.
    pub fn point(&self, id: &str) -> SweepPoint {
        let mut overrides = self.ablation.overrides();
        overrides.fast_forward = self.fast_forward;
        SweepPoint {
            id: id.to_string(),
            kernel: self.kernel,
            machine: Some(self.machine.to_string()),
            passes: self.passes,
            deadline_ms: None,
            inject: None,
            overrides,
        }
    }
}

/// What the answer to one line must be.
#[derive(Debug, Clone)]
pub enum Expect {
    /// An ok row whose simulated fields equal the golden row of this spec.
    Row(Spec),
    /// A structured error row of this `error_kind`.
    Error(&'static str),
}

/// How the coordinator answers a line, as the client predicts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Computed by a worker in this pass (every point of a `--serve`
    /// workload; a coordinator cache miss).
    Fresh,
    /// Answered from the coordinator's cache or warm-start journal.
    Hit,
    /// A deliberately invalid line.
    Invalid,
}

/// One request line of a pass.
#[derive(Debug, Clone)]
pub struct Item {
    pub line: String,
    pub expect: Expect,
    pub class: Class,
}

/// One workload, generated from a seed.
pub struct Workload {
    pub name: &'static str,
    /// Served by `--coordinate --fleet 2` instead of a lone `--serve`.
    pub coordinate: bool,
    /// One pass, in send order.
    pub pass: Vec<Item>,
    /// Points whose rows warm-start the coordinator's journal.
    pub journal: Vec<Spec>,
}

/// A deterministic generator (splitmix64): the same seed, the same
/// workload.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn grid(passes: Option<i64>) -> Vec<Spec> {
    let mut specs = Vec::new();
    for &machine in &PRESET_NAMES {
        for ablation in Ablation::ALL {
            for &kernel in &lfk_suite::IDS {
                specs.push(Spec {
                    passes,
                    ..Spec::new(kernel, machine, ablation)
                });
            }
        }
    }
    specs
}

fn paper_points() -> Vec<Spec> {
    lfk_suite::IDS.iter().map(|&k| Spec::paper(k)).collect()
}

fn sweep_exact() -> Vec<Spec> {
    grid(None)
        .into_iter()
        .map(|s| Spec {
            fast_forward: Some(false),
            ..s
        })
        .collect()
}

fn coord_journal() -> Vec<Spec> {
    let mut specs = paper_points();
    for passes in JOURNAL_PASSES {
        specs.extend(grid(Some(passes)));
    }
    specs
}

fn coord_fresh() -> Vec<Spec> {
    grid(Some(1))
}

/// Every spec any workload sends, for regenerating the golden file.
pub fn all_specs() -> Vec<Spec> {
    let mut specs = sweep_exact();
    specs.extend(coord_journal());
    specs.extend(coord_fresh());
    specs
}

/// Lines the server must answer with a structured error, one per
/// `(line, error_kind)`. Each keyed line is distinct, so none is a cache
/// hit and the coordinator's hit fraction does not depend on the seed.
fn invalid_lines() -> Vec<(String, &'static str)> {
    let mut lines = Vec::new();
    for n in 0..4 {
        lines.push((format!(r#"{{"id":"bad-json-{n}","kernel":"#), "protocol"));
        lines.push((
            format!(r#"{{"id":"bad-field-{n}","kernel":1,"bogus":{n}}}"#),
            "protocol",
        ));
        lines.push((
            format!(
                r#"{{"id":"bad-kernel-{n}","kernel":{}}}"#,
                [5, 11, 13, 14][n]
            ),
            "unknown_kernel",
        ));
        lines.push((
            format!(r#"{{"id":"bad-machine-{n}","kernel":1,"machine":"cray-{n}"}}"#),
            "unknown_machine",
        ));
        lines.push((
            format!(r#"{{"id":"bad-passes-{n}","kernel":1,"passes":-{n}}}"#),
            "invalid_passes",
        ));
        lines.push((
            format!(
                r#"{{"id":"bad-banks-{n}","kernel":{},"config":{{"banks":0}}}}"#,
                n + 1
            ),
            "invalid_config",
        ));
    }
    lines
}

/// The line sent first to every freshly started server: its answer marks
/// the server as ready to accept points.
pub const PROBE_LINE: &str = r#"{"id":"setup-probe"}"#;

impl Workload {
    /// Builds the named workload from `seed`; `None` for an unknown name.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        let mut rng = Rng::new(seed);
        Some(match name {
            "sweep_exact" => serve_exact(seed, &mut rng),
            "coord_repeat" => coord_repeat(seed, &mut rng),
            _ => return None,
        })
    }
}

/// A pass of `sweep_exact`: the whole grid once, in seeded order.
fn serve_exact(seed: u64, rng: &mut Rng) -> Workload {
    let mut specs = sweep_exact();
    rng.shuffle(&mut specs);
    Workload {
        name: "sweep_exact",
        coordinate: false,
        pass: specs
            .iter()
            .enumerate()
            .map(|(i, s)| item(s, &format!("sweep_exact-{seed}-{i}"), Class::Fresh))
            .collect(),
        journal: Vec::new(),
    }
}

fn item(spec: &Spec, id: &str, class: Class) -> Item {
    Item {
        line: spec.point(id).request_line(),
        expect: Expect::Row(spec.clone()),
        class,
    }
}

/// A pass of the coordinator workload: every fresh point once (a cold
/// miss), the ten paper points and random journal rows (warm-start
/// hits), repeats of fresh points already answered (live cache hits),
/// and the invalid lines.
fn coord_repeat(seed: u64, rng: &mut Rng) -> Workload {
    let journal = coord_journal();
    let id = |i: usize| format!("coord_repeat-{seed}-{i}");
    let mut pass: Vec<Item> = Vec::new();
    for spec in coord_fresh() {
        pass.push(item(&spec, &id(pass.len()), Class::Fresh));
    }
    for spec in paper_points() {
        pass.push(item(&spec, &id(pass.len()), Class::Hit));
    }
    for _ in 0..JOURNAL_REPEATS {
        let spec = &journal[lfk_suite::IDS.len() + rng.below(journal.len() - lfk_suite::IDS.len())];
        pass.push(item(spec, &id(pass.len()), Class::Hit));
    }
    for (line, kind) in invalid_lines() {
        pass.push(Item {
            line,
            expect: Expect::Error(kind),
            class: Class::Invalid,
        });
    }
    rng.shuffle(&mut pass);
    // Repeats of fresh points go after the point's first occurrence, so
    // each is answered from the cache the first occurrence filled.
    for _ in 0..FRESH_REPEATS {
        loop {
            let at = 1 + rng.below(pass.len());
            let earlier: Vec<&Item> = pass[..at]
                .iter()
                .filter(|it| it.class == Class::Fresh)
                .collect();
            if earlier.is_empty() {
                continue;
            }
            let Expect::Row(spec) = earlier[rng.below(earlier.len())].expect.clone() else {
                unreachable!("fresh items expect rows");
            };
            let repeat = item(&spec, &id(pass.len()), Class::Hit);
            pass.insert(at, repeat);
            break;
        }
    }
    Workload {
        name: "coord_repeat",
        coordinate: true,
        pass,
        journal,
    }
}
