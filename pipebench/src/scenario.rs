//! Seeded scenarios and the program set-up `limba simulate` performs.
//!
//! The scenario list and sizes are fixed; the seed only varies the
//! imbalance magnitudes, workload and fault seeds, and truncation
//! offsets, so every seed carries the same load.

use limba_mpisim::{BalancePlan, FaultPlan, MachineConfig, Program, Simulator};
use limba_workloads::{
    cfd::CfdConfig, irregular::IrregularConfig, stencil::StencilConfig, sweep::SweepConfig,
    Imbalance,
};

use crate::span;

/// Input size: `Full` is the benchmark, `Tiny` the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark's notes document.
    Full,
    /// Every rank count divided by 64, for fast self-tests.
    Tiny,
}

impl Scale {
    /// Rank count at this scale for a full-size count of `full`.
    pub fn ranks(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Tiny => (full / 64).max(4),
        }
    }
}

/// SplitMix64: the seeded source of every varied input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, offset by `stream` so that workloads draw
    /// independent values from one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The workload generators the benchmark draws on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// CFD proxy.
    Cfd,
    /// 2-D halo stencil on a square grid.
    Stencil,
    /// Irregular mesh.
    Irregular,
    /// Wavefront sweep.
    Sweep,
}

/// How an imbalance is drawn from the seed.
#[derive(Clone, Copy, Debug)]
pub enum Skew {
    /// No injected imbalance.
    None,
    /// Linear skew with a seeded spread.
    Linear,
    /// Uniform jitter with a seeded amplitude.
    Jitter,
    /// One seeded hotspot rank with a seeded factor.
    Hotspot,
}

/// One fully seeded simulation input.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Short label, e.g. `cfd-16384-jitter`.
    pub name: String,
    /// Workload generator.
    pub kind: Kind,
    /// Rank count.
    pub ranks: usize,
    /// Injected imbalance.
    pub imbalance: Imbalance,
    /// Workload seed.
    pub seed: u64,
    /// `--faults preset:<name>`, if any.
    pub faults: Option<&'static str>,
    /// Loss-decision seed substituted into the fault preset.
    pub fault_seed: u64,
    /// `--balance preset:<name>`, if any.
    pub balance: Option<&'static str>,
}

impl Scenario {
    /// Draws a scenario's varied parts from `rng`.
    pub fn new(
        rng: &mut Rng,
        kind: Kind,
        ranks: usize,
        skew: Skew,
        faults: Option<&'static str>,
        balance: Option<&'static str>,
    ) -> Self {
        let imbalance = match skew {
            Skew::None => Imbalance::None,
            Skew::Linear => Imbalance::LinearSkew {
                spread: rng.range(0.3, 0.7),
            },
            Skew::Jitter => Imbalance::RandomJitter {
                amplitude: rng.range(0.1, 0.3),
            },
            Skew::Hotspot => Imbalance::Hotspot {
                rank: (rng.next_u64() % ranks as u64) as usize,
                factor: rng.range(2.0, 4.0),
            },
        };
        let label = match (skew, faults, balance) {
            (_, Some(f), _) => f,
            (_, _, Some(b)) => b,
            (Skew::None, ..) => "none",
            (Skew::Linear, ..) => "linear",
            (Skew::Jitter, ..) => "jitter",
            (Skew::Hotspot, ..) => "hotspot",
        };
        let kind_name = match kind {
            Kind::Cfd => "cfd",
            Kind::Stencil => "stencil",
            Kind::Irregular => "irregular",
            Kind::Sweep => "sweep",
        };
        Scenario {
            name: format!("{kind_name}-{ranks}-{label}"),
            kind,
            ranks,
            imbalance,
            seed: rng.next_u64() % 1_000_000,
            faults,
            fault_seed: rng.next_u64(),
            balance,
        }
    }

    /// Whether the scenario's fault plan crashes a rank; a crashed run
    /// has truncated ranks, which a windowed reduction rejects.
    pub fn crashes(&self) -> bool {
        matches!(self.faults, Some("crash" | "chaos"))
    }

    /// The program, built with the generator defaults `limba simulate`
    /// uses when no `--iterations` is given.
    pub fn build_program(&self) -> Result<Program, String> {
        let ranks = self.ranks;
        let program = match self.kind {
            Kind::Cfd => CfdConfig::new(ranks)
                .with_iterations(1)
                .with_imbalance(self.imbalance)
                .with_seed(self.seed)
                .build_program(),
            Kind::Stencil => {
                // Squarest grid for the rank count, as the CLI picks it.
                let px = (1..=ranks)
                    .filter(|d| ranks.is_multiple_of(*d))
                    .min_by_key(|&d| (d as i64 - (ranks as f64).sqrt() as i64).abs())
                    .unwrap_or(1);
                StencilConfig::new(px, ranks / px)
                    .with_iterations(10)
                    .with_imbalance(self.imbalance)
                    .with_seed(self.seed)
                    .build_program()
            }
            Kind::Irregular => IrregularConfig::new(ranks)
                .with_steps(4)
                .with_imbalance(self.imbalance)
                .with_seed(self.seed)
                .build_program(),
            Kind::Sweep => SweepConfig::new(ranks)
                .with_sweeps(2)
                .with_imbalance(self.imbalance)
                .with_seed(self.seed)
                .build_program(),
        };
        program.map_err(|e| e.to_string())
    }

    /// The machine `limba simulate` builds for this rank count.
    pub fn simulator(&self) -> Simulator {
        Simulator::new(MachineConfig::new(self.ranks))
    }

    /// Resolves the fault preset as `--faults preset:<name>` does: the
    /// preset is scaled to the makespan of a fault-free run, which
    /// costs one extra simulation (span `mpisim.horizon`).
    pub fn fault_plan(&self, program: &Program) -> Result<Option<FaultPlan>, String> {
        let Some(name) = self.faults else {
            return Ok(None);
        };
        let horizon = {
            let _s = span::span("mpisim.horizon");
            self.simulator()
                .run_configured(program, None, None, None)
                .map_err(|e| e.to_string())?
                .stats
                .makespan
        };
        let mut plan = limba_workloads::faults::preset(name, self.ranks, horizon)
            .ok_or_else(|| format!("unknown fault preset {name:?}"))?;
        plan.seed = self.fault_seed;
        plan.validate(self.ranks).map_err(|e| e.to_string())?;
        Ok(Some(plan))
    }

    /// Resolves `--balance preset:<name>`.
    pub fn balance_plan(&self) -> Result<Option<BalancePlan>, String> {
        let Some(name) = self.balance else {
            return Ok(None);
        };
        let plan = limba_workloads::balance::preset(name)
            .ok_or_else(|| format!("unknown balance preset {name:?}"))?;
        plan.validate().map_err(|e| e.to_string())?;
        Ok(Some(plan))
    }
}

/// 64-bit FNV-1a digest, for comparing written files to references.
pub(crate) fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
