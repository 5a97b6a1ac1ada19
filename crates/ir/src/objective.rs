//! Typed optimization objectives and budget constraints.
//!
//! The paper's flow optimizes one implicit scalar — schedule makespan,
//! lightly traded against communication and area through the MILP's
//! weight knobs. Design-space exploration needs that objective to be a
//! *value*: something a session can declare, a cache key can absorb,
//! and the `coold` wire format can carry. [`Objective`] is that value,
//! shared by all three partitioners (exact MILP, heuristic clustering,
//! GA), and [`BudgetConstraint`] is the epsilon-constraint companion —
//! the area bound a Pareto sweep varies while the objective stays
//! fixed.
//!
//! Every objective reduces to a `(time, comm, area)` weight triple via
//! [`Objective::weights`]; the named variants are canonical presets
//! (with [`Objective::Makespan`] reproducing the historical defaults
//! exactly), and [`Objective::Blend`] carries explicit weights for
//! everything else.

use std::fmt;
use std::str::FromStr;

use crate::codec::{Codec, CodecError, Decoder, Encoder};
use crate::hash::{ContentHash, ContentHasher};
use crate::target::Target;

/// What a partitioner should minimize.
///
/// The named variants are presets over the underlying weight triple;
/// [`Objective::weights`] is the single point where they are resolved,
/// so all partitioners agree on what e.g. "area-first" means.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Objective {
    /// Minimize the schedule makespan (the paper's objective, and the
    /// historical default: weights `(1.0, 1.0, 0.05)`).
    #[default]
    Makespan,
    /// Minimize hardware area, keeping only a light pull on time and
    /// communication to break ties (`(0.05, 0.05, 1.0)`).
    Area,
    /// Minimize cut communication volume (`(0.05, 1.0, 0.05)`).
    CommVolume,
    /// An explicit weighted blend of the three cost terms.
    Blend {
        /// Weight on node execution time.
        time_weight: f64,
        /// Weight on cut communication cycles.
        comm_weight: f64,
        /// Weight on hardware area (CLBs).
        area_weight: f64,
    },
}

impl Objective {
    /// An explicit [`Objective::Blend`].
    #[must_use]
    pub fn blend(time_weight: f64, comm_weight: f64, area_weight: f64) -> Objective {
        Objective::Blend {
            time_weight,
            comm_weight,
            area_weight,
        }
    }

    /// The `(time, comm, area)` weight triple this objective resolves
    /// to. [`Objective::Makespan`] reproduces the pre-typed defaults
    /// byte-for-byte, so a default flow is unchanged by the refactor.
    #[must_use]
    pub fn weights(self) -> (f64, f64, f64) {
        match self {
            Objective::Makespan => (1.0, 1.0, 0.05),
            Objective::Area => (0.05, 0.05, 1.0),
            Objective::CommVolume => (0.05, 1.0, 0.05),
            Objective::Blend {
                time_weight,
                comm_weight,
                area_weight,
            } => (time_weight, comm_weight, area_weight),
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::Makespan => f.write_str("makespan"),
            Objective::Area => f.write_str("area"),
            Objective::CommVolume => f.write_str("comm"),
            Objective::Blend {
                time_weight,
                comm_weight,
                area_weight,
            } => write!(f, "blend:{time_weight},{comm_weight},{area_weight}"),
        }
    }
}

impl FromStr for Objective {
    type Err = String;

    /// Parse `makespan`, `area`, `comm`, or `blend:T,C,A`.
    fn from_str(s: &str) -> Result<Objective, String> {
        match s {
            "makespan" => return Ok(Objective::Makespan),
            "area" => return Ok(Objective::Area),
            "comm" => return Ok(Objective::CommVolume),
            _ => {}
        }
        let err = || {
            format!(
                "unknown objective `{s}`; expected makespan, area, comm, \
                 or blend:TIME,COMM,AREA (e.g. blend:1,0.3,0.05)"
            )
        };
        let rest = s.strip_prefix("blend:").ok_or_else(err)?;
        let parts: Vec<&str> = rest.split(',').collect();
        if parts.len() != 3 {
            return Err(err());
        }
        let parse = |p: &str| -> Result<f64, String> {
            let w: f64 = p.trim().parse().map_err(|_| err())?;
            if !w.is_finite() || w < 0.0 {
                return Err(format!(
                    "objective weight `{p}` must be a finite non-negative number"
                ));
            }
            Ok(w)
        };
        Ok(Objective::blend(
            parse(parts[0])?,
            parse(parts[1])?,
            parse(parts[2])?,
        ))
    }
}

impl ContentHash for Objective {
    fn content_hash(&self, h: &mut ContentHasher) {
        // Variants hash their *identity*, not their resolved weights:
        // `Makespan` and an equal explicit blend are different declared
        // intents and may diverge (e.g. if presets are retuned), so
        // they must not share cache entries.
        match self {
            Objective::Makespan => h.write_u8(0),
            Objective::Area => h.write_u8(1),
            Objective::CommVolume => h.write_u8(2),
            Objective::Blend {
                time_weight,
                comm_weight,
                area_weight,
            } => {
                h.write_u8(3);
                h.write_f64(*time_weight);
                h.write_f64(*comm_weight);
                h.write_f64(*area_weight);
            }
        }
    }
}

impl Codec for Objective {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Objective::Makespan => e.put_u8(0),
            Objective::Area => e.put_u8(1),
            Objective::CommVolume => e.put_u8(2),
            Objective::Blend {
                time_weight,
                comm_weight,
                area_weight,
            } => {
                e.put_u8(3);
                e.put_f64(*time_weight);
                e.put_f64(*comm_weight);
                e.put_f64(*area_weight);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Objective, CodecError> {
        match d.take_u8()? {
            0 => Ok(Objective::Makespan),
            1 => Ok(Objective::Area),
            2 => Ok(Objective::CommVolume),
            3 => Ok(Objective::Blend {
                time_weight: d.take_f64()?,
                comm_weight: d.take_f64()?,
                area_weight: d.take_f64()?,
            }),
            tag => Err(CodecError::InvalidTag {
                type_name: "Objective",
                tag,
            }),
        }
    }
}

/// The epsilon constraint of a Pareto sweep: a hardware-area budget
/// applied uniformly to every FPGA of a target board.
///
/// Matching the CLI's `BOARD@N` convention, [`BudgetConstraint::apply`]
/// *sets* each FPGA's CLB capacity to the budget (it does not clamp),
/// so a budget above the native capacity explores the relaxed region
/// the same way `fuzzy@100000` does. Capacity changes are exactly what
/// [`crate::target::Target`]-retargeting tolerates, so every point of a
/// sweep can share one estimated cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BudgetConstraint {
    /// CLB capacity each FPGA is set to.
    pub max_clbs_per_fpga: u32,
}

impl BudgetConstraint {
    /// A budget of `clbs` CLBs per FPGA.
    #[must_use]
    pub fn new(clbs: u32) -> BudgetConstraint {
        BudgetConstraint {
            max_clbs_per_fpga: clbs,
        }
    }

    /// `target` with every FPGA's CLB capacity set to this budget.
    #[must_use]
    pub fn apply(&self, target: &Target) -> Target {
        let mut constrained = target.clone();
        for hw in &mut constrained.hw {
            hw.clb_capacity = self.max_clbs_per_fpga;
        }
        constrained
    }
}

impl fmt::Display for BudgetConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.max_clbs_per_fpga)
    }
}

impl ContentHash for BudgetConstraint {
    fn content_hash(&self, h: &mut ContentHasher) {
        h.write_u32(self.max_clbs_per_fpga);
    }
}

impl Codec for BudgetConstraint {
    fn encode(&self, e: &mut Encoder) {
        e.put_u32(self.max_clbs_per_fpga);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<BudgetConstraint, CodecError> {
        Ok(BudgetConstraint {
            max_clbs_per_fpga: d.take_u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};
    use crate::hash::digest;

    #[test]
    fn makespan_preserves_historical_weights() {
        assert_eq!(Objective::default(), Objective::Makespan);
        assert_eq!(Objective::Makespan.weights(), (1.0, 1.0, 0.05));
    }

    #[test]
    fn parse_round_trips_display() {
        for s in ["makespan", "area", "comm", "blend:1,0.3,0.05"] {
            let o: Objective = s.parse().unwrap();
            let back: Objective = o.to_string().parse().unwrap();
            assert_eq!(o, back);
        }
        assert!("banana".parse::<Objective>().is_err());
        assert!("blend:1,2".parse::<Objective>().is_err());
        assert!("blend:1,-2,3".parse::<Objective>().is_err());
        assert!("blend:1,NaN,3".parse::<Objective>().is_err());
    }

    #[test]
    fn presets_and_equal_blends_hash_apart() {
        let preset = Objective::Makespan;
        let (t, c, a) = preset.weights();
        let blend = Objective::blend(t, c, a);
        assert_ne!(digest(&preset), digest(&blend));
    }

    #[test]
    fn codec_round_trips() {
        for o in [
            Objective::Makespan,
            Objective::Area,
            Objective::CommVolume,
            Objective::blend(2.0, 0.25, 0.5),
        ] {
            assert_eq!(from_bytes::<Objective>(&to_bytes(&o)).unwrap(), o);
        }
        let b = BudgetConstraint::new(96);
        assert_eq!(from_bytes::<BudgetConstraint>(&to_bytes(&b)).unwrap(), b);
    }

    #[test]
    fn budget_sets_every_fpga() {
        let base = Target::fuzzy_board();
        let capped = BudgetConstraint::new(64).apply(&base);
        assert!(capped.hw.iter().all(|hw| hw.clb_capacity == 64));
        // Relaxation above native capacity is allowed (matches BOARD@N).
        let relaxed = BudgetConstraint::new(100_000).apply(&base);
        assert!(relaxed.hw.iter().all(|hw| hw.clb_capacity == 100_000));
        // Everything else is untouched.
        assert_eq!(capped.processors, base.processors);
        assert_eq!(capped.bus, base.bus);
    }
}
