//! Hydrometeor classes of the FSBM scheme.
//!
//! FSBM carries seven distribution functions: liquid water, three ice
//! crystal habits (`icemax = 3`: columns, plates, dendrites), snow
//! (aggregates), graupel, and hail.

/// Number of mass bins per class (`nkr` in the Fortran code).
pub const NKR: usize = 33;
/// Number of ice-crystal habits (`icemax`).
pub const ICEMAX: usize = 3;
/// Number of hydrometeor classes.
pub const NTYPES: usize = 7;

/// One hydrometeor class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HydroClass {
    /// Cloud droplets / raindrops (`ff1` in FSBM).
    Water,
    /// Columnar ice crystals (`ff2(:,1)`).
    IceColumns,
    /// Plate ice crystals (`ff2(:,2)`).
    IcePlates,
    /// Dendritic ice crystals (`ff2(:,3)`).
    IceDendrites,
    /// Snow / aggregates (`ff3`).
    Snow,
    /// Graupel (`ff4`).
    Graupel,
    /// Hail (`ff5`).
    Hail,
}

impl HydroClass {
    /// All classes in storage order.
    pub const ALL: [HydroClass; NTYPES] = [
        HydroClass::Water,
        HydroClass::IceColumns,
        HydroClass::IcePlates,
        HydroClass::IceDendrites,
        HydroClass::Snow,
        HydroClass::Graupel,
        HydroClass::Hail,
    ];

    /// Storage index of the class.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            HydroClass::Water => 0,
            HydroClass::IceColumns => 1,
            HydroClass::IcePlates => 2,
            HydroClass::IceDendrites => 3,
            HydroClass::Snow => 4,
            HydroClass::Graupel => 5,
            HydroClass::Hail => 6,
        }
    }

    /// Class from storage index.
    #[inline]
    pub fn from_index(i: usize) -> HydroClass {
        Self::ALL[i]
    }

    /// Bulk particle density, kg/m³ (effective, size-independent — a
    /// simplification of FSBM's mass–size relations).
    pub fn density(self) -> f32 {
        match self {
            HydroClass::Water => 1000.0,
            HydroClass::IceColumns => 700.0,
            HydroClass::IcePlates => 850.0,
            HydroClass::IceDendrites => 500.0,
            HydroClass::Snow => 100.0,
            HydroClass::Graupel => 400.0,
            HydroClass::Hail => 900.0,
        }
    }

    /// True for any frozen class.
    pub fn is_ice(self) -> bool {
        !matches!(self, HydroClass::Water)
    }

    /// Short FSBM-style tag used in kernel-table names (`l`, `i1`…`i3`,
    /// `s`, `g`, `h`).
    pub fn tag(self) -> &'static str {
        match self {
            HydroClass::Water => "l",
            HydroClass::IceColumns => "i1",
            HydroClass::IcePlates => "i2",
            HydroClass::IceDendrites => "i3",
            HydroClass::Snow => "s",
            HydroClass::Graupel => "g",
            HydroClass::Hail => "h",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for (i, c) in HydroClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(HydroClass::from_index(i), *c);
        }
    }

    #[test]
    fn class_properties() {
        assert!(!HydroClass::Water.is_ice());
        assert!(HydroClass::Snow.is_ice());
        assert_eq!(HydroClass::Water.tag(), "l");
        assert_eq!(HydroClass::Hail.tag(), "h");
    }

    #[test]
    fn densities_ordered_sensibly() {
        assert!(HydroClass::Snow.density() < HydroClass::Graupel.density());
        assert!(HydroClass::Graupel.density() < HydroClass::Hail.density());
        assert!(HydroClass::Hail.density() < HydroClass::Water.density());
    }
}
