//! Memory objects of a parallel-pattern program.
//!
//! The programming model distinguishes off-chip [`DramBuf`]s (populated by
//! the host, transferred in tiles or via gather/scatter) from on-chip
//! [`Sram`] scratchpads (mapped to Pattern Memory Units) and scalar
//! [`Reg`]isters (mapped to pipeline registers / scalar buses).

use crate::types::DType;

/// Banking strategy hint for an on-chip scratchpad (§3.2 of the paper).
///
/// The compiler uses the hint to configure the PMU's address decoders; the
/// simulator uses it to model bank conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BankingMode {
    /// Linear accesses striped across banks (dense data structures).
    #[default]
    Strided,
    /// Streaming first-in first-out accesses.
    Fifo,
    /// Sliding-window accesses (stencils / CNN line buffers).
    LineBuffer,
    /// Contents duplicated in every bank, giving one random-read port per
    /// lane (parallel on-chip gather).
    Duplication,
}

/// An off-chip DRAM buffer (1-D array of 32-bit words).
#[derive(Debug, Clone, PartialEq)]
pub struct DramBuf {
    /// Diagnostic name.
    pub name: String,
    /// Element type.
    pub dtype: DType,
    /// Length in elements.
    pub len: usize,
}

/// An on-chip scratchpad, mapped to one or more PMUs.
#[derive(Debug, Clone, PartialEq)]
pub struct Sram {
    /// Diagnostic name.
    pub name: String,
    /// Element type.
    pub dtype: DType,
    /// Logical dimensions (row-major). Product is the capacity in elements.
    pub dims: Vec<usize>,
    /// Banking hint for the PMU address decoders.
    pub banking: BankingMode,
    /// Explicit N-buffer depth override. `None` lets the compiler derive the
    /// depth from producer/consumer distance in the controller hierarchy.
    pub nbuf: Option<usize>,
}

impl Sram {
    /// Capacity in elements (product of dims).
    pub fn capacity(&self) -> usize {
        self.dims.iter().product()
    }

    /// Flattens a multi-dimensional address to a linear element offset.
    ///
    /// Returns `None` if the coordinate count mismatches or any coordinate
    /// is out of bounds.
    pub fn flatten(&self, coords: &[i64]) -> Option<usize> {
        self.flatten_iter(coords.iter().copied())
    }

    /// [`Sram::flatten`] over coordinates produced one by one.
    pub(crate) fn flatten_iter(&self, coords: impl ExactSizeIterator<Item = i64>) -> Option<usize> {
        if coords.len() != self.dims.len() {
            return None;
        }
        let mut off: usize = 0;
        for (c, &d) in coords.zip(&self.dims) {
            if c < 0 || c as usize >= d {
                return None;
            }
            off = off * d + c as usize;
        }
        Some(off)
    }
}

/// A scalar register.
#[derive(Debug, Clone, PartialEq)]
pub struct Reg {
    /// Diagnostic name.
    pub name: String,
    /// Element type.
    pub dtype: DType,
}

/// A runtime scalar parameter (bound when the program is executed).
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Diagnostic name.
    pub name: String,
    /// Element type.
    pub dtype: DType,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sram(dims: &[usize]) -> Sram {
        Sram {
            name: "t".into(),
            dtype: DType::F32,
            dims: dims.to_vec(),
            banking: BankingMode::Strided,
            nbuf: None,
        }
    }

    #[test]
    fn capacity_is_product_of_dims() {
        assert_eq!(sram(&[4, 8]).capacity(), 32);
        assert_eq!(sram(&[16]).capacity(), 16);
    }

    #[test]
    fn flatten_row_major() {
        let s = sram(&[4, 8]);
        assert_eq!(s.flatten(&[0, 0]), Some(0));
        assert_eq!(s.flatten(&[1, 2]), Some(10));
        assert_eq!(s.flatten(&[3, 7]), Some(31));
    }

    #[test]
    fn flatten_rejects_out_of_bounds() {
        let s = sram(&[4, 8]);
        assert_eq!(s.flatten(&[4, 0]), None);
        assert_eq!(s.flatten(&[0, 8]), None);
        assert_eq!(s.flatten(&[-1, 0]), None);
        assert_eq!(s.flatten(&[0]), None);
    }

    #[test]
    fn default_banking_is_strided() {
        assert_eq!(BankingMode::default(), BankingMode::Strided);
    }
}
