//! Rank-local disk storage and memory accounting.
//!
//! Each node of the emulated cluster owns a local disk (Figure 2).
//! [`DiskStore`] is the *functional* side: it actually holds the
//! out-of-core local arrays (OCLAs) as `f64` vectors so applications
//! compute real results. The *timing* side (seek overheads, per-byte
//! latencies) is charged by the rank context in `engine` from each
//! operation's range alone. The bytes themselves are lent in place
//! ([`DiskStore::view`], [`DiskStore::view_mut`]) or moved out whole
//! ([`DiskStore::remove`]); only a caller that needs a buffer of its
//! own copies them ([`DiskStore::read`], [`DiskStore::write`]).

use std::collections::HashMap;

use crate::error::{SimError, SimResult};

/// Identifier of an application variable (array), shared between the
/// application, the instrumentation layer, and the MHETA model.
pub type VarId = u32;

/// One node's local disk: a set of named `f64` arrays.
#[derive(Debug, Default, Clone)]
pub struct DiskStore {
    vars: HashMap<VarId, Vec<f64>>,
}

impl DiskStore {
    /// Empty disk.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Create (or replace) a variable with `len` zeroed elements.
    pub fn create(&mut self, var: VarId, len: usize) {
        self.vars.insert(var, vec![0.0; len]);
    }

    /// Create (or replace) a variable from existing data.
    pub fn store(&mut self, var: VarId, data: Vec<f64>) {
        self.vars.insert(var, data);
    }

    /// Remove a variable, returning its data if present.
    pub fn remove(&mut self, var: VarId) -> Option<Vec<f64>> {
        self.vars.remove(&var)
    }

    /// Element count of a stored variable.
    pub fn extent(&self, var: VarId, rank: usize) -> SimResult<usize> {
        self.vars
            .get(&var)
            .map(Vec::len)
            .ok_or(SimError::UnknownVariable { var, rank })
    }

    /// True if the variable exists on this disk.
    #[must_use]
    pub fn contains(&self, var: VarId) -> bool {
        self.vars.contains_key(&var)
    }

    /// Copy `out.len()` elements starting at `offset` into `out`.
    pub fn read(&self, var: VarId, offset: usize, out: &mut [f64], rank: usize) -> SimResult<()> {
        out.copy_from_slice(self.view(var, offset, out.len(), rank)?);
        Ok(())
    }

    /// Copy `input` into the variable starting at `offset`.
    pub fn write(
        &mut self,
        var: VarId,
        offset: usize,
        input: &[f64],
        rank: usize,
    ) -> SimResult<()> {
        self.view_mut(var, offset, input.len(), rank)?
            .copy_from_slice(input);
        Ok(())
    }

    /// Lend `len` elements of `var` starting at `offset` in place. The
    /// store charges nothing: the caller pays for the access through
    /// the rank context (`RankCtx::disk_read_charge`).
    pub fn view(&self, var: VarId, offset: usize, len: usize, rank: usize) -> SimResult<&[f64]> {
        let data = self
            .vars
            .get(&var)
            .ok_or(SimError::UnknownVariable { var, rank })?;
        Ok(&data[Self::range(var, offset, len, data.len())?])
    }

    /// Lend `len` elements of `var` starting at `offset` for update in
    /// place; like [`DiskStore::view`], it charges nothing.
    pub fn view_mut(
        &mut self,
        var: VarId,
        offset: usize,
        len: usize,
        rank: usize,
    ) -> SimResult<&mut [f64]> {
        let data = self
            .vars
            .get_mut(&var)
            .ok_or(SimError::UnknownVariable { var, rank })?;
        let range = Self::range(var, offset, len, data.len())?;
        Ok(&mut data[range])
    }

    /// `offset..offset + len`, if it lies within `extent` elements.
    fn range(
        var: VarId,
        offset: usize,
        len: usize,
        extent: usize,
    ) -> SimResult<std::ops::Range<usize>> {
        offset
            .checked_add(len)
            .filter(|&end| end <= extent)
            .map(|end| offset..end)
            .ok_or(SimError::OutOfBounds {
                var,
                offset,
                len,
                extent,
            })
    }
}

/// Gauges a node's in-memory footprint: the I/O staging buffers the
/// engine moves on the application's behalf, whose level and peak feed
/// the trace's [`crate::trace::EventKind::MemLevel`] events and the
/// Perfetto memory track.
///
/// The gauge is observational and refuses nothing. The guards live in
/// the application layer: the out-of-core planner
/// (`mheta_core::ooc::plan_node`) sizes each in-core local array (ICLA)
/// from the node's memory and leaves the rest of the share on disk, and
/// `mheta_apps`' `check_layout` refuses a layout that does not give each
/// rank one share of exactly the problem's rows.
#[derive(Debug, Clone)]
pub struct MemTracker {
    capacity: u64,
    in_use: u64,
    high_water: u64,
}

impl MemTracker {
    /// New gauge for a node with `capacity` bytes of memory.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        MemTracker {
            capacity,
            in_use: 0,
            high_water: 0,
        }
    }

    /// Account `bytes` of I/O staging buffer entering use: moves the
    /// gauge and the high-water mark. The out-of-core planner already
    /// bounded the buffer to fit, so staging never fails.
    pub fn stage(&mut self, bytes: u64) {
        self.in_use = self.in_use.saturating_add(bytes);
        self.high_water = self.high_water.max(self.in_use);
    }

    /// Release `bytes` of staged I/O buffer (saturating).
    pub fn unstage(&mut self, bytes: u64) {
        self.in_use = self.in_use.saturating_sub(bytes);
    }

    /// Bytes currently staged.
    #[must_use]
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// Peak staging level over the tracker's lifetime.
    #[must_use]
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_read_write_roundtrip() {
        let mut d = DiskStore::new();
        d.create(1, 8);
        d.write(1, 2, &[1.0, 2.0, 3.0], 0).unwrap();
        let mut buf = [0.0; 4];
        d.read(1, 1, &mut buf, 0).unwrap();
        assert_eq!(buf, [0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn unknown_variable_errors() {
        let d = DiskStore::new();
        let mut buf = [0.0; 1];
        assert!(matches!(
            d.read(9, 0, &mut buf, 3),
            Err(SimError::UnknownVariable { var: 9, rank: 3 })
        ));
    }

    #[test]
    fn out_of_bounds_read_errors() {
        let mut d = DiskStore::new();
        d.create(1, 4);
        let mut buf = [0.0; 3];
        assert!(matches!(
            d.read(1, 2, &mut buf, 0),
            Err(SimError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn out_of_bounds_write_errors() {
        let mut d = DiskStore::new();
        d.create(1, 4);
        assert!(d.write(1, 3, &[1.0, 2.0], 0).is_err());
        // Exact fit is fine.
        assert!(d.write(1, 2, &[1.0, 2.0], 0).is_ok());
    }

    #[test]
    fn offset_overflow_is_caught() {
        let mut d = DiskStore::new();
        d.create(1, 4);
        let mut buf = [0.0; 2];
        assert!(d.read(1, usize::MAX - 1, &mut buf, 0).is_err());
    }

    #[test]
    fn views_lend_the_range_that_read_and_write_copy() {
        let mut d = DiskStore::new();
        d.store(1, (0..8).map(f64::from).collect());
        d.view_mut(1, 2, 3, 0).unwrap().fill(-1.0);
        let mut buf = [0.0; 4];
        d.read(1, 1, &mut buf, 0).unwrap();
        assert_eq!(d.view(1, 1, 4, 0).unwrap(), buf);
        assert_eq!(buf, [1.0, -1.0, -1.0, -1.0]);
        let mut past_end = [0.0; 3];
        assert_eq!(
            d.view(1, 6, 3, 0).unwrap_err(),
            d.read(1, 6, &mut past_end, 0).unwrap_err()
        );
        assert_eq!(
            d.view_mut(2, 0, 1, 4).unwrap_err(),
            SimError::UnknownVariable { var: 2, rank: 4 }
        );
    }

    #[test]
    fn store_replaces_data() {
        let mut d = DiskStore::new();
        d.store(5, vec![1.0, 2.0]);
        assert_eq!(d.extent(5, 0).unwrap(), 2);
        d.store(5, vec![9.0; 10]);
        assert_eq!(d.extent(5, 0).unwrap(), 10);
    }

    #[test]
    fn mem_tracker_free_saturates() {
        let mut m = MemTracker::new(10);
        m.unstage(5);
        assert_eq!(m.in_use(), 0);
        m.stage(3);
        m.unstage(7);
        assert_eq!(m.in_use(), 0);
        assert_eq!(m.high_water(), 3, "the peak outlives the release");
    }

    #[test]
    fn mem_tracker_zero_sized_allocs_are_free() {
        let mut m = MemTracker::new(10);
        m.stage(0);
        assert_eq!(m.in_use(), 0);
        assert_eq!(m.high_water(), 0);
        m.stage(10);
        m.stage(0);
        assert_eq!(m.in_use(), 10);
        assert_eq!(m.high_water(), 10);
    }
}
