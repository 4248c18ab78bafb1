//! The bounded buffer pool between the store and its pager.
//!
//! Every page access goes through here: a fixed number of in-memory frames
//! cache decoded pages, pinned frames are immune to eviction, and dirty
//! frames are written back to the [`Pager`] when evicted or flushed. The
//! pool is the store's **page-memory ceiling** — reads over instances far
//! larger than the pool complete with at most `capacity` resident pages, and
//! [`PoolStats::peak_resident`] proves it (the out-of-core acceptance test
//! asserts `peak_resident <= capacity`).
//!
//! Eviction is LRU-ish: a monotone access tick per frame, the unpinned
//! frame with the smallest tick goes first. Exact LRU is not a goal — the
//! tick order is only consulted on misses with a full pool.

use crate::error::{Result, StoreError};
use crate::pager::{Pager, PAGE_CELLS};
use std::collections::HashMap;

/// Accounting counters of a [`BufferPool`]. Monotone over the pool's life
/// (except `resident`, the current page count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Configured capacity, in pages.
    pub capacity: usize,
    /// Pages resident right now.
    pub resident: usize,
    /// The largest `resident` ever observed — bounded by `capacity` by
    /// construction, and the number the out-of-core tests assert on.
    pub peak_resident: usize,
    /// Accesses served from a resident frame.
    pub hits: u64,
    /// Accesses that had to load the page from the pager.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back (on eviction or flush).
    pub writebacks: u64,
}

#[derive(Debug)]
struct Frame {
    cells: Vec<u32>,
    dirty: bool,
    pins: u32,
    tick: u64,
}

/// A bounded page cache with pin/unpin, LRU-ish eviction and dirty-page
/// writeback.
#[derive(Debug)]
pub struct BufferPool {
    frames: HashMap<u64, Frame>,
    capacity: usize,
    tick: u64,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool of `capacity` page frames (clamped to at least 2 — one page
    /// being read plus one being written is the minimum working set).
    pub fn new(capacity: usize) -> BufferPool {
        let capacity = capacity.max(2);
        BufferPool {
            frames: HashMap::with_capacity(capacity),
            capacity,
            tick: 0,
            stats: PoolStats {
                capacity,
                ..PoolStats::default()
            },
        }
    }

    /// Current accounting counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Pins page `id`, loading it (and evicting, if needed) first. A pinned
    /// frame cannot be evicted until [`BufferPool::unpin`] balances the pin.
    pub fn pin(&mut self, pager: &mut Pager, id: u64) -> Result<()> {
        self.touch(pager, id)?;
        if let Some(f) = self.frames.get_mut(&id) {
            f.pins += 1;
        }
        Ok(())
    }

    /// Releases one pin of page `id`. Unbalanced unpins are ignored.
    pub fn unpin(&mut self, id: u64) {
        if let Some(f) = self.frames.get_mut(&id) {
            f.pins = f.pins.saturating_sub(1);
        }
    }

    /// Reads the cells `range` of page `id`, appending them to `out`.
    pub fn read_cells(
        &mut self,
        pager: &mut Pager,
        id: u64,
        start: usize,
        len: usize,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        self.touch(pager, id)?;
        let f = self.resident(id)?;
        let end = (start + len).min(PAGE_CELLS);
        out.extend_from_slice(&f.cells[start.min(PAGE_CELLS)..end]);
        Ok(())
    }

    /// Reads one cell of page `id`.
    pub fn read_cell(&mut self, pager: &mut Pager, id: u64, offset: usize) -> Result<u32> {
        self.touch(pager, id)?;
        let f = self.resident(id)?;
        f.cells
            .get(offset)
            .copied()
            .ok_or_else(|| StoreError::InvalidOp {
                detail: format!("cell offset {offset} out of page bounds"),
            })
    }

    /// Writes one cell of page `id`, marking the frame dirty.
    pub fn write_cell(&mut self, pager: &mut Pager, id: u64, offset: usize, v: u32) -> Result<()> {
        self.touch(pager, id)?;
        let f = self.frames.get_mut(&id).ok_or(StoreError::PoolExhausted {
            capacity: self.capacity,
        })?;
        let cell = f
            .cells
            .get_mut(offset)
            .ok_or_else(|| StoreError::InvalidOp {
                detail: format!("cell offset {offset} out of page bounds"),
            })?;
        *cell = v;
        f.dirty = true;
        Ok(())
    }

    /// Writes every dirty frame back to the pager (frames stay resident and
    /// become clean). Part of a checkpoint.
    pub fn flush_all(&mut self, pager: &mut Pager) -> Result<()> {
        let mut dirty: Vec<u64> = self
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(&id, _)| id)
            .collect();
        dirty.sort_unstable();
        for id in dirty {
            if let Some(f) = self.frames.get_mut(&id) {
                pager.write_page(id, &f.cells)?;
                f.dirty = false;
                self.stats.writebacks += 1;
            }
        }
        Ok(())
    }

    /// Drops every clean frame and writes back + drops every dirty one —
    /// used by tests to force cold reads.
    pub fn clear(&mut self, pager: &mut Pager) -> Result<()> {
        self.flush_all(pager)?;
        self.frames.clear();
        self.stats.resident = 0;
        Ok(())
    }

    /// Ensures page `id` is resident and bumps its access tick.
    fn touch(&mut self, pager: &mut Pager, id: u64) -> Result<()> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(f) = self.frames.get_mut(&id) {
            f.tick = tick;
            self.stats.hits += 1;
            return Ok(());
        }
        self.stats.misses += 1;
        if self.frames.len() >= self.capacity {
            self.evict_one(pager)?;
        }
        let mut cells = vec![0u32; PAGE_CELLS];
        pager.read_page(id, &mut cells)?;
        self.frames.insert(
            id,
            Frame {
                cells,
                dirty: false,
                pins: 0,
                tick,
            },
        );
        self.stats.resident = self.frames.len();
        self.stats.peak_resident = self.stats.peak_resident.max(self.stats.resident);
        Ok(())
    }

    /// Evicts the least-recently-used unpinned frame, writing it back first
    /// when dirty.
    fn evict_one(&mut self, pager: &mut Pager) -> Result<()> {
        let victim = self
            .frames
            .iter()
            .filter(|(_, f)| f.pins == 0)
            .min_by_key(|(_, f)| f.tick)
            .map(|(&id, _)| id)
            .ok_or(StoreError::PoolExhausted {
                capacity: self.capacity,
            })?;
        if let Some(f) = self.frames.remove(&victim) {
            if f.dirty {
                pager.write_page(victim, &f.cells)?;
                self.stats.writebacks += 1;
            }
            self.stats.evictions += 1;
        }
        self.stats.resident = self.frames.len();
        Ok(())
    }

    fn resident(&self, id: u64) -> Result<&Frame> {
        self.frames.get(&id).ok_or(StoreError::PoolExhausted {
            capacity: self.capacity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_pager(name: &str) -> (Pager, PathBuf) {
        let dir = std::env::temp_dir().join(format!("cfd-pool-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        (Pager::open(&dir.join("pages.dat")).unwrap(), dir)
    }

    #[test]
    fn residency_never_exceeds_capacity() {
        let (mut pager, dir) = tmp_pager("cap");
        let mut pool = BufferPool::new(3);
        for id in 0..20u64 {
            pool.write_cell(&mut pager, id, 0, id as u32 + 1).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.capacity, 3);
        assert!(s.resident <= 3);
        assert!(s.peak_resident <= 3);
        assert_eq!(s.evictions, 17);
        assert!(s.writebacks >= 17, "evicted dirty pages were written back");
        // Every page reads back what was written, through evictions.
        for id in 0..20u64 {
            assert_eq!(pool.read_cell(&mut pager, id, 0).unwrap(), id as u32 + 1);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn pinned_frames_survive_eviction_pressure() {
        let (mut pager, dir) = tmp_pager("pin");
        let mut pool = BufferPool::new(2);
        pool.write_cell(&mut pager, 0, 5, 42).unwrap();
        pool.pin(&mut pager, 0).unwrap();
        // Storm of other pages: page 0 must stay resident (pinned).
        for id in 1..10u64 {
            pool.write_cell(&mut pager, id, 0, id as u32).unwrap();
        }
        let before = pool.stats().hits;
        assert_eq!(pool.read_cell(&mut pager, 0, 5).unwrap(), 42);
        assert_eq!(pool.stats().hits, before + 1, "pinned page still cached");
        pool.unpin(0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn all_pinned_pool_reports_exhaustion() {
        let (mut pager, dir) = tmp_pager("exhaust");
        let mut pool = BufferPool::new(2);
        pool.pin(&mut pager, 0).unwrap();
        pool.pin(&mut pager, 1).unwrap();
        let err = pool.read_cell(&mut pager, 2, 0).unwrap_err();
        assert_eq!(err, StoreError::PoolExhausted { capacity: 2 });
        pool.unpin(0);
        assert!(pool.read_cell(&mut pager, 2, 0).is_ok());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn flush_writes_dirty_frames_and_keeps_them_resident() {
        let (mut pager, dir) = tmp_pager("flush");
        let mut pool = BufferPool::new(4);
        pool.write_cell(&mut pager, 0, 0, 9).unwrap();
        pool.write_cell(&mut pager, 1, 1, 8).unwrap();
        pool.flush_all(&mut pager).unwrap();
        assert_eq!(pool.stats().writebacks, 2);
        // Second flush: nothing dirty.
        pool.flush_all(&mut pager).unwrap();
        assert_eq!(pool.stats().writebacks, 2);
        // The pager has the bytes even without going through the pool.
        let mut cells = vec![0u32; PAGE_CELLS];
        pager.read_page(0, &mut cells).unwrap();
        assert_eq!(cells[0], 9);
        let _ = std::fs::remove_dir_all(dir);
    }
}
