//! Vectorized columnar scan kernels: the block-at-a-time `QC`+`QV` engine
//! underneath [`DirectDetector`](crate::DirectDetector), the sharded
//! workers, and the adaptive planner.
//!
//! A row-at-a-time scan pays three per-row costs the struct-of-arrays
//! layout does not require: it materializes the `X` and `Y` projections
//! into scratch vectors, hashes an owned `Vec<ValueId>` key per group
//! probe, and **allocates a fresh key vector for every new LHS group**.
//! The kernels here structure the scan around [`BLOCK`]-sized chunks of
//! the raw `&[ValueId]` column slices instead:
//!
//! * **Block key hashing** — the LHS key hash of a whole block is computed
//!   column-major into a reused scratch buffer: one pass per key column
//!   over contiguous `u32`s, not one gather per row.
//! * **Repr-row groups** — a group is represented by the index of its first
//!   row (`repr`), not by a materialized key. The group table maps
//!   `hash → arena chain`, and a probe verifies candidates by comparing the
//!   LHS columns at `repr` against the probe row directly. No key vector is
//!   ever allocated, for no group (the fix for the old per-new-key
//!   allocation), and the distinct-`Y` check compares `Y` columns at two row
//!   indices instead of materializing either projection.
//! * **Constant-prefilter `QC`** — pattern rows whose RHS holds no constant
//!   can never produce a single-tuple violation and are skipped outright;
//!   for the rest, the block's candidate rows are narrowed by scanning the
//!   LHS **constant** columns first (a selection vector per block), so the
//!   full per-row pattern evaluation runs only on rows that already match
//!   every LHS constant.
//! * **Fused same-LHS tableaux** — [`scan_group`] takes *several* CFDs
//!   sharing one LHS attribute list and detects them in a single pass: the
//!   hash, the group probe and the group table are paid once, per-CFD
//!   verdicts live in bitmasks ([`FUSE_MAX`] CFDs per call). This is the
//!   planner's "merged tableaux" execution mode — unlike the SQL merged
//!   plan of Section 4.2 it keeps every CFD's own `QV` key space, so its
//!   report stays byte-identical to the per-CFD paths.
//!
//! All scratch state lives in [`ScanScratch`], which callers reuse across
//! CFDs, blocks and detect calls; cleared containers keep their capacity, so
//! a steady-state scan performs **zero allocations per row and per group**
//! (pinned by the `scratch_reuse_allocates_nothing_in_steady_state` test).
//!
//! Reports are byte-identical to the row-at-a-time scan by construction:
//! [`Violations`] stores ordered sets, so only membership matters, and every
//! verdict below (pattern match, first-`Y` representative, distinct-`Y`
//! trip) mirrors the old scan's group-by-first-occurrence semantics.

use crate::report::Violations;
use cfd_core::{Cfd, PatternTuple};
use cfd_relation::{Relation, ValueId};
use std::collections::HashMap;

/// Rows per scan block: small enough that the per-block scratch (hashes,
/// row ids, selection vectors) stays in L1/L2, large enough to amortize the
/// per-block setup.
pub const BLOCK: usize = 2048;

/// Maximum CFDs one fused [`scan_group`] call accepts (per-CFD verdicts are
/// `u64` bitmasks).
pub const FUSE_MAX: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Arena chain terminator.
const NONE: u32 = u32::MAX;

/// One LHS group of the fused scan: represented by its first row, chained
/// per hash bucket, with per-CFD verdict bits.
#[derive(Debug, Clone, Copy)]
struct GroupEntry {
    /// First row of the group in scan order — the key representative *and*
    /// the first-`Y` representative (the old scan's `OneY` snapshot).
    repr: u32,
    /// Next arena index in this hash bucket's chain ([`NONE`] = end).
    next: u32,
    /// Bit `i` set ⇔ some pattern of CFD `i` matches this LHS key.
    matched: u64,
    /// Bit `i` set ⇔ CFD `i` has seen ≥ 2 distinct `Y` projections here.
    many: u64,
}

/// Reusable scratch state of the vectorized kernels. Construct once, pass
/// to every [`scan_group`] call: cleared maps and vectors keep their
/// capacity, so repeated scans over similar data allocate nothing.
#[derive(Debug, Default)]
pub struct ScanScratch {
    /// Per-block FNV-1a hashes of the LHS key, filled column-major.
    hashes: Vec<u64>,
    /// Per-block global row indices (identity for full scans, gathered for
    /// row subsets).
    rows: Vec<u32>,
    /// `QC` selection vector: block-local positions surviving the constant
    /// prefilter.
    sel: Vec<u32>,
    /// Block-local `QC` hit flags (one report entry per violating row, even
    /// when several patterns or CFDs flag it).
    qc_hit: Vec<bool>,
    /// Group table: key hash → head of the arena chain.
    map: HashMap<u64, u32>,
    /// Group arena, append-only during one scan.
    arena: Vec<GroupEntry>,
}

impl ScanScratch {
    /// Fresh scratch (allocates lazily on first use).
    pub fn new() -> Self {
        ScanScratch::default()
    }

    /// Number of distinct LHS groups the last scan saw (diagnostic).
    pub fn groups_seen(&self) -> usize {
        self.arena.len()
    }

    /// Capacity of the group arena (diagnostic — lets tests pin that
    /// steady-state rescans reuse the allocation instead of growing it).
    pub fn group_capacity(&self) -> usize {
        self.arena.capacity()
    }
}

/// Extends a running FNV-1a×4-fold hash with one interned cell. One xor +
/// one multiply per key column per row; collisions are resolved exactly by
/// the repr-row comparison, so mixing quality only affects bucket balance.
#[inline]
fn mix(h: u64, id: ValueId) -> u64 {
    (h ^ u64::from(id.raw())).wrapping_mul(FNV_PRIME)
}

/// Whether rows `a` and `b` agree on every column of `cols`.
#[inline]
fn rows_eq(cols: &[&[ValueId]], a: u32, b: u32) -> bool {
    cols.iter().all(|col| col[a as usize] == col[b as usize])
}

/// Whether some pattern of `cfd` LHS-matches row `row` (read directly from
/// the LHS column slices — no projection).
#[inline]
fn lhs_matches_at(cfd: &Cfd, xcols: &[&[ValueId]], row: u32) -> bool {
    cfd.tableau().iter().any(|p| {
        p.lhs()
            .iter()
            .zip(xcols)
            .all(|(cell, col)| cell.matches_id(col[row as usize]))
    })
}

/// One pattern row's compiled `QC` shape: the LHS constants to prefilter on
/// and the RHS constants whose contradiction *is* the violation. Patterns
/// without RHS constants produce no entry — they cannot be `QC`-violated.
struct QcPattern {
    /// `(column position within the CFD's LHS, required id)`.
    lhs_consts: Vec<(usize, ValueId)>,
    /// `(column position within the CFD's RHS, required id)`.
    rhs_consts: Vec<(usize, ValueId)>,
}

impl QcPattern {
    fn compile(pattern: &PatternTuple) -> Option<QcPattern> {
        let rhs_consts: Vec<(usize, ValueId)> = pattern
            .rhs()
            .iter()
            .enumerate()
            .filter_map(|(i, cell)| cell.const_id().map(|id| (i, id)))
            .collect();
        if rhs_consts.is_empty() {
            // Wildcard/don't-care RHS matches everything: never a violation.
            return None;
        }
        let lhs_consts = pattern
            .lhs()
            .iter()
            .enumerate()
            .filter_map(|(i, cell)| cell.const_id().map(|id| (i, id)))
            .collect();
        Some(QcPattern {
            lhs_consts,
            rhs_consts,
        })
    }
}

/// Detects `cfds` (all sharing one LHS attribute list, at most [`FUSE_MAX`]
/// of them) over `rel` in a single fused block scan, adding findings to
/// `out`. `rows` restricts the scan to a row subset (the sharded workers'
/// partitions); `None` scans everything.
///
/// The report contribution is byte-identical to running
/// [`DirectDetector::detect`](crate::DirectDetector::detect) per CFD and
/// merging — the differential harness pins this for every workload.
pub fn scan_group(
    cfds: &[&Cfd],
    rel: &Relation,
    rows: Option<&[u32]>,
    scratch: &mut ScanScratch,
    out: &mut Violations,
) {
    let Some(first) = cfds.first() else {
        return;
    };
    assert!(
        cfds.len() <= FUSE_MAX,
        "scan_group fuses at most {FUSE_MAX} CFDs per call"
    );
    let lhs = first.lhs();
    debug_assert!(
        cfds.iter().all(|c| c.lhs() == lhs),
        "fused CFDs must share one LHS attribute list"
    );
    let xcols = rel.columns_for(lhs);
    let ycols: Vec<Vec<&[ValueId]>> = cfds.iter().map(|c| rel.columns_for(c.rhs())).collect();
    let qc: Vec<Vec<QcPattern>> = cfds
        .iter()
        .map(|c| c.tableau().iter().filter_map(QcPattern::compile).collect())
        .collect();

    scratch.map.clear();
    scratch.arena.clear();

    let total = rows.map_or(rel.len(), <[u32]>::len);
    let mut start = 0;
    while start < total {
        let end = (start + BLOCK).min(total);
        let n = end - start;

        // Block row ids: identity for full scans, the subset slice otherwise.
        scratch.rows.clear();
        match rows {
            Some(subset) => scratch.rows.extend_from_slice(&subset[start..end]),
            None => scratch.rows.extend(start as u32..end as u32),
        }

        // Column-major block hash of the LHS key.
        scratch.hashes.clear();
        scratch.hashes.resize(n, FNV_OFFSET);
        for col in &xcols {
            for (h, &row) in scratch.hashes.iter_mut().zip(&scratch.rows) {
                *h = mix(*h, col[row as usize]);
            }
        }

        // QV grouping: probe/insert each row's group, trip per-CFD `many`
        // bits on a second distinct Y projection.
        for j in 0..n {
            let row = scratch.rows[j];
            let h = scratch.hashes[j];
            let mut found = NONE;
            let mut slot = scratch.map.get(&h).copied().unwrap_or(NONE);
            while slot != NONE {
                let entry = scratch.arena[slot as usize];
                if rows_eq(&xcols, entry.repr, row) {
                    found = slot;
                    break;
                }
                slot = entry.next;
            }
            if found == NONE {
                let mut matched = 0u64;
                for (i, cfd) in cfds.iter().enumerate() {
                    if lhs_matches_at(cfd, &xcols, row) {
                        matched |= 1 << i;
                    }
                }
                let idx = scratch.arena.len() as u32;
                let head = scratch.map.entry(h).or_insert(NONE);
                scratch.arena.push(GroupEntry {
                    repr: row,
                    next: *head,
                    matched,
                    many: 0,
                });
                *head = idx;
            } else {
                let entry = &mut scratch.arena[found as usize];
                let mut pending = entry.matched & !entry.many;
                while pending != 0 {
                    let i = pending.trailing_zeros() as usize;
                    pending &= pending - 1;
                    if !rows_eq(&ycols[i], entry.repr, row) {
                        entry.many |= 1 << i;
                    }
                }
            }
        }

        // QC: per compiled pattern, narrow the block by the LHS constant
        // columns, then test the RHS constants on the survivors.
        scratch.qc_hit.clear();
        scratch.qc_hit.resize(n, false);
        for (ci, patterns) in qc.iter().enumerate() {
            for pattern in patterns {
                scratch.sel.clear();
                match pattern.lhs_consts.split_first() {
                    None => scratch.sel.extend(0..n as u32),
                    Some((&(c0, id0), rest)) => {
                        let col = xcols[c0];
                        scratch
                            .sel
                            .extend(scratch.rows.iter().enumerate().filter_map(|(j, &row)| {
                                (col[row as usize] == id0).then_some(j as u32)
                            }));
                        for &(c, id) in rest {
                            let col = xcols[c];
                            let block_rows = &scratch.rows;
                            scratch
                                .sel
                                .retain(|&j| col[block_rows[j as usize] as usize] == id);
                        }
                    }
                }
                for &j in &scratch.sel {
                    let row = scratch.rows[j as usize] as usize;
                    if pattern
                        .rhs_consts
                        .iter()
                        .any(|&(c, id)| ycols[ci][c][row] != id)
                    {
                        scratch.qc_hit[j as usize] = true;
                    }
                }
            }
        }
        for (j, &hit) in scratch.qc_hit.iter().enumerate() {
            if hit {
                let row = scratch.rows[j] as usize;
                // wslint: allow(panic_path, "scratch.rows holds row ids copied from this relation's scan")
                out.add_constant_violation(rel.row(row).expect("row in range").to_values());
            }
        }

        start = end;
    }

    // Multi-tuple keys: every fused CFD shares the LHS, so a group tripped
    // by any CFD contributes the same key exactly once.
    for entry in &scratch.arena {
        if entry.many != 0 {
            out.add_multi_tuple_key(
                xcols
                    .iter()
                    .map(|col| col[entry.repr as usize].resolve().clone())
                    .collect(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectDetector;
    use crate::Detector;
    use cfd_datagen::cust::{cust_instance, phi1, phi2, phi3_with_fd, phi5};
    use cfd_datagen::records::{TaxConfig, TaxGenerator};
    use cfd_datagen::{CfdWorkload, EmbeddedFd};

    fn scan_one(cfd: &Cfd, rel: &Relation) -> Violations {
        let mut scratch = ScanScratch::new();
        let mut out = Violations::new();
        scan_group(&[cfd], rel, None, &mut scratch, &mut out);
        out
    }

    #[test]
    fn matches_the_sql_detector_on_the_running_example() {
        let rel = cust_instance();
        for cfd in [phi1(), phi2(), phi3_with_fd(), phi5()] {
            let vectorized = scan_one(&cfd, &rel);
            let sql = Detector::new().detect(&cfd, &rel).unwrap();
            assert_eq!(vectorized, sql, "{:?}", cfd.name());
            assert_eq!(vectorized.canonical_bytes(), sql.canonical_bytes());
        }
    }

    #[test]
    fn matches_the_sql_detector_on_a_noisy_workload() {
        let noisy = TaxGenerator::new(TaxConfig {
            size: 3_000,
            noise_percent: 7.0,
            seed: 77,
        })
        .generate()
        .relation;
        let workload = CfdWorkload::new(5);
        for (fd, tab, consts) in [
            (EmbeddedFd::ZipToState, 60, 80.0),
            (EmbeddedFd::AreaToCity, 90, 50.0),
            (EmbeddedFd::StateMaritalToExemption, 40, 0.0),
        ] {
            let cfd = workload.single(fd, tab, consts);
            let vectorized = scan_one(&cfd, &noisy);
            let sql = Detector::new().detect(&cfd, &noisy).unwrap();
            assert!(!vectorized.is_clean() || sql.is_clean());
            assert_eq!(vectorized, sql, "{fd:?}");
        }
    }

    #[test]
    fn row_subsets_cover_exactly_the_given_rows() {
        // A subset scan must agree with a gathered sub-relation scan.
        let noisy = TaxGenerator::new(TaxConfig {
            size: 900,
            noise_percent: 10.0,
            seed: 3,
        })
        .generate()
        .relation;
        let cfd = CfdWorkload::new(1).single(EmbeddedFd::ZipToState, 30, 60.0);
        let subset: Vec<u32> = (0..900).filter(|i| i % 3 != 1).collect();
        let mut out = Violations::new();
        scan_group(
            &[&cfd],
            &noisy,
            Some(&subset),
            &mut ScanScratch::new(),
            &mut out,
        );
        let gathered = noisy.gather_rows(&subset.iter().map(|&i| i as usize).collect::<Vec<_>>());
        let expect = DirectDetector::new().detect(&cfd, &gathered);
        assert_eq!(out, expect);
    }

    #[test]
    fn fused_scan_equals_per_cfd_merge() {
        // Two CFDs over the same LHS with different tableaux/RHS.
        let noisy = TaxGenerator::new(TaxConfig {
            size: 2_500,
            noise_percent: 9.0,
            seed: 12,
        })
        .generate()
        .relation;
        let workload = CfdWorkload::new(8);
        let a = workload.single(EmbeddedFd::ZipToState, 50, 70.0);
        let b = workload.single(EmbeddedFd::ZipToState, 25, 20.0);
        assert_eq!(a.lhs(), b.lhs());
        let mut fused = Violations::new();
        scan_group(&[&a, &b], &noisy, None, &mut ScanScratch::new(), &mut fused);
        let per_cfd = DirectDetector::new().detect_set(&[a, b], &noisy);
        assert_eq!(fused, per_cfd);
        assert_eq!(fused.canonical_bytes(), per_cfd.canonical_bytes());
    }

    #[test]
    fn empty_inputs_are_clean() {
        let rel = cust_instance();
        let mut out = Violations::new();
        scan_group(&[], &rel, None, &mut ScanScratch::new(), &mut out);
        assert!(out.is_clean());
        let empty = Relation::new(rel.schema().clone());
        let cfd = phi2();
        let mut out = Violations::new();
        scan_group(&[&cfd], &empty, None, &mut ScanScratch::new(), &mut out);
        assert!(out.is_clean());
    }

    #[test]
    fn scratch_reuse_allocates_nothing_in_steady_state() {
        // The old scan allocated one key vector per new LHS group. The
        // kernel's group table is repr-row based: after a warm-up scan over
        // the same data shape, a rescan reuses every container — capacities
        // (and the arena's address) must not change.
        let noisy = TaxGenerator::new(TaxConfig {
            size: 5_000,
            noise_percent: 6.0,
            seed: 42,
        })
        .generate()
        .relation;
        let cfd = CfdWorkload::new(2).single(EmbeddedFd::ZipToState, 40, 50.0);
        let mut scratch = ScanScratch::new();
        let mut out = Violations::new();
        scan_group(&[&cfd], &noisy, None, &mut scratch, &mut out);
        let groups = scratch.groups_seen();
        assert!(groups > 0);
        let arena_cap = scratch.group_capacity();
        let arena_ptr = scratch.arena.as_ptr();
        let map_cap = scratch.map.capacity();
        let hashes_cap = scratch.hashes.capacity();
        let sel_cap = scratch.sel.capacity();
        let mut out2 = Violations::new();
        scan_group(&[&cfd], &noisy, None, &mut scratch, &mut out2);
        assert_eq!(out, out2);
        assert_eq!(scratch.groups_seen(), groups);
        assert_eq!(scratch.group_capacity(), arena_cap);
        assert_eq!(scratch.arena.as_ptr(), arena_ptr, "arena must not move");
        assert_eq!(scratch.map.capacity(), map_cap);
        assert_eq!(scratch.hashes.capacity(), hashes_cap);
        assert_eq!(scratch.sel.capacity(), sel_cap);
        // And the per-block buffers never exceed one block.
        assert!(scratch.hashes.capacity() <= BLOCK.next_power_of_two());
    }

    #[test]
    fn fuse_width_is_enforced() {
        let result = std::panic::catch_unwind(|| {
            let rel = cust_instance();
            let cfd = phi2();
            let refs: Vec<&Cfd> = std::iter::repeat_n(&cfd, FUSE_MAX + 1).collect();
            let mut out = Violations::new();
            scan_group(&refs, &rel, None, &mut ScanScratch::new(), &mut out);
        });
        assert!(result.is_err());
    }
}
