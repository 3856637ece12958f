//! Sparse matrices for MNA systems.
//!
//! Circuit matrices are structurally sparse (a node touches only its
//! neighbours), and the sparsity pattern is fixed across Newton iterations,
//! time steps and frequency points — only the values change. The solver is
//! therefore split into work done once per pattern and work done once per
//! matrix:
//!
//! * [`StampSink`] — what element stamps write into: a [`TripletMatrix`]
//!   (the coordinate-format reference) or a plan's [`SlotCursor`];
//! * [`CsrMatrix`] — compressed sparse row storage with fast mat-vec. The
//!   pattern is shared, so copies of one pattern are recognised by
//!   identity;
//! * [`StampPlan`] — a stamp sequence compiled once to the CSR pattern it
//!   sums into and the CSR slot of every stamp. Later assemblies of the
//!   same sequence scatter straight into the CSR values, with no triplets,
//!   sort or coordinate compare. A plan keeps a *base* — the summed values
//!   of a leading run of stamps — so that stamps which change rarely are
//!   written once and copied per assembly;
//! * [`SparseLu`] — an LU factorization with threshold partial pivoting.
//!   [`SparseLu::factor`] runs the pivot search (right-looking elimination
//!   on row lists, linear in the entries it touches), then the symbolic
//!   phase (the structural fill pattern of L and U for the chosen row
//!   order) and the numeric phase (row-by-row elimination into flat value
//!   arrays on that pattern, keeping the pivots' rcond as it goes).
//!   [`SparseLu::refactor`] reruns only the numeric phase on a new matrix
//!   with the same pattern, in one pass over the input, and falls back to
//!   a fresh pivot search when a reused pivot no longer passes the
//!   threshold test;
//! * [`SparseSolver`] — one analysis call's solver: factored once (or
//!   seeded with earlier factors of the same matrix), then refactored in
//!   the stored pattern.
//!
//! The sparse solver is validated against the dense one in tests and by
//! property tests at the crate boundary.

use crate::dense::DenseMatrix;
use crate::lu::FactorError;
use crate::scalar::Scalar;
use std::sync::Arc;

/// A target for matrix stamps: every stamp adds `v` to entry `(r, c)`.
///
/// Element stamping is written once, generic over the sink, so the same
/// code feeds the [`TripletMatrix`] reference and a compiled
/// [`StampPlan`].
pub trait StampSink<T> {
    /// Adds `v` to entry `(r, c)`.
    fn add(&mut self, r: usize, c: usize, v: T);
}

impl<T: Scalar> StampSink<T> for TripletMatrix<T> {
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: T) {
        self.push(r, c, v);
    }
}

/// Coordinate-format (COO) sparse matrix accumulator.
///
/// Duplicate entries are *summed* on conversion, which makes it a natural
/// target for MNA stamping.
///
/// # Examples
///
/// ```
/// use remix_numerics::{TripletMatrix, CsrMatrix};
///
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // accumulates
/// t.push(1, 1, 5.0);
/// let csr: CsrMatrix<f64> = t.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// assert_eq!(csr.nnz(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TripletMatrix<T> {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> TripletMatrix<T> {
    /// Creates an empty accumulator of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Appends a contribution to entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn push(&mut self, r: usize, c: usize, v: T) {
        assert!(r < self.rows && c < self.cols, "triplet out of bounds");
        self.entries.push((r, c, v));
    }

    /// Number of raw (pre-deduplication) entries.
    pub fn raw_len(&self) -> usize {
        self.entries.len()
    }

    /// Drops all entries, retaining capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Converts to CSR. Entries pushed at the same coordinates are summed
    /// in push order. Entries whose value is zero are kept, so the CSR
    /// pattern depends only on the coordinates pushed, never on the values.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        self.to_csr_with_slots().0
    }

    /// [`to_csr`](Self::to_csr) plus, for every pushed entry, the index
    /// of the CSR value it was summed into.
    fn to_csr_with_slots(&self) -> (CsrMatrix<T>, Vec<usize>) {
        let mut order: Vec<(usize, usize, usize)> = self
            .entries
            .iter()
            .enumerate()
            .map(|(k, &(r, c, _))| (r, c, k))
            .collect();
        order.sort_unstable();
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(order.len());
        let mut values: Vec<T> = Vec::with_capacity(order.len());
        let mut slots = vec![0usize; order.len()];
        let mut last: Option<(usize, usize)> = None;
        for (r, c, k) in order {
            let v = self.entries[k].2;
            if last == Some((r, c)) {
                let n = values.len();
                values[n - 1] += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_ptr[r + 1] += 1;
                last = Some((r, c));
            }
            slots[k] = values.len() - 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let csr = CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            pattern: Arc::new(Pattern { row_ptr, col_idx }),
            values,
        };
        (csr, slots)
    }

    /// Converts to a dense matrix (test/debug helper).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut m = DenseMatrix::zeros(self.rows, self.cols);
        for &(r, c, v) in &self.entries {
            m.add_at(r, c, v);
        }
        m
    }
}

/// Row pointers and column indices of a CSR matrix.
#[derive(Debug, PartialEq, Eq)]
struct Pattern {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
}

/// Compressed sparse row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    rows: usize,
    cols: usize,
    /// Shared, never mutated: matrices cloned from one pattern (a plan's
    /// refills, the factors derived from it) compare equal by pointer.
    pattern: Arc<Pattern>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(r, c)`, zero if not stored.
    pub fn get(&self, r: usize, c: usize) -> T {
        let Pattern { row_ptr, col_idx } = &*self.pattern;
        let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
        match col_idx[lo..hi].binary_search(&c) {
            Ok(k) => self.values[lo + k],
            Err(_) => T::zero(),
        }
    }

    /// Iterates over `(col, value)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let Pattern { row_ptr, col_idx } = &*self.pattern;
        let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
        col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mat_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mat_vec");
        let mut y = vec![T::zero(); self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = T::zero();
            for (c, v) in self.row(r) {
                acc += v * x[c];
            }
            *yr = acc;
        }
        y
    }

    /// Converts to dense (test/debug helper).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut m = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                m[(r, c)] = v;
            }
        }
        m
    }
}

/// A compiled stamp sequence: the CSR pattern one fixed sequence of
/// stamps sums into, and the CSR value slot of each stamp in order.
///
/// The sequence is split at `base_len`. The leading *base* run is summed
/// into a kept value array by [`restamp_base`](Self::restamp_base), which
/// a caller reruns only when those stamps change. Each
/// [`restamp`](Self::restamp) copies the base into the matrix and then
/// scatter-adds the rest of the sequence. Stamps that sum into one entry
/// are added in sequence order, as [`TripletMatrix::to_csr`] adds them, so
/// a refill equals the triplet conversion of the same stamps.
///
/// A plan trusts its caller to replay the sequence it was compiled from:
/// a different sequence must compile a new plan. Debug builds check every
/// stamp's coordinates against the compiled ones.
///
/// # Examples
///
/// ```
/// use remix_numerics::{StampPlan, StampSink, TripletMatrix};
///
/// let stamp = |m: &mut dyn StampSink<f64>, g: f64| {
///     m.add(0, 0, 1.0); // base: fixed
///     m.add(0, 0, g); // tail: changes per assembly
///     m.add(1, 1, g);
/// };
/// let mut t = TripletMatrix::new(2, 2);
/// stamp(&mut t, 2.0);
/// let mut plan = StampPlan::compile(&t, 1);
/// assert_eq!(plan.matrix().get(0, 0), 3.0);
///
/// let mut cursor = plan.restamp(); // replays the tail only
/// cursor.add(0, 0, 5.0);
/// cursor.add(1, 1, 5.0);
/// cursor.finish();
/// assert_eq!(plan.matrix().get(0, 0), 6.0);
/// assert_eq!(plan.matrix().get(1, 1), 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct StampPlan<T> {
    csr: CsrMatrix<T>,
    /// CSR value index of each stamp, in sequence order.
    slots: Vec<usize>,
    /// Coordinates of each stamp, checked in debug builds.
    coords: Vec<(usize, usize)>,
    /// Summed values of the first `base_len` stamps, one per CSR entry.
    base: Vec<T>,
    base_len: usize,
}

impl<T: Scalar> StampPlan<T> {
    /// Compiles the stamp sequence pushed into `t`, whose first
    /// `base_len` stamps form the base. The plan's matrix starts out
    /// equal to `t.to_csr()`.
    ///
    /// # Panics
    ///
    /// Panics if `base_len` exceeds the number of stamps in `t`.
    pub fn compile(t: &TripletMatrix<T>, base_len: usize) -> Self {
        assert!(base_len <= t.entries.len(), "base longer than the sequence");
        let (csr, slots) = t.to_csr_with_slots();
        let mut base = vec![T::zero(); csr.nnz()];
        for (&(_, _, v), &slot) in t.entries[..base_len].iter().zip(&slots) {
            base[slot] += v;
        }
        StampPlan {
            csr,
            slots,
            coords: t.entries.iter().map(|&(r, c, _)| (r, c)).collect(),
            base,
            base_len,
        }
    }

    /// The matrix as last compiled or refilled.
    pub fn matrix(&self) -> &CsrMatrix<T> {
        &self.csr
    }

    /// Clears the base and returns a sink for its stamps, which the
    /// caller must replay in full, then [`finish`](SlotCursor::finish).
    pub fn restamp_base(&mut self) -> SlotCursor<'_, T> {
        self.base.fill(T::zero());
        SlotCursor {
            values: &mut self.base,
            slots: &self.slots[..self.base_len],
            coords: &self.coords[..self.base_len],
            next: 0,
        }
    }

    /// Sets the matrix to the base and returns a sink for the stamps
    /// after it, which the caller must replay in full, then
    /// [`finish`](SlotCursor::finish).
    pub fn restamp(&mut self) -> SlotCursor<'_, T> {
        self.csr.values.copy_from_slice(&self.base);
        SlotCursor {
            values: &mut self.csr.values,
            slots: &self.slots[self.base_len..],
            coords: &self.coords[self.base_len..],
            next: 0,
        }
    }
}

/// A sink that adds each stamp of a compiled run into its CSR slot.
#[derive(Debug)]
pub struct SlotCursor<'a, T> {
    values: &'a mut [T],
    slots: &'a [usize],
    coords: &'a [(usize, usize)],
    next: usize,
}

impl<T: Scalar> StampSink<T> for SlotCursor<'_, T> {
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: T) {
        debug_assert_eq!(
            self.coords[self.next],
            (r, c),
            "stamp {} replayed at other coordinates than compiled",
            self.next
        );
        self.values[self.slots[self.next]] += v;
        self.next += 1;
    }
}

impl<T> SlotCursor<'_, T> {
    /// Ends the replay. Debug builds check that every compiled stamp of
    /// the run was replayed: a short replay would silently leave entries
    /// at their base values.
    pub fn finish(self) {
        debug_assert_eq!(
            self.next,
            self.slots.len(),
            "replayed {} of {} compiled stamps",
            self.next,
            self.slots.len()
        );
    }
}

/// Sparse LU factorization `P·A = L·U` with threshold partial pivoting.
///
/// The factors live in one flat row-compressed store: factored row `i`
/// holds its unit-lower multipliers (columns `< i`) followed by its upper
/// entries (diagonal first), all sorted by column. The store's pattern is
/// the structural fill of the input pattern under the row order `P`, so
/// [`refactor`](Self::refactor) can refill it for any matrix with the same
/// pattern without searching for pivots again.
///
/// Costs: the pivot search is linear in the row-list entries it creates
/// and eliminates, plus two scans of the remaining rows per step; the
/// numeric phase reads each input value once (taking the scale and the
/// finiteness check on the way) and records the pivots' smallest and
/// largest magnitude, so [`rcond_estimate`](Self::rcond_estimate) is a
/// field read.
#[derive(Debug)]
pub struct SparseLu<T> {
    n: usize,
    /// Row permutation: factored row `i` is input row `perm[i]`.
    perm: Vec<usize>,
    /// Start of each factored row in `col`/`val` (length `n + 1`).
    ptr: Vec<usize>,
    /// Position of each row's diagonal entry, its first upper entry.
    diag: Vec<usize>,
    col: Vec<usize>,
    val: Vec<T>,
    /// Pattern of the input the factors' pattern was derived from;
    /// [`refactor`](Self::refactor) reuses the factors' pattern only for
    /// this exact input pattern.
    a_pattern: Arc<Pattern>,
    /// Largest |a_ij| of the factored matrix (for pivot-growth estimates).
    scale: f64,
    /// `min |Uᵢᵢ| / max |Uᵢᵢ|` over the pivots, kept by the numeric phase.
    rcond: f64,
    /// Dense working row of the numeric phase, all zero between rows.
    work: Vec<T>,
    /// Per column, the largest candidate-pivot magnitude seen by the
    /// numeric phase (the threshold test's column maximum).
    col_max: Vec<f64>,
}

/// Field by field, so that [`clone_from`](Clone::clone_from) refills the
/// target's vectors in place: restarting a solver from a seed copies
/// the factors without allocating.
impl<T: Clone> Clone for SparseLu<T> {
    fn clone(&self) -> Self {
        SparseLu {
            n: self.n,
            perm: self.perm.clone(),
            ptr: self.ptr.clone(),
            diag: self.diag.clone(),
            col: self.col.clone(),
            val: self.val.clone(),
            a_pattern: Arc::clone(&self.a_pattern),
            scale: self.scale,
            rcond: self.rcond,
            work: self.work.clone(),
            col_max: self.col_max.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.perm.clone_from(&source.perm);
        self.ptr.clone_from(&source.ptr);
        self.diag.clone_from(&source.diag);
        self.col.clone_from(&source.col);
        self.val.clone_from(&source.val);
        self.a_pattern.clone_from(&source.a_pattern);
        self.scale = source.scale;
        self.rcond = source.rcond;
        self.work.clone_from(&source.work);
        self.col_max.clone_from(&source.col_max);
    }
}

/// Pivot tolerance relative to the largest candidate in the column.
const PIVOT_THRESHOLD: f64 = 1e-3;
/// Magnitude below which an eliminated fill-in entry is dropped.
const DROP_TOL: f64 = 0.0; // keep everything: exactness over speed

/// The check every factorization makes before it reads a value:
/// squareness.
fn check_shape<T: Scalar>(a: &CsrMatrix<T>) -> Result<(), FactorError> {
    if a.rows() != a.cols() {
        return Err(FactorError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    Ok(())
}

/// Checks a matrix before factoring it and returns its scale, the
/// largest |a_ij| (floored at the smallest positive double).
fn check_input<T: Scalar>(a: &CsrMatrix<T>) -> Result<f64, FactorError> {
    check_shape(a)?;
    let mut scale = 0.0f64;
    for v in &a.values {
        if !v.is_finite_scalar() {
            return Err(FactorError::NotFinite);
        }
        // Finite, so a plain compare: `f64::max`'s NaN handling would
        // put a dependency chain on every entry.
        let m = v.magnitude();
        if m > scale {
            scale = m;
        }
    }
    Ok(scale.max(f64::MIN_POSITIVE))
}

/// The pivot search: right-looking elimination on row lists that picks,
/// at each step, the row order `perm` (input row of each pivot).
///
/// Threshold partial pivoting: among rows whose candidate pivot is
/// non-zero and within [`PIVOT_THRESHOLD`] of the column maximum, choose
/// the sparsest, the first in position order on a tie (a cheap
/// Markowitz-style fill heuristic). Exact zeros produced by elimination
/// are dropped; explicit zeros of the input are kept.
///
/// Linear in the entries it touches: at step `k` every remaining row
/// holds only columns ≥ `k`, so a row's column-`k` entry, if any, is its
/// first, and eliminating it is one merge of two column-sorted rows.
fn pivot_order<T: Scalar>(a: &CsrMatrix<T>, scale: f64) -> Result<Vec<usize>, FactorError> {
    let n = a.rows();
    let mut rows: Vec<Vec<(usize, T)>> = (0..n).map(|r| a.row(r).collect()).collect();
    let mut perm: Vec<usize> = (0..n).collect();
    // The merged row under construction; swapped with the row it
    // replaces, so elimination allocates only when a row grows.
    let mut merged: Vec<(usize, T)> = Vec::new();
    // A row's candidate pivot at step k: its non-zero column-k entry.
    let candidate = |row: &[(usize, T)], k: usize| match row.first() {
        Some(&(c, v)) if c == k && v.magnitude() > 0.0 => Some(v.magnitude()),
        _ => None,
    };

    for k in 0..n {
        let max_mag = rows[k..]
            .iter()
            .filter_map(|row| candidate(row, k))
            .fold(0.0, f64::max);
        let mut best: Option<(usize, usize)> = None; // (row index, length)
        for (ri, row) in rows.iter().enumerate().skip(k) {
            let acceptable = candidate(row, k).is_some_and(|m| m >= PIVOT_THRESHOLD * max_mag);
            if acceptable && best.is_none_or(|(_, len)| row.len() < len) {
                best = Some((ri, row.len()));
            }
        }
        let best_row = match best {
            Some((ri, _)) if max_mag > 1e-13 * scale => ri,
            _ => return Err(FactorError::Singular { step: k }),
        };
        rows.swap(k, best_row);
        perm.swap(k, best_row);

        // The candidate test above saw the pivot as the row's first entry.
        let pivot_row = std::mem::take(&mut rows[k]);
        let pivot_val = pivot_row[0].1;
        let upper = &pivot_row[1..];

        // --- eliminate column k from every remaining row holding it ---
        for row in rows.iter_mut().skip(k + 1) {
            let x = match row.first() {
                Some(&(c, x)) if c == k => x,
                _ => continue,
            };
            let mult = x / pivot_val;
            // row[1..] − mult · upper, both sorted by column. A column
            // only the pivot row holds starts from zero, as in a dense
            // elimination.
            merged.clear();
            let mut keep = |c: usize, v: T| {
                if v.magnitude() > DROP_TOL {
                    merged.push((c, v));
                }
            };
            let mut i = 1;
            for &(cu, vu) in upper {
                while i < row.len() && row[i].0 < cu {
                    keep(row[i].0, row[i].1);
                    i += 1;
                }
                if i < row.len() && row[i].0 == cu {
                    keep(cu, row[i].1 - mult * vu);
                    i += 1;
                } else {
                    keep(cu, T::zero() - mult * vu);
                }
            }
            for &(c, v) in &row[i..] {
                keep(c, v);
            }
            std::mem::swap(row, &mut merged);
        }
    }
    Ok(perm)
}

impl<T: Scalar> SparseLu<T> {
    /// Factors a CSR matrix: pivot search, then symbolic and numeric
    /// phases on the chosen row order.
    ///
    /// # Errors
    ///
    /// [`FactorError::NotSquare`] / [`FactorError::NotFinite`] /
    /// [`FactorError::Singular`] as for the dense factorization.
    pub fn factor(a: &CsrMatrix<T>) -> Result<Self, FactorError> {
        let scale = check_input(a)?;
        let lu = Self::search(a, scale)?;
        lu.record();
        Ok(lu)
    }

    /// Factors `a` in place, reusing the stored row order and fill
    /// pattern when `a` has the pattern this factorization was derived
    /// from and every reused pivot still passes the threshold test
    /// (|pivot| ≥ 10⁻³ × column maximum, column maximum > 10⁻¹³ × scale).
    /// Otherwise runs a fresh pivot search, exactly as
    /// [`factor`](Self::factor) would.
    ///
    /// One pass over `a`: the numeric phase's scatter of each input
    /// value also takes the scale and checks finiteness, so the reuse
    /// path reads every value once. Only when that phase fails (a
    /// non-finite value, a pivot that fails its test) does `refactor`
    /// rescan the input and search, so errors come in the same order as
    /// from `factor`.
    ///
    /// # Errors
    ///
    /// As for [`factor`](Self::factor). After an error the factors are
    /// unusable until the next successful `factor` or `refactor`.
    pub fn refactor(&mut self, a: &CsrMatrix<T>) -> Result<(), FactorError> {
        check_shape(a)?;
        let same_pattern = Arc::ptr_eq(&a.pattern, &self.a_pattern) || a.pattern == self.a_pattern;
        if !(same_pattern && self.numeric(a).is_ok()) {
            let scale = check_input(a)?;
            *self = Self::search(a, scale)?;
        }
        self.record();
        Ok(())
    }

    /// A fresh factorization of a checked matrix: pivot search, symbolic
    /// phase, numeric phase.
    fn search(a: &CsrMatrix<T>, scale: f64) -> Result<Self, FactorError> {
        let perm = pivot_order(a, scale)?;
        let mut lu = Self::symbolic(a, perm);
        // The numeric phase repeats the search's arithmetic on a superset
        // pattern, so it accepts the pivots the search chose; it takes
        // the same scale from the same (finite) values.
        lu.numeric(a)
            .map_err(|step| FactorError::Singular { step })?;
        if remix_telemetry::is_armed() {
            remix_telemetry::counter_add(remix_telemetry::names::LU_PIVOT_SEARCHES, 1);
        }
        Ok(lu)
    }

    /// The symbolic phase: the structural pattern of L and U for row
    /// order `perm`, assuming no cancellation, so that every matrix with
    /// `a`'s pattern factors into it. Values are left zero.
    fn symbolic(a: &CsrMatrix<T>, perm: Vec<usize>) -> Self {
        let n = a.rows();
        let mut ptr = Vec::with_capacity(n + 1);
        let mut diag = Vec::with_capacity(n);
        let mut col: Vec<usize> = Vec::with_capacity(a.nnz());
        ptr.push(0);
        // mark[c] == i: column c is in factored row i's pattern.
        let mut mark = vec![usize::MAX; n];
        for (i, &src) in perm.iter().enumerate() {
            for (c, _) in a.row(src) {
                mark[c] = i;
            }
            mark[i] = i;
            // Eliminating column k < i brings in U row k's pattern; those
            // columns all exceed k, so one ascending pass sees them all.
            for k in 0..i {
                if mark[k] == i {
                    for &c in &col[diag[k] + 1..ptr[k + 1]] {
                        mark[c] = i;
                    }
                }
            }
            for (c, &m) in mark.iter().enumerate() {
                if m == i {
                    if c == i {
                        diag.push(col.len());
                    }
                    col.push(c);
                }
            }
            ptr.push(col.len());
        }
        let fill = col.len();
        SparseLu {
            n,
            perm,
            ptr,
            diag,
            col,
            val: vec![T::zero(); fill],
            a_pattern: Arc::clone(&a.pattern),
            scale: 0.0,
            rcond: 0.0,
            work: vec![T::zero(); n],
            col_max: vec![0.0; n],
        }
    }

    /// The numeric phase: row-by-row elimination of `a` into the stored
    /// pattern and row order. Each entry sees the same operations in the
    /// same order as in the right-looking pivot search. The scatter of
    /// `a` reads every input value once, so it also takes the scale
    /// (what [`check_input`] returns) and checks finiteness; the pivot
    /// magnitudes give the stored rcond. Returns the first step whose
    /// pivot fails the zero, threshold or singularity test, or `n` when
    /// an input value is not finite.
    fn numeric(&mut self, a: &CsrMatrix<T>) -> Result<(), usize> {
        let SparseLu {
            n,
            perm,
            ptr,
            diag,
            col,
            val,
            work,
            col_max,
            ..
        } = self;
        col_max.fill(0.0);
        let mut scale = 0.0f64;
        let mut finite = true;
        let (mut pivot_min, mut pivot_max) = (f64::INFINITY, 0.0f64);
        for (i, &src) in perm.iter().enumerate() {
            for (c, v) in a.row(src) {
                finite &= v.is_finite_scalar();
                let m = v.magnitude();
                if m > scale {
                    scale = m;
                }
                work[c] = v;
            }
            let (lo, d, hi) = (ptr[i], diag[i], ptr[i + 1]);
            // Rows above i are final; row i is being written.
            let (done, row) = val.split_at_mut(lo);
            for (l, &k) in row.iter_mut().zip(&col[lo..d]) {
                let x = std::mem::replace(&mut work[k], T::zero());
                col_max[k] = col_max[k].max(x.magnitude());
                let (dk, end) = (diag[k], ptr[k + 1]);
                let mult = x / done[dk];
                *l = mult;
                for (&c, &u) in col[dk + 1..end].iter().zip(&done[dk + 1..end]) {
                    work[c] -= mult * u;
                }
            }
            for (u, &c) in row[d - lo..hi - lo].iter_mut().zip(&col[d..hi]) {
                *u = std::mem::replace(&mut work[c], T::zero());
            }
            let pivot = row[d - lo].magnitude();
            if pivot == 0.0 || pivot.is_nan() {
                return Err(i);
            }
            col_max[i] = col_max[i].max(pivot);
            pivot_min = pivot_min.min(pivot);
            pivot_max = pivot_max.max(pivot);
        }
        if !finite {
            return Err(*n);
        }
        let scale = scale.max(f64::MIN_POSITIVE);
        for (k, &m) in col_max.iter().enumerate() {
            if m <= 1e-13 * scale || val[diag[k]].magnitude() < PIVOT_THRESHOLD * m {
                return Err(k);
            }
        }
        self.scale = scale;
        self.rcond = if pivot_max == 0.0 {
            0.0
        } else {
            pivot_min / pivot_max
        };
        Ok(())
    }

    /// Counts one numeric factorization in the armed telemetry.
    fn record(&self) {
        if remix_telemetry::is_armed() {
            remix_telemetry::counter_add(remix_telemetry::names::LU_FACTORIZATIONS, 1);
            remix_telemetry::gauge_set(remix_telemetry::names::LU_FILL_NNZ, self.fill_nnz() as f64);
            remix_telemetry::gauge_set(remix_telemetry::names::LU_RCOND, self.rcond_estimate());
        }
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries in L plus U (fill measure).
    pub fn fill_nnz(&self) -> usize {
        self.val.len()
    }

    /// Crude reciprocal condition estimate from the pivot magnitudes:
    /// `min |Uᵢᵢ| / max |Uᵢᵢ|`, kept by the numeric phase as it computes
    /// each pivot, so reading it costs nothing. Sufficient for flagging
    /// near-singular circuit matrices — floating nodes held up only by
    /// gmin, broken feedback loops — where a solve *succeeds* numerically
    /// but deserves distrust.
    pub fn rcond_estimate(&self) -> f64 {
        self.rcond
    }

    /// Reciprocal pivot growth `max |aᵢⱼ| / max |uᵢⱼ|`: values far below
    /// one mean elimination amplified entries, i.e. the threshold-pivoting
    /// factorization was numerically unstable on this matrix.
    pub fn recip_pivot_growth(&self) -> f64 {
        let mut umax = 0.0f64;
        for i in 0..self.n {
            for v in &self.val[self.diag[i]..self.ptr[i + 1]] {
                umax = umax.max(v.magnitude());
            }
        }
        if umax == 0.0 {
            0.0
        } else {
            (self.scale / umax).min(1.0)
        }
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// [`FactorError::NotFinite`] if `b` contains non-finite values.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, FactorError> {
        let mut x = vec![T::zero(); self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into a caller-owned `x`, allocating nothing.
    /// Same arithmetic as [`solve`](Self::solve).
    ///
    /// # Errors
    ///
    /// [`FactorError::NotFinite`] if `b` contains non-finite values; `x`
    /// is then left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` is not of length `self.dim()`.
    pub fn solve_into(&self, b: &[T], x: &mut [T]) -> Result<(), FactorError> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        assert_eq!(x.len(), self.n, "solution length mismatch");
        if !b.iter().all(|v| v.is_finite_scalar()) {
            return Err(FactorError::NotFinite);
        }
        let (ptr, diag, col, val) = (&self.ptr, &self.diag, &self.col, &self.val);
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        // Forward substitution with unit-diagonal L.
        for i in 0..self.n {
            let (lo, d) = (ptr[i], diag[i]);
            let mut acc = x[i];
            for (&c, &l) in col[lo..d].iter().zip(&val[lo..d]) {
                acc -= l * x[c];
            }
            x[i] = acc;
        }
        // Backward with U.
        for i in (0..self.n).rev() {
            let (d, hi) = (diag[i], ptr[i + 1]);
            let mut acc = x[i];
            for (&c, &u) in col[d + 1..hi].iter().zip(&val[d + 1..hi]) {
                acc -= u * x[c];
            }
            x[i] = acc / val[d];
        }
        Ok(())
    }
}

/// One analysis call's sparse solver: assembled matrices in, factors out.
///
/// The first [`factor`](Self::factor) runs a full [`SparseLu::factor`];
/// each later call [`refactor`](SparseLu::refactor)s in the stored
/// pattern, which redoes the pivot search only when the pattern changed
/// or a reused pivot fails. A solver carries state from one solve to the
/// next only to save work: its factors equal a fresh factorization's up
/// to rounding. Create one per analysis call, or restart one from a
/// copy of an earlier call's first factors ([`reseed`](Self::reseed)).
#[derive(Debug, Clone)]
pub struct SparseSolver<T> {
    lu: Option<SparseLu<T>>,
}

impl<T: Scalar> Default for SparseSolver<T> {
    fn default() -> Self {
        SparseSolver { lu: None }
    }
}

impl<T: Scalar> SparseSolver<T> {
    /// A solver with nothing factored yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restarts the solver from a copy of `seed`, so that its next
    /// [`factor`](Self::factor) refactors in `seed`'s row order and fill
    /// pattern instead of searching for pivots. Given the matrix `seed`
    /// was factored from, that refactor computes the same factors, bit
    /// for bit, as the search did: the numeric phase overwrites every
    /// stored value and repeats the search's arithmetic. The copy goes
    /// into the solver's current factors, reusing their storage.
    pub fn reseed(&mut self, seed: &SparseLu<T>) {
        match &mut self.lu {
            Some(lu) => lu.clone_from(seed),
            None => self.lu = Some(seed.clone()),
        }
    }

    /// Factors `a`. After an error the next call starts with a fresh
    /// pivot search.
    ///
    /// # Errors
    ///
    /// As for [`SparseLu::factor`].
    pub fn factor(&mut self, a: &CsrMatrix<T>) -> Result<&SparseLu<T>, FactorError> {
        let lu = match self.lu.take() {
            Some(mut lu) => {
                lu.refactor(a)?;
                lu
            }
            None => SparseLu::factor(a)?,
        };
        Ok(self.lu.insert(lu))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::dense::vecops;
    use crate::lu::solve_dense;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }

    #[test]
    fn triplet_accumulates_duplicates() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(1, 1, 2.0);
        t.push(1, 1, 3.0);
        t.push(0, 1, -1.0);
        let csr = t.to_csr();
        assert_eq!(csr.get(1, 1), 5.0);
        assert_eq!(csr.get(0, 1), -1.0);
        assert_eq!(csr.get(0, 0), 0.0);
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_bounds_check() {
        let mut t = TripletMatrix::new(1, 1);
        t.push(0, 1, 1.0);
    }

    #[test]
    fn csr_mat_vec_matches_dense() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(0, 2, 1.0);
        t.push(1, 1, -3.0);
        t.push(2, 0, 4.0);
        t.push(2, 2, 5.0);
        let csr = t.to_csr();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(csr.mat_vec(&x), t.to_dense().mat_vec(&x));
    }

    #[test]
    fn sparse_solve_matches_dense_random() {
        let n = 20;
        let mut state = 0xDEADBEEFu64;
        // Sparse-ish random pattern with dominant diagonal.
        let mut t = TripletMatrix::new(n, n);
        for r in 0..n {
            t.push(r, r, 5.0 + lcg(&mut state).abs());
            for _ in 0..3 {
                let c = ((lcg(&mut state).abs() * n as f64) as usize).min(n - 1);
                t.push(r, c, lcg(&mut state));
            }
        }
        let csr = t.to_csr();
        let b: Vec<f64> = (0..n).map(|_| lcg(&mut state)).collect();
        let xs = SparseLu::factor(&csr).unwrap().solve(&b).unwrap();
        let xd = solve_dense(&t.to_dense(), &b).unwrap();
        for (a, b) in xs.iter().zip(xd.iter()) {
            assert!((a - b).abs() < 1e-9, "sparse {a} vs dense {b}");
        }
    }

    #[test]
    fn sparse_solve_requires_pivoting() {
        // Zero diagonal head forces a permutation.
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 2, 1.0);
        t.push(2, 2, 1.0);
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        let b = [1.0, 5.0, 2.0];
        let x = lu.solve(&b).unwrap();
        let r = vecops::sub(&csr.mat_vec(&x), &b);
        assert!(vecops::norm_inf(&r) < 1e-12, "residual {r:?}");
    }

    #[test]
    fn sparse_singular_detected() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 0.5);
        t.push(1, 1, 1.0);
        match SparseLu::factor(&t.to_csr()) {
            Err(FactorError::Singular { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn sparse_complex_solve() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, Complex::new(1.0, 1.0));
        t.push(0, 1, Complex::ONE);
        t.push(1, 1, Complex::new(0.0, 2.0));
        let csr = t.to_csr();
        let b = [Complex::new(2.0, 0.0), Complex::new(0.0, 4.0)];
        let x = SparseLu::factor(&csr).unwrap().solve(&b).unwrap();
        let ax = csr.mat_vec(&x);
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!((*l - *r).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_rcond_flags_bad_conditioning() {
        let mut good = TripletMatrix::new(3, 3);
        for i in 0..3 {
            good.push(i, i, 1.0);
        }
        let lu = SparseLu::factor(&good.to_csr()).unwrap();
        assert!(lu.rcond_estimate() > 0.9);
        assert!((lu.recip_pivot_growth() - 1.0).abs() < 1e-12);

        let mut bad = TripletMatrix::new(3, 3);
        bad.push(0, 0, 1.0);
        bad.push(1, 1, 1.0);
        bad.push(2, 2, 1e-12);
        let lu = SparseLu::factor(&bad.to_csr()).unwrap();
        assert!(lu.rcond_estimate() < 1e-10, "{}", lu.rcond_estimate());
    }

    #[test]
    fn sparse_rcond_matches_dense_on_random_system() {
        let n = 10;
        let mut state = 0xC0FFEEu64;
        let mut t = TripletMatrix::new(n, n);
        for r in 0..n {
            t.push(r, r, 4.0 + lcg(&mut state).abs());
            let c = ((lcg(&mut state).abs() * n as f64) as usize).min(n - 1);
            t.push(r, c, lcg(&mut state));
        }
        let sp = SparseLu::factor(&t.to_csr()).unwrap();
        // Same order of magnitude as the dense estimate (pivot orders can
        // differ): both are crude estimators, not exact condition numbers.
        let de = crate::lu::LuFactor::factor(&t.to_dense()).unwrap();
        let (a, b) = (sp.rcond_estimate(), de.rcond_estimate());
        assert!(a > 0.0 && b > 0.0);
        assert!(
            a / b < 100.0 && b / a < 100.0,
            "sparse {a:.3e} dense {b:.3e}"
        );
    }

    #[test]
    fn fill_reported() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 1.0);
        let lu = SparseLu::factor(&t.to_csr()).unwrap();
        assert!(lu.fill_nnz() >= 3);
        assert_eq!(lu.dim(), 2);
    }

    #[test]
    fn csr_row_iteration_sorted() {
        let mut t = TripletMatrix::new(1, 4);
        t.push(0, 3, 3.0);
        t.push(0, 1, 1.0);
        let csr = t.to_csr();
        let row: Vec<(usize, f64)> = csr.row(0).collect();
        assert_eq!(row, vec![(1, 1.0), (3, 3.0)]);
    }

    /// Runs `f` with a fresh telemetry context armed and returns its
    /// (factorizations, pivot searches) counts.
    fn lu_counts(f: impl FnOnce()) -> (u64, u64) {
        let tel = remix_telemetry::Telemetry::new();
        {
            let _g = tel.arm();
            f();
        }
        let snap = tel.snapshot();
        let count = |name| snap.counter(name).unwrap_or(0);
        (
            count(remix_telemetry::names::LU_FACTORIZATIONS),
            count(remix_telemetry::names::LU_PIVOT_SEARCHES),
        )
    }

    #[test]
    fn refactor_reuses_the_pivot_order_while_pivots_hold() {
        let two_by_two = |d: f64| {
            let mut t = TripletMatrix::new(2, 2);
            t.push(0, 0, d);
            t.push(0, 1, 1.0);
            t.push(1, 0, 1.0);
            t.push(1, 1, 1.0);
            t.to_csr()
        };
        let (factors, searches) = lu_counts(|| {
            let mut lu = SparseLu::factor(&two_by_two(2.0)).unwrap();
            lu.refactor(&two_by_two(3.0)).unwrap();
            lu.refactor(&two_by_two(0.5)).unwrap();
            assert_eq!(lu.perm, vec![0, 1]);
        });
        assert_eq!((factors, searches), (3, 1));
    }

    #[test]
    fn decayed_pivot_triggers_a_fresh_search() {
        // Row 0 pivots first while its diagonal is large; once it decays
        // below 1e-3 of the column maximum the stored order is unstable
        // and refactor must search again (and pick row 1).
        let two_by_two = |d: f64| {
            let mut t = TripletMatrix::new(2, 2);
            t.push(0, 0, d);
            t.push(0, 1, 1.0);
            t.push(1, 0, 1.0);
            t.push(1, 1, 2.0);
            t.to_csr()
        };
        let (factors, searches) = lu_counts(|| {
            let mut lu = SparseLu::factor(&two_by_two(1.0)).unwrap();
            assert_eq!(lu.perm, vec![0, 1]);
            let decayed = two_by_two(1e-5);
            lu.refactor(&decayed).unwrap();
            assert_eq!(lu.perm, vec![1, 0]);
            let b = [1.0, 2.0];
            let r = vecops::sub(&decayed.mat_vec(&lu.solve(&b).unwrap()), &b);
            assert!(vecops::norm_inf(&r) < 1e-12, "residual {r:?}");
        });
        assert_eq!((factors, searches), (2, 2));
    }

    #[test]
    fn refactor_reports_singular_and_not_finite() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 3.0);
        t.push(1, 1, 4.0);
        let good = t.to_csr();
        let mut lu = SparseLu::factor(&good).unwrap();

        let mut singular = TripletMatrix::new(2, 2);
        for (r, c, v) in [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 0.5), (1, 1, 1.0)] {
            singular.push(r, c, v);
        }
        match lu.refactor(&singular.to_csr()) {
            Err(FactorError::Singular { step }) => assert_eq!(step, 1),
            other => panic!("expected singular, got {other:?}"),
        }

        let mut poisoned = TripletMatrix::new(2, 2);
        for (r, c, v) in [(0, 0, 1.0), (0, 1, f64::NAN), (1, 0, 3.0), (1, 1, 4.0)] {
            poisoned.push(r, c, v);
        }
        assert!(matches!(
            lu.refactor(&poisoned.to_csr()),
            Err(FactorError::NotFinite)
        ));

        // A later good matrix factors again after the failures.
        lu.refactor(&good).unwrap();
        let x = lu.solve(&[5.0, 11.0]).unwrap();
        assert!(
            (x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12,
            "{x:?}"
        );
    }

    #[test]
    fn refactor_with_a_new_pattern_starts_over() {
        let mut diag = TripletMatrix::new(3, 3);
        for i in 0..3 {
            diag.push(i, i, 2.0);
        }
        let mut lu = SparseLu::factor(&diag.to_csr()).unwrap();
        let mut coupled = TripletMatrix::new(3, 3);
        for (r, c, v) in [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 2, 1.0)] {
            coupled.push(r, c, v);
        }
        let csr = coupled.to_csr();
        let (_, searches) = lu_counts(|| lu.refactor(&csr).unwrap());
        assert_eq!(searches, 1);
        let b = [1.0, 5.0, 2.0];
        let r = vecops::sub(&csr.mat_vec(&lu.solve(&b).unwrap()), &b);
        assert!(vecops::norm_inf(&r) < 1e-12, "residual {r:?}");
    }

    #[test]
    fn seeded_solver_reproduces_the_search_without_searching() {
        // Row 0 has no diagonal entry, so the seed's row order is not the
        // identity.
        let matrix = |s: f64| {
            let stamps = [
                (0, 1, 2.0 * s),
                (0, 2, 1.0),
                (1, 0, 1.0),
                (1, 1, 4.0),
                (2, 0, 3.0 + s),
                (2, 2, 1.0),
            ];
            triplets(&stamps).to_csr()
        };
        let a = matrix(1.0);
        let fresh = SparseLu::factor(&a).unwrap();
        assert_ne!(fresh.perm, vec![0, 1, 2]);
        // A seed whose values went stale refactoring another matrix.
        let mut seed = fresh.clone();
        seed.refactor(&matrix(1.7)).unwrap();
        assert_eq!(seed.perm, fresh.perm);
        // A solver holding other factors (another size and pattern), so
        // the copy goes through `clone_from`.
        let mut solver = SparseSolver::new();
        let mut other = TripletMatrix::new(4, 4);
        for i in 0..4 {
            other.push(i, i, 1.0 + i as f64);
            other.push(i, 3 - i, 0.5);
        }
        solver.factor(&other.to_csr()).unwrap();
        solver.reseed(&seed);
        let (factors, searches) = lu_counts(|| {
            let lu = solver.factor(&a).unwrap();
            assert_eq!(lu.perm, fresh.perm);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&lu.val), bits(&fresh.val));
            let b = [1.0, -2.0, 0.5];
            assert_eq!(
                bits(&lu.solve(&b).unwrap()),
                bits(&fresh.solve(&b).unwrap())
            );
        });
        assert_eq!((factors, searches), (1, 0));
    }

    /// The pivot rule written out plainly, as a dense-minded reader would:
    /// every remaining row's column-`k` entry found by search, the column
    /// maximum over the non-zero ones, the sparsest row within the
    /// threshold (the first on a tie), then elimination through a dense
    /// scratch row, dropping exact zeros.
    fn reference_pivot_order(a: &CsrMatrix<f64>, scale: f64) -> Result<Vec<usize>, FactorError> {
        let n = a.rows();
        let mut rows: Vec<Vec<(usize, f64)>> = (0..n).map(|r| a.row(r).collect()).collect();
        let mut perm: Vec<usize> = (0..n).collect();
        let at = |row: &[(usize, f64)], k: usize| row.iter().position(|e| e.0 == k);
        for k in 0..n {
            let candidates: Vec<(usize, f64, usize)> = (k..n)
                .filter_map(|ri| {
                    let m = rows[ri][at(&rows[ri], k)?].1.abs();
                    (m > 0.0).then_some((ri, m, rows[ri].len()))
                })
                .collect();
            let max_mag = candidates.iter().map(|c| c.1).fold(0.0, f64::max);
            let best = candidates
                .iter()
                .filter(|c| c.1 >= PIVOT_THRESHOLD * max_mag)
                .min_by_key(|c| c.2);
            let Some(&(best, _, _)) = best.filter(|_| max_mag > 1e-13 * scale) else {
                return Err(FactorError::Singular { step: k });
            };
            rows.swap(k, best);
            perm.swap(k, best);
            let pivot_row = std::mem::take(&mut rows[k]);
            let pivot = pivot_row[at(&pivot_row, k).unwrap()].1;
            for row in rows.iter_mut().skip(k + 1) {
                let Some(pos) = at(row, k) else { continue };
                let mult = row[pos].1 / pivot;
                let mut dense: Vec<Option<f64>> = vec![None; n];
                for &(c, v) in row.iter().filter(|e| e.0 != k) {
                    dense[c] = Some(v);
                }
                for &(c, v) in pivot_row.iter().filter(|e| e.0 > k) {
                    dense[c] = Some(dense[c].unwrap_or(0.0) - mult * v);
                }
                *row = (0..n)
                    .filter_map(|c| dense[c].map(|v| (c, v)))
                    .filter(|e| e.1.abs() > 0.0)
                    .collect();
            }
        }
        Ok(perm)
    }

    #[test]
    fn pivot_search_matches_the_reference_rule() {
        let mut s = 0x5eed_u64;
        let unit = |s: &mut u64| 0.5 * (lcg(s) + 1.0);
        let (mut ok, mut singular) = (0, 0);
        for _ in 0..4_000 {
            let n = 1 + (unit(&mut s) * 9.0) as usize;
            let density = 0.2 + 0.6 * unit(&mut s);
            // Values from a small set make ties in row length and
            // magnitude, exact cancellations, explicit zeros and
            // below-threshold candidates common.
            let mut dense = vec![vec![None; n]; n];
            for cell in dense.iter_mut().flatten() {
                if unit(&mut s) < density {
                    *cell = Some(match (unit(&mut s) * 6.0) as usize {
                        0 => 0.0,
                        1 => 1.0,
                        2 => -1.0,
                        3 => 2.0,
                        4 => 1e-4,
                        _ => lcg(&mut s),
                    });
                }
            }
            // Now and then a repeated row: singular, or nearly so.
            if n > 1 && unit(&mut s) < 0.2 {
                dense[n - 1] = dense[0].clone();
            }
            let mut t = TripletMatrix::new(n, n);
            for (r, row) in dense.iter().enumerate() {
                for (c, v) in row.iter().enumerate() {
                    if let Some(v) = *v {
                        t.push(r, c, v);
                    }
                }
            }
            let a = t.to_csr();
            let scale = check_input(&a).unwrap();
            let got = pivot_order(&a, scale);
            assert_eq!(got, reference_pivot_order(&a, scale), "{dense:?}");
            match got {
                Ok(_) => ok += 1,
                Err(_) => singular += 1,
            }
        }
        assert!(
            ok > 1_000 && singular > 1_000,
            "{ok} factored, {singular} singular"
        );
    }

    /// `min |Uᵢᵢ| / max |Uᵢᵢ|` by a pass over the stored diagonal.
    fn diagonal_rcond(lu: &SparseLu<f64>) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for &d in &lu.diag {
            min = min.min(lu.val[d].abs());
            max = max.max(lu.val[d].abs());
        }
        if max == 0.0 {
            0.0
        } else {
            min / max
        }
    }

    #[test]
    fn stored_rcond_is_the_diagonal_scan_bit_for_bit() {
        let matrix = |s: f64| {
            let stamps = [
                (0, 1, 2.0 * s),
                (0, 2, 1.0),
                (1, 0, 1.0),
                (1, 1, 4.0 * s),
                (2, 0, 3.0 + s),
                (2, 2, 1e-3 * s),
            ];
            triplets(&stamps).to_csr()
        };
        let same = |lu: &SparseLu<f64>| {
            assert_eq!(lu.rcond_estimate().to_bits(), diagonal_rcond(lu).to_bits());
        };
        let mut lu = SparseLu::factor(&matrix(1.0)).unwrap();
        same(&lu);
        let seed = lu.clone();
        for s in [1.7, -0.3, 1e-6, 40.0] {
            lu.refactor(&matrix(s)).unwrap();
            same(&lu);
        }
        // Another pattern: refactor searches afresh.
        let (_, searches) = lu_counts(|| {
            lu.refactor(&two_rows_swapped()).unwrap();
        });
        assert_eq!(searches, 1);
        same(&lu);
        let mut solver = SparseSolver::new();
        solver.factor(&two_rows_swapped()).unwrap();
        solver.reseed(&seed);
        same(solver.factor(&matrix(1.0)).unwrap());
        // Random systems, sparse and dense.
        let mut st = 7u64;
        for n in [1, 2, 5, 12] {
            let mut t = TripletMatrix::new(n, n);
            for r in 0..n {
                for c in 0..n {
                    if r == c || lcg(&mut st) > 0.3 {
                        t.push(r, c, lcg(&mut st));
                    }
                }
            }
            same(&SparseLu::factor(&t.to_csr()).unwrap());
        }
    }

    /// A 3×3 matrix on another pattern than `stored_rcond_…`'s.
    fn two_rows_swapped() -> CsrMatrix<f64> {
        triplets(&[
            (0, 0, 1e-9),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 1.0),
            (2, 2, 5.0),
        ])
        .to_csr()
    }

    #[test]
    fn refactor_fails_as_factor_does_and_factors_again_after() {
        let good = triplets(&[
            (0, 0, 4.0),
            (0, 1, 1.0),
            (1, 1, 3.0),
            (2, 0, 1.0),
            (2, 2, 2.0),
        ]);
        let good = good.to_csr();
        let fresh = SparseLu::factor(&good).unwrap();
        let bits = |lu: &SparseLu<f64>| lu.val.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let poisoned = |v: f64| {
            triplets(&[
                (0, 0, 4.0),
                (0, 1, v),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (2, 2, 2.0),
            ])
            .to_csr()
        };
        let mut wide = TripletMatrix::new(3, 4);
        wide.push(0, 3, 1.0);
        let mut lu = fresh.clone();
        let mut check = |bad: &CsrMatrix<f64>, expected: FactorError| {
            assert_eq!(SparseLu::factor(bad).err(), Some(expected.clone()));
            assert_eq!(lu.refactor(bad), Err(expected));
            lu.refactor(&good).unwrap();
            assert_eq!(bits(&lu), bits(&fresh));
            assert_eq!(bits(&SparseLu::factor(&good).unwrap()), bits(&fresh));
        };
        check(&poisoned(f64::INFINITY), FactorError::NotFinite);
        check(&poisoned(f64::NAN), FactorError::NotFinite);
        check(&poisoned(f64::NEG_INFINITY), FactorError::NotFinite);
        check(&wide.to_csr(), FactorError::NotSquare { rows: 3, cols: 4 });
    }

    #[test]
    fn reseed_copies_into_the_solver_s_storage() {
        let a = triplets(&[
            (0, 1, 2.0),
            (0, 2, 1.0),
            (1, 0, 1.0),
            (1, 1, 4.0),
            (2, 2, 1.0),
        ]);
        let b = triplets(&[
            (0, 1, 3.0),
            (0, 2, 1.0),
            (1, 0, 2.0),
            (1, 1, 5.0),
            (2, 2, 7.0),
        ]);
        let seed = SparseLu::factor(&a.to_csr()).unwrap();
        let mut solver = SparseSolver::new();
        solver.factor(&b.to_csr()).unwrap();
        let storage = |s: &SparseSolver<f64>| {
            let lu = s.lu.as_ref().unwrap();
            (
                lu.perm.as_ptr(),
                lu.col.as_ptr(),
                lu.val.as_ptr(),
                lu.work.as_ptr(),
            )
        };
        let before = storage(&solver);
        solver.reseed(&seed);
        assert_eq!(storage(&solver), before);
        let lu = solver.lu.as_ref().unwrap();
        assert_eq!(
            (&lu.perm, &lu.ptr, &lu.col),
            (&seed.perm, &seed.ptr, &seed.col)
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&lu.val), bits(&seed.val));
    }

    /// Pushes `stamps` into a fresh 3×3 triplet matrix.
    fn triplets(stamps: &[(usize, usize, f64)]) -> TripletMatrix<f64> {
        let mut t = TripletMatrix::new(3, 3);
        for &(r, c, v) in stamps {
            t.push(r, c, v);
        }
        t
    }

    #[test]
    fn plan_refill_tracks_values_of_the_compiled_sequence() {
        let first = [(2, 2, 1.0), (0, 1, 2.0), (2, 2, 3.0), (1, 0, 4.0)];
        let mut plan = StampPlan::compile(&triplets(&first), 2);
        assert_eq!(*plan.matrix(), triplets(&first).to_csr());

        // Same sequence, new tail values: the base (first two stamps) is
        // kept and the tail scattered on top, summed in sequence order.
        let mut cursor = plan.restamp();
        cursor.add(2, 2, 5.0);
        cursor.add(1, 0, 7.0);
        cursor.finish();
        let same = [(2, 2, 1.0), (0, 1, 2.0), (2, 2, 5.0), (1, 0, 7.0)];
        assert_eq!(*plan.matrix(), triplets(&same).to_csr());

        // A new base, then a new tail.
        let mut cursor = plan.restamp_base();
        cursor.add(2, 2, -1.0);
        cursor.add(0, 1, 0.0);
        cursor.finish();
        let mut cursor = plan.restamp();
        cursor.add(2, 2, 0.5);
        cursor.add(1, 0, 9.0);
        cursor.finish();
        let rebased = [(2, 2, -1.0), (0, 1, 0.0), (2, 2, 0.5), (1, 0, 9.0)];
        let expect = triplets(&rebased).to_csr();
        assert_eq!(*plan.matrix(), expect);
        // A zero-valued stamp keeps its entry: the pattern never depends
        // on values.
        assert_eq!(plan.matrix().nnz(), 3);

        // A different sequence is a different plan: compiling it gives
        // the new pattern rather than scattering into the old slots
        // (which would put (0, 2) into the (0, 1) slot).
        let moved = triplets(&[(2, 2, 1.0), (0, 2, 2.0), (2, 2, 3.0), (1, 0, 4.0)]);
        let replanned = StampPlan::compile(&moved, 2);
        assert_eq!(*replanned.matrix(), moved.to_csr());
        assert_eq!(replanned.matrix().get(0, 2), 2.0);
        assert_eq!(replanned.matrix().get(0, 1), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "other coordinates than compiled")]
    fn plan_replay_at_other_coordinates_is_caught_in_debug_builds() {
        let mut plan = StampPlan::compile(&triplets(&[(0, 0, 1.0), (1, 1, 1.0)]), 0);
        let mut cursor = plan.restamp();
        cursor.add(0, 0, 1.0);
        cursor.add(1, 2, 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "replayed 1 of 2 compiled stamps")]
    fn plan_short_replay_is_caught_in_debug_builds() {
        let mut plan = StampPlan::compile(&triplets(&[(0, 0, 1.0), (1, 1, 1.0)]), 0);
        let mut cursor = plan.restamp();
        cursor.add(0, 0, 1.0);
        cursor.finish();
    }

    #[test]
    fn plan_refills_share_the_pattern_the_solver_factored() {
        let mut plan = StampPlan::compile(&triplets(&[(0, 0, 2.0), (1, 1, 2.0), (2, 2, 2.0)]), 0);
        let mut solver = SparseSolver::new();
        let (_, searches) = lu_counts(|| {
            solver.factor(plan.matrix()).unwrap();
            let mut cursor = plan.restamp();
            for i in 0..3 {
                cursor.add(i, i, 4.0);
            }
            cursor.finish();
            solver.factor(plan.matrix()).unwrap();
        });
        assert_eq!(searches, 1);
        assert!(Arc::ptr_eq(
            &plan.matrix().pattern,
            &solver.lu.as_ref().unwrap().a_pattern
        ));
        let x = solver
            .lu
            .as_ref()
            .unwrap()
            .solve(&[4.0, 8.0, 12.0])
            .unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solver_follows_pattern_changes() {
        // One random diagonally dominant stamp sequence carrying new
        // values each round, refilled through its plan; every third round
        // appends a diagonal load (a new sequence, so a new plan), like a
        // pseudo-transient stage.
        let mut solver = SparseSolver::new();
        let mut state = 0x5EED_0003u64;
        let n = 12;
        let mut coords = Vec::new();
        for r in 0..n {
            coords.push((r, r));
            for _ in 0..3 {
                let c = ((lcg(&mut state).abs() * n as f64) as usize).min(n - 1);
                coords.push((r, c));
            }
        }
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut plans: [Option<StampPlan<f64>>; 2] = [None, None];
        for round in 0..6 {
            let loaded = round % 3 == 2;
            let mut t = TripletMatrix::new(n, n);
            for &(r, c) in &coords {
                let v = lcg(&mut state);
                t.push(r, c, if r == c { 3.0 + v.abs() } else { v });
            }
            if loaded {
                for i in 0..n {
                    t.push(i, i, 1.0);
                }
            }
            let plan = match &mut plans[usize::from(loaded)] {
                Some(plan) => {
                    let mut cursor = plan.restamp();
                    for &(r, c, v) in &t.entries {
                        cursor.add(r, c, v);
                    }
                    cursor.finish();
                    plan
                }
                slot => slot.insert(StampPlan::compile(&t, 0)),
            };
            assert_eq!(*plan.matrix(), t.to_csr(), "round {round}");
            let x = solver.factor(plan.matrix()).unwrap().solve(&b).unwrap();
            let y = SparseLu::factor(&t.to_csr()).unwrap().solve(&b).unwrap();
            let r = vecops::sub(&x, &y);
            assert!(
                vecops::norm_inf(&r) < 1e-12 * vecops::norm_inf(&y),
                "round {round}"
            );
        }
    }

    #[test]
    fn solve_into_matches_solve_bit_for_bit() {
        let n = 15;
        let mut state = 0x50_1E_u64;
        let mut t = TripletMatrix::new(n, n);
        let mut tc = TripletMatrix::new(n, n);
        for r in 0..n {
            let d = 4.0 + lcg(&mut state).abs();
            t.push(r, r, d);
            tc.push(r, r, Complex::new(d, lcg(&mut state)));
            for _ in 0..3 {
                let c = ((lcg(&mut state).abs() * n as f64) as usize).min(n - 1);
                let (v, w) = (lcg(&mut state), lcg(&mut state));
                t.push(r, c, v);
                tc.push(r, c, Complex::new(v, w));
            }
        }
        let b: Vec<f64> = (0..n).map(|_| lcg(&mut state)).collect();
        let lu = SparseLu::factor(&t.to_csr()).unwrap();
        let mut x = vec![f64::NAN; n];
        lu.solve_into(&b, &mut x).unwrap();
        let bits = |v: &[f64]| v.iter().map(|z| z.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&lu.solve(&b).unwrap()));

        let bc: Vec<Complex> = b.iter().map(|&v| Complex::new(v, -v)).collect();
        let lu = SparseLu::factor(&tc.to_csr()).unwrap();
        let mut xc = vec![Complex::ZERO; n];
        lu.solve_into(&bc, &mut xc).unwrap();
        let cbits = |v: &[Complex]| {
            v.iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(cbits(&xc), cbits(&lu.solve(&bc).unwrap()));

        // A non-finite rhs is refused and leaves x as it was.
        let mut kept = x.clone();
        let mut bad = b.clone();
        bad[3] = f64::NAN;
        assert!(matches!(
            SparseLu::factor(&t.to_csr())
                .unwrap()
                .solve_into(&bad, &mut kept),
            Err(FactorError::NotFinite)
        ));
        assert_eq!(bits(&kept), bits(&x));
    }

    #[test]
    fn clear_resets_accumulator() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.clear();
        assert_eq!(t.raw_len(), 0);
        assert_eq!(t.to_csr().nnz(), 0);
    }
}
