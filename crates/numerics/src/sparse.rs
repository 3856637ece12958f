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
//!   on row lists), then the symbolic phase (the structural fill pattern of
//!   L and U for the chosen row order) and the numeric phase (row-by-row
//!   elimination into flat value arrays on that pattern).
//!   [`SparseLu::refactor`] reruns only the numeric phase on a new matrix
//!   with the same pattern, and falls back to a fresh pivot search when a
//!   reused pivot no longer passes the threshold test;
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
#[derive(Debug, Clone)]
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
    /// Dense working row of the numeric phase, all zero between rows.
    work: Vec<T>,
    /// Per column, the largest candidate-pivot magnitude seen by the
    /// numeric phase (the threshold test's column maximum).
    col_max: Vec<f64>,
}

/// Pivot tolerance relative to the largest candidate in the column.
const PIVOT_THRESHOLD: f64 = 1e-3;
/// Magnitude below which an eliminated fill-in entry is dropped.
const DROP_TOL: f64 = 0.0; // keep everything: exactness over speed

/// Checks a matrix before factoring it and returns its scale, the
/// largest |a_ij| (floored at the smallest positive double).
fn check_input<T: Scalar>(a: &CsrMatrix<T>) -> Result<f64, FactorError> {
    remix_exec::check_matrix_dim(a.rows()).map_err(FactorError::Budget)?;
    if a.rows() != a.cols() {
        return Err(FactorError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
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
/// Threshold partial pivoting: among rows whose candidate pivot is within
/// [`PIVOT_THRESHOLD`] of the column maximum, choose the sparsest (a cheap
/// Markowitz-style fill heuristic).
fn pivot_order<T: Scalar>(a: &CsrMatrix<T>, scale: f64) -> Result<Vec<usize>, FactorError> {
    let n = a.rows();
    let mut rows: Vec<Vec<(usize, T)>> = (0..n).map(|r| a.row(r).collect()).collect();
    let mut perm: Vec<usize> = (0..n).collect();

    // Dense scatter buffer reused per eliminated row.
    let mut work = vec![T::zero(); n];
    let mut pattern: Vec<usize> = Vec::with_capacity(n);

    for k in 0..n {
        // --- pivot selection among rows k..n having an entry in col k ---
        // Two passes keep the logic obviously correct.
        let candidates: Vec<(usize, f64, usize)> = rows
            .iter()
            .enumerate()
            .skip(k)
            .filter_map(|(ri, row)| {
                row.binary_search_by_key(&k, |e| e.0)
                    .ok()
                    .map(|pos| (ri, row[pos].1.magnitude(), row.len()))
                    .filter(|&(_, m, _)| m > 0.0)
            })
            .collect();
        let max_mag = candidates.iter().map(|c| c.1).fold(0.0, f64::max);
        let best_row = candidates
            .iter()
            .filter(|c| c.1 >= PIVOT_THRESHOLD * max_mag)
            .min_by_key(|c| c.2)
            .map(|c| c.0)
            .unwrap_or(usize::MAX);
        if best_row == usize::MAX || max_mag <= 1e-13 * scale {
            return Err(FactorError::Singular { step: k });
        }
        rows.swap(k, best_row);
        perm.swap(k, best_row);

        let pivot_row = std::mem::take(&mut rows[k]);
        // The pivot-selection scan above only accepts rows holding
        // a finite entry in column k, so the search cannot miss; a
        // miss would be a broken factorization invariant, not a
        // property of the input matrix.
        let Ok(pivot_pos) = pivot_row.binary_search_by_key(&k, |e| e.0) else {
            unreachable!("pivot entry must exist"); // audit: allow(AUD002): a miss is a broken factorization invariant, per the comment above
        };
        let pivot_val = pivot_row[pivot_pos].1;

        // --- eliminate column k from all remaining rows ---
        for row in rows.iter_mut().skip(k + 1) {
            let Ok(pos) = row.binary_search_by_key(&k, |e| e.0) else {
                continue;
            };
            let mult = row[pos].1 / pivot_val;

            // Scatter target row.
            pattern.clear();
            for &(c, v) in row.iter() {
                if c != k {
                    work[c] = v;
                    pattern.push(c);
                }
            }
            // Subtract mult * pivot_row (entries beyond column k).
            for &(c, v) in &pivot_row[pivot_pos + 1..] {
                let delta = mult * v;
                if work[c] == T::zero() && !pattern.contains(&c) {
                    pattern.push(c);
                }
                work[c] -= delta;
            }
            // Gather back, sorted.
            pattern.sort_unstable();
            row.clear();
            for &c in &pattern {
                let v = work[c];
                work[c] = T::zero();
                if v.magnitude() > DROP_TOL {
                    row.push((c, v));
                }
            }
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
    /// [`FactorError::Singular`] as for the dense factorization, and
    /// [`FactorError::Budget`] when the dimension exceeds an armed
    /// [`RunBudget`](remix_exec::RunBudget).
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
    /// # Errors
    ///
    /// As for [`factor`](Self::factor). After an error the factors are
    /// unusable until the next successful `factor` or `refactor`.
    pub fn refactor(&mut self, a: &CsrMatrix<T>) -> Result<(), FactorError> {
        let scale = check_input(a)?;
        let same_pattern = Arc::ptr_eq(&a.pattern, &self.a_pattern) || a.pattern == self.a_pattern;
        if !(same_pattern && self.numeric(a, scale).is_ok()) {
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
        // pattern, so it accepts the pivots the search chose.
        lu.numeric(a, scale)
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
            work: vec![T::zero(); n],
            col_max: vec![0.0; n],
        }
    }

    /// The numeric phase: row-by-row elimination of `a` into the stored
    /// pattern and row order. Each entry sees the same operations in the
    /// same order as in the right-looking pivot search. Returns the first
    /// step whose pivot fails the zero, threshold or singularity test.
    fn numeric(&mut self, a: &CsrMatrix<T>, scale: f64) -> Result<(), usize> {
        let SparseLu {
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
        for (i, &src) in perm.iter().enumerate() {
            for (c, v) in a.row(src) {
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
        }
        for (k, &m) in col_max.iter().enumerate() {
            if m <= 1e-13 * scale || val[diag[k]].magnitude() < PIVOT_THRESHOLD * m {
                return Err(k);
            }
        }
        self.scale = scale;
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
    /// `min |Uᵢᵢ| / max |Uᵢᵢ|`. Cheap (one pass over the stored diagonal)
    /// and sufficient for flagging near-singular circuit matrices —
    /// floating nodes held up only by gmin, broken feedback loops —
    /// where a solve *succeeds* numerically but deserves distrust.
    pub fn rcond_estimate(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for &d in &self.diag {
            let m = self.val[d].magnitude();
            min = min.min(m);
            max = max.max(m);
        }
        if max == 0.0 {
            0.0
        } else {
            min / max
        }
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
/// [`seeded`](Self::seeded) copy of an earlier call's first factors.
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

    /// A solver whose first [`factor`](Self::factor) refactors in
    /// `seed`'s row order and fill pattern instead of searching for
    /// pivots. Given the matrix `seed` was factored from, that refactor
    /// computes the same factors, bit for bit, as the search did: the
    /// numeric phase overwrites every stored value and repeats the
    /// search's arithmetic.
    pub fn seeded(seed: SparseLu<T>) -> Self {
        SparseSolver { lu: Some(seed) }
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
        let mut solver = SparseSolver::seeded(seed);
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
