//! Graph backends: the CSR store and O(1)-state implicit families behind
//! one trait.
//!
//! Every walk primitive in this workspace consumes a graph through two
//! questions — "what is `degree(v)`?" and "what is the `i`-th neighbor of
//! `v`?" — yet historically the answers always came from a materialized
//! [`Graph`] in CSR form, which bounds the vertex count by *memory*
//! (`(n+1)·8 + Σδ·4` bytes) rather than by arithmetic. [`GraphBackend`]
//! abstracts exactly those two questions plus the handful of metadata
//! accessors the engine and query layer need, and [`ImplicitGraph`]
//! answers them *arithmetically* for the structured families whose
//! neighborhoods are closed-form: cycle, 2-d torus, hypercube, and
//! circulant. An implicit backend holds O(1) state, so vertex counts up
//! to the `u32` id ceiling (~4·10⁹) cost nothing but time.
//!
//! ## The determinism contract
//!
//! An implicit family must be **indistinguishable** from its CSR twin to
//! every consumer:
//!
//! * `neighbor(v, i)` returns the `i`-th entry of the *sorted* neighbor
//!   row — exactly the entry `generators::<family>(..).neighbor(v, i)`
//!   returns. Walk streams consume RNG draws identically on both
//!   backends, so every report is byte-identical at sizes where both run
//!   (the cross-backend equivalence suite diffs the rendered JSON).
//! * `name()` and `n()` match the generator's, so
//!   [`GraphInfo`](../../mrw_core/query/struct.GraphInfo.html)-keyed
//!   report merges accept shards from either backend.
//! * `is_connected()` is computed arithmetically (a cycle is always
//!   connected; a circulant iff `gcd(n, s₁, …, s_j) = 1`), matching what
//!   BFS would say without touching all `n` vertices.
//!
//! The CSR [`Graph`] implements the trait by delegation, and
//! `csr(&self) -> Option<&Graph>` lets the engine keep its direct-row
//! batched fast path when a materialized adjacency exists.

use crate::algo;
use crate::csr::Graph;
use crate::generators;

/// Greatest degree an implicit family may have: rows are filled into
/// fixed-size stack buffers on the batched engine path.
pub const MAX_IMPLICIT_DEGREE: usize = 64;

/// Uniform access to a graph for walk engines: vertex count, degrees,
/// indexed sorted-row neighbors, and the metadata the query layer
/// serializes. Implemented by the materialized CSR [`Graph`] and by
/// [`ImplicitGraph`]. See the module docs for the determinism contract.
pub trait GraphBackend: Sync {
    /// Number of vertices.
    fn n(&self) -> usize;

    /// Number of undirected edges (self-loops count once).
    fn m(&self) -> usize;

    /// The graph's display name (family and parameters) — must equal the
    /// CSR generator's name for the same parameters.
    fn name(&self) -> &str;

    /// Degree of `v` (self-loop counts once).
    fn degree(&self, v: u32) -> usize;

    /// The `i`-th entry of `v`'s sorted neighbor row.
    fn neighbor(&self, v: u32, i: usize) -> u32;

    /// `Some(d)` when every vertex has degree `d`, in `O(1)`.
    fn regular_degree(&self) -> Option<usize>;

    /// Writes `v`'s sorted neighbor row into `row` (`row.len()` must be
    /// exactly `degree(v)`).
    fn fill_row(&self, v: u32, row: &mut [u32]);

    /// Calls `f` on each neighbor of `v` in sorted-row order — the
    /// traversal primitive generic BFS uses (the CSR impl iterates its
    /// row slice; implicit impls compute entries on the fly).
    fn for_each_neighbor(&self, v: u32, mut f: impl FnMut(u32))
    where
        Self: Sized,
    {
        for i in 0..self.degree(v) {
            f(self.neighbor(v, i));
        }
    }

    /// The materialized CSR twin, when this backend *is* one. The engine
    /// keys its direct-row batched sweeps off this.
    fn csr(&self) -> Option<&Graph> {
        None
    }

    /// Materializes the CSR twin (the exact graph the family's generator
    /// builds). Used by the exact small-`n` spectral `h_max` path so
    /// implicit-backend reports stay byte-identical to CSR ones.
    ///
    /// # Panics
    /// If the CSR arrays would not fit in memory — callers gate on `n`.
    fn to_csr(&self) -> Graph;

    /// Whether the graph is connected — arithmetic for implicit families,
    /// BFS for CSR.
    fn is_connected(&self) -> bool;

    /// Approximate heap footprint in bytes.
    fn memory_bytes(&self) -> usize;
}

impl GraphBackend for Graph {
    #[inline]
    fn n(&self) -> usize {
        Graph::n(self)
    }

    #[inline]
    fn m(&self) -> usize {
        Graph::m(self)
    }

    fn name(&self) -> &str {
        Graph::name(self)
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        Graph::degree(self, v)
    }

    #[inline]
    fn neighbor(&self, v: u32, i: usize) -> u32 {
        Graph::neighbor(self, v, i)
    }

    #[inline]
    fn regular_degree(&self) -> Option<usize> {
        Graph::regular_degree(self)
    }

    #[inline]
    fn fill_row(&self, v: u32, row: &mut [u32]) {
        row.copy_from_slice(self.neighbors(v));
    }

    #[inline]
    fn for_each_neighbor(&self, v: u32, mut f: impl FnMut(u32)) {
        for &u in self.neighbors(v) {
            f(u);
        }
    }

    #[inline]
    fn csr(&self) -> Option<&Graph> {
        Some(self)
    }

    fn to_csr(&self) -> Graph {
        self.clone()
    }

    fn is_connected(&self) -> bool {
        algo::is_connected(self)
    }

    fn memory_bytes(&self) -> usize {
        Graph::memory_bytes(self)
    }
}

/// Which implicit family an [`ImplicitGraph`] computes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Family {
    /// The cycle `L_n` (`n ≥ 3`).
    Cycle { n: usize },
    /// The square torus `side × side` (`2 ≤ side ≤ 65 535`), with
    /// `recip = ⌈2⁶⁴ / side⌉` for division-free coordinate splits.
    Torus2d { side: usize, recip: u64 },
    /// The hypercube `Q_d` (`1 ≤ d ≤ 30`).
    Hypercube { d: u32 },
    /// The circulant `C_n(jumps)` (same parameter rules as
    /// [`generators::circulant`]).
    Circulant {
        n: usize,
        jumps: Vec<usize>,
        degree: usize,
    },
}

/// An O(1)-state graph whose neighborhoods are computed arithmetically —
/// the implicit backend for the structured families of the paper's
/// Table 1. See the module docs for the determinism contract it obeys
/// with respect to the CSR generators.
///
/// ```
/// use mrw_graph::backend::{GraphBackend, ImplicitGraph};
/// use mrw_graph::generators;
///
/// let implicit = ImplicitGraph::torus_2d(4);
/// let csr = generators::torus_2d(4);
/// assert_eq!(implicit.name(), csr.name());
/// for v in 0..16u32 {
///     for i in 0..4 {
///         assert_eq!(implicit.neighbor(v, i), csr.neighbor(v, i));
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplicitGraph {
    family: Family,
    n: usize,
    name: String,
}

impl ImplicitGraph {
    /// The implicit cycle `L_n`.
    ///
    /// # Panics
    /// If `n < 3` (matching [`generators::cycle`]).
    pub fn cycle(n: usize) -> ImplicitGraph {
        assert!(n >= 3, "cycle needs at least 3 vertices, got {n}");
        assert!(n <= u32::MAX as usize, "too many vertices for u32 ids");
        ImplicitGraph {
            family: Family::Cycle { n },
            n,
            name: format!("cycle({n})"),
        }
    }

    /// The implicit square torus `side × side`.
    ///
    /// # Panics
    /// If `side < 2` (side 1 is a degenerate single vertex) or the vertex
    /// count overflows `u32` ids.
    pub fn torus_2d(side: usize) -> ImplicitGraph {
        assert!(side >= 2, "implicit torus needs side ≥ 2, got {side}");
        let n = side.checked_mul(side).expect("torus size overflows usize");
        assert!(n <= u32::MAX as usize, "torus too large for u32 vertex ids");
        ImplicitGraph {
            family: Family::Torus2d {
                side,
                recip: u64::MAX / side as u64 + 1,
            },
            n,
            name: format!("torus2d({side}x{side})"),
        }
    }

    /// The implicit hypercube `Q_d`.
    ///
    /// # Panics
    /// If `d` is outside `1..=30` (matching [`generators::hypercube`]).
    pub fn hypercube(d: u32) -> ImplicitGraph {
        assert!(d >= 1, "hypercube needs dimension ≥ 1");
        assert!(d < 31, "hypercube dimension {d} too large for u32 ids");
        ImplicitGraph {
            family: Family::Hypercube { d },
            n: 1usize << d,
            name: format!("hypercube({d})"),
        }
    }

    /// The implicit circulant `C_n(jumps)`.
    ///
    /// # Panics
    /// On the same parameter violations as [`generators::circulant`], or
    /// if the degree would exceed [`MAX_IMPLICIT_DEGREE`].
    pub fn circulant(n: usize, jumps: &[usize]) -> ImplicitGraph {
        assert!(n >= 3, "circulant needs n ≥ 3, got {n}");
        assert!(n <= u32::MAX as usize, "too many vertices for u32 ids");
        assert!(!jumps.is_empty(), "circulant needs at least one jump");
        let mut seen = std::collections::BTreeSet::new();
        let mut degree = 0usize;
        for &s in jumps {
            assert!(s >= 1 && s < n, "jump {s} out of range 1..{n}");
            let canon = s.min(n - s);
            assert!(
                seen.insert(canon),
                "jump {s} duplicates another jump modulo ±-symmetry"
            );
            // The half jump s = n/2 pairs each vertex with one antipode.
            degree += if 2 * s == n { 1 } else { 2 };
        }
        assert!(
            degree <= MAX_IMPLICIT_DEGREE,
            "circulant degree {degree} exceeds the implicit-backend cap {MAX_IMPLICIT_DEGREE}"
        );
        ImplicitGraph {
            family: Family::Circulant {
                n,
                jumps: jumps.to_vec(),
                degree,
            },
            n,
            name: format!("circulant(n={n},jumps={jumps:?})"),
        }
    }

    /// The constant vertex degree (every implicit family is regular).
    #[inline]
    pub fn degree_const(&self) -> usize {
        match &self.family {
            Family::Cycle { .. } => 2,
            Family::Torus2d { side, .. } => {
                if *side >= 3 {
                    4
                } else {
                    2 // side 2: the wrap edge coincides with the +1 edge
                }
            }
            Family::Hypercube { d } => *d as usize,
            Family::Circulant { degree, .. } => *degree,
        }
    }

    /// Writes `v`'s sorted neighbor row into `row[..d]` and returns the
    /// degree `d = degree_const()`; `row.len()` must be at least `d`.
    ///
    /// No step divides: cycle and circulant offsets wrap by conditional
    /// subtraction, and the torus splits `v` into `(x, y)` with one
    /// widening multiply by the precomputed `⌈2⁶⁴ / side⌉` (Lemire, Kaser
    /// & Kurz, "Faster Remainder by Direct Computation": the quotient is
    /// exact for every 32-bit `v` and divisor).
    #[inline]
    fn row_into(&self, v: u32, row: &mut [u32]) -> usize {
        debug_assert!((v as usize) < self.n, "vertex {v} out of range");
        match &self.family {
            Family::Cycle { n } => {
                let last = (*n - 1) as u32;
                let a = if v == last { 0 } else { v + 1 };
                let b = if v == 0 { last } else { v - 1 };
                row[0] = a.min(b);
                row[1] = a.max(b);
                2
            }
            Family::Torus2d { side, recip } => {
                let s = *side as u32;
                let y = ((u128::from(*recip) * u128::from(v)) >> 64) as u32;
                let base = s * y;
                let x = v - base;
                if s >= 3 {
                    let last = s - 1;
                    // Row band y holds x ± 1; bands y ± 1 hold the column
                    // neighbors. Each pair sorts with one min/max, and the
                    // two sorted pairs merge in a 2+2 network.
                    let (xl, xr) = (
                        if x == 0 { last } else { x - 1 },
                        if x == last { 0 } else { x + 1 },
                    );
                    let (yd, yu) = (
                        if y == 0 { last } else { y - 1 },
                        if y == last { 0 } else { y + 1 },
                    );
                    let (h0, h1) = (base + xl.min(xr), base + xl.max(xr));
                    let (c0, c1) = (x + s * yd.min(yu), x + s * yd.max(yu));
                    let (lo, hi) = (h0.max(c0), h1.min(c1));
                    let row = &mut row[..4];
                    row[0] = h0.min(c0);
                    row[1] = lo.min(hi);
                    row[2] = lo.max(hi);
                    row[3] = h1.max(c1);
                    4
                } else {
                    // side 2: each axis contributes the single edge x↔x^1.
                    let a = (x ^ 1) + base;
                    let b = x + s * (y ^ 1);
                    row[0] = a.min(b);
                    row[1] = a.max(b);
                    2
                }
            }
            Family::Hypercube { d } => {
                // Sorted row in closed form: flipping a *set* bit lowers
                // the value (highest set bit → smallest neighbor), flipping
                // an *unset* bit raises it (lowest unset bit first).
                let mut i = 0;
                for b in (0..*d).rev() {
                    if v & (1 << b) != 0 {
                        row[i] = v ^ (1 << b);
                        i += 1;
                    }
                }
                for b in 0..*d {
                    if v & (1 << b) == 0 {
                        row[i] = v ^ (1 << b);
                        i += 1;
                    }
                }
                i
            }
            Family::Circulant { n, jumps, degree } => {
                let (vu, n) = (v as usize, *n);
                let mut i = 0;
                for &s in jumps {
                    let up = vu + s;
                    row[i] = (if up >= n { up - n } else { up }) as u32;
                    i += 1;
                    if 2 * s != n {
                        row[i] = (if vu >= s { vu - s } else { vu + n - s }) as u32;
                        i += 1;
                    }
                }
                let filled = &mut row[..i];
                filled.sort_unstable();
                debug_assert_eq!(i, *degree);
                i
            }
        }
    }
}

impl GraphBackend for ImplicitGraph {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    fn m(&self) -> usize {
        // Regular of degree d with no self-loops: m = n·d/2 (the half
        // jump's odd degree is always paired with an even n).
        self.n * self.degree_const() / 2
    }

    fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn degree(&self, _v: u32) -> usize {
        self.degree_const()
    }

    #[inline]
    fn neighbor(&self, v: u32, i: usize) -> u32 {
        let mut row = [0u32; MAX_IMPLICIT_DEGREE];
        let d = self.row_into(v, &mut row);
        assert!(i < d, "neighbor index {i} out of range (degree {d})");
        row[i]
    }

    #[inline]
    fn regular_degree(&self) -> Option<usize> {
        Some(self.degree_const())
    }

    #[inline]
    fn fill_row(&self, v: u32, row: &mut [u32]) {
        let d = self.row_into(v, row);
        debug_assert_eq!(row.len(), d);
    }

    #[inline]
    fn for_each_neighbor(&self, v: u32, mut f: impl FnMut(u32)) {
        let mut row = [0u32; MAX_IMPLICIT_DEGREE];
        let d = self.row_into(v, &mut row);
        for &u in &row[..d] {
            f(u);
        }
    }

    fn to_csr(&self) -> Graph {
        match &self.family {
            Family::Cycle { n } => generators::cycle(*n),
            Family::Torus2d { side, .. } => generators::torus_2d(*side),
            Family::Hypercube { d } => generators::hypercube(*d),
            Family::Circulant { n, jumps, .. } => generators::circulant(*n, jumps),
        }
    }

    fn is_connected(&self) -> bool {
        match &self.family {
            Family::Cycle { .. } | Family::Torus2d { .. } | Family::Hypercube { .. } => true,
            // The jumps generate the subgroup gcd(n, s₁, …, s_j)·ℤ_n.
            Family::Circulant { n, jumps, .. } => {
                let mut g = *n;
                for &s in jumps {
                    g = gcd(g, s);
                }
                g == 1
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.name.len()
            + match &self.family {
                Family::Circulant { jumps, .. } => jumps.len() * std::mem::size_of::<usize>(),
                _ => 0,
            }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive cross-backend check: every accessor of the implicit
    /// graph must agree with the materialized generator output.
    fn assert_twin(implicit: &ImplicitGraph) {
        let csr = implicit.to_csr();
        assert_eq!(implicit.name(), GraphBackend::name(&csr));
        assert_eq!(GraphBackend::n(implicit), Graph::n(&csr));
        assert_eq!(GraphBackend::m(implicit), Graph::m(&csr));
        assert_eq!(implicit.regular_degree(), csr.regular_degree());
        assert_eq!(implicit.is_connected(), algo::is_connected(&csr));
        let mut row = vec![0u32; implicit.degree_const()];
        for v in 0..Graph::n(&csr) as u32 {
            assert_eq!(
                GraphBackend::degree(implicit, v),
                Graph::degree(&csr, v),
                "degree({v}) on {}",
                implicit.name()
            );
            implicit.fill_row(v, &mut row);
            assert_eq!(
                row.as_slice(),
                csr.neighbors(v),
                "row {v} on {}",
                implicit.name()
            );
            for i in 0..row.len() {
                assert_eq!(implicit.neighbor(v, i), csr.neighbor(v, i));
            }
            let mut seen = Vec::new();
            implicit.for_each_neighbor(v, |u| seen.push(u));
            assert_eq!(seen.as_slice(), csr.neighbors(v));
        }
    }

    /// The `%`-based row formulas the division-free `row_into` replaced,
    /// kept as the reference it must match (hypercube rows never divided).
    fn reference_row(g: &ImplicitGraph, v: u32) -> Vec<u32> {
        let vu = v as usize;
        let mut row = match &g.family {
            Family::Cycle { n } => vec![((vu + 1) % n) as u32, ((vu + n - 1) % n) as u32],
            Family::Torus2d { side: s, .. } => {
                let (s, x, y) = (*s, vu % s, vu / s);
                if s >= 3 {
                    vec![
                        ((x + 1) % s + s * y) as u32,
                        ((x + s - 1) % s + s * y) as u32,
                        (x + s * ((y + 1) % s)) as u32,
                        (x + s * ((y + s - 1) % s)) as u32,
                    ]
                } else {
                    vec![((x ^ 1) + s * y) as u32, (x + s * (y ^ 1)) as u32]
                }
            }
            Family::Hypercube { .. } => unreachable!("hypercube rows use bit operations"),
            Family::Circulant { n, jumps, .. } => {
                let mut row = Vec::new();
                for &s in jumps {
                    row.push(((vu + s) % n) as u32);
                    if 2 * s != *n {
                        row.push(((vu + n - s) % n) as u32);
                    }
                }
                row
            }
        };
        row.sort_unstable();
        row
    }

    /// `fill_row`, `neighbor` and `for_each_neighbor` all equal the
    /// reference row at every vertex of `vs`.
    fn assert_reference(g: &ImplicitGraph, vs: impl IntoIterator<Item = u32>) {
        let mut row = vec![0u32; g.degree_const()];
        for v in vs {
            let want = reference_row(g, v);
            g.fill_row(v, &mut row);
            assert_eq!(row, want, "fill_row({v}) on {}", g.name());
            for (i, &u) in want.iter().enumerate() {
                assert_eq!(g.neighbor(v, i), u, "neighbor({v}, {i}) on {}", g.name());
            }
            let mut seen = Vec::new();
            g.for_each_neighbor(v, |u| seen.push(u));
            assert_eq!(seen, want, "for_each_neighbor({v}) on {}", g.name());
        }
    }

    /// `count` seeded uniform vertices below `n`.
    fn sample_vertices(n: usize, count: usize, seed: u64) -> Vec<u32> {
        use rand::{rngs::SplitMix64, Rng, SeedableRng};
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..count).map(|_| rng.gen_range(0..n as u32)).collect()
    }

    #[test]
    fn torus_reciprocal_split_matches_division_on_wrap_lines_and_interior() {
        for side in [3usize, 7, 1023, 1024, 1025, 40_000, 65_535] {
            let g = ImplicitGraph::torus_2d(side);
            let last = side - 1;
            let wrap_lines = (0..side).flat_map(|i| {
                [(i, 0), (i, last), (0, i), (last, i)].map(|(x, y)| (x + side * y) as u32)
            });
            assert_reference(&g, wrap_lines);
            assert_reference(&g, sample_vertices(side * side, 4096, side as u64));
        }
    }

    #[test]
    fn cycle_and_circulant_wrap_matches_modulo_near_the_u32_ceiling() {
        for n in [u32::MAX as usize, u32::MAX as usize - 1] {
            let ends = [0, 1, 2, n / 2 - 1, n / 2, n / 2 + 1, n - 3, n - 2, n - 1];
            let vs = || {
                ends.iter()
                    .map(|&v| v as u32)
                    .chain(sample_vertices(n, 4096, 7))
            };
            assert_reference(&ImplicitGraph::cycle(n), vs());
            let mut jumps = vec![1, 3, 1 << 20, n / 2 - 1, n - 5];
            if n % 2 == 0 {
                jumps.push(n / 2); // the half jump: one antipode per vertex
            }
            assert_reference(&ImplicitGraph::circulant(n, &jumps), vs());
        }
    }

    #[test]
    fn cycle_matches_generator() {
        for n in [3, 4, 5, 8, 33, 100] {
            assert_twin(&ImplicitGraph::cycle(n));
        }
    }

    #[test]
    fn torus_matches_generator() {
        for side in [2, 3, 4, 5, 9, 16] {
            assert_twin(&ImplicitGraph::torus_2d(side));
        }
    }

    #[test]
    fn hypercube_matches_generator() {
        for d in 1..=8u32 {
            assert_twin(&ImplicitGraph::hypercube(d));
        }
    }

    #[test]
    fn circulant_matches_generator() {
        for (n, jumps) in [
            (10, vec![1]),
            (10, vec![1, 3]),
            (8, vec![1, 4]), // half jump: odd degree
            (12, vec![2, 3, 6]),
            (9, vec![3]), // disconnected (gcd 3)
            (64, vec![1, 8]),
        ] {
            assert_twin(&ImplicitGraph::circulant(n, &jumps));
        }
    }

    #[test]
    fn circulant_connectivity_is_the_gcd_rule() {
        assert!(ImplicitGraph::circulant(10, &[3]).is_connected());
        assert!(!ImplicitGraph::circulant(10, &[2]).is_connected());
        assert!(!ImplicitGraph::circulant(9, &[3]).is_connected());
        assert!(ImplicitGraph::circulant(9, &[3, 4]).is_connected());
    }

    #[test]
    fn huge_torus_neighbors_computed_without_allocation() {
        // 40_000² = 1.6·10⁹ vertices — far beyond any CSR, trivial here.
        let g = ImplicitGraph::torus_2d(40_000);
        assert_eq!(GraphBackend::n(&g), 1_600_000_000);
        assert!(g.memory_bytes() < 1024);
        assert!(g.is_connected());
        // An interior vertex: neighbors are ±1 in x and ±side in y.
        let v = 40_000u32 * 17 + 5;
        let mut row = [0u32; 4];
        g.fill_row(v, &mut row);
        assert_eq!(row, [v - 40_000, v - 1, v + 1, v + 40_000]);
    }

    #[test]
    fn csr_backend_delegates() {
        let csr = generators::barbell(13);
        assert!(GraphBackend::csr(&csr).is_some());
        assert_eq!(GraphBackend::n(&csr), Graph::n(&csr));
        assert!(GraphBackend::is_connected(&csr));
        let mut row = vec![0u32; Graph::degree(&csr, 0)];
        GraphBackend::fill_row(&csr, 0, &mut row);
        assert_eq!(row.as_slice(), csr.neighbors(0));
    }

    #[test]
    #[should_panic(expected = "side ≥ 2")]
    fn degenerate_torus_rejected() {
        ImplicitGraph::torus_2d(1);
    }

    #[test]
    #[should_panic(expected = "duplicates")]
    fn symmetric_jump_duplicate_rejected() {
        ImplicitGraph::circulant(10, &[3, 7]);
    }
}
