"""Transform matrices for fast convolution and fast deconvolution.

The paper expresses both operations with one formula (Eq. 1):

    V = A^T [ (G W G^T) ⊙ (B^T X B) ] A

where A, B, G are small constant matrices.  This module provides

* the paper's exact published matrices — Eq. (2)-(3) for the Winograd
  convolution ``F(2x2, 3x3)`` and Eq. (4)-(5) for the FTA deconvolution
  ``T3(6x6, 4x4)`` — as verified constants, and
* general constructors: :func:`cook_toom_conv` builds ``F(m, k)`` from
  interpolation points (Lavin & Gray's Winograd construction), and
  :func:`fta_deconv` builds ``Tr(m x m, k x k)`` for any order ``r`` and
  stride ``s`` by stacking per-phase Winograd transforms of the stride-
  decomposed sub-kernels — the construction of Mao et al. (FTA-GAN)
  that the paper adopts.

All 1-D matrices use the convention of Eq. (1): for an input tile
``x`` (length p) and kernel ``g`` (length k),

    y = A^T [ (G g) ⊙ (B^T x) ]            (length m)

with transform-domain size mu (= rows of G = rows of B^T).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

__all__ = [
    "TransformSpec",
    "cook_toom_conv",
    "fta_deconv",
    "PAPER_F23",
    "PAPER_T3_64",
    "DEFAULT_POINTS",
]

#: Interpolation points used in order by the Cook-Toom constructor;
#: small magnitudes keep the transforms well conditioned.
DEFAULT_POINTS: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(4),
    Fraction(-4),
)


@dataclass(frozen=True)
class TransformSpec:
    """The (A, B, G) triple and geometry of one fast algorithm.

    Attributes
    ----------
    kind:    "conv" (Winograd) or "deconv" (FTA).
    m:       output tile size (per axis).
    k:       kernel size (per axis).
    p:       input tile size (per axis).
    mu:      transform-domain size (per axis); mu*mu multiplications
             per 2-D tile.
    stride:  deconv upsampling stride (1 for conv).
    a, b, g: matrices with A (mu x m), B (p x mu), G (mu x k) so that
             y = A^T [(G w) ⊙ (B^T x)].
    input_step:   input-tile advance between adjacent tiles.
    output_offset: index of the first produced output sample in the
             un-cropped ("full") operator output — 0 for conv on a
             padded input, k-1 for the FTA deconv.
    """

    kind: str
    m: int
    k: int
    p: int
    mu: int
    stride: int
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    input_step: int = 0
    output_offset: int = 0

    def __post_init__(self) -> None:
        if self.a.shape != (self.mu, self.m):
            raise ValueError(f"A shape {self.a.shape}, expected {(self.mu, self.m)}")
        if self.b.shape != (self.p, self.mu):
            raise ValueError(f"B shape {self.b.shape}, expected {(self.p, self.mu)}")
        if self.g.shape != (self.mu, self.k):
            raise ValueError(f"G shape {self.g.shape}, expected {(self.mu, self.k)}")

    def astype(self, dtype) -> "TransformSpec":
        """This spec with A, B and G in ``dtype`` (itself when they are
        already): the kernels run their transforms in the dtype of
        their operands, so float32 activations stay float32."""
        if self.a.dtype == dtype:
            return self
        return replace(
            self, a=self.a.astype(dtype), b=self.b.astype(dtype), g=self.g.astype(dtype)
        )

    # -- 1-D reference execution (used by tests and by the 2-D kernels)
    def transform_input_1d(self, x: np.ndarray) -> np.ndarray:
        return self.b.T @ x

    def transform_kernel_1d(self, g: np.ndarray) -> np.ndarray:
        return self.g @ g

    def apply_1d(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """y = A^T [(G g) ⊙ (B^T x)] for 1-D tiles."""
        return self.a.T @ (self.transform_kernel_1d(g) * self.transform_input_1d(x))

    # -- 2-D tile execution -------------------------------------------
    def transform_input_2d(self, x: np.ndarray) -> np.ndarray:
        """B^T X B for one (p, p) tile (or batched (..., p, p))."""
        return np.einsum("ip,...pq,qj->...ij", self.b.T, x, self.b)

    def transform_kernel_2d(self, w: np.ndarray) -> np.ndarray:
        """G W G^T for one (k, k) kernel (or batched (..., k, k))."""
        return np.einsum("ik,...kl,jl->...ij", self.g, w, self.g)

    def inverse_transform_2d(self, u: np.ndarray) -> np.ndarray:
        """A^T U A for one (mu, mu) product (or batched)."""
        return np.einsum("mi,...ij,jn->...mn", self.a.T, u, self.a)

    def apply_2d(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Full Eq. (1) on a single tile pair."""
        return self.inverse_transform_2d(
            self.transform_kernel_2d(w) * self.transform_input_2d(x)
        )

    # -- accounting ----------------------------------------------------
    @property
    def multiplications_per_tile(self) -> int:
        """Hadamard multiplications for one dense 2-D tile (mu*mu)."""
        return self.mu * self.mu

    def direct_multiplications_per_tile(self) -> int:
        """Multiplications a direct implementation needs for the same
        m x m output tile."""
        if self.kind == "conv":
            return self.m * self.m * self.k * self.k
        # Deconv: each output touches ceil(k/s)^2 kernel taps.
        taps = -(-self.k // self.stride)
        return self.m * self.m * taps * taps

    @property
    def speedup(self) -> float:
        """Dense multiplication reduction of the fast algorithm."""
        return self.direct_multiplications_per_tile() / self.multiplications_per_tile


def _fraction_matrix_to_float(rows: list[list[Fraction]]) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in rows], dtype=np.float64)


def _vandermonde(points: list[Fraction], width: int) -> list[list[Fraction]]:
    """Rows evaluate a degree-(width-1) polynomial at each point, with a
    final "infinity" row selecting the leading coefficient."""
    rows = [[point**exp for exp in range(width)] for point in points]
    rows.append([Fraction(1) if exp == width - 1 else Fraction(0) for exp in range(width)])
    return rows


def _invert_fraction_matrix(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact Gauss-Jordan inversion over the rationals."""
    n = len(rows)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular evaluation matrix (duplicate points?)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def cook_toom_conv(m: int, k: int, points: tuple[Fraction, ...] | None = None) -> TransformSpec:
    """Construct Winograd ``F(m, k)`` transforms from interpolation points.

    Derivation: valid convolution is the transpose of polynomial
    multiplication, so with the evaluation matrix V over ``m + k - 2``
    finite points plus infinity, ``A`` and ``G`` evaluate the operands
    and ``B^T = V^{-T}`` plays interpolation's adjoint:
    ``y = A^T [(G g) ⊙ (B^T d)]``.  Exact rational arithmetic keeps the
    matrices free of rounding error.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    alpha = m + k - 1
    n_finite = alpha - 1
    pool = points or DEFAULT_POINTS
    if n_finite > len(pool):
        raise ValueError(
            f"F({m},{k}) needs {n_finite} points, only {len(pool)} provided"
        )
    pts = list(pool[:n_finite])

    a_rows = _vandermonde(pts, m)  # (alpha, m)
    g_rows = _vandermonde(pts, k)  # (alpha, k)
    v_rows = _vandermonde(pts, alpha)  # (alpha, alpha) evaluation matrix
    v_inv = _invert_fraction_matrix(v_rows)
    # B^T = (V^{-1})^T  =>  B = V^{-1}
    b_rows = v_inv  # B is (p x mu) with p = mu = alpha

    return TransformSpec(
        kind="conv",
        m=m,
        k=k,
        p=alpha,
        mu=alpha,
        stride=1,
        a=_fraction_matrix_to_float(a_rows),
        b=_fraction_matrix_to_float(b_rows),
        g=_fraction_matrix_to_float(g_rows),
        input_step=m,
        output_offset=0,
    )


def fta_deconv(
    r: int, s: int, k: int, points: tuple[Fraction, ...] | None = None
) -> TransformSpec:
    """Construct the FTA fast deconvolution ``Tr(m x m, k x k)``.

    A stride-``s`` transposed convolution decomposes into ``s`` phase
    outputs ``y[s*t + phi] = sum_u x[t - u] * g[s*u + phi]`` — each an
    ordinary convolution of the input with the stride-decomposed
    sub-kernel.  Each phase is then Winograd-accelerated with
    ``F(r, ceil(k/s))`` and the phase outputs interleave into an
    ``m = r*s`` tile.  Stacking the per-phase transforms row-wise yields
    single (A, B, G) matrices so the SFTC hardware can treat conv and
    deconv uniformly.

    The produced tile corresponds to full-output indices
    ``[k-1, k-1 + r*s)``; adjacent tiles advance the input by ``r``.
    """
    if s < 1:
        raise ValueError("stride must be >= 1")
    if k < s:
        raise ValueError("kernel must be >= stride")
    ksub = -(-k // s)  # ceil
    m = r * s
    alpha = r + ksub - 1  # per-phase transform size
    mu = s * alpha
    base = cook_toom_conv(r, ksub, points)

    # Output tile = full-output indices [k-1, k-1 + r*s).
    # Phase phi produces outputs n = s*t + phi; those n fall in the tile
    # for t in [t0(phi), t0(phi) + r) with t0 = ceil((k - 1 - phi) / s).
    # Phase phi needs inputs x[t - ksub + 1 .. t], i.e. a window of
    # alpha = r + ksub - 1 samples starting at w(phi) = t0 - ksub + 1.
    t0 = [-(-(k - 1 - phi) // s) for phi in range(s)]
    w_start = [t0[phi] - ksub + 1 for phi in range(s)]
    i0 = min(w_start)
    p = max(w_start[phi] + alpha for phi in range(s)) - i0

    a = np.zeros((mu, m))
    b = np.zeros((p, mu))
    g = np.zeros((mu, k))
    for phi in range(s):
        rows = slice(phi * alpha, (phi + 1) * alpha)
        # Input windows: embed the per-phase B into the union window.
        col0 = w_start[phi] - i0
        b[col0 : col0 + alpha, rows] = base.b
        # Kernel: phase sub-kernel g_phi[u] = g[s*u + phi], reversed
        # (convolution vs the correlation the Winograd transform computes).
        select = np.zeros((ksub, k))
        for u in range(ksub):
            tap = s * (ksub - 1 - u) + phi
            if tap < k:
                select[u, tap] = 1.0
        g[rows] = base.g @ select
        # Outputs: phase phi fills tile positions s*t + phi - (k-1).
        for local_t in range(r):
            out_index = s * (t0[phi] + local_t) + phi - (k - 1)
            a[rows, out_index] = base.a[:, local_t]

    return TransformSpec(
        kind="deconv",
        m=m,
        k=k,
        p=p,
        mu=mu,
        stride=s,
        a=a,
        b=b,
        g=g,
        input_step=r,
        output_offset=k - 1,
    )


def _paper_f23() -> TransformSpec:
    """The exact matrices of Eq. (2)-(3): Winograd F(2x2, 3x3)."""
    bt = np.array(
        [
            [1, 0, -1, 0],
            [0, 1, 1, 0],
            [0, -1, 1, 0],
            [0, 1, 0, -1],
        ],
        dtype=np.float64,
    )
    g = np.array(
        [
            [1, 0, 0],
            [0.5, 0.5, 0.5],
            [0.5, -0.5, 0.5],
            [0, 0, 1],
        ],
        dtype=np.float64,
    )
    at = np.array(
        [
            [1, 1, 1, 0],
            [0, 1, -1, -1],
        ],
        dtype=np.float64,
    )
    return TransformSpec(
        kind="conv",
        m=2,
        k=3,
        p=4,
        mu=4,
        stride=1,
        a=at.T,
        b=bt.T,
        g=g,
        input_step=2,
        output_offset=0,
    )


def _paper_t3_64() -> TransformSpec:
    """The exact matrices of Eq. (4)-(5): FTA T3(6x6, 4x4), stride 2."""
    bt = np.array(
        [
            [1, 0, -1, 0, 0],
            [0, 1, 1, 0, 0],
            [0, -1, 1, 0, 0],
            [0, -1, 0, 1, 0],
            [0, 1, 0, -1, 0],
            [0, 0, 1, 1, 0],
            [0, 0, -1, 1, 0],
            [0, 0, -1, 0, 1],
        ],
        dtype=np.float64,
    )
    g = np.array(
        [
            [0, 0, 0, 1],
            [0, 0.5, 0, 0.5],
            [0, -0.5, 0, 0.5],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0.5, 0, 0.5, 0],
            [-0.5, 0, 0.5, 0],
            [1, 0, 0, 0],
        ],
        dtype=np.float64,
    )
    at = np.array(
        [
            [1, 1, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 1, 1, 0],
            [0, 1, -1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, -1, 0],
            [0, 1, 1, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 1, 1],
        ],
        dtype=np.float64,
    )
    return TransformSpec(
        kind="deconv",
        m=6,
        k=4,
        p=5,
        mu=8,
        stride=2,
        a=at.T,
        b=bt.T,
        g=g,
        input_step=3,
        output_offset=3,
    )


#: Eq. (2)-(3): the paper's F(2x2, 3x3) — 16 multiplications for a 2x2
#: output tile of a 3x3 convolution (vs 36 direct).
PAPER_F23: TransformSpec = _paper_f23()

#: Eq. (4)-(5): the paper's T3(6x6, 4x4) stride-2 fast deconvolution —
#: 64 multiplications for a 6x6 output tile (vs 144 direct).
PAPER_T3_64: TransformSpec = _paper_t3_64()
