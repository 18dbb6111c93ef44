"""An exact matrix product state (MPS) of W|0...0>.

The evolved state of a truncated instance is only weakly entangled (Vidal,
PRL 91, 147902, 2003), so an MPS of small bond dimension holds it up to
singular values at the rounding level: site i carries a tensor A_i of
shape (l, 2, r), and the amplitude of z_1..z_N is
A_1[:, z_1, :] ... A_N[:, z_N, :].

build_mps applies W's placed factors to |0...0> (Schollwoeck, Ann. Phys.
326, 96, 2011).  Its orthogonality centre is one merged block of
contiguous sites: the tensors left of the block are left-orthonormal,
those right of it right-orthonormal.  Before each factor the block is
made to span exactly the factor's sites.  A site the block gives up is
split off it by SVD, which drops only singular values below CUT times
the largest and adds their squares to the dropped weight delta.  The
centre crosses sites outside both blocks by QR, and the factor's other
sites are merged into the block.  No factor of W is approximated.
Consecutive factors that commute (on disjoint sites, or both diagonal)
form commuting runs, which the simulate module's light cone walks too.
A run is applied in site order from the end nearer the block.  So each
layer of W is one sweep, and the overlapping windows of the diagonal
blocks slide the block one site at a time, with one split per window.

The finished state is right-canonical with its centre on site 1, and
normalised there, so the marginal of a prefix z_1..z_k is one sweep from
the left: P(z_1..z_k) = |A_1[:, z_1, :] ... A_k[:, z_k, :]|^2
(prefix_pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FeasibilityError, StructuralError
from .tensor import MAX_EXEC_AXES, PlacedTensor

# A split keeps the singular values at or above CUT * s_0.
CUT = 1e-15


@dataclass(frozen=True, slots=True)
class MatrixProductState:
    """Right-canonical, normalised tensors of shape (l, 2, r), one per site
    from site 1 on, and the summed weight delta of the singular values the
    build dropped."""

    tensors: tuple[np.ndarray, ...]
    delta: float

    @property
    def bonds(self) -> tuple[int, ...]:
        """The bond dimension between sites i and i+1, for i = 1..N-1."""
        return tuple(a.shape[2] for a in self.tensors[:-1])


def _block(node: PlacedTensor) -> tuple[int, int]:
    """The first and last site of a factor, refused unless its sites are
    contiguous (in any order)."""
    lo, hi = min(node.sites), max(node.sites)
    if hi - lo + 1 != node.width:
        raise StructuralError(
            f"factor {node.name} acts on sites {node.sites}, which are not contiguous "
            "(it wraps past site N)"
        )
    return lo, hi


def _ascending(node: PlacedTensor) -> np.ndarray:
    """A gate's matrix or a diagonal's entries over its sites in ascending
    order."""
    w = node.width
    order = sorted(range(w), key=lambda a: node.sites[a])
    if order == list(range(w)):
        return node.data
    if node.kind == "diag":
        return node.data.reshape((2,) * w).transpose(order).reshape(-1)
    tensor = node.data.reshape((2,) * (2 * w))
    return tensor.transpose(order + [w + a for a in order]).reshape(2**w, 2**w)


def commuting_runs(nodes: Sequence[PlacedTensor]) -> list[range]:
    """The positions of the factors in order, cut into runs of consecutive
    factors that pairwise commute: a gate joins the current run if it
    meets none of the run's sites, a diagonal if it meets none of the
    run's gates."""
    runs: list[range] = []
    start = 0
    sites: set[int] = set()
    gate_sites: set[int] = set()
    for i, node in enumerate(nodes):
        met = gate_sites if node.kind == "diag" else sites
        if not met.isdisjoint(node.sites):
            runs.append(range(start, i))
            start = i
            sites, gate_sites = set(), set()
        sites.update(node.sites)
        if node.kind != "diag":
            gate_sites.update(node.sites)
    if nodes:
        runs.append(range(start, len(nodes)))
    return runs


class _Centre:
    """The MPS under construction: its tensors and the merged block
    tensors[a..b] (0-based), held as one array of shape (l, 2^(b-a+1), r)
    with its sites' bits in ascending order."""

    def __init__(self, n_sites: int) -> None:
        zero = np.array([1.0, 0.0], dtype=complex).reshape(1, 2, 1)
        self.tensors = [zero] * n_sites
        self.block = zero
        self.a = self.b = 0
        self.delta = 0.0

    def _svd(self, matrix: np.ndarray):
        """SVD cut at CUT times the largest singular value; the squares of
        the dropped ones go into delta."""
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
        k = int(np.count_nonzero(s >= CUT * s[0]))
        self.delta += float(s[k:] @ s[k:])
        return u[:, :k], s[:k], vh[:k]

    def split_left(self) -> None:
        """Split the block's first site off, left-orthonormal."""
        l, m, r = self.block.shape
        u, s, vh = self._svd(self.block.reshape(2 * l, -1))
        self.tensors[self.a] = u.reshape(l, 2, -1)
        self.block = (s[:, None] * vh).reshape(-1, m // 2, r)
        self.a += 1

    def split_right(self) -> None:
        """Split the block's last site off, right-orthonormal."""
        l, m, r = self.block.shape
        u, s, vh = self._svd(self.block.reshape(-1, 2 * r))
        self.tensors[self.b] = vh.reshape(-1, 2, r)
        self.block = (u * s).reshape(l, m // 2, -1)
        self.b -= 1

    def step_right(self) -> None:
        """Move a one-site block to the next site by QR."""
        l, _, r = self.block.shape
        q, rest = np.linalg.qr(self.block.reshape(2 * l, r))
        self.tensors[self.a] = q.reshape(l, 2, -1)
        nxt = self.tensors[self.a + 1]
        self.block = (rest @ nxt.reshape(r, -1)).reshape(-1, 2, nxt.shape[2])
        self.a = self.b = self.a + 1

    def step_left(self) -> None:
        """Move a one-site block to the previous site by QR."""
        l, _, r = self.block.shape
        q, rest = np.linalg.qr(self.block.reshape(l, 2 * r).T)
        self.tensors[self.a] = q.T.reshape(-1, 2, r)
        prev = self.tensors[self.a - 1]
        self.block = (prev.reshape(-1, l) @ rest.T).reshape(prev.shape[0], 2, -1)
        self.a = self.b = self.a - 1

    def span(self, lo: int, hi: int, name: str) -> None:
        """Make the block span exactly sites lo..hi.  Refused with a
        FeasibilityError, before the merge, if it would hold more than
        2^MAX_EXEC_AXES entries."""
        while self.a < min(lo, self.b):
            self.split_left()
        while self.b > max(hi, self.a):
            self.split_right()
        while self.b < lo:
            self.step_right()
        while self.a > hi:
            self.step_left()
        left = self.tensors[lo].shape[0] if lo < self.a else self.block.shape[0]
        right = self.tensors[hi].shape[2] if hi > self.b else self.block.shape[2]
        w = hi - lo + 1
        if left * 2**w * right > 2**MAX_EXEC_AXES:
            raise FeasibilityError(
                f"the MPS block of factor {name} on sites {lo + 1}..{hi + 1} has "
                f"{left} * 2^{w} * {right} entries, above the 2^{MAX_EXEC_AXES} engine cap"
            )
        while self.a > lo:
            prev = self.tensors[self.a - 1]
            l, m, r = self.block.shape
            self.block = (prev.reshape(-1, l) @ self.block.reshape(l, -1)).reshape(
                prev.shape[0], 2 * m, r
            )
            self.a -= 1
        while self.b < hi:
            nxt = self.tensors[self.b + 1]
            l, m, r = self.block.shape
            self.block = (self.block.reshape(-1, r) @ nxt.reshape(r, -1)).reshape(
                l, 2 * m, nxt.shape[2]
            )
            self.b += 1


def build_mps(
    n_sites: int, nodes: Sequence[PlacedTensor], runs: Sequence[range]
) -> MatrixProductState:
    """MPS of the product of the application-ordered gates and diagonals
    applied to |0...0> on n_sites sites, given their commuting_runs.
    Refused with a StructuralError if a factor's sites are not contiguous,
    and with a FeasibilityError if a merged block of l * 2^w * r entries
    would exceed 2^MAX_EXEC_AXES; both are checked before the block is
    allocated."""
    for node in nodes:
        _block(node)
    centre = _Centre(n_sites)
    for run in runs:
        run = sorted((nodes[i] for i in run), key=lambda node: min(node.sites))
        first, last = min(run[0].sites) - 1, max(max(node.sites) for node in run) - 1
        if abs(centre.b - last) < abs(centre.a - first):
            run.reverse()
        for node in run:
            lo, hi = (s - 1 for s in _block(node))
            centre.span(lo, hi, node.name)
            if node.kind == "gate":
                centre.block = np.matmul(_ascending(node), centre.block)
            else:
                centre.block = centre.block * _ascending(node)[:, None]
    while centre.b > centre.a:
        centre.split_right()
    while centre.a > 0:
        centre.step_left()
    tensors = centre.tensors
    tensors[0] = centre.block / np.linalg.norm(centre.block)
    return MatrixProductState(tuple(np.ascontiguousarray(a) for a in tensors), centre.delta)


def prefix_pair(mps: MatrixProductState, bits: Sequence[int]) -> tuple[float, float]:
    """(P(bits, 0), P(bits, 1)): the weights of the two outcomes of site
    len(bits) + 1 after the prefix bits on sites 1..len(bits), by one sweep
    v <- v A_w[:, b_w, :] from the left."""
    tensors = mps.tensors
    v = np.ones(1, dtype=complex)
    for a, b in zip(tensors, bits):
        v = v @ a[:, b, :]
    pair = v @ tensors[len(bits)].transpose(1, 0, 2)
    p0, p1 = (float(np.vdot(x, x).real) for x in pair)
    return p0, p1
