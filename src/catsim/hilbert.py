"""Truncated qubit (x) phonon Fock space: states, operators, metrics.

Basis ordering convention: the joint basis is |q, n> with index
q * (n_max + 1) + n, where q = 0 is the qubit ground state |g> and
q = 1 is the excited state |e>.  Phonon-only spaces drop the qubit
factor.  All matrices are dense complex; dimensions stay small enough
(<= ~300) that sparsity buys nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, StateValidationError, TruncationError

_NORM_TOL = 1e-9
_HERM_TOL = 1e-12
_EIG_TOL = 1e-9


@dataclass(frozen=True)
class HilbertSpace:
    """Truncated Fock space, optionally tensored with a qubit.

    n_max is the highest retained Fock index (states 0..n_max).
    """

    n_max: int
    has_qubit: bool = False

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @property
    def phonon_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 2 * self.phonon_dim if self.has_qubit else self.phonon_dim


def default_cutoff(alpha: complex) -> int:
    """Recommended Fock cutoff for a coherent amplitude alpha."""
    a = abs(alpha)
    return max(math.ceil(4.0 * a * a), math.ceil(a * a + 8.0 * a + 10.0))


def max_amplitude(n_max: int) -> float:
    """The largest |alpha| a cutoff n_max admits, sqrt(n_max / 4)."""
    return math.sqrt(n_max / 4.0)


def check_truncation(alpha: complex, n_max: int):
    """Guard |alpha| <= max_amplitude(n_max); raises TruncationError otherwise."""
    if abs(alpha) > max_amplitude(n_max):
        raise TruncationError(
            f"|alpha| = {abs(alpha):.3f} exceeds sqrt(n_max/4) = {max_amplitude(n_max):.3f}; "
            f"increase n_max (recommended >= {default_cutoff(alpha)})"
        )


def _psd_certified(rho: np.ndarray) -> bool:
    """Whether the Hermitian rho has no eigenvalue below -_EIG_TOL.

    rho + _EIG_TOL I has a Cholesky factor exactly when it is positive
    definite, so one factorisation decides the bound, up to d eps roundoff,
    at a fraction of the cost of an eigendecomposition.  Only the lower
    triangle is read.  A nan or inf there leaves a nan on the factor's
    diagonal, where LAPACK need not raise, so the diagonal is checked.
    """
    try:
        factor = np.linalg.cholesky(rho + _EIG_TOL * np.eye(len(rho)))
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor.diagonal()).all())


@dataclass(frozen=True)
class JointState:
    """A pure state vector or density matrix over a HilbertSpace.

    Each state is checked once, where it is made: the constructor checks
    shape, norm or trace, hermiticity and, for a density matrix, that no
    eigenvalue lies below -_EIG_TOL (by _psd_certified, one Cholesky
    factorisation), and freezes data.  Producers that make those checks
    themselves on every state they build (the JC series, lindblad_evolve,
    which certifies its state with the same _psd_certified, css_state) use
    _trusted, which freezes data without checking it again.
    """

    space: HilbertSpace
    data: np.ndarray
    kind: str  # "pure" or "mixed"

    @classmethod
    def _trusted(cls, space: HilbertSpace, data: np.ndarray, kind: str) -> "JointState":
        """The state (space, data, kind), unchecked: data must be a complex array
        that the caller has already checked as the constructor would, with
        _psd_certified for the eigenvalue bound of a density matrix."""
        state = object.__new__(cls)
        object.__setattr__(state, "space", space)
        object.__setattr__(state, "data", data)
        object.__setattr__(state, "kind", kind)
        data.setflags(write=False)
        return state

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", data)
        # a nan passes every tolerance test below, so it is caught first
        if not np.isfinite(data).all():
            raise StateValidationError("state data holds a nan or inf")
        if self.kind == "pure":
            if data.ndim != 1 or data.shape[0] != self.space.dim:
                raise DimensionMismatchError(
                    f"pure state has shape {data.shape}, space dim {self.space.dim}"
                )
            norm = float(np.linalg.norm(data))
            if abs(norm - 1.0) > _NORM_TOL:
                raise StateValidationError(f"pure state norm {norm} deviates from 1")
        elif self.kind == "mixed":
            if data.ndim != 2 or data.shape != (self.space.dim, self.space.dim):
                raise DimensionMismatchError(
                    f"density matrix has shape {data.shape}, space dim {self.space.dim}"
                )
            tr = float(np.trace(data).real)
            if abs(tr - 1.0) > _NORM_TOL:
                raise StateValidationError(f"density matrix trace {tr} deviates from 1")
            if np.max(np.abs(data - data.conj().T)) > max(_HERM_TOL, 1e-10 * np.max(np.abs(data))):
                raise StateValidationError("density matrix is not Hermitian")
            if not _psd_certified(data):
                evals = np.linalg.eigvalsh(data)
                raise StateValidationError(f"density matrix has eigenvalue {evals.min()}")
        else:
            raise ValueError(f"kind must be 'pure' or 'mixed', got {self.kind!r}")
        data.setflags(write=False)

    def density_matrix(self) -> np.ndarray:
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return self.data


def _destroy(phonon_dim: int) -> np.ndarray:
    a = np.zeros((phonon_dim, phonon_dim), dtype=complex)
    for n in range(1, phonon_dim):
        a[n - 1, n] = math.sqrt(n)
    return a


@lru_cache(maxsize=32)
def _displacement_basis(phonon_dim: int):
    """Eigendecomposition of the Hermitian generator -i(a^dag - a)."""
    a = _destroy(phonon_dim)
    h0 = -1j * (a.conj().T - a)
    evals, evecs = np.linalg.eigh(h0)
    return evals, evecs


def displacement_operator(beta: complex, phonon_dim: int) -> np.ndarray:
    """D(beta) = exp(beta a^dag - beta* a) on the truncated phonon space.

    Built from the cached eigendecomposition of -i(a^dag - a) and a phase
    rotation, which is exactly expm of the truncated generator (hence
    unitary) but much faster per point than a fresh expm.
    """
    r = abs(beta)
    evals, evecs = _displacement_basis(phonon_dim)
    core = (evecs * np.exp(1j * r * evals)) @ evecs.conj().T
    if r == 0.0:
        return np.eye(phonon_dim, dtype=complex)
    phi = np.angle(beta)
    phases = np.exp(1j * phi * np.arange(phonon_dim))
    return (phases[:, None] * core) * phases.conj()[None, :]


# distinct radii per Laguerre table in displaced_parity, for a stack of S states: the
# table holds dim^2 x _PARITY_BLOCK reals and the order sums S x dim x _PARITY_BLOCK
# complex values; and points per Horner sum, whose temporaries hold S x _HORNER_POINTS
_PARITY_BLOCK = 128
_HORNER_POINTS = 512


def _laguerre_rows(x: np.ndarray, dim: int):
    """Yield G_n[k, r] = sqrt(n!/(n+k)!) x_r^(k/2) e^(-x_r/2) L_n^(k)(x_r), k < dim - n, by n."""
    k, log_fact = _fock_table(dim - 1)
    k = k[:, None]
    # log x^(k/2), with 0^0 = 1: row k = 0 stays 0, and log 0 = -inf gives 0^(k/2) = 0
    log_pow = np.zeros((dim, len(x)))
    log_pow[1:] = k[1:] / 2 * np.log(x, out=np.full(len(x), -np.inf), where=x > 0)
    prev, cur = np.zeros((dim, len(x))), np.exp(log_pow - x / 2 - 0.5 * log_fact[:, None])
    for n in range(dim):
        yield cur
        k = k[:-1]
        nxt = (2 * n + 1 + k - x) * cur[:-1] - np.sqrt(n * (n + k)) * prev[:dim - n - 1]
        prev, cur = cur, nxt / np.sqrt((n + 1) * (n + 1 + k))


def displaced_parity(states, betas) -> np.ndarray:
    """(S, N) displaced-parity expectations Tr[rho_s D(beta) Pi D^dag(beta)] of a stack of S
    phonon-only states of one dimension d at N points beta; one state is the stack [state].

    Exact for the truncated states, no padding: D(beta) Pi D^dag(beta) = D(2 beta) Pi (Royer,
    PRA 15, 449 (1977)), <n+k|D(2 beta)|n> = G_n[k] z^k with z = e^{i arg beta} at
    x = 4|beta|^2 (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), and with
    S_k = sum_n (-1)^n rho_{n,n+k} G_n[k], <Pi> = Re[S_0 + 2 sum_k z^k S_k], a Horner sum in z.
    The recurrence for G runs once per block of distinct |beta| and fills one table
    G[k, n, r], zero past the edge, for the whole stack; the signed diagonals of all the
    states are gathered once, and each block's sums S_k are one real BLAS product
    (k, r, n) @ (k, n, 2S), Re and Im side by side.  O(d^2 R) for the recurrence and the
    table, O(S d^2 R) in the product and O(S N d) in the Horner sums, at R distinct |beta|.
    A nan or inf beta is a ValueError.
    """
    states = list(states)
    dims = {state.space.dim for state in states}
    if len(dims) != 1 or any(state.space.has_qubit for state in states):
        raise DimensionMismatchError(
            "displaced_parity expects a nonempty stack of phonon-only states of one dimension")
    (dim,) = dims
    betas = np.asarray(betas, dtype=complex).ravel()
    if not np.isfinite(betas).all():
        raise ValueError("displaced_parity needs finite betas")
    n = np.arange(dim)
    col = n + n[:, None]  # col[k, n] = n + k
    # diagonals[k, n, s] = (-1)^n rho_s[n, n + k], zero past the edge, doubled for k > 0
    diagonals = np.where(col[..., None] < dim, np.stack(
        [state.density_matrix()[n, np.minimum(col, dim - 1)] for state in states], axis=-1), 0.0)
    diagonals[:, 1::2] *= -1.0
    diagonals[1:] *= 2.0
    size = np.abs(betas)
    radii, which = np.unique(size, return_inverse=True)
    z = np.exp(1j * np.angle(betas))
    out = np.empty((len(states), len(betas)))
    width = min(len(radii), _PARITY_BLOCK)
    # table[k, n, r] = G_n[k, r], zero past the edge; sums[k, r, s] = S_k of state s at
    # radius r, its Re and Im side by side in one real (k, r, n) @ (k, n, 2S) product
    table = np.zeros((dim, dim, width))
    sums = np.empty((dim, width, 2 * len(states)))
    for lo in range(0, len(radii), _PARITY_BLOCK):
        chunk = radii[lo:lo + _PARITY_BLOCK]
        rows = table[:, :, :len(chunk)]
        for m, g in enumerate(_laguerre_rows(4.0 * chunk ** 2, dim)):
            rows[:dim - m, m] = g
        block_sums = np.matmul(rows.transpose(0, 2, 1), diagonals.view(float),
                               out=sums[:, :len(chunk)]).view(complex)
        # the points at these radii: chunk holds the values of size itself, so the
        # closed interval is exact
        block = np.flatnonzero((size >= chunk[0]) & (size <= chunk[-1]))
        for start in range(0, len(block), _HORNER_POINTS):
            points = block[start:start + _HORNER_POINTS]
            local, zp = which[points] - lo, z[points, None]
            acc = block_sums[-1, local]
            for k in range(dim - 2, -1, -1):
                acc *= zp
                acc += block_sums[k, local]
            out[:, points] = acc.real.T
    return out


def parity_kernels(betas: np.ndarray, dim: int) -> np.ndarray:
    """(N, dim, dim) Hermitian stack K[n+k, n] = (-1)^n G_n[k] e^{ik arg beta} = D Pi D^dag at
    flat complex betas: displaced_parity's elements, exact, no padding, O(d^2 R + N d^2)."""
    phases = np.exp(1j * np.angle(betas)[:, None] * np.arange(dim))
    kernels = np.empty((len(betas), dim, dim), dtype=complex)
    radii, which = np.unique(np.abs(betas), return_inverse=True)
    for n, g in enumerate(_laguerre_rows(4.0 * radii ** 2, dim)):
        col = (-1) ** n * g[:, which].T * phases[:, :dim - n]
        kernels[:, n:, n] = col
        kernels[:, n, n + 1:] = col[:, 1:].conj()
    return kernels


class OperatorSet:
    """Ladder, qubit, and derived operators on a given space.

    On a joint space the phonon operators are identity-padded on the
    qubit factor and vice versa; on a phonon-only space the qubit
    operators are unavailable.
    """

    def __init__(self, space: HilbertSpace):
        self.space = space
        pd = space.phonon_dim
        a_ph = _destroy(pd)
        n_ph = np.diag(np.arange(pd, dtype=float)).astype(complex)
        if space.has_qubit:
            i2 = np.eye(2, dtype=complex)
            self.a = np.kron(i2, a_ph)
            self.number_op = np.kron(i2, n_ph)
            ip = np.eye(pd, dtype=complex)
            sp = np.zeros((2, 2), dtype=complex)
            sp[1, 0] = 1.0  # |e><g|
            self.sigma_plus = np.kron(sp, ip)
            self.sigma_minus = np.kron(sp.T, ip)
            self.sigma_z = np.kron(np.array([[-1, 0], [0, 1]], dtype=complex), ip)
        else:
            self.a = a_ph
            self.number_op = n_ph
            self.sigma_plus = None
            self.sigma_minus = None
            self.sigma_z = None
        self.a_dagger = self.a.conj().T


@lru_cache(maxsize=32)
def _fock_table(n_max: int):
    """Read-only (n, log n!) for n = 0..n_max, cached and shared by its callers."""
    n = np.arange(n_max + 1)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n_max + 1)))))
    n.setflags(write=False)
    log_fact.setflags(write=False)
    return n, log_fact


def coherent_amplitudes(alpha, n_max: int):
    """Truncated coherent-state amplitudes and the norm deficit of the tail.

    The package's one coherent-state kernel.  alpha is one amplitude or an
    array of K; returns (amps, deficit) with amps, of shape (n_max + 1,) or
    (K, n_max + 1), the vectors e^{-|alpha|^2/2} alpha^n / sqrt(n!) on
    0..n_max renormalized, and deficit = 1 - sum |c_n|^2 before
    renormalization, a float or (K,).  A vacuum amplitude gives |0> and 0.0.
    """
    n, log_fact = _fock_table(n_max)
    alpha = np.asarray(alpha, dtype=complex)
    size = np.abs(alpha)[..., None]
    log_mag = -size ** 2 / 2.0 + n * np.log(np.where(size > 0, size, 1.0)) - 0.5 * log_fact
    amps = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha)[..., None])
    amps[alpha == 0] = n == 0
    norm_sq = np.sum(np.abs(amps) ** 2, axis=-1)
    return amps / np.sqrt(norm_sq)[..., None], 1.0 - norm_sq


def coherent_state(alpha: complex, space: HilbertSpace) -> JointState:
    """Truncated, renormalized coherent state |alpha> on a phonon-only space."""
    if space.has_qubit:
        raise DimensionMismatchError("coherent_state builds phonon-only states")
    check_truncation(alpha, space.n_max)
    amps, _ = coherent_amplitudes(alpha, space.n_max)
    return JointState(space, amps, "pure")


def phonon_factor(state: JointState) -> np.ndarray:
    """Phonon factor V = psi_g + psi_e (phonon_dim x 1) of a pure qubit (x) phonon state.

    partial_trace of the state is V V^dag / Tr(V^dag V): both sum the qubit
    blocks, so a low-rank route through V (the analytical cat fit) sees the
    same reduction as partial_trace.  The trace over the qubit would keep
    them as two columns [psi_g psi_e].
    """
    if not state.space.has_qubit or state.kind != "pure":
        raise DimensionMismatchError("phonon_factor expects a pure qubit (x) phonon state")
    blocks = state.data.reshape(2, state.space.phonon_dim)
    return blocks.sum(axis=0)[:, None]


def partial_trace(state: JointState) -> JointState:
    """The phonon state of a qubit (x) phonon state: the sum of its qubit blocks.

    rho_ph[n, m] = sum_ij rho[(i, n), (j, m)], renormalised: the phonon state
    conditioned on the qubit outcome |+x> = (|g> + |e>) / sqrt(2), which is
    not the trace over the qubit (that sums the two diagonal blocks only).
    """
    if not state.space.has_qubit:
        raise DimensionMismatchError("partial_trace needs a qubit (x) phonon state")
    pd = state.space.phonon_dim
    red = np.einsum("injm->nm", state.density_matrix().reshape(2, pd, 2, pd))
    red = 0.5 * (red + red.conj().T)
    red = red / np.trace(red).real
    return JointState(HilbertSpace(state.space.n_max), red, "mixed")


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(mat)
    if evals.min() < -1e-8:
        raise StateValidationError(f"matrix not PSD (min eigenvalue {evals.min()})")
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def fidelity(rho: JointState, sigma: JointState) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    Two mixed states go through two d x d matrix square roots whose
    roundoff eigenvalues (~1e-17) are clipped at 0; on rank-deficient
    pairs the square roots of what survives leave a noise floor of ~1e-8
    in the value.  The cat fits score their low-rank targets through the
    factor instead (catfit._theta_profile), which is exact to roundoff.
    """
    if rho.space.dim != sigma.space.dim:
        raise DimensionMismatchError(
            f"fidelity between dims {rho.space.dim} and {sigma.space.dim}"
        )
    if rho.kind == "pure" and sigma.kind == "pure":
        return float(min(1.0, abs(np.vdot(rho.data, sigma.data))))
    if rho.kind == "pure":
        val = np.vdot(rho.data, sigma.density_matrix() @ rho.data).real
        return float(min(1.0, math.sqrt(max(val, 0.0))))
    if sigma.kind == "pure":
        return fidelity(sigma, rho)
    sr = _psd_sqrt(rho.data)
    inner = _psd_sqrt(sr @ sigma.data @ sr)
    return float(min(1.0, np.trace(inner).real))
