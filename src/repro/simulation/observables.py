"""Pauli-string observables and expectation values.

Expectation values are the bread and butter of variational workflows;
this module evaluates ``<psi| P |psi>`` for Pauli strings ``P`` without
ever materializing the ``2^n x 2^n`` operator or applying a gate.  One
evaluator serves single states and ``(P, 2^n)`` sweep batches alike:
each string is written as ``P = i^ny X^x Z^z`` (``x``/``z`` the qubits
carrying X-or-Y/Z-or-Y, ``ny`` the number of Y letters), so

    ``(P psi)_i = i^ny (-1)^popcount((i ^ x) & z) psi_{i ^ x}``.

Terms are grouped by ``x``: a group costs one elementwise product of
half the amplitudes with their bit-flipped partners (``np.flip`` over
the ``x`` axes of the ``(B, 2, ..., 2)`` tensor, a view rather than a
gather) plus one product with a matrix of ``+-1`` sign columns, one
per term.  There are at most ``min(#terms, 2^n)`` groups, so the cost
never exceeds a dense mat-vec's.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import StateError
from repro.utils.bits import bit_length_for
from repro.utils.linalg import kron_all

__all__ = ["pauli_matrix", "expectation", "variance", "PauliSum"]

#: byte budget of one evaluation block: batches are evaluated a few
#: rows at a time (and sign matrices a few columns at a time) so the
#: temporaries stay a fraction of the batch instead of its full size.
_BLOCK_BYTES = 1 << 18

_PAULI = {
    "i": np.eye(2, dtype=np.complex128),
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.diag([1.0, -1.0]).astype(np.complex128),
}

#: the per-qubit sign factor ``(-1)^bit`` of a Z letter
_PLUS_MINUS = np.array([1.0, -1.0])


def _check_pauli(pauli: str) -> str:
    p = pauli.lower()
    if not p or any(c not in "ixyz" for c in p):
        raise StateError(
            f"invalid Pauli string {pauli!r}; expected letters from IXYZ"
        )
    return p


def pauli_matrix(pauli: str) -> np.ndarray:
    """The dense matrix of a Pauli string (first letter = ``q0``)."""
    p = _check_pauli(pauli)
    return kron_all([_PAULI[c] for c in p])


def _pauli_groups(terms) -> dict:
    """Group validated ``(coefficient, pauli)`` terms by X-mask.

    Returns ``{x: [(weight, z, imag), ...]}`` with ``x``/``z`` the
    sorted qubits carrying X-or-Y/Z-or-Y.  For ``x`` non-empty only the
    amplitudes whose first ``x`` qubit reads 0 are visited: their
    partners ``i ^ x`` contribute the complex conjugate times
    ``(-1)^ny``, so a term equals ``weight`` times the real part
    (``ny`` even) or imaginary part (``ny`` odd) of the half sum, with
    the factors 2 and ``(-i)^ny`` folded into ``weight``.
    """
    groups: dict = {}
    for coef, p in terms:
        x = tuple(q for q, c in enumerate(p) if c in "xy")
        z = tuple(q for q, c in enumerate(p) if c in "yz")
        ny = p.count("y")
        weight = float(coef) if ny % 4 < 2 else -float(coef)
        if x:
            weight *= 2.0
        groups.setdefault(x, []).append((weight, z, ny % 2 == 1))
    return groups


def _sign_columns(zs, axes_of, n: int, dtype) -> np.ndarray:
    """``(2^n, len(zs))`` matrix of ``(-1)^popcount(i & z)`` columns,
    built by per-qubit ``+-1`` broadcasting.  ``axes_of`` maps a qubit
    to its axis in the ``n``-qubit layout (``None``: fixed to 0)."""
    out = np.empty((1 << n, len(zs)), dtype=dtype)
    for k, z in enumerate(zs):
        sign = np.ones((1,) * n)
        for q in z:
            axis = axes_of(q)
            if axis is not None:
                shape = [1] * n
                shape[axis] = 2
                sign = sign * _PLUS_MINUS.reshape(shape)
        out[:, k] = np.broadcast_to(sign, (2,) * n).reshape(-1)
    return out


def _pauli_chunks(terms, n: int):
    """Yield one evaluation chunk per X-mask group (or per slice of a
    group whose sign matrix would outgrow :data:`_BLOCK_BYTES`):
    ``(split, flips, signs, weights, imag)``.

    ``split`` is the first X qubit (``None`` for the diagonal group)
    and ``flips`` the other X qubits, whose axes get reversed in the
    partner half.
    """
    for x, group in _pauli_groups(terms).items():
        if x:
            split, flips, width, dtype = x[0], x[1:], n - 1, np.complex128

            def axes_of(q, split=split):
                # the split qubit reads 0 in the visited half
                if q == split:
                    return None
                return q if q < split else q - 1
        else:
            split, flips, width, dtype = None, (), n, np.float64
            axes_of = int
        per = max(1, _BLOCK_BYTES // (np.dtype(dtype).itemsize << width))
        for lo in range(0, len(group), per):
            chunk = group[lo:lo + per]
            yield (
                split,
                flips,
                _sign_columns([z for _w, z, _i in chunk], axes_of,
                              width, dtype),
                np.array([w for w, _z, _i in chunk]),
                np.array([i for _w, _z, i in chunk]),
            )


def _pauli_expectations(chunks, states: np.ndarray, n: int) -> np.ndarray:
    """``sum_k c_k <psi_r| P_k |psi_r>`` for every row ``r`` of a
    ``(B, 2^n)`` batch, evaluated a block of rows at a time."""
    nb_rows = states.shape[0]
    rows = max(1, _BLOCK_BYTES // (16 << n))
    out = np.zeros(nb_rows)
    for split, flips, signs, weights, imag in chunks:
        for lo in range(0, nb_rows, rows):
            block = np.asarray(states[lo:lo + rows], dtype=np.complex128)
            b = block.shape[0]
            if split is None:
                vals = (block.real ** 2 + block.imag ** 2) @ signs
            else:
                view = block.reshape((b,) + (2,) * n)
                head = (slice(None),) * (1 + split)
                # after dropping the split axis, qubit q > split sits
                # at axis q; the flip is a view, not a gather
                partner = view[head + (1,)]
                if flips:
                    partner = np.flip(partner, axis=flips)
                pairs = view[head + (0,)].conj() * partner
                acc = pairs.reshape(b, -1) @ signs
                vals = np.where(imag, acc.imag, acc.real)
            out[lo:lo + b] += vals @ weights
    return out


def _as_batch(states, n: int, what: str) -> np.ndarray:
    """``states`` as a ``(B, 2^n)`` array (1-D input is one row)."""
    s = np.asarray(states)
    if s.ndim == 1:
        s = s[None, :]
    if s.ndim != 2 or s.shape[1] != 1 << n:
        raise StateError(
            f"{what} of dimension {s.shape[-1]} does not match "
            f"{n} qubit(s)"
        )
    return s


def expectation(state, pauli: str) -> float:
    """``<psi| P |psi>`` for a Pauli string ``P`` (a real number).

    >>> expectation([1, 0], 'z')
    1.0
    """
    psi = np.asarray(state).ravel()
    p = _check_pauli(pauli)
    n = bit_length_for(psi.size)
    if len(p) != n:
        raise StateError(
            f"Pauli string of length {len(p)} does not match "
            f"{n} qubit(s)"
        )
    chunks = _pauli_chunks([(1.0, p)], n)
    return float(_pauli_expectations(chunks, psi[None, :], n)[0])


def variance(state, pauli: str) -> float:
    """``<P^2> - <P>^2``; since ``P^2 = I`` this is ``1 - <P>^2``."""
    e = expectation(state, pauli)
    return max(0.0, 1.0 - e * e)


class PauliSum:
    """A real-weighted sum of Pauli strings (an observable/Hamiltonian).

    >>> h = PauliSum([(0.5, 'zz'), (-1.0, 'xi')])
    >>> round(h.expectation([1, 0, 0, 0]), 6)
    0.5
    """

    def __init__(self, terms: Sequence[Tuple[float, str]]):
        if not terms:
            raise StateError("PauliSum requires at least one term")
        lengths = {len(p) for _c, p in terms}
        if len(lengths) != 1:
            raise StateError(
                f"all Pauli strings must have equal length, got {lengths}"
            )
        self._terms = [
            (float(c), _check_pauli(p)) for c, p in terms
        ]
        self._chunks = None

    @property
    def terms(self):
        """The ``(coefficient, pauli)`` terms."""
        return list(self._terms)

    @property
    def nbQubits(self) -> int:
        """Register width the observable acts on."""
        return len(self._terms[0][1])

    def matrix(self) -> np.ndarray:
        """The dense operator (small registers only)."""
        return sum(c * pauli_matrix(p) for c, p in self._terms)

    def _evaluation_chunks(self):
        """The evaluator's sign matrices, kept when they total at most
        :data:`_BLOCK_BYTES` (repeated small-register evaluations then
        skip rebuilding them) and regenerated per call otherwise."""
        if self._chunks is not None:
            return self._chunks
        n = self.nbQubits
        chunks = _pauli_chunks(self._terms, n)
        if len(self._terms) << (n + 3) <= _BLOCK_BYTES:
            chunks = self._chunks = list(chunks)
        return chunks

    def expectation(self, state) -> float:
        """``sum_k c_k <psi| P_k |psi>``."""
        n = self.nbQubits
        psi = _as_batch(np.asarray(state).ravel(), n, "state")
        return float(_pauli_expectations(self._evaluation_chunks(), psi, n)[0])

    def expectations(self, states) -> np.ndarray:
        """Batched expectations over a ``(P, 2**n)`` stack of states.

        The vectorized companion of :meth:`expectation` for parameter
        sweeps: one call evaluates every row of a
        :meth:`~repro.circuit.QCircuit.sweep` state batch.

        >>> PauliSum([(1.0, 'z')]).expectations([[1, 0], [0, 1]])
        array([ 1., -1.])
        """
        n = self.nbQubits
        s = _as_batch(states, n, "states")
        return _pauli_expectations(self._evaluation_chunks(), s, n)

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*{p.upper()}" for c, p in self._terms)
        return f"PauliSum({inner})"
