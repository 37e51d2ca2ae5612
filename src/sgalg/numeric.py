"""Floating-point layer: truncations, norms, gauge averaging.

Operator identities are never tested on truncations (corner effects);
truncated matrices serve norm estimation only.  Gauge twists and Fourier
projections are ``OperatorElement``s with complex weights: a twist scales
each term by its index's phase, a projection by its index's phase sum.
Angles are exact turns, and every phase is a ``scalars.turn_phase``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .scalars import GaussianRational, turn_phase
from .operators import LaurentPolynomial, OperatorElement, term_values


def truncate(a: OperatorElement, n: int) -> np.ndarray:
    """Dense N-by-N compression onto the span of the first N basis points of the
    semigroup; entry (i, j) moves basis point s_j to s_i.  It is float64 when
    every weight value is an exact real, else complex128."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    legend = tuple(a.semigroup.element_at(i) for i in range(n))
    values = term_values(a)
    real = all(type(v) is GaussianRational and not v.im for v in values.values())
    mat = np.zeros((n, n), dtype=np.float64 if real else np.complex128)
    members, top = np.array(legend), legend[-1]
    position = np.full(top + 1, -1)
    position[members] = np.arange(n)
    # M_c's rows first, then the units on them
    for (c, d), v in sorted(values.items(), key=lambda kv: kv[0][1] is not None):
        # each value converted once, to the complex() the entries always held
        entry = complex(v).real if real else complex(v)
        if d is None:
            # row[j]: the position of s_j + c, or -1 outside the window
            target = members + c
            row = np.where((target >= 0) & (target <= top),
                           position[np.clip(target, 0, top)], -1)
            cols = np.flatnonzero(row >= 0)
            mat[row[cols], cols] = entry
        elif d <= top and d + c <= top:  # d and d + c are members
            mat[position[d + c], position[d]] = entry
    return mat


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value, as the root of the top eigenvalue of M^H M (one LAPACK call)."""
    mat = np.asarray(m)
    mat = mat.astype(np.result_type(mat.dtype, np.float64), copy=False)
    return math.sqrt(max(0.0, float(np.linalg.eigvalsh(mat.conj().T @ mat)[-1])))


def laurent_sup_norm(f: LaurentPolynomial) -> tuple[float, float]:
    """Grid maximum of |f| at 4096 circle points by one FFT, with a derivative-based bound."""
    samples = 4096
    if f.is_zero:
        return 0.0, 0.0
    placed = np.zeros(samples, dtype=np.complex128)  # coefficients summed at exponent mod samples
    np.add.at(placed, np.array(list(f.terms)) % samples, [complex(v) for v in f.terms.values()])
    value = float(np.abs(np.fft.fft(placed)).max())
    max_exp = max(abs(c) for c in f.terms)
    coeff_sum = sum(abs(v) for v in f.terms.values())
    bound = math.pi * max_exp * coeff_sum / samples
    return value, bound


def gauge_twist(a: OperatorElement, turns) -> OperatorElement:
    """Multiply every index-c key by e^{2πi·c·turns}; complex coefficients.

    turns is an int, Fraction or float, read exactly as Fraction(turns)."""
    t = Fraction(turns)
    phases = {c: turn_phase(c, t) for c in a.indices()}
    return OperatorElement._new(a.semigroup, {k: phases[k[0]] * v for k, v in a.terms.items()})


def fourier_project(a: OperatorElement, target_index: int, samples: int) -> OperatorElement:
    """Average of gauge twists against one character; recovers one grade.

    At the sample angles k/samples turns, each index-c term is scaled by one
    phase sum, of e^{2πi·(c - target)·k/samples}: cost terms + samples x indices."""
    indices = a.indices()
    span = max((abs(c) for c in indices), default=0)
    if samples <= 2 * span:
        raise ValueError(f"need more than {2 * span} samples for index span {span}")
    phase_sums = {}
    for c in indices:
        t = Fraction(c - target_index, samples)
        phase_sums[c] = sum(turn_phase(k, t) for k in range(samples)) / samples
    return OperatorElement._new(a.semigroup, {k: x for k, v in a.terms.items()
                                              if (x := phase_sums[k[0]] * v)})
