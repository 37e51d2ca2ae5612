"""Floating-point verification layer: truncations, norms, gauge averaging.

Operator identities are never tested on truncations (corner effects);
truncated matrices serve norm estimation only.  Gauge twists and Fourier
projections are ``OperatorElement``s with complex weights: a twist scales
each term by its index's phase, a projection by its index's phase sum.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .scalars import GaussianRational
from .semigroup import NumericalSemigroup
from .operators import LaurentPolynomial, OperatorElement, term_values, toeplitz_lift
from .quantum import FreeElement, coproduct, rep, tensor_of
from .translations import elementary, evaluate_word


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


def laurent_sup_norm(f: LaurentPolynomial, samples: int = 4096) -> tuple[float, float]:
    """Grid maximum of |f| on the circle, by one FFT, with a derivative-based error bound."""
    if samples < 16:
        raise ValueError("need at least 16 samples")
    if f.is_zero:
        return 0.0, 0.0
    placed = np.zeros(samples, dtype=np.complex128)  # coefficients summed at exponent mod samples
    np.add.at(placed, np.array(list(f.terms)) % samples, [complex(v) for v in f.terms.values()])
    value = float(np.abs(np.fft.fft(placed)).max())
    max_exp = max(abs(c) for c in f.terms)
    coeff_sum = sum(abs(v) for v in f.terms.values())
    bound = math.pi * max_exp * coeff_sum / samples
    return value, bound


def norm_convergence(f: LaurentPolynomial, semigroup: NumericalSemigroup,
                     dims: Sequence[int] = (64, 128, 256, 512), band: float = 0.05,
                     samples: int = 4096) -> dict:
    """Truncated norms of the lifted symbol against the circle sup norm.

    Each truncation is the leading block of the next, so the exact norms never
    decrease; the computed sequence must not drop by more than rounding
    (1e-12 relative to the value, at least 1e-12) and must land within the
    acceptance band at the largest dimension.
    """
    if list(dims) != sorted(dims):
        raise ValueError("dimensions must increase")
    largest = truncate(toeplitz_lift(f, semigroup), dims[-1])
    values = [operator_norm(largest[:n, :n]) for n in dims]
    sup, sup_err = laurent_sup_norm(f, samples)
    monotone = all(b >= a - 1e-12 * max(1.0, a) for a, b in zip(values, values[1:]))
    final_gap = abs(values[-1] - sup)
    passed = monotone and final_gap <= band
    return {
        "claim": "truncated norms of the lifted symbol approach the sup norm",
        "parameters": {"symbol": str(f), "semigroup": str(semigroup),
                       "dims": list(dims), "band": band},
        "computed": {"norms": values, "sup_norm": sup, "sup_norm_error": sup_err,
                     "final_gap": final_gap, "monotone": monotone},
        "expected": {"final_gap_at_most": band, "monotone": True},
        "tolerance": band,
        "pass": passed,
    }


def gauge_twist(a: OperatorElement, theta: float) -> OperatorElement:
    """Multiply every index-c key by exp(i*c*theta); complex coefficients."""
    phases = {c: cmath.exp(1j * c * theta) for c in a.indices()}
    return OperatorElement._new(a.semigroup, {k: phases[k[0]] * v for k, v in a.terms.items()})


def fourier_project(a: OperatorElement, target_index: int, samples: int) -> OperatorElement:
    """Average of gauge twists against one character; recovers one grade.

    Each index-c term is scaled by one phase sum: cost terms + samples x indices."""
    indices = a.indices()
    span = max((abs(c) for c in indices), default=0)
    if samples <= 2 * span:
        raise ValueError(f"need more than {2 * span} samples for index span {span}")
    thetas = [2.0 * math.pi * k / samples for k in range(samples)]
    character = [cmath.exp(-1j * target_index * theta) / samples for theta in thetas]
    phase_sums = {c: sum(cmath.exp(1j * c * theta) * w for theta, w in zip(thetas, character))
                  for c in indices}
    return OperatorElement._new(a.semigroup, {k: x for k, v in a.terms.items()
                                              if (x := phase_sums[k[0]] * v)})


def shift_example_check() -> dict:
    """Regression for the two factor orders of the combined shift over S(2,3).

    Builds both orders of the projection-times-shift summand, reports which
    one acts as the enumeration shift on fifty basis points, and compares the
    diagonal coproduct of the working shift against its plain tensor square,
    reporting the first differing pair and the agreeing diagonal.
    """
    s = NumericalSemigroup([2, 3])
    projection_word = ((3, True), (2, False), (2, True), (3, False))
    p_tilde = evaluate_word(s, projection_word)
    t2 = elementary(s, 2, False)
    t2s_t3 = evaluate_word(s, ((2, True), (3, False)))

    one = FreeElement.identity(s)
    # printed order: (I - P~) T2 + T2* T3 ; reversed order: T2 (I - P~) + T2* T3
    printed = ((one - FreeElement.monomial(p_tilde)) * FreeElement.monomial(t2)
               + FreeElement.monomial(t2s_t3))
    reversed_ = (FreeElement.monomial(t2) * (one - FreeElement.monomial(p_tilde))
                 + FreeElement.monomial(t2s_t3))

    def shift_profile(x: FreeElement, count: int):
        op = rep(x)
        failures = []
        for i in range(count):
            si, si1 = s.element_at(i), s.element_at(i + 1)
            image = op.apply(si)
            if image != {si1: GaussianRational(1)}:
                failures.append([si, {str(k): str(v) for k, v in image.items()}])
        return failures

    printed_failures = shift_profile(printed, 50)
    reversed_failures = shift_profile(reversed_, 50)

    # tensor comparison for the working (reversed) shift
    delta = coproduct(reversed_)
    square = tensor_of(reversed_, reversed_)
    witness = None
    diagonal_checked = 0
    diagonal_ok = True
    members = s.members_upto(12)
    for c in members:
        for d in members:
            lhs = delta.apply((c, d))
            rhs = square.apply((c, d))
            if c == d:
                diagonal_checked += 1
                if lhs != rhs:
                    diagonal_ok = False
            elif witness is None and lhs != rhs:
                witness = {"pair": [c, d],
                           "coproduct": [[list(k), str(v)] for k, v in sorted(lhs.items())],
                           "tensor_square": [[list(k), str(v)] for k, v in sorted(rhs.items())]}

    passed = (not reversed_failures and printed_failures
              and witness is not None and witness["pair"] == [0, 2]
              and diagonal_ok)
    return {
        "claim": "combined shift: factor order decides the basis action; "
                 "its coproduct is not the tensor square off the diagonal",
        "parameters": {"semigroup": str(s), "basis_points": 50},
        "computed": {
            "printed_order_failures": printed_failures,
            "reversed_order_failures": reversed_failures,
            "printed_order_note": "printed factor order kills the first basis point;"
                                  " reported, not repaired",
            "tensor_witness": witness,
            "diagonal_pairs_checked": diagonal_checked,
            "diagonal_agrees": diagonal_ok,
        },
        "expected": {"reversed_order_failures": [], "printed_fails_at_zero": True,
                     "tensor_witness_pair": [0, 2], "diagonal_agrees": True},
        "tolerance": 0,
        "pass": bool(passed),
    }
