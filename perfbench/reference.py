"""Closed-form references for the benchmark's output checks.

Nothing here calls the package. Fourier phases are reduced with Python
integers, so the reference stays exact past every dense size cap, and
chain amplitudes are contracted directly from the arrays a loaded chain
exposes.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


class CheckFailed(AssertionError):
    """An operation's output disagrees with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def fourier_phase(y: int, x: int, n: int) -> complex:
    """exp(2 pi i x y / 2^n) with x*y reduced mod 2^n before the division."""
    size = 1 << n
    return cmath.exp(2j * math.pi * ((x * y) % size) / size)


def bit_reverse(x: int, n: int) -> int:
    return int(format(x, f"0{n}b")[::-1], 2)


def bits_of(x: int, n: int) -> list[int]:
    """n-bit expansion of x, most significant bit first (site 0 first)."""
    return [(x >> (n - 1 - j)) & 1 for j in range(n)]


def operator_element(sites, bonds, out_bits, in_bits) -> complex:
    """<out|O|in> * 2^(n/2) for a chain of (left, out, in, right) site
    arrays with one bond vector between neighbouring sites.

    The 2^(n/2) scale, applied one sqrt(2) per site, gives a unitary's
    entries unit modulus and keeps the partial products O(1).
    """
    v = np.ones(1, dtype=np.complex128)
    for j, site in enumerate(sites):
        v = (v @ np.asarray(site)[:, out_bits[j], in_bits[j], :]) * math.sqrt(2.0)
        if j < len(bonds):
            v = v * np.asarray(bonds[j])
    return complex(v[0])


def state_amplitude(sites, bonds, bits) -> complex:
    """<bits|psi> for a chain of (left, physical, right) site arrays."""
    v = np.ones(1, dtype=np.complex128)
    for j, site in enumerate(sites):
        v = v @ np.asarray(site)[:, bits[j], :]
        if j < len(bonds):
            v = v * np.asarray(bonds[j])
    return complex(v[0])


def dense_fourier(n: int) -> np.ndarray:
    """Fourier matrix with bit-reversed input order, the operator that the
    nearest-neighbour circuit compiles to."""
    size = 1 << n
    rows = np.arange(size, dtype=np.int64)
    cols = np.array([bit_reverse(x, n) for x in range(size)], dtype=np.int64)
    phase = (rows[:, None] * cols[None, :]) % size
    return np.exp((2j * np.pi / size) * phase) / math.sqrt(size)


def peak_locations(n: int, period: int) -> list[int]:
    """Outputs nearest i 2^n / period, i = 0..period-1; halves round down."""
    locs = []
    for i in range(period):
        q, rem = divmod(i << n, period)
        locs.append(q + (1 if 2 * rem > period else 0))
    return locs


def periodic_peak_probability(n: int, period: int, m: int, offset: int = 0) -> float:
    """Probability of output m after the Fourier transform of the uniform
    superposition of |offset + k period>, k = 0..c-1.

    The amplitude is a geometric series, so |amp|^2 = sin^2(pi c q / N) /
    (c N sin^2(pi q / N)) with q = m period mod N; both sine arguments are
    reduced with integers first.
    """
    size = 1 << n
    count = (size - 1 - offset) // period + 1
    q = (m * period) % size
    if q == 0:
        return count / size
    num = _sin_pi_fraction((count * q) % size, size)
    den = _sin_pi_fraction(q, size)
    return num * num / (den * den * count * size)


def _sin_pi_fraction(a: int, size: int) -> float:
    """|sin(pi a / size)|, evaluated at an argument of at most pi/2 so no
    cancellation against a rounded pi occurs."""
    return math.sin(math.pi * min(a, size - a) / size)


def check_fourier_operator(sites, bonds, pairs, tol: float) -> float:
    """Compare sampled entries of a compiled nearest-neighbour transform
    with the closed form; returns the largest error.

    The compiled operator takes its input bit-reversed, so entry (y, x)
    is exp(2 pi i y rev(x) / 2^n) / 2^(n/2).
    """
    n = len(sites)
    worst = 0.0
    for y, x in pairs:
        got = operator_element(sites, bonds, bits_of(y, n), bits_of(x, n))
        worst = max(worst, abs(got - fourier_phase(y, bit_reverse(x, n), n)))
    require(worst <= tol,
            f"operator entries differ from the closed form by {worst:.2e} > {tol:.0e}")
    return worst


def check_fourier_state(sites, bonds, value: int, outputs, tol: float) -> float:
    """Compare sampled amplitudes of the transform of basis state |value>
    with exp(2 pi i y value / 2^n) / 2^(n/2); returns the largest error."""
    n = len(sites)
    scale = math.sqrt(float(1 << n))
    worst = 0.0
    for y in outputs:
        got = state_amplitude(sites, bonds, bits_of(y, n)) * scale
        worst = max(worst, abs(got - fourier_phase(y, value, n)))
    require(worst <= tol,
            f"state amplitudes differ from the closed form by {worst:.2e} > {tol:.0e}")
    return worst
