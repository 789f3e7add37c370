"""Symmetric correlation model for a pair of binary sources.

Two sources are coupled through a single parameter ``p = Pr(U1 = U2)``.
Equivalently, ``U2 = U1 XOR Z`` where ``Z`` is an i.i.d. Bernoulli(1 - p)
"error" bit, i.e. U2 is the output of a binary symmetric channel with
crossover probability ``1 - p`` fed with U1.

Unit conventions used throughout the package:

* entropies are in bits (log base 2),
* log-likelihood ratios (LLRs) are in nats with the orientation
  ``L(x) = ln(Pr(x=0) / Pr(x=1))``, so positive values favour bit 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .ldpc import _check_type, _integer

# Clamp for every LLR handled by this package. tanh(30/2) is 1.0 minus a
# few ulps, so larger magnitudes carry no extra information and only risk
# overflow in atanh during message passing.
LLR_MAX = 30.0


def _is_finite_real(x) -> bool:
    """Whether ``x`` is a finite real number, numpy's scalars included and
    a ``bool`` excluded, as ``_integer`` excludes it: the one check of every
    probability, rate and damping factor."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


@dataclass(frozen=True)
class CorrelationModel:
    """Single-parameter symmetric correlation between two binary sources.

    Attributes:
        p: Pr(U1 = U2). Strictly inside (0, 1); the endpoints would make
            the hidden error bit deterministic and its LLR infinite, so
            they are rejected. Use e.g. ``1 - 1e-9`` for a near-noiseless
            pair and let the LLR clamp take over.
    """

    p: float

    def __post_init__(self):
        p = self.p
        if not _is_finite_real(p):
            raise ValueError(f"correlation parameter must be a finite number, got {p!r}")
        if not 0.0 < p < 1.0:
            raise ValueError(f"correlation parameter must satisfy 0 < p < 1, got {p}")
        object.__setattr__(self, "p", float(p))


@dataclass(frozen=True, eq=False)
class CorrelatedPair:
    """One sampled block pair (u1, u2) together with the error pattern z.

    Satisfies ``u2 = u1 XOR z`` elementwise; all three arrays share the
    same length and hold 0/1 values of dtype uint8.
    """

    u1: np.ndarray
    u2: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        n = len(self.u1)
        if n < 1:
            raise ValueError("correlated pair must contain at least one bit")
        if len(self.u2) != n or len(self.z) != n:
            raise ValueError("u1, u2 and z must have equal length")
        if np.any((self.u1 ^ self.z) != self.u2):
            raise ValueError("u2 must equal u1 XOR z elementwise")

    @property
    def n(self) -> int:
        return len(self.u1)


@dataclass(frozen=True)
class RatePair:
    """Compression rates in bits per source bit for the two encoders.

    Rates above 1 are legal (merely wasteful); negative, infinite and NaN
    rates are not.
    """

    r1: float
    r2: float

    def __post_init__(self):
        if not (_is_finite_real(self.r1) and _is_finite_real(self.r2)):
            raise ValueError(f"rates must be finite numbers, got ({self.r1!r}, {self.r2!r})")
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError(f"rates must be nonnegative, got ({self.r1}, {self.r2})")
        object.__setattr__(self, "r1", float(self.r1))
        object.__setattr__(self, "r2", float(self.r2))


@dataclass(frozen=True)
class RegionCheck:
    """Result of an admissibility test against the two-source rate region.

    ``admissible`` is True iff all three slack values are nonnegative.
    """

    admissible: bool
    r1_slack: float
    r2_slack: float
    sum_slack: float


def binary_entropy(q: float) -> float:
    """Binary entropy h2(q) in bits, with the convention 0*log2(0) = 0.

    Args:
        q: probability in [0, 1].

    Returns:
        -q*log2(q) - (1-q)*log2(1-q), symmetric in q <-> 1-q and equal
        to 1.0 at q = 0.5.
    """
    if not _is_finite_real(q):
        raise ValueError(f"probability must be a finite number, got {q!r}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {q}")
    q = float(q)
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def conditional_entropy(model: CorrelationModel) -> float:
    """H(U1|U2) = H(U2|U1) = h2(p), in bits per source bit."""
    _check_type("model", model, CorrelationModel)
    return binary_entropy(model.p)


def joint_entropy(model: CorrelationModel) -> float:
    """H(U1, U2) = 1 + h2(p), in bits per source-bit pair."""
    _check_type("model", model, CorrelationModel)
    return 1.0 + binary_entropy(model.p)


def hidden_llr(model: CorrelationModel) -> float:
    """Constant prior LLR of the hidden error bit Z.

    Pr(Z = 0) = p, so under the L = ln(P0/P1) convention this is
    ln(p / (1-p)), clamped to +-LLR_MAX. Computed as log(p) - log(1-p)
    so that complementary parameters give exactly opposite values.
    """
    _check_type("model", model, CorrelationModel)
    p = model.p
    return min(max(math.log(p) - math.log(1.0 - p), -LLR_MAX), LLR_MAX)


def sample_pair(model: CorrelationModel, n: int, seed: int) -> CorrelatedPair:
    """Draw one correlated block pair of length n, reproducibly.

    u1 is n i.i.d. fair bits, z is n i.i.d. bits with Pr(z=1) = 1 - p,
    and u2 = u1 XOR z. The draw is a pure function of (p, n, seed),
    defined on the raw stream of ``np.random.PCG64(seed % 2**64)``, whose
    64-bit words NEP 19 (https://numpy.org/neps/nep-0019-rng-policy.html)
    keeps stable across numpy versions: bit i of u1 is the top bit of byte
    i of the first ceil(n/8) words read as little-endian bytes, and z[i] is
    1 where the next word w gives (w >> 11) * 2**-53 < 1 - p. That is bit
    for bit what ``np.random.default_rng(seed % 2**64)`` draws with
    ``integers(0, 2, size=n, dtype=np.uint8)`` and then ``random(n) < 1 - p``.

    Args:
        model: correlation model supplying p.
        n: block length, at least 1.
        seed: 64-bit seed (arbitrary ints are reduced mod 2**64).
    """
    _check_type("model", model, CorrelationModel)
    n, seed = _integer("block length", n), _integer("seed", seed)
    if n < 1:
        raise ValueError(f"block length must be at least 1, got {n}")
    u1, z = _draw(model.p, n, seed)
    return CorrelatedPair(u1=u1, u2=u1 ^ z, z=z)


def _draw(p: float, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """u1 and z of ``sample_pair``, as uint8 arrays; nothing is validated.
    The z words are shifted in place and compared with (1 - p) 2**53, which
    is the float compare scaled by 2**53: w >> 11 < 2**53 and the scaling
    are exact in float64, so no float copy of the words is made."""
    words = -(-n // 8)
    raw = np.random.PCG64(seed % 2**64).random_raw(words + n)
    u1 = raw[:words].astype("<u8", copy=False).view(np.uint8)[:n] >> 7
    tail = raw[words:]
    tail >>= 11
    return u1, (tail < (1.0 - p) * 2.0**53).view(np.uint8)


def sw_region_check(model: CorrelationModel, rates: RatePair) -> RegionCheck:
    """Test a rate pair against the admissible region for this model.

    The pair is admissible iff r1 >= h2(p), r2 >= h2(p) and
    r1 + r2 >= 1 + h2(p). The three slack values (rate minus bound) are
    returned so callers can see which constraint binds and by how much.
    """
    _check_type("model", model, CorrelationModel)
    h = binary_entropy(model.p)
    r1_slack = rates.r1 - h
    r2_slack = rates.r2 - h
    sum_slack = rates.r1 + rates.r2 - 1.0 - h
    admissible = r1_slack >= 0.0 and r2_slack >= 0.0 and sum_slack >= 0.0
    return RegionCheck(admissible, r1_slack, r2_slack, sum_slack)
