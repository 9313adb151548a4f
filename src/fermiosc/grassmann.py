"""Exact finite-dimensional Grassmann algebra with Berezin calculus.

Elements are sparse real-linear combinations of monomials in named
anticommuting generators.  Monomials are stored as bitmasks over the
registry's canonical generator order; every sign is derived from the
transposition count against that order, so there is one global sign
convention and no sign drift between operations.  The pair measure is
dc* dc, innermost first, so the pair integral of e^{-c* c} = 1 - c* c is 1;
the coherent-state trace built on it lives in
``fermiosc.path_integral.close_boundary``.  Numeric determinants come
from numpy or, for the action matrix, from its closed form.

All values are immutable after construction and every operation is a pure
function; elements may be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "DROP_TOLERANCE",
    "GAUSSIAN_CAP",
    "GeneratorRegistry",
    "GrassmannElement",
    "register_generators",
    "monomial",
    "zero",
    "one",
    "add",
    "scale",
    "mul",
    "coefficient",
    "left_derivative",
    "berezin_integrate",
    "integrate_pair",
    "substitute",
    "exp_nilpotent",
    "gaussian_integral_expand",
    "max_coefficient_difference",
]

# Coefficients below this absolute magnitude are pruned on construction;
# prevents unbounded accumulation of float dust in long products.
DROP_TOLERANCE = 1e-15

# Largest quadratic-form dimension the symbolic Gaussian integral accepts
# (n pairs -> 2n generators -> up to 2^(2n) candidate monomials).
GAUSSIAN_CAP = 8


@dataclass(frozen=True)
class GeneratorRegistry:
    """Ordered set of generator labels with optional conjugate pairing.

    The registration order is the canonical monomial order.  ``pairing``
    maps a generator index to its conjugate's index, symmetrically.
    """

    labels: tuple[str, ...]
    pairing: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("registry needs at least one generator label")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate generator label")
        for a, b in self.pairing.items():
            if a == b:
                raise ValueError(f"generator {self.labels[a]!r} paired with itself")
            if self.pairing.get(b) != a:
                raise ValueError("pairing must be symmetric")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown generator label {label!r}") from None

    def conjugate(self, g: int) -> int | None:
        """Index of the registered conjugate of generator ``g``, if any."""
        return self.pairing.get(g)

    def is_pair(self, a: int, b: int) -> bool:
        return self.pairing.get(a) == b


def register_generators(
    labels: Sequence[str],
    pairs: Iterable[tuple[str, str]] = (),
) -> GeneratorRegistry:
    """Create a registry whose canonical order is the input label order.

    ``pairs`` marks (c, c*) conjugate pairs by label; each label may belong
    to at most one pair.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate generator label")
    position = {lab: i for i, lab in enumerate(labels)}
    pairing: dict[int, int] = {}
    for a, b in pairs:
        if a not in position or b not in position:
            missing = a if a not in position else b
            raise ValueError(f"pairing references unknown label {missing!r}")
        ia, ib = position[a], position[b]
        if ia in pairing or ib in pairing:
            raise ValueError(f"generator paired twice: ({a!r}, {b!r})")
        pairing[ia] = ib
        pairing[ib] = ia
    return GeneratorRegistry(labels, pairing)


@dataclass(frozen=True)
class GrassmannElement:
    """Sparse element of the algebra: bitmask monomial -> real coefficient.

    Stored masks always encode strictly increasing index sets and carry no
    coefficient smaller than ``DROP_TOLERANCE`` in magnitude.  Build
    instances through :func:`monomial`, :func:`zero`, :func:`one` or the
    arithmetic operations, never by mutating ``terms``.
    """

    registry: GeneratorRegistry
    terms: Mapping[int, float]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> int:
        """Bitmask union of every generator appearing in any monomial."""
        out = 0
        for mask in self.terms:
            out |= mask
        return out

    def scalar_part(self) -> float:
        """Coefficient of the empty monomial."""
        return self.terms.get(0, 0.0)

    def __add__(self, other: GrassmannElement) -> GrassmannElement:
        return add(self, other)

    def __sub__(self, other: GrassmannElement) -> GrassmannElement:
        return add(self, scale(other, -1.0))

    def __neg__(self) -> GrassmannElement:
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other) -> GrassmannElement:
        return scale(self, float(other))

    def __repr__(self) -> str:
        if self.is_zero:
            return "<0>"
        bits = []
        for mask in sorted(self.terms):
            coeff = self.terms[mask]
            names = "".join(
                self.registry.labels[i] for i in range(self.registry.size) if mask >> i & 1
            )
            bits.append(f"{coeff:+g}" + (f"*{names}" if names else ""))
        return "<" + " ".join(bits) + ">"


def _build(registry: GeneratorRegistry, terms: dict[int, float]) -> GrassmannElement:
    pruned = {}
    for mask, coeff in terms.items():
        size = abs(coeff)
        if DROP_TOLERANCE <= size < math.inf:
            pruned[mask] = coeff
        elif not size < DROP_TOLERANCE:  # inf or NaN
            raise ArithmeticError(f"non-finite coefficient {coeff!r}")
    return GrassmannElement(registry, pruned)


def _same_registry(a: GrassmannElement, b: GrassmannElement) -> None:
    if a.registry is not b.registry and a.registry != b.registry:
        raise ValueError("elements live on different generator registries")


def _check_generator(registry: GeneratorRegistry, g: int) -> None:
    if not 0 <= g < registry.size:
        raise ValueError(f"generator index {g} outside registry of size {registry.size}")


def zero(registry: GeneratorRegistry) -> GrassmannElement:
    return GrassmannElement(registry, {})


def one(registry: GeneratorRegistry) -> GrassmannElement:
    return GrassmannElement(registry, {0: 1.0})


def _ordered_mask_sign(registry: GeneratorRegistry, indices: Sequence[int]) -> tuple[int, int]:
    """Canonical (mask, sign) of a product written in the given index order.

    Returns sign 0 when an index repeats (nilpotency).
    """
    mask = 0
    swaps = 0
    for idx in indices:
        _check_generator(registry, idx)
        bit = 1 << idx
        if mask & bit:
            return 0, 0
        # generators already placed that are greater than idx must be crossed
        swaps += (mask >> (idx + 1)).bit_count()
        mask |= bit
    return mask, (-1 if swaps & 1 else 1)


def monomial(
    registry: GeneratorRegistry, indices: Sequence[int], coeff: float = 1.0
) -> GrassmannElement:
    """Single-term element ``coeff * g_{i1} g_{i2} ...`` in the written order.

    The indices are brought to canonical (ascending) order with one sign
    flip per transposition; a repeated index yields the zero element.
    """
    mask, sign = _ordered_mask_sign(registry, indices)
    if sign == 0:
        return zero(registry)
    return _build(registry, {mask: sign * float(coeff)})


def coefficient(a: GrassmannElement, indices: Sequence[int]) -> float:
    """Coefficient of the monomial written in the given generator order."""
    mask, sign = _ordered_mask_sign(a.registry, indices)
    if sign == 0:
        return 0.0
    return sign * a.terms.get(mask, 0.0)


def add(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    _same_registry(a, b)
    out = dict(a.terms)
    for mask, coeff in b.terms.items():
        out[mask] = out.get(mask, 0.0) + coeff
    return _build(a.registry, out)


def scale(a: GrassmannElement, s: float) -> GrassmannElement:
    s = float(s)
    return _build(a.registry, {m: c * s for m, c in a.terms.items()})


def _crossings(mask: int) -> int:
    """Bitmask of the positions with an odd number of ``mask`` bits below them.

    Moving monomial b past monomial a crosses one pair per (i in a, j in b,
    i > j), so the merge sign is the parity of ``a & _crossings(b)``.
    """
    odd = 0
    while mask:
        low = mask & -mask
        mask ^= low
        odd ^= -(low << 1)  # every position above this bit
    return odd


def mul(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """Distributive product; overlapping monomials vanish by nilpotency."""
    _same_registry(a, b)
    right = [(mb, cb, _crossings(mb)) for mb, cb in b.terms.items()]
    out: dict[int, float] = {}
    for ma, ca in a.terms.items():
        for mb, cb, odd in right:
            if ma & mb:
                continue
            merged = ma | mb
            sign = -1 if (ma & odd).bit_count() & 1 else 1
            out[merged] = out.get(merged, 0.0) + ca * cb * sign
    return _build(a.registry, out)


def left_derivative(a: GrassmannElement, g: int) -> GrassmannElement:
    """Left derivative: move ``g`` to the front of each monomial, delete it.

    Monomials not containing ``g`` are annihilated.
    """
    _check_generator(a.registry, g)
    bit = 1 << g
    out: dict[int, float] = {}
    for mask, coeff in a.terms.items():
        if not mask & bit:
            continue
        position = (mask & (bit - 1)).bit_count()
        out[mask ^ bit] = coeff if position % 2 == 0 else -coeff
    return _build(a.registry, out)


def berezin_integrate(a: GrassmannElement, g: int) -> GrassmannElement:
    """Berezin integration in ``g``; by definition identical to the left derivative."""
    return left_derivative(a, g)


def integrate_pair(a: GrassmannElement, g_star: int, g: int) -> GrassmannElement:
    """Double Berezin integral over a conjugate pair, innermost first.

    Conventions: the differential closest to the integrand acts first, so
    the pair integral of ``c c*`` is 1.
    """
    if not a.registry.is_pair(g_star, g):
        raise ValueError(
            f"generators {g_star} and {g} are not a registered conjugate pair"
        )
    return berezin_integrate(berezin_integrate(a, g), g_star)


def substitute(
    a: GrassmannElement, old: int, new: int, factor: float = 1.0
) -> GrassmannElement:
    """Replace generator ``old`` by ``factor * new`` in every monomial.

    Monomials already containing ``new`` alongside ``old`` vanish; monomials
    without ``old`` are kept unchanged.
    """
    _check_generator(a.registry, old)
    _check_generator(a.registry, new)
    old_bit = 1 << old
    new_bit = 1 << new
    out: dict[int, float] = {}
    for mask, coeff in a.terms.items():
        if not mask & old_bit:
            out[mask] = out.get(mask, 0.0) + coeff
            continue
        rest = mask ^ old_bit
        if rest & new_bit:
            continue
        swaps = (mask & (old_bit - 1)).bit_count() + (rest & (new_bit - 1)).bit_count()
        signed = coeff * factor * (-1 if swaps & 1 else 1)
        target = rest | new_bit
        out[target] = out.get(target, 0.0) + signed
    return _build(a.registry, out)


def exp_nilpotent(a: GrassmannElement) -> GrassmannElement:
    """Exponential of a constant-free element.

    The power series terminates because every monomial of ``a`` carries at
    least one generator, so ``a**k`` dies once k exceeds the generator count.
    """
    if 0 in a.terms:
        raise ValueError("exp_nilpotent requires a zero constant term")
    result = one(a.registry)
    power = one(a.registry)
    k = 0
    while True:
        k += 1
        power = scale(mul(power, a), 1.0 / k)
        if power.is_zero:
            return result
        result = add(result, power)


def gaussian_integral_expand(m, cap: int = GAUSSIAN_CAP) -> float:
    """Grassmann Gaussian integral of exp(-sum_ij ci* M_ij cj), fully expanded.

    Builds the nilpotent exponential over a fresh 2n-generator registry and
    integrates every conjugate pair, highest pair index first; the surviving
    scalar equals det M.  Intended as the symbolic side of the
    determinant identity, so n is capped (default 8).
    """
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    n = arr.shape[0]
    if n > cap:
        raise ValueError(f"dimension {n} exceeds the symbolic expansion cap {cap}")
    labels: list[str] = []
    pairs: list[tuple[str, str]] = []
    for j in range(1, n + 1):
        labels += [f"c{j}", f"c{j}*"]
        pairs.append((f"c{j}", f"c{j}*"))
    registry = register_generators(labels, pairs)
    plain = [2 * j for j in range(n)]
    star = [2 * j + 1 for j in range(n)]

    exponent = zero(registry)
    for i in range(n):
        for j in range(n):
            if arr[i, j] != 0.0:
                exponent = add(exponent, monomial(registry, [star[i], plain[j]], -arr[i, j]))

    expanded = exp_nilpotent(exponent)
    for j in reversed(range(n)):
        expanded = integrate_pair(expanded, star[j], plain[j])
    return expanded.scalar_part()


def max_coefficient_difference(a: GrassmannElement, b: GrassmannElement) -> float:
    """Largest coefficient-wise |a - b| over the union of stored monomials."""
    _same_registry(a, b)
    masks = set(a.terms) | set(b.terms)
    if not masks:
        return 0.0
    return max(abs(a.terms.get(m, 0.0) - b.terms.get(m, 0.0)) for m in masks)
