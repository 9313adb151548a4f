"""Exact finite-dimensional Grassmann algebra with Berezin calculus.

Elements are sparse real-linear combinations of monomials in named
anticommuting generators.  Monomials are stored as bitmasks over the
registry's canonical generator order; every sign is derived from the
transposition count against that order, so there is one global sign
convention and no sign drift between operations.  Only coefficients that
are exactly zero are pruned, so no small term is lost, and a NaN or
infinite coefficient raises ArithmeticError.  A registry is an ordered
tuple of labels; which generators form a conjugate pair is the caller's
layout.  Berezin integration is the left derivative, and ``integrate_pair``
integrates any two generators, innermost first, so the pair integral of
e^{-c* c} = 1 - c* c over dc* dc is 1; the coherent-state trace built on
it lives in ``fermiosc.path_integral.close_boundary``.  The Gaussian
integral of a quadratic form is the top coefficient of an exterior product
of its columns, taken on the columns' nonzero entries; the determinant
route's cross-check runs it on the discrete action's sparse columns.

All values are immutable after construction and every operation is a pure
function; elements may be shared freely across threads.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Mapping, NamedTuple, Sequence

__all__ = [
    "GAUSSIAN_CAP",
    "GeneratorRegistry",
    "GrassmannElement",
    "register_generators",
    "monomial",
    "zero",
    "one",
    "add",
    "mul",
    "coefficient",
    "integrate_pair",
    "substitute",
]

# Largest action dimension whose Gaussian integral the determinant route expands.
GAUSSIAN_CAP = 8


class GeneratorRegistry(namedtuple("GeneratorRegistry", "labels")):
    """Ordered set of generator labels; the order is the canonical monomial order."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, labels: Sequence[str]) -> GeneratorRegistry:
        labels = tuple(labels)  # a list would leave the registry mutable and unhashable
        if not labels:
            raise ValueError("registry needs at least one generator label")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate generator label")
        return super().__new__(cls, labels)

    @property
    def size(self) -> int:
        return len(self.labels)


def register_generators(labels: Sequence[str]) -> GeneratorRegistry:
    """Create a registry whose canonical order is the input label order."""
    return GeneratorRegistry(labels)


class GrassmannElement(NamedTuple):
    """Sparse element of the algebra: bitmask monomial -> real coefficient.

    Stored masks always encode strictly increasing index sets, and every
    stored coefficient is finite and nonzero.  Build instances through
    :func:`monomial`, :func:`zero`, :func:`one` or the module's functions,
    never by mutating ``terms``.
    """

    registry: GeneratorRegistry
    terms: Mapping[int, float]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def scalar_part(self) -> float:
        """Coefficient of the empty monomial."""
        return self.terms.get(0, 0.0)

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


def _kept(terms: dict[int, float]) -> dict[int, float]:
    """Drop exact zeros only, so no small coefficient is lost; refuse NaN and inf."""
    kept = {}
    for mask, coeff in terms.items():
        size = abs(coeff)
        if 0.0 < size < math.inf:
            kept[mask] = coeff
        elif size:  # inf or NaN
            raise ArithmeticError(f"non-finite coefficient {coeff!r}")
    return kept


def _build(registry: GeneratorRegistry, terms: dict[int, float]) -> GrassmannElement:
    return GrassmannElement(registry, _kept(terms))


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


def _wedge(
    terms: Mapping[int, float], right: Sequence[tuple[int, float, int]]
) -> dict[int, float]:
    """The product loop: ``terms`` times ``right``'s (mask, coeff, _crossings(mask)) triples.

    Overlapping monomials vanish by nilpotency; the sums are returned
    unpruned, for the caller's ``_kept``.
    """
    out: dict[int, float] = {}
    for ma, ca in terms.items():
        for mb, cb, odd in right:
            if ma & mb:
                continue
            merged = ma | mb
            sign = -1 if (ma & odd).bit_count() & 1 else 1
            out[merged] = out.get(merged, 0.0) + ca * cb * sign
    return out


def mul(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """Distributive product; overlapping monomials vanish by nilpotency."""
    _same_registry(a, b)
    right = [(mb, cb, _crossings(mb)) for mb, cb in b.terms.items()]
    return _build(a.registry, _wedge(a.terms, right))


def integrate_pair(a: GrassmannElement, g_star: int, g: int) -> GrassmannElement:
    """Double Berezin integral d``g_star`` d``g`` over any two generators, innermost first.

    Berezin integration in a generator is the left derivative in it.  The
    differential closest to the integrand acts first, so the pair integral
    of ``c c*`` is 1.  By definition this is the left derivative in ``g``,
    then in ``g_star``; it is taken in one pass over the monomials that
    hold both generators, with the sign of the two derivatives, so
    ``g == g_star`` gives zero.
    """
    _check_generator(a.registry, g)
    _check_generator(a.registry, g_star)
    out: dict[int, float] = {}
    if g != g_star:
        both = 1 << g | 1 << g_star
        # g crosses the generators below it, then g_star those below it but g
        between = ((1 << g) - 1) ^ ((1 << g_star) - 1)
        odd = g < g_star
        for mask, coeff in a.terms.items():
            if mask & both == both:
                flip = ((mask & between).bit_count() + odd) & 1
                out[mask ^ both] = -coeff if flip else coeff
    return _build(a.registry, out)


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


def _gaussian_columns(columns) -> float:
    """Grassmann Gaussian integral of exp(-sum_ij ci* M_ij cj), as det M.

    Column j is given as its nonzero (i, M_ij) in row order.  Because
    cj^2 = 0 and the bilinears commute, the exponential is
    prod_j (1 - psi_j cj) with psi_j = sum_i M_ij ci*.  Integrating each cj
    leaves psi_j, and the ci* integrals pick the coefficient of
    c1* ... cn* in psi_1 ... psi_n, which is det M (Berezin, *The Method of
    Second Quantization*, 1966).  The product is ``mul``'s product loop;
    after k factors it has at most C(n, k) terms.  The columns are not
    checked: callers build them from validated input.
    """
    form = {0: 1.0}
    for column in columns:
        form = _kept(_wedge(form, [(1 << i, value, _crossings(1 << i)) for i, value in column]))
    return form.get((1 << len(columns)) - 1, 0.0)
