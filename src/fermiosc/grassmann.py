"""Exact finite-dimensional Grassmann algebra with Berezin calculus.

Elements are sparse real-linear combinations of monomials in named
anticommuting generators.  Monomials are stored as bitmasks over the
registry's canonical generator order; every sign is derived from the
transposition count against that order, so there is one global sign
convention and no sign drift between operations.  Only coefficients that
are exactly zero are pruned, so no small term is lost, and a NaN or
infinite coefficient raises ArithmeticError.  A registry is an ordered
tuple of labels; which generators form a conjugate pair is the caller's
layout.  Berezin integration is the left derivative, taken innermost
first.  ``mul`` given a pair (g_star, g) returns the product integrated
over d``g_star`` d``g`` under the coherent-state measure
e^{-g_star g} = 1 - g_star g, tracing each term as the product loop forms
it, so no term whose integral is zero is formed; the chain's compositions
and the closure of its time circle both run it.  The Gaussian integral of a
quadratic form is the top coefficient of an exterior product of its
columns, taken on the columns' nonzero entries; the determinant route's
cross-check runs it on the discrete action's sparse columns.

All values are immutable after construction and every operation is a pure
function; elements may be shared freely across threads.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Mapping, NamedTuple, Sequence

__all__ = [
    "GeneratorRegistry",
    "GrassmannElement",
    "monomial",
    "one",
    "add",
    "mul",
    "coefficient",
    "substitute",
]

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


class GrassmannElement(NamedTuple):
    """Sparse element of the algebra: bitmask monomial -> real coefficient.

    Stored masks always encode strictly increasing index sets, and every
    stored coefficient is finite and nonzero.  Build instances through
    :func:`monomial`, :func:`one` or the module's functions,
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
        return GrassmannElement(registry, {})
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


def _right(terms: Mapping[int, float]) -> list[tuple[int, float, int]]:
    return [(mb, cb, _crossings(mb)) for mb, cb in terms.items()]


def _wedge(
    terms: Mapping[int, float],
    right: Sequence[tuple[int, float, int]],
    pair: tuple[int, int] | None = None,
) -> dict[int, float]:
    """The product loop: ``terms`` times ``right``'s (mask, coeff, _crossings(mask)) triples.

    Overlapping monomials vanish by nilpotency; the sums are returned
    unpruned, for the caller's ``_kept``.  With a ``pair`` (g_star, g) of
    distinct generators, each product term is traced over it as it is
    formed, under the measure e^{-g_star g} = 1 - g_star g.  A term that
    holds both is integrated out, by the left derivative in g and then in
    g_star: it loses them with sign (-1)^(popcount(term & between) + odd),
    as g crosses the generators below it, then g_star those below it but g.
    A term that holds neither is kept (the measure's 1 integrates to zero
    and its -g_star g to the term itself), and a term that holds one is not
    formed, since its integral is zero.  A pair of one generator twice
    gives no terms, since the left derivative squares to zero.
    """
    both = between = odd_pair = 0
    if pair is not None:
        g_star, g = pair
        if g == g_star:
            return {}
        both = 1 << g | 1 << g_star
        between = ((1 << g) - 1) ^ ((1 << g_star) - 1)
        odd_pair = g < g_star
    out: dict[int, float] = {}
    for ma, ca in terms.items():
        for mb, cb, odd in right:
            if ma & mb:
                continue
            merged = ma | mb
            sign = -1 if (ma & odd).bit_count() & 1 else 1
            if merged & both:
                if merged & both != both:
                    continue
                if ((merged & between).bit_count() + odd_pair) & 1:
                    sign = -sign
                merged ^= both
            out[merged] = out.get(merged, 0.0) + ca * cb * sign
    return out


def mul(
    a: GrassmannElement, b: GrassmannElement, pair: tuple[int, int] | None = None
) -> GrassmannElement:
    """Distributive product; overlapping monomials vanish by nilpotency.

    Given a ``pair`` (g_star, g) of any two generators, it returns
    int dg_star dg e^{-g_star g} a b, traced over the pair as ``_wedge``
    forms each term.  The differential closest to the integrand acts
    first, so the pair integral of ``c c*`` is 1, and ``g == g_star`` gives
    zero.  ``g`` is checked before ``g_star``.
    """
    _same_registry(a, b)
    if pair is not None:
        _check_generator(a.registry, pair[1])
        _check_generator(a.registry, pair[0])
    return _build(a.registry, _wedge(a.terms, _right(b.terms), pair))


def _relabelled(
    terms: Mapping[int, float], old: int, new: int, factor: float = 1.0
) -> dict[int, float]:
    """``substitute``'s loop on a terms mapping; the sums are returned unpruned."""
    old_bit = 1 << old
    new_bit = 1 << new
    out: dict[int, float] = {}
    for mask, coeff in terms.items():
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
    return out


def substitute(
    a: GrassmannElement, old: int, new: int, factor: float = 1.0
) -> GrassmannElement:
    """Replace generator ``old`` by ``factor * new`` in every monomial.

    Monomials already containing ``new`` alongside ``old`` vanish; monomials
    without ``old`` are kept unchanged.
    """
    _check_generator(a.registry, old)
    _check_generator(a.registry, new)
    return _build(a.registry, _relabelled(a.terms, old, new, factor))


def _exterior(columns, form: Mapping[int, float] | None = None) -> dict[int, float]:
    """The running exterior product: ``form`` (default 1) times psi_j of each column in turn.

    Column j is given as its nonzero (i, M_ij) in row order, and psi_j is
    sum_i M_ij ci*, so ci* is generator i.  From 1, the top coefficient is
    det M, the Gaussian integral of exp(-sum_ij ci* M_ij cj): as cj^2 = 0 and
    the bilinears commute, the exponential is prod_j (1 - psi_j cj), whose cj
    integrals leave psi_1 ... psi_n and whose ci* integrals pick c1* ... cn*
    (Berezin, *The Method of Second Quantization*, 1966).  ``_wedge`` forms
    each product, at most C(n, k) terms after k columns (min(k + 1, n) on the
    action's), and ``_kept`` drops its exact zeros.  ``form`` is not changed,
    so a caller may keep the product of some columns and wedge different last
    columns onto it.  The columns are not checked: callers validate input.
    """
    if form is None:
        form = {0: 1.0}
    for column in columns:
        form = _kept(_wedge(form, [(1 << i, value, _crossings(1 << i)) for i, value in column]))
    return form
