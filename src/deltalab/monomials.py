"""Symbolic algebra over products of symbol powers with exact-rational
exponents, and the scripted derivation of the triple-sum bound.

A Monomial is a product D^a * Dmax^b * x^c * ... with Fraction exponents
plus a boolean "carries x^eps" flag.  A BoundExpr is a finite max of
monomials (big-O constants are never modeled; they are checked empirically
elsewhere).  Everything is immutable and exact.

The derivation pipeline (derive_main_theorem) rebuilds, purely mechanically,
the chain: starting two-term estimate -> order-5 derivative-test application
at M = N3, T = (P*x/D)^(1/3) -> outer prefactor -> elimination of N3 and P
-> balancing choice of N -> the four final monomials and their one-monomial
simplification.  Every intermediate is compared against frozen regression
constants; the first mismatching term raises DerivationRegressionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .exponents import as_fraction, derive_tuple

# Symbols of the derivation; the set is extensible (any str is accepted by
# the algebra), these are the canonical ones used throughout.
SYMBOLS = ("D", "Dmax", "x", "N", "P", "N3", "M", "T")


class BalanceError(ValueError):
    """Raised when the balancing symbol has equal exponents on both sides."""


class CyclicSubstitutionError(ValueError):
    """Raised when a replacement monomial contains the substituted symbol."""


class IncomparableTermsError(ValueError):
    """Raised when no single term dominates all others under the assumptions."""

    def __init__(self, t1: "Monomial", t2: "Monomial"):
        self.pair = (t1, t2)
        super().__init__(f"terms are incomparable under the assumptions: {t1} vs {t2}")


class DerivationRegressionError(RuntimeError):
    """Raised when a pipeline intermediate differs from its frozen value."""


def _sym_key(name: str) -> tuple:
    try:
        return (SYMBOLS.index(name), name)
    except ValueError:
        return (len(SYMBOLS), name)


class Monomial:
    """Immutable product of symbol powers with exact exponents.

    Zero exponents are never stored; two monomials are equal iff their
    exponent maps and eps flags are equal.
    """

    __slots__ = ("_exps", "eps")

    def __init__(self, exps: Optional[Mapping[str, object]] = None, eps: bool = False):
        clean: Dict[str, Fraction] = {}
        for k, v in (exps or {}).items():
            f = as_fraction(v)
            if f != 0:
                clean[str(k)] = f
        self._exps = clean
        self.eps = bool(eps)

    @property
    def exponents(self) -> Dict[str, Fraction]:
        return dict(self._exps)

    def exponent(self, sym: str) -> Fraction:
        return self._exps.get(sym, Fraction(0))

    def symbols(self) -> frozenset:
        return frozenset(self._exps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._exps == other._exps and self.eps == other.eps

    def __hash__(self) -> int:
        return hash((frozenset(self._exps.items()), self.eps))

    def __repr__(self) -> str:
        return f"Monomial({self})"

    def __str__(self) -> str:
        if not self._exps:
            body = "1"
        else:
            parts = []
            for k in sorted(self._exps, key=_sym_key):
                e = self._exps[k]
                parts.append(k if e == 1 else f"{k}^({e})")
            body = "*".join(parts)
        return body + ("*x^eps" if self.eps else "")

    def pow(self, e) -> "Monomial":
        """Exponent-wise power; a zero power clears the eps flag too."""
        f = as_fraction(e)
        if f == 0:
            return Monomial()
        return Monomial({k: v * f for k, v in self._exps.items()}, eps=self.eps)


def mono(eps: bool = False, **exps) -> Monomial:
    """Readable constructor: mono(D="1/6", x="1/3", eps=True)."""
    return Monomial(exps, eps=eps)


def mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Exponent-wise sum; eps flags are OR'd; zero entries are dropped."""
    exps = dict(m1._exps)
    for k, v in m2._exps.items():
        s = exps.get(k, Fraction(0)) + v
        if s == 0:
            exps.pop(k, None)
        else:
            exps[k] = s
    return Monomial(exps, eps=m1.eps or m2.eps)


def div(m1: Monomial, m2: Monomial) -> Monomial:
    """m1 / m2 exponent-wise.  The eps flag of m1 is kept."""
    return Monomial(
        {
            k: e
            for k in set(m1._exps) | set(m2._exps)
            if (e := m1.exponent(k) - m2.exponent(k)) != 0
        },
        eps=m1.eps,
    )


def substitute(m: Monomial, sym: str, repl: Monomial) -> Monomial:
    """Replace sym by the monomial repl: remove sym's exponent e and
    multiply repl^e in.  repl must not contain sym."""
    if sym in repl._exps:
        raise CyclicSubstitutionError(f"replacement for {sym} contains {sym}: {repl}")
    e = m._exps.get(sym)
    if e is None:
        return m
    rest = Monomial({k: v for k, v in m._exps.items() if k != sym}, eps=m.eps)
    return mul(rest, repl.pow(e))


class BoundExpr:
    """A finite max of monomials.  Duplicates merge; equality ignores order."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Monomial]):
        seen = []
        for t in terms:
            if not isinstance(t, Monomial):
                raise TypeError(f"BoundExpr terms must be Monomial, got {type(t)}")
            if t not in seen:
                seen.append(t)
        if not seen:
            raise ValueError("BoundExpr needs at least one term")
        self.terms = tuple(seen)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundExpr):
            return NotImplemented
        return set(self.terms) == set(other.terms)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __repr__(self) -> str:
        return "BoundExpr[" + " + ".join(str(t) for t in self.terms) + "]"

    def map(self, fn) -> "BoundExpr":
        return BoundExpr([fn(t) for t in self.terms])

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        """Max of the term values (bounds are maxes of monomials)."""
        return max(evaluate(t, assignment) for t in self.terms)


def evaluate(m: Monomial, assignment: Mapping[str, float]) -> float:
    """Numeric value of a monomial at eps = 0: its eps flag is ignored."""
    val = 1.0
    for k, e in m._exps.items():
        if k not in assignment:
            raise ValueError(f"no assignment for symbol {k}")
        base = float(assignment[k])
        if base < 1.0:
            raise ValueError(f"symbols denote quantities >= 1; got {k}={base}")
        val *= base ** float(e)
    return val


def eliminate_bounded(
    e: BoundExpr,
    sym: str,
    lower: Optional[Monomial],
    upper: Optional[Monomial],
) -> BoundExpr:
    """Upper-bound every term by removing sym, using lower <= sym <= upper.

    Negative exponents of sym substitute the lower bound, positive ones the
    upper bound, zero is untouched.  Sound because all symbols denote
    quantities >= 1.  A missing needed bound raises ValueError.
    """
    for b, name in ((lower, "lower"), (upper, "upper")):
        if b is not None and sym in b._exps:
            raise CyclicSubstitutionError(f"{name} bound for {sym} contains {sym}: {b}")

    def one(t: Monomial) -> Monomial:
        ex = t.exponent(sym)
        if ex == 0:
            return t
        if ex < 0:
            if lower is None:
                raise ValueError(f"term {t} needs a lower bound for {sym}")
            return substitute(t, sym, lower)
        if upper is None:
            raise ValueError(f"term {t} needs an upper bound for {sym}")
        return substitute(t, sym, upper)

    return e.map(one)


def balance(t1: Monomial, t2: Monomial, sym: str) -> Monomial:
    """The sym-free monomial value of sym that solves t1 = t2 exactly.

    Writing t1 = sym^e1 * u1 and t2 = sym^e2 * u2, the solution is
    (u2/u1)^(1/(e1-e2)).  The result is a parameter choice, not a bound
    term, so it carries no eps flag.
    """
    e1, e2 = t1.exponent(sym), t2.exponent(sym)
    if e1 == e2:
        raise BalanceError(f"{sym} has equal exponent {e1} in both terms")
    u1 = Monomial({k: v for k, v in t1._exps.items() if k != sym})
    u2 = Monomial({k: v for k, v in t2._exps.items() if k != sym})
    return div(u2, u1).pow(Fraction(1) / (e1 - e2))


def _fold_bottom(m: Monomial, bottom: str, into: str) -> Monomial:
    """Sound upper bound removing the bottom chain symbol: a nonnegative
    exponent merges into the next symbol (bottom <= into), a negative one is
    dropped (bottom >= 1)."""
    e = m.exponent(bottom)
    exps = {k: v for k, v in m._exps.items() if k != bottom}
    if e > 0:
        exps[into] = exps.get(into, Fraction(0)) + e
        if exps[into] == 0:
            del exps[into]
    return Monomial(exps, eps=m.eps)


def _dominates_chain(t1: Monomial, t2: Monomial, chain: Tuple[str, ...]) -> bool:
    """Whether t1 >= t2 for every assignment with 1 <= chain[0] <= ... <= chain[-1].

    Works on the ratio t1/t2 by folding negative exponents upward along the
    chain (s^e >= s'^e for e < 0 when s <= s'); t1 dominates iff all folded
    exponents are nonnegative.  Equivalent to the cumulative-sum criterion.
    """
    ratio = div(t1, t2)
    if not ratio.symbols() <= set(chain):
        raise IncomparableTermsError(t1, t2)
    exps = {k: ratio.exponent(k) for k in chain}
    for lo, hi in zip(chain, chain[1:]):
        if exps[lo] < 0:
            exps[hi] += exps[lo]
            exps[lo] = Fraction(0)
    return all(v >= 0 for v in exps.values())


#: The dominance chain 1 <= Dmax <= D <= x of the final simplification.
DOMINANCE_CHAIN = ("Dmax", "D", "x")


def dominant_simplify(e: BoundExpr) -> Monomial:
    """The single monomial dominating every term of e on DOMINANCE_CHAIN.

    Dmax is merged away from each term first (folded into D), then a term
    dominating all the folded candidates on D <= x is selected; if none
    exists the offending pair is reported, never silently resolved.  The
    result is flagged whenever any input term is.
    """
    bad = [s for t in e.terms for s in t.symbols() if s not in DOMINANCE_CHAIN]
    if bad:
        raise ValueError(f"terms contain symbols outside the chain: {sorted(set(bad))}")

    any_eps = any(t.eps for t in e.terms)
    subchain = DOMINANCE_CHAIN[1:]
    folded = [_fold_bottom(t, *DOMINANCE_CHAIN[:2]) for t in e.terms]
    for cand in folded:
        if all(_dominates_chain(cand, t, subchain) for t in folded):
            return Monomial(cand._exps, eps=any_eps)

    # No dominator: report the first mutually incomparable pair.
    for i, t1 in enumerate(folded):
        for t2 in folded[i + 1:]:
            if not _dominates_chain(t1, t2, subchain) and not _dominates_chain(
                t2, t1, subchain
            ):
                raise IncomparableTermsError(t1, t2)
    raise IncomparableTermsError(folded[0], folded[-1])


# ---------------------------------------------------------------------------
# The scripted derivation and its frozen regression constants.
# ---------------------------------------------------------------------------

_F = Fraction

_START = BoundExpr([
    mono(D=_F(1, 6), x=_F(1, 3)),                 # outer factor on the unexpanded sum
    mono(D=_F(1, 3), x=_F(2, 3), N=_F(-1, 3), eps=True),  # truncation tail
])

# Inner-sum bound terms after applying the order-5 tuple at M = N3,
# T = (P*x/D)^(1/3), times N3^(-1) from the trivial outer summation.
_EQ9_BRACKET = [
    mono(D=_F(-13, 582), N3=_F(-55, 194), P=_F(13, 582), x=_F(13, 582), eps=True),
    mono(D=_F(-31, 582), N3=_F(-225, 388), P=_F(31, 582), x=_F(31, 582), eps=True),
    mono(N3=_F(-77, 822)),
    mono(D=_F(7, 97), N3=_F(21, 194), P=_F(-7, 97), x=_F(-7, 97)),
]

_PREFACTOR = mono(D=_F(1, 6), x=_F(1, 3), P=_F(1, 3), Dmax=_F(1, 2))

_EQ9_TERMS = [
    mono(Dmax=_F(1, 2), D=_F(14, 97), N3=_F(-55, 194), P=_F(69, 194), x=_F(69, 194), eps=True),
    mono(Dmax=_F(1, 2), D=_F(11, 97), N3=_F(-225, 388), P=_F(75, 194), x=_F(75, 194), eps=True),
    mono(Dmax=_F(1, 2), D=_F(1, 6), N3=_F(-77, 822), P=_F(1, 3), x=_F(1, 3)),
    mono(Dmax=_F(1, 2), D=_F(139, 582), N3=_F(21, 194), P=_F(76, 291), x=_F(76, 291)),
]

_TAIL = mono(D=_F(1, 3), x=_F(2, 3), N=_F(-1, 3), eps=True)

_EQ10_TERMS = [
    _TAIL,
    mono(Dmax=_F(1, 2), D=_F(14, 97), N=_F(76, 291), x=_F(69, 194), eps=True),
    mono(Dmax=_F(1, 2), D=_F(11, 97), N=_F(75, 388), x=_F(75, 194), eps=True),
    mono(Dmax=_F(1, 2), D=_F(1, 6), N=_F(745, 2466), x=_F(1, 3)),
    mono(Dmax=_F(1, 2), D=_F(139, 582), N=_F(215, 582), x=_F(76, 291)),
]

_N_CHOICE = mono(D=_F(55, 173), Dmax=_F(-291, 346), x=_F(181, 346))

_FINAL_TERMS = [
    mono(D=_F(118, 519), Dmax=_F(97, 346), x=_F(511, 1038), eps=True),
    mono(D=_F(121, 692), Dmax=_F(467, 1384), x=_F(675, 1384), eps=True),
    mono(D=_F(56039, 213309), Dmax=_F(69941, 284412), x=_F(419257, 853236)),
    mono(D=_F(17936, 50343), Dmax=_F(131, 692), x=_F(91507, 201372)),
]

_SIMPLIFIED = mono(D=_F(527, 1038), x=_F(511, 1038), eps=True)

@dataclass(frozen=True)
class DerivationResult:
    """All pipeline intermediates, each an exact symbolic object."""

    start: BoundExpr
    after_lemma: BoundExpr
    eq10: BoundExpr
    n_choice: Monomial
    final: BoundExpr
    simplified: Monomial

    def as_dict(self) -> dict:
        return {
            "start": [str(t) for t in self.start],
            "after_lemma": [str(t) for t in self.after_lemma],
            "eq10": [str(t) for t in self.eq10],
            "n_choice": str(self.n_choice),
            "final": [str(t) for t in self.final],
            "simplified": str(self.simplified),
        }


def _check_terms(stage: str, got, expected) -> None:
    got = list(got)
    expected = list(expected)
    for i, (g, w) in enumerate(zip(got, expected)):
        if g != w:
            raise DerivationRegressionError(
                f"{stage}: term {i} differs: got {g}, expected {w}"
            )
    if len(got) != len(expected):
        raise DerivationRegressionError(
            f"{stage}: {len(got)} terms, expected {len(expected)}"
        )


def main_theorem_terms() -> BoundExpr:
    """The four monomials of the final triple-sum bound."""
    return BoundExpr(list(_FINAL_TERMS))


def simplified_main_bound() -> Monomial:
    """The one-monomial simplification D^(527/1038) x^(511/1038+eps)."""
    return _SIMPLIFIED


#: Comparison exponent pairs recorded by the reporting layer: the derived
#: (D, x) pair here vs the previously best simplified pair, plus the two
#: remark pairs recorded verbatim without deciding which variant was meant.
COMPARISON_PAIRS = {
    "x_exponent": (simplified_main_bound().exponent("x"), Fraction(2498, 5073)),
    "D_exponent": (simplified_main_bound().exponent("D"), Fraction(2575, 5073)),
    "remark_39_77_vs_39_79": (Fraction(39, 77), Fraction(39, 79)),
    "remark_2500_5077_vs_2498_5073": (Fraction(2500, 5077), Fraction(2498, 5073)),
}


def derive_main_theorem() -> DerivationResult:
    """Run the whole bound derivation mechanically and regression-check
    every intermediate against its frozen exact value."""
    t5 = derive_tuple(5)

    # Order-5 bound terms as monomials in M and T; the eps flags sit on the
    # terms whose exponents carry them.
    lemma_terms = [
        Monomial({"M": t5.a, "T": t5.b}, eps="b" in t5.eps_on),
        Monomial({"M": t5.xi, "T": t5.eta}, eps="eta" in t5.eps_on),
        Monomial({"M": t5.alpha}),
        Monomial({"M": t5.gamma, "T": -t5.delta}),
    ]

    m_repl = mono(N3=1)
    t_repl = mono(P=_F(1, 3), x=_F(1, 3), D=_F(-1, 3))
    inv_n3 = mono(N3=-1)
    bracket = [
        mul(substitute(substitute(t, "M", m_repl), "T", t_repl), inv_n3)
        for t in lemma_terms
    ]
    _check_terms("inner-sum bracket", bracket, _EQ9_BRACKET)

    after_lemma = BoundExpr([_TAIL] + [mul(_PREFACTOR, t) for t in bracket])
    _check_terms("after_lemma", after_lemma.terms[1:], _EQ9_TERMS)

    without_n3 = eliminate_bounded(
        after_lemma, "N3", lower=mono(P=_F(1, 3)), upper=mono(N=1)
    )
    eq10 = eliminate_bounded(without_n3, "P", lower=None, upper=mono(N=1))
    _check_terms("eq10", eq10.terms, _EQ10_TERMS)

    n_choice = balance(eq10.terms[0], eq10.terms[1], "N")
    if n_choice != _N_CHOICE:
        raise DerivationRegressionError(
            f"n_choice differs: got {n_choice}, expected {_N_CHOICE}"
        )

    final = eq10.map(lambda t: substitute(t, "N", n_choice))
    # The tail and the balanced first term coincide; BoundExpr merges them.
    _check_terms("final", final.terms, _FINAL_TERMS)

    simplified = dominant_simplify(final)
    if simplified != _SIMPLIFIED:
        raise DerivationRegressionError(
            f"simplified differs: got {simplified}, expected {_SIMPLIFIED}"
        )

    return DerivationResult(
        start=_START,
        after_lemma=after_lemma,
        eq10=eq10,
        n_choice=n_choice,
        final=final,
        simplified=simplified,
    )
