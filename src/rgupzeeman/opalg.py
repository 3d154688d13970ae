"""Exact noncommutative polynomial algebra over canonical operators x0, p0.

A polynomial is a finite sum of terms

    (rational) * hbar^a * i^b * a1^c * a2^d * eps^e * gamma2^f * x0...x0 p0...p0

kept in normal order: every x0 factor stands left of every p0 factor.
Position factors commute among themselves, as do momentum factors, so a
normal-ordered word is just a sorted multiset of x0 indices plus a sorted
multiset of p0 indices.  Products are re-normal-ordered through the
canonical relation [x0^mu, p0^nu] = i*hbar*eta^{mu nu}; since that
commutator is central, the reordering is a sum over contraction sets with
exact integer multiplicities.  No floating point anywhere: a residual of
zero means zero, not "small".

Two metrics are supported: euclidean with spatial indices 1..D
(eta = delta), and minkowski with spacetime indices 0..3 and signature
(-+++).

One builder, deformed_ops, gives the first-order deformed operators on
either metric, for deformation parameters a1 and a2 given as monomials in
the formal parameters.  Each verification case is its metric, its a1 and a2
(a2 = 2 a1 on euclidean; the covariant map on minkowski), its truncation
caps and its bracket targets: every [x_i, p_j] against
i hbar (delta_ij eta_ii (1 + a1 p0.p0) + a2 p0_i p0_j), and every [a_i, a_j]
that vanishes against zero, all computed from the builder's operators.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple

from .units import VERIFICATION_CASES

#: formal parameters carried by coefficients, in canonical order
PARAMS = ("hbar", "i", "a1", "a2", "eps", "gamma2")
_PIDX = {name: k for k, name in enumerate(PARAMS)}
_I, _HBAR = _PIDX["i"], _PIDX["hbar"]
_NO_PARAMS = (0,) * len(PARAMS)


class Metric(NamedTuple):
    kind: str   # "euclidean" or "minkowski"
    dim: int    # spatial dimension (euclidean); fixed 4 spacetime indices otherwise

    def indices(self) -> range:
        if self.kind == "euclidean":
            return range(1, self.dim + 1)
        return range(0, 4)

    def eta(self, mu: int) -> int:
        """Diagonal metric entry for index mu (signature -+++ for minkowski)."""
        if mu not in self.indices():
            raise ValueError(f"index {mu} out of range for {self.kind} metric")
        if self.kind == "minkowski" and mu == 0:
            return -1
        return 1


def euclidean(dim: int = 3) -> Metric:
    if dim < 1:
        raise ValueError("euclidean dimension must be >= 1")
    return Metric("euclidean", dim)


MINKOWSKI = Metric("minkowski", 4)


def _pidx(name: str) -> int:
    """The slot of a formal parameter in a term's parameter powers."""
    if name not in _PIDX:
        raise ValueError(f"unknown formal parameter {name!r}")
    return _PIDX[name]


def _canonical(coeff, params, xs, ps) -> tuple[tuple, Fraction]:
    """The (key, coefficient) of a term: its indices sorted, and i^2 = -1
    folded so the stored power of i is 0 or 1."""
    coeff = Fraction(coeff)
    ip = params[_I]
    if ip > 1:
        if (ip // 2) % 2:
            coeff = -coeff
        params = (*params[:_I], ip % 2, *params[_I + 1:])
    return (tuple(params), tuple(sorted(xs)), tuple(sorted(ps))), coeff


def _accumulate(acc: dict, items: Iterable[tuple[tuple, Fraction]]) -> dict:
    """Add each (key, coeff) into acc, dropping a key whose sum vanishes."""
    for key, coeff in items:
        total = acc.get(key, 0) + coeff
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)
    return acc


class OperatorPoly:
    """Normal-ordered operator polynomial with exact coefficients.

    Supports +, -, * (operator product with re-normal-ordering), scaling
    by rationals, multiplication by formal parameters, and order truncation.
    Instances are immutable; all operations return new polynomials.
    """

    __slots__ = ("metric", "_terms")

    def __init__(self, metric: Metric,
                 terms: Mapping[tuple, Fraction] | None = None):
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "_terms", dict(terms) if terms else {})

    def __setattr__(self, name, value):
        raise AttributeError("OperatorPoly is immutable")

    @classmethod
    def from_raw_terms(cls, metric: Metric,
                       raw: Iterable[tuple[Fraction, tuple[int, ...],
                                           tuple[int, ...], tuple[int, ...]]]
                       ) -> "OperatorPoly":
        """Canonicalize (coeff, params, x-indices, p-indices) items."""
        return cls(metric, _accumulate({}, (_canonical(*term) for term in raw)))

    # -- inspection -------------------------------------------------------

    def terms(self) -> Iterator[tuple[Fraction, tuple[int, ...],
                                      tuple[int, ...], tuple[int, ...]]]:
        """Yield (coeff, params, xs, ps) in canonical sorted order."""
        for (params, xs, ps), coeff in sorted(self._terms.items()):
            yield coeff, params, xs, ps

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self.metric == other.metric and self._terms == other._terms

    def __hash__(self):
        return hash((self.metric, tuple(sorted(self._terms.items()))))

    # -- ring operations --------------------------------------------------

    def _check_metric(self, other: "OperatorPoly") -> None:
        if self.metric != other.metric:
            raise ValueError(f"metric mismatch: {self.metric} vs {other.metric}")

    def __add__(self, other: "OperatorPoly") -> "OperatorPoly":
        self._check_metric(other)
        return OperatorPoly(self.metric,
                            _accumulate(dict(self._terms), other._terms.items()))

    def __neg__(self) -> "OperatorPoly":
        return OperatorPoly(self.metric, {k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "OperatorPoly") -> "OperatorPoly":
        return self + (-other)

    def scale(self, factor) -> "OperatorPoly":
        """Multiply every coefficient by an exact rational factor."""
        factor = Fraction(factor)
        if not factor:
            return OperatorPoly(self.metric)
        return OperatorPoly(self.metric,
                            {k: v * factor for k, v in self._terms.items()})

    def times(self, name: str, power: int = 1) -> "OperatorPoly":
        """Multiply by a formal parameter power (central, commutes with all)."""
        _pidx(name)
        if power < 0:
            raise ValueError("parameter powers must be non-negative")
        return _times(self, (1, (name,) * power))

    def __mul__(self, other: "OperatorPoly") -> "OperatorPoly":
        return normal_product(self, other)

    # -- rewriting ---------------------------------------------------------

    def truncate(self, caps: Mapping[str, int]) -> "OperatorPoly":
        """Drop every term whose parameter powers exceed the given caps."""
        limits = [(_pidx(name), cap) for name, cap in caps.items()]
        return OperatorPoly(self.metric, {
            key: coeff for key, coeff in self._terms.items()
            if all(key[0][k] <= cap for k, cap in limits)})

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rendered = []
        for coeff, params, xs, ps in self.terms():
            rendered.append((coeff < 0, _term_str(abs(coeff), params, xs, ps)))
        out = ("-" if rendered[0][0] else "") + rendered[0][1]
        for negative, body in rendered[1:]:
            out += (" - " if negative else " + ") + body
        return out

    def __repr__(self) -> str:
        return f"OperatorPoly({self.metric.kind}, {self})"


def _term_str(coeff: Fraction, params: tuple[int, ...],
              xs: tuple[int, ...], ps: tuple[int, ...]) -> str:
    factors = []
    for name, power in zip(PARAMS, params):
        if power == 1:
            factors.append(name)
        elif power > 1:
            factors.append(f"{name}^{power}")
    for sym, indices in (("x0", xs), ("p0", ps)):
        for idx, count in sorted(Counter(indices).items()):
            factors.append(f"{sym}_{idx}" + (f"^{count}" if count > 1 else ""))
    if not factors:
        return str(coeff)
    if coeff == 1:
        return "*".join(factors)
    return str(coeff) + "*" + "*".join(factors)


# -- constructors -----------------------------------------------------------

def unit(metric: Metric) -> OperatorPoly:
    """The identity operator."""
    return OperatorPoly(metric, {(_NO_PARAMS, (), ()): Fraction(1)})


def zero(metric: Metric) -> OperatorPoly:
    return OperatorPoly(metric)


def x0(index: int, metric: Metric) -> OperatorPoly:
    metric.eta(index)  # index range check
    return OperatorPoly(metric, {(_NO_PARAMS, (index,), ()): Fraction(1)})


def p0(index: int, metric: Metric) -> OperatorPoly:
    metric.eta(index)
    return OperatorPoly(metric, {(_NO_PARAMS, (), (index,)): Fraction(1)})


def p0_squared(metric: Metric) -> OperatorPoly:
    """The metric contraction of p0 with itself.

    Euclidean: sum_i p0^i p0^i.  Minkowski (-+++): -p0^0 p0^0 + sum_i p0^i p0^i.
    """
    acc = {}
    for mu in metric.indices():
        acc[(_NO_PARAMS, (), (mu, mu))] = Fraction(metric.eta(mu))
    return OperatorPoly(metric, acc)


# -- products ----------------------------------------------------------------

def _strip(indices: tuple[int, ...], removed: Mapping[int, int]) -> list[int]:
    """The indices, less removed[k] occurrences of each index k."""
    left = dict(removed)
    kept = []
    for idx in indices:
        if left.get(idx, 0):
            left[idx] -= 1
        else:
            kept.append(idx)
    return kept


def _word_contributions(xs_a: tuple[int, ...], ps_a: tuple[int, ...],
                        xs_b: tuple[int, ...], ps_b: tuple[int, ...],
                        metric: Metric):
    """Normal-order the word (xs_a ps_a)(xs_b ps_b).

    Moving the x0 factors of the right word through the p0 factors of the
    left word produces one contribution per contraction set.  Contracting
    j pairs on index k picks up (-i*hbar*eta_kk)^j, with
    C(n_k, j) * C(m_k, j) * j! ways of choosing the pairs.

    Yields (integer multiplier, pairs contracted, xs, ps); each pair
    contracted adds one power of i and one of hbar.
    """
    pa = Counter(ps_a)
    xb = Counter(xs_b)
    shared = sorted(set(pa) & set(xb))
    if not shared:
        yield 1, 0, xs_a + xs_b, ps_a + ps_b
        return
    ranges = [range(min(pa[k], xb[k]) + 1) for k in shared]
    for counts in itertools.product(*ranges):
        removed = dict(zip(shared, counts))
        mult = 1
        for k, j in removed.items():
            if j:
                ways = math.comb(pa[k], j) * math.comb(xb[k], j) * math.factorial(j)
                mult *= ways * (-metric.eta(k)) ** j
        yield (mult, sum(counts), (*xs_a, *_strip(xs_b, removed)),
               (*_strip(ps_a, removed), *ps_b))


def normal_product(a: OperatorPoly, b: OperatorPoly) -> OperatorPoly:
    """The operator product a*b, rewritten to normal order exactly."""
    a._check_metric(b)
    raw = []
    for (params_a, xs_a, ps_a), coeff_a in a._terms.items():
        for (params_b, xs_b, ps_b), coeff_b in b._terms.items():
            coeff = coeff_a * coeff_b
            params = [pa + pb for pa, pb in zip(params_a, params_b)]
            for mult, pairs, xs, ps in _word_contributions(
                    xs_a, ps_a, xs_b, ps_b, a.metric):
                new = params.copy()
                new[_I] += pairs
                new[_HBAR] += pairs
                raw.append((coeff * mult, new, xs, ps))
    return OperatorPoly.from_raw_terms(a.metric, raw)


def commutator(a: OperatorPoly, b: OperatorPoly) -> OperatorPoly:
    """[a, b] = a*b - b*a, normal-ordered, exact."""
    return normal_product(a, b) - normal_product(b, a)


# -- deformed operator representations ---------------------------------------

#: The covariant map of the linearized relativistic algebra (Quesne and
#: Tkachuk): a1 = eps gamma2 and a2 = 2 eps gamma2, each deformation
#: parameter as a (rational, parameter names) monomial.
COVARIANT_MAP = {"a1": (1, ("eps", "gamma2")), "a2": (2, ("eps", "gamma2"))}
#: the nonrelativistic special case a2 = 2 a1, in which the positions commute
_SPECIAL_MAP = {"a1": (1, ("a1",)), "a2": (2, ("a1",))}


def _times(poly: OperatorPoly, monomial: tuple) -> OperatorPoly:
    """poly times a (rational, parameter names) monomial, in one pass."""
    coeff, names = monomial
    powers = [0] * len(PARAMS)
    for name in names:
        powers[_pidx(name)] += 1
    return OperatorPoly.from_raw_terms(poly.metric, (
        (c * coeff, [p + k for p, k in zip(params, powers)], xs, ps)
        for (params, xs, ps), c in poly._terms.items()))


def deformed_ops(metric: Metric, a1: tuple = (1, ("a1",)),
                 a2: tuple = (1, ("a2",))) -> tuple[tuple[OperatorPoly, ...],
                                                    tuple[OperatorPoly, ...]]:
    """First-order deformed position and momentum (Stetsko and Tkachuk) on
    either metric:

        x^mu = x0^mu + ((2 a1 - a2)/4) (p0.p0 x0^mu + x0^mu p0.p0)
        p^mu = p0^mu (1 + (a2/2) p0.p0)

    a1 and a2 are (rational, parameter names) monomials; the defaults give
    the general algebra.  Where the position coefficient cancels, as at
    a2 = 2 a1, the position term is never built.
    """
    # (2 a1 - a2)/4 as one coefficient per distinct product of parameters
    position = {}
    for (coeff, names), weight in ((a1, Fraction(1, 2)), (a2, Fraction(-1, 4))):
        position[names] = position.get(names, 0) + weight * coeff
    position = [(coeff, names) for names, coeff in position.items() if coeff]
    ps2 = p0_squared(metric)
    positions, momenta = [], []
    for mu in metric.indices():
        xmu, pmu = x0(mu, metric), p0(mu, metric)
        if position:
            sym = normal_product(ps2, xmu) + normal_product(xmu, ps2)
            for monomial in position:
                xmu = xmu + _times(sym, monomial)
        positions.append(xmu)
        momenta.append(pmu + _times(normal_product(pmu, ps2), (Fraction(a2[0], 2), a2[1])))
    return tuple(positions), tuple(momenta)


# -- algebra verification -----------------------------------------------------

class AlgebraCheck(NamedTuple):
    """One commutator comparison: computed vs target, with exact residual."""

    bracket: str
    computed: OperatorPoly
    target: OperatorPoly
    residual: OperatorPoly

    @property
    def ok(self) -> bool:
        return self.residual.is_zero()


class VerificationReport(NamedTuple):
    case: str
    checks: tuple[AlgebraCheck, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)


_DISCREPANCY_NOTE = (
    "coefficient-discrepancy: the commonly quoted special-case algebra lists "
    "the cross term p0^i p0^j with coefficient a1; direct computation from the "
    "deformed variables gives 2*a1 (consistent with the general algebra at "
    "a2 = 2*a1 and with the covariant factor 2). The shipped target is the "
    "machine-derived expression."
)
_QUOTED_REL_NOTE = ("target=quoted: the quoted target applies to nonrel-special only; "
                    "this case checked its derived target")


def verify_algebra(case: str, target: str = "derived") -> VerificationReport:
    """Machine-verify a deformed commutator algebra against its target.

    target="derived" checks against the machine-derived expressions (the
    shipped targets); target="quoted" checks the nonrel-special case
    against the quoted printed coefficient (a1 instead of 2*a1 on the
    cross term), which fails by the exact discrepancy; a rel case checks
    its derived target either way, and notes so under target="quoted".
    """
    if case not in VERIFICATION_CASES:
        raise ValueError(f"unknown verification case {case!r}")
    if target not in ("derived", "quoted"):
        raise ValueError(f"unknown target {target!r}")

    if case == "nonrel-special":
        metric, caps = euclidean(3), {"a1": 1}
        xs, ps = deformed_ops(metric, **_SPECIAL_MAP)
        # the quoted algebra prints a1 where the cross term's a2 = 2 a1 belongs
        cross = _SPECIAL_MAP["a2" if target == "derived" else "a1"]
        checks = (_position_momentum_checks(metric, xs, ps, caps, _SPECIAL_MAP["a1"], cross)
                  + _vanishing_checks(metric, "x", xs, caps)
                  + _vanishing_checks(metric, "p", ps, caps))
        notes = (_DISCREPANCY_NOTE,) if target == "derived" else (
            _DISCREPANCY_NOTE, "target=quoted: checking the printed coefficient a1")
        return VerificationReport(case, tuple(checks), notes)
    metric, caps = MINKOWSKI, {"eps": 1}
    xs, ps = deformed_ops(metric, **COVARIANT_MAP)
    if case == "rel-linear":
        checks = _position_momentum_checks(metric, xs, ps, caps, **COVARIANT_MAP)
    else:
        checks = _vanishing_checks(metric, "x", xs, caps)
    notes = () if target == "derived" else (_QUOTED_REL_NOTE,)
    return VerificationReport(case, tuple(checks), notes)


def _check(bracket: str, a: OperatorPoly, b: OperatorPoly, caps: Mapping[str, int],
           target: OperatorPoly) -> AlgebraCheck:
    computed = commutator(a, b).truncate(caps)
    return AlgebraCheck(bracket, computed, target, computed - target)


def _position_momentum_checks(metric: Metric, xs, ps, caps: Mapping[str, int],
                              a1: tuple, a2: tuple) -> list[AlgebraCheck]:
    """Each [x_i, p_j], truncated to caps, against the first-order
    i hbar (delta_ij eta_ii (1 + a1 p0.p0) + a2 p0_i p0_j), with a1 and a2
    (rational, parameter names) monomials."""
    ps2 = p0_squared(metric)
    checks = []
    for i, xi in zip(metric.indices(), xs):
        for j, pj in zip(metric.indices(), ps):
            delta = metric.eta(i) if i == j else 0
            target = (_times(normal_product(p0(i, metric), p0(j, metric)), a2)
                      + _times(ps2.scale(delta), a1) + unit(metric).scale(delta))
            checks.append(_check(f"[x{i}, p{j}]", xi, pj, caps,
                                 target.times("i").times("hbar")))
    return checks


def _vanishing_checks(metric: Metric, symbol: str, ops,
                      caps: Mapping[str, int]) -> list[AlgebraCheck]:
    """Each [a_i, a_j], i < j, of the operators a = ops, against zero."""
    return [_check(f"[{symbol}{i}, {symbol}{j}]", ai, aj, caps, zero(metric))
            for (i, ai), (j, aj) in itertools.combinations(zip(metric.indices(), ops), 2)]
