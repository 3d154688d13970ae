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
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple

#: formal parameters carried by coefficients, in canonical order
PARAMS = ("hbar", "i", "a1", "a2", "eps", "gamma2")
_PIDX = {name: k for k, name in enumerate(PARAMS)}
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


def _reduce_i(coeff: Fraction, params: tuple[int, ...]) -> tuple[Fraction, tuple[int, ...]]:
    """Fold i^2 = -1 so the stored power of i is 0 or 1."""
    ip = params[_PIDX["i"]]
    if ip < 2:
        return coeff, params
    if (ip // 2) % 2:
        coeff = -coeff
    out = list(params)
    out[_PIDX["i"]] = ip % 2
    return coeff, tuple(out)


class OperatorPoly:
    """Normal-ordered operator polynomial with exact coefficients.

    Supports +, -, * (operator product with re-normal-ordering), scaling
    by rationals, multiplication by formal parameters, substitution of one
    parameter by a rational multiple of another, and order truncation.
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
        acc: dict[tuple, Fraction] = {}
        for coeff, params, xs, ps in raw:
            coeff = Fraction(coeff)
            if not coeff:
                continue
            coeff, params = _reduce_i(coeff, tuple(params))
            key = (params, tuple(sorted(xs)), tuple(sorted(ps)))
            total = acc.get(key, Fraction(0)) + coeff
            if total:
                acc[key] = total
            else:
                acc.pop(key, None)
        return cls(metric, acc)

    # -- inspection -------------------------------------------------------

    def terms(self) -> Iterator[tuple[Fraction, tuple[int, ...],
                                      tuple[int, ...], tuple[int, ...]]]:
        """Yield (coeff, params, xs, ps) in canonical sorted order."""
        for key in sorted(self._terms):
            params, xs, ps = key
            yield self._terms[key], params, xs, ps

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self.metric == other.metric and self._terms == other._terms

    def __hash__(self):
        return hash((self.metric,
                     tuple(sorted((k, v) for k, v in self._terms.items()))))

    # -- ring operations --------------------------------------------------

    def _check_metric(self, other: "OperatorPoly") -> None:
        if self.metric != other.metric:
            raise ValueError(f"metric mismatch: {self.metric} vs {other.metric}")

    def __add__(self, other: "OperatorPoly") -> "OperatorPoly":
        self._check_metric(other)
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            total = acc.get(key, Fraction(0)) + coeff
            if total:
                acc[key] = total
            else:
                acc.pop(key, None)
        return OperatorPoly(self.metric, acc)

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
        if name not in _PIDX:
            raise ValueError(f"unknown formal parameter {name!r}")
        if power < 0:
            raise ValueError("parameter powers must be non-negative")
        idx = _PIDX[name]
        raw = []
        for key, coeff in self._terms.items():
            params, xs, ps = key
            new = list(params)
            new[idx] += power
            raw.append((coeff, tuple(new), xs, ps))
        return OperatorPoly.from_raw_terms(self.metric, raw)

    def __mul__(self, other: "OperatorPoly") -> "OperatorPoly":
        return normal_product(self, other)

    # -- rewriting ---------------------------------------------------------

    def substitute(self, name: str, factor,
                   target: str | None = None) -> "OperatorPoly":
        """Replace a parameter by factor (times target, if given).

        substitute("a2", 2, "a1") maps every a2^k to (2^k) a1^k, which is
        how the special-case deformed variables are obtained.
        substitute("eps", 0) kills every term carrying eps.
        """
        if name not in _PIDX:
            raise ValueError(f"unknown formal parameter {name!r}")
        if target is not None and target not in _PIDX:
            raise ValueError(f"unknown formal parameter {target!r}")
        factor = Fraction(factor)
        src = _PIDX[name]
        raw = []
        for key, coeff in self._terms.items():
            params, xs, ps = key
            k = params[src]
            new = list(params)
            new[src] = 0
            if target is not None:
                new[_PIDX[target]] += k
            raw.append((coeff * factor**k, tuple(new), xs, ps))
        return OperatorPoly.from_raw_terms(self.metric, raw)

    def truncate(self, caps: Mapping[str, int]) -> "OperatorPoly":
        """Drop every term whose parameter powers exceed the given caps."""
        for name in caps:
            if name not in _PIDX:
                raise ValueError(f"unknown formal parameter {name!r}")
        keep = {}
        for key, coeff in self._terms.items():
            params = key[0]
            if all(params[_PIDX[name]] <= cap for name, cap in caps.items()):
                keep[key] = coeff
        return OperatorPoly(self.metric, keep)

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

def _word_contributions(xs_a: tuple[int, ...], ps_a: tuple[int, ...],
                        xs_b: tuple[int, ...], ps_b: tuple[int, ...],
                        metric: Metric):
    """Normal-order the word (xs_a ps_a)(xs_b ps_b).

    Moving the x0 factors of the right word through the p0 factors of the
    left word produces one contribution per contraction set.  Contracting
    j pairs on index k picks up (-i*hbar*eta_kk)^j, with
    C(n_k, j) * C(m_k, j) * j! ways of choosing the pairs.

    Yields (integer multiplier, extra i power, extra hbar power, xs, ps).
    """
    pa = Counter(ps_a)
    xb = Counter(xs_b)
    shared = sorted(set(pa) & set(xb))
    if not shared:
        yield 1, 0, 0, tuple(sorted(xs_a + xs_b)), tuple(sorted(ps_a + ps_b))
        return
    ranges = [range(min(pa[k], xb[k]) + 1) for k in shared]
    for counts in itertools.product(*ranges):
        mult = 1
        removed = dict(zip(shared, counts))
        for k, j in removed.items():
            if j == 0:
                continue
            ways = math.comb(pa[k], j) * math.comb(xb[k], j) * math.factorial(j)
            mult *= ways * (-metric.eta(k)) ** j
        total = sum(counts)
        xs = list(xs_a)
        for idx in xs_b:
            if removed.get(idx, 0):
                removed[idx] -= 1
            else:
                xs.append(idx)
        removed = dict(zip(shared, counts))
        ps = []
        for idx in ps_a:
            if removed.get(idx, 0):
                removed[idx] -= 1
            else:
                ps.append(idx)
        ps.extend(ps_b)
        yield mult, total, total, tuple(sorted(xs)), tuple(sorted(ps))


def normal_product(a: OperatorPoly, b: OperatorPoly) -> OperatorPoly:
    """The operator product a*b, rewritten to normal order exactly."""
    a._check_metric(b)
    raw = []
    hbar_idx = _PIDX["hbar"]
    i_idx = _PIDX["i"]
    for key_a, coeff_a in a._terms.items():
        params_a, xs_a, ps_a = key_a
        for key_b, coeff_b in b._terms.items():
            params_b, xs_b, ps_b = key_b
            coeff = coeff_a * coeff_b
            params = tuple(pa + pb for pa, pb in zip(params_a, params_b))
            for mult, di, dh, xs, ps in _word_contributions(
                    xs_a, ps_a, xs_b, ps_b, a.metric):
                new = list(params)
                new[i_idx] += di
                new[hbar_idx] += dh
                raw.append((coeff * mult, tuple(new), xs, ps))
    return OperatorPoly.from_raw_terms(a.metric, raw)


def commutator(a: OperatorPoly, b: OperatorPoly) -> OperatorPoly:
    """[a, b] = a*b - b*a, normal-ordered, exact."""
    return normal_product(a, b) - normal_product(b, a)


def truncate(poly: OperatorPoly, caps: Mapping[str, int]) -> OperatorPoly:
    return poly.truncate(caps)


# -- deformed operator representations ---------------------------------------

def deformed_ops_nonrel(dim: int = 3) -> tuple[tuple[OperatorPoly, ...],
                                               tuple[OperatorPoly, ...]]:
    """First-order deformed position/momentum in D euclidean dimensions.

        x^i = x0^i + ((2 a1 - a2)/4) (p0^2 x0^i + x0^i p0^2)
        p^i = p0^i (1 + (a2/2) p0^2)

    The special case a2 = 2 a1 (commuting positions) follows from
    substitute("a2", 2, "a1"), which makes the x deformation vanish.
    """
    metric = euclidean(dim)
    ps2 = p0_squared(metric)
    positions = []
    momenta = []
    for i in metric.indices():
        xi = x0(i, metric)
        pi = p0(i, metric)
        sym = normal_product(ps2, xi) + normal_product(xi, ps2)
        positions.append(xi
                         + sym.scale(Fraction(1, 2)).times("a1")
                         + sym.scale(Fraction(-1, 4)).times("a2"))
        momenta.append(pi + normal_product(pi, ps2).scale(Fraction(1, 2)).times("a2"))
    return tuple(positions), tuple(momenta)


def deformed_ops_rel() -> tuple[tuple[OperatorPoly, ...],
                                tuple[OperatorPoly, ...]]:
    """Linearized covariant deformed variables on minkowski (-+++).

        x^mu = x0^mu
        p^mu = p0^mu (1 + eps gamma2 p0.p0)
    """
    metric = MINKOWSKI
    ps2 = p0_squared(metric)
    positions = []
    momenta = []
    for mu in metric.indices():
        positions.append(x0(mu, metric))
        momenta.append(p0(mu, metric)
                       + normal_product(p0(mu, metric), ps2).times("eps").times("gamma2"))
    return tuple(positions), tuple(momenta)


# -- algebra verification -----------------------------------------------------

VERIFICATION_CASES = ("nonrel-special", "rel-linear", "rel-position-position")


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


def verify_algebra(case: str, target: str = "derived") -> VerificationReport:
    """Machine-verify a deformed commutator algebra against its target.

    target="derived" checks against the machine-derived expressions (the
    shipped targets); target="quoted" checks the nonrel-special case
    against the quoted printed coefficient (a1 instead of 2*a1 on the
    cross term), which fails by the exact discrepancy.
    """
    if case not in VERIFICATION_CASES:
        raise ValueError(f"unknown verification case {case!r}")
    if target not in ("derived", "quoted"):
        raise ValueError(f"unknown target {target!r}")

    if case == "nonrel-special":
        return _verify_nonrel_special(target)
    if case == "rel-linear":
        return _verify_rel_linear()
    return _verify_rel_position_position()


def _verify_nonrel_special(target: str) -> VerificationReport:
    metric = euclidean(3)
    xs, ps = deformed_ops_nonrel(3)
    xs = tuple(op.substitute("a2", 2, "a1") for op in xs)
    ps = tuple(op.substitute("a2", 2, "a1") for op in ps)
    caps = {"a1": 1}
    ps2 = p0_squared(metric)
    cross_coeff = 2 if target == "derived" else 1

    checks = []
    for i, xi in zip(metric.indices(), xs):
        for j, pj in zip(metric.indices(), ps):
            computed = commutator(xi, pj).truncate(caps)
            expected = normal_product(p0(i, metric), p0(j, metric)) \
                .scale(cross_coeff).times("a1")
            if i == j:
                expected = expected + unit(metric) + ps2.times("a1")
            expected = expected.times("i").times("hbar")
            checks.append(AlgebraCheck(f"[x{i}, p{j}]", computed, expected,
                                       computed - expected))
    for (i, xi), (j, xj) in itertools.combinations(zip(metric.indices(), xs), 2):
        computed = commutator(xi, xj).truncate(caps)
        checks.append(AlgebraCheck(f"[x{i}, x{j}]", computed, zero(metric), computed))
    for (i, pi), (j, pj) in itertools.combinations(zip(metric.indices(), ps), 2):
        computed = commutator(pi, pj).truncate(caps)
        checks.append(AlgebraCheck(f"[p{i}, p{j}]", computed, zero(metric), computed))

    notes = (_DISCREPANCY_NOTE,) if target == "derived" else (
        _DISCREPANCY_NOTE, "target=quoted: checking the printed coefficient a1")
    return VerificationReport("nonrel-special", tuple(checks), notes)


def _verify_rel_linear() -> VerificationReport:
    metric = MINKOWSKI
    xs, ps = deformed_ops_rel()
    ps2 = p0_squared(metric)
    caps = {"eps": 1}

    checks = []
    for mu, xmu in zip(metric.indices(), xs):
        for nu, pnu in zip(metric.indices(), ps):
            computed = commutator(xmu, pnu).truncate(caps)
            expected = normal_product(p0(mu, metric), p0(nu, metric)) \
                .scale(2).times("eps").times("gamma2")
            if mu == nu:
                eta = metric.eta(mu)
                expected = expected + unit(metric).scale(eta) \
                    + ps2.scale(eta).times("eps").times("gamma2")
            expected = expected.times("i").times("hbar")
            checks.append(AlgebraCheck(f"[x{mu}, p{nu}]", computed, expected,
                                       computed - expected))
    return VerificationReport("rel-linear", tuple(checks))


def _verify_rel_position_position() -> VerificationReport:
    metric = MINKOWSKI
    xs, _ = deformed_ops_rel()
    caps = {"eps": 1}
    checks = []
    for (mu, xmu), (nu, xnu) in itertools.combinations(zip(metric.indices(), xs), 2):
        computed = commutator(xmu, xnu).truncate(caps)
        checks.append(AlgebraCheck(f"[x{mu}, x{nu}]", computed, zero(metric), computed))
    return VerificationReport("rel-position-position", tuple(checks))
