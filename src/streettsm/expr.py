"""Exact-rational symbolic algebra for the synthesis pipeline.

The common currency of every module is the affine form over named variables
(model state, disturbance inputs) whose coefficients are polynomials over
named existential parameters (certificate, control, slack and
Farkas-multiplier parameters):

    form  =  sum_v  poly_v(params) * v  +  poly_const(params)

All arithmetic is exact: coefficients are fractions.Fraction, polynomials
are canonical sorted-monomial maps, and two forms are equal iff their
canonical representations are equal.  No floating point appears anywhere in
this module (or downstream of it).

Canonical form.  A `Poly`'s `terms` map has sorted monomials as keys and
nonzero `Fraction`s as values.  The public `Poly(terms)` constructor checks
its input and brings it to this form.  Everything else trusts it: the
arithmetic, `Poly.const`, `Poly.param` and `substitute` build their result
maps canonical from canonical operands, adding terms in place with
`_accumulate`, and wrap them unchecked with `Poly._wrap`; so does
`FormSum`, which the parser sums each expression into.  Outside this
module only `farkas._dual_parts` uses those two, and
`model.Disturbance.expectation` `_add_term` and `Poly._wrap`, on
canonical operands.

Immutability.  Nothing writes to a `Poly`'s `terms` or a `LinForm`'s
`coeffs` and `const` after construction.  So `Poly.substitute` and
`LinForm.substitute_params` may return their operand itself when no
parameter of it is bound, and a `LinForm` keeps its hash, its parameter
set and its bound (`LinForm.bound`) once computed.  A form returned
unchanged keeps them; `-form` and every other new form compute their own.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Mapping, Union

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings and decimal strings to exact rationals."""
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)  # handles '3', '-4/5' and '0.1' exactly
    raise TypeError(f"cannot interpret {value!r} as a rational")


class ParamKind(Enum):
    """Role of an existential parameter in the synthesis problem."""

    CERT = "cert"          # certificate template coefficients (theta)
    CONTROL = "control"    # control parameters (kappa)
    SLACK = "slack"        # the shared M-increase bound (epsilon is fixed)
    MULTIPLIER = "mult"    # Farkas multipliers (z), fresh per implication


class Param:
    """A named existential parameter. Names are unique per problem."""

    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: ParamKind):
        self.name = name
        self.kind = kind

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is Param
            and self.name == other.name
            and self.kind == other.kind
        )

    def __hash__(self) -> int:
        return hash((self.name, self.kind))


# A monomial is a sorted tuple of parameter names, with multiplicity.
Monomial = tuple[str, ...]

_ONE: Monomial = ()
_F0 = Fraction(0)
_F1 = Fraction(1)


class Poly:
    """Polynomial over parameters with exact rational coefficients.

    Stored as a canonical map {monomial: coeff}: sorted monomials, nonzero
    Fraction coefficients, so equality and hashing are structural.
    `Poly(terms)` canonicalizes any map (sorting monomials, merging the ones
    that collide, dropping zeros); every other constructor and operator
    relies on canonical operands and skips that pass.  Nothing writes to
    `terms` after construction, so the hash is computed once, on first use.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        cleaned: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    key = tuple(sorted(mono))
                    cleaned[key] = cleaned.get(key, Fraction(0)) + coeff
                    if not cleaned[key]:
                        del cleaned[key]
        self.terms = cleaned

    @classmethod
    def _wrap(cls, terms: dict[Monomial, Fraction]) -> "Poly":
        """A Poly over a fresh map already in canonical form (unchecked)."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(value: RationalLike) -> "Poly":
        v = rat(value)
        return Poly._wrap({_ONE: v} if v else {})

    @staticmethod
    def param(name: str) -> "Poly":
        return Poly._wrap({(name,): _F1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == _ONE for m in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (0 if empty)."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get(_ONE, _F0)

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def params(self) -> set[str]:
        return {name for mono in self.terms for name in mono}

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        _accumulate(terms, other)
        return Poly._wrap(terms)

    def __neg__(self) -> "Poly":
        return Poly._wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        _accumulate(terms, other, -1)
        return Poly._wrap(terms)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, _F0) + c1 * c2
        return Poly._wrap({m: c for m, c in out.items() if c})

    def scale(self, factor: RationalLike) -> "Poly":
        f = rat(factor)
        if not f:
            return Poly._wrap({})
        return Poly._wrap({m: c * f for m, c in self.terms.items()})

    # -- evaluation / substitution -----------------------------------------

    def eval(self, valuation: Mapping[str, Fraction | int]) -> Fraction:
        """The exact value at `valuation`, a `Fraction` equal to the fold
        sum(coeff * prod(values)).

        Each term is multiplied out as an int numerator and denominator and
        added to one int numerator over the lcm of the term denominators
        (one gcd per term whose denominator differs); a single `Fraction` is
        normalised at the end.  Raises KeyError on an unbound parameter."""
        num, den = 0, 1
        for mono, coeff in self.terms.items():
            n, d = coeff.numerator, coeff.denominator
            for name in mono:
                if name not in valuation:
                    raise KeyError(f"parameter {name} unbound")
                x = valuation[name]
                n *= x.numerator
                d *= x.denominator
            if d == den:
                num += n
            else:
                g = gcd(den, d)
                num = num * (d // g) + n * (den // g)
                den = den // g * d
        return Fraction(num, den)

    def substitute(self, valuation: Mapping[str, Fraction]) -> "Poly":
        """Replace any bound parameters by rationals; others stay symbolic.
        Returns `self` when no monomial names a bound parameter."""
        if not any(name in valuation for mono in self.terms for name in mono):
            return self
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            remaining: list[str] = []
            c = coeff
            for name in mono:
                if name in valuation:
                    c *= valuation[name]
                else:
                    remaining.append(name)
            if c:
                _add_term(out, tuple(remaining), c)  # still sorted
        return Poly._wrap(out)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(frozenset(self.terms.items()))
            return h

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            coeff = self.terms[mono]
            if mono == _ONE:
                parts.append(str(coeff))
            else:
                stem = "*".join(mono)
                if coeff == 1:
                    parts.append(stem)
                elif coeff == -1:
                    parts.append(f"-{stem}")
                else:
                    parts.append(f"{coeff}*{stem}")
        return " + ".join(parts).replace("+ -", "- ")


def _add_term(terms: dict[Monomial, Fraction], mono: Monomial, c: Fraction) -> None:
    """Add the nonzero term c*mono into a canonical map in place."""
    old = terms.get(mono)
    if old is None:
        terms[mono] = c
    else:
        total = old + c
        if total:
            terms[mono] = total
        else:
            del terms[mono]


def _accumulate(
    terms: dict[Monomial, Fraction],
    p: Poly,
    sign: int = 1,
    name: str | None = None,
) -> None:
    """Add sign * name * p into a canonical map in place (sign is +1 or -1;
    no name adds sign * p).  A sum that cancels is deleted at once, so the
    map keeps the key order that repeated `+` would give it."""
    for mono, coeff in p.terms.items():
        if name is not None:
            mono = tuple(sorted(mono + (name,)))
        _add_term(terms, mono, coeff if sign > 0 else -coeff)


ZERO = Poly()
ONE = Poly.const(1)

# `LinForm.bound`: (variable, upper, n, d, coefficient, rhs), the variable
# None on a constant form
Bound = tuple[Union[str, None], bool, int, int, Fraction, Fraction]


def ratio(rhs: Fraction, a: Fraction) -> tuple[int, int]:
    """rhs/a as an integer pair (n, d) with d > 0, no Fraction built."""
    n, d = rhs.numerator * a.denominator, rhs.denominator * a.numerator
    return (-n, -d) if d < 0 else (n, d)


class LinForm:
    """Affine form over named variables with Poly coefficients.

    Evaluating under any full parameter valuation yields an affine function
    of the variables; addition, scaling and variable substitution are closed.
    Nothing writes to `coeffs` or `const` after construction, so the hash,
    the parameter set and the bound are computed once, on first use.
    """

    __slots__ = ("coeffs", "const", "_hash", "_params", "_bound")

    def __init__(
        self,
        coeffs: Mapping[str, Poly] | None = None,
        const: Poly | None = None,
    ):
        self.coeffs: dict[str, Poly] = {
            v: p for v, p in (coeffs or {}).items() if not p.is_zero()
        }
        self.const: Poly = const if const is not None else ZERO

    # -- constructors ----------------------------------------------------

    @staticmethod
    def var(name: str) -> "LinForm":
        return LinForm({name: ONE})

    @staticmethod
    def constant(value: RationalLike) -> "LinForm":
        return LinForm({}, Poly.const(value))

    @staticmethod
    def from_poly(p: Poly) -> "LinForm":
        return LinForm({}, p)

    # -- queries ----------------------------------------------------------

    def variables(self) -> set[str]:
        return set(self.coeffs)

    def params(self) -> frozenset[str]:
        try:
            return self._params
        except AttributeError:
            names = self.const.params()
            for p in self.coeffs.values():
                names |= p.params()
            self._params = out = frozenset(names)
            return out

    def bound(self) -> "Bound | None":
        """The parameter-free reading of the atom `self <= 0` (or `< 0`),
        computed once: for a form a*v + c, a one-variable bound
        (v, upper, n, d, a, rhs), the atom being a*v <= rhs with rhs = -c,
        so v <= n/d when upper (a > 0) and v >= n/d otherwise, n/d = rhs/a
        with d > 0 (`ratio`); for a constant form c,
        (None, False, 0, 1, 0, rhs), the atom being 0 <= rhs; None when the
        form has two or more variables or a parameter."""
        try:
            return self._bound
        except AttributeError:
            pass
        out = None
        if len(self.coeffs) <= 1 and not self.params():
            const = self.const.terms
            rhs = -const[_ONE] if const else _F0
            if self.coeffs:
                ((v, p),) = self.coeffs.items()
                a = p.terms[_ONE]
                n, d = ratio(rhs, a)
                out = (v, a > 0, n, d, a, rhs)
            else:
                out = (None, False, 0, 1, _F0, rhs)
        self._bound = out
        return out

    def degree(self) -> int:
        d = self.const.degree()
        for p in self.coeffs.values():
            d = max(d, p.degree())
        return d

    def is_zero(self) -> bool:
        return not self.coeffs and self.const.is_zero()

    def is_param_free(self) -> bool:
        return not self.params()

    def coeff(self, var: str) -> Poly:
        return self.coeffs.get(var, ZERO)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LinForm") -> "LinForm":
        coeffs = dict(self.coeffs)
        for v, p in other.coeffs.items():
            coeffs[v] = coeffs.get(v, ZERO) + p
        return LinForm(coeffs, self.const + other.const)

    def __neg__(self) -> "LinForm":
        return LinForm(
            {v: -p for v, p in self.coeffs.items()}, -self.const
        )

    def __sub__(self, other: "LinForm") -> "LinForm":
        return self + (-other)

    def scale(self, factor: RationalLike) -> "LinForm":
        f = rat(factor)
        return LinForm(
            {v: p.scale(f) for v, p in self.coeffs.items()},
            self.const.scale(f),
        )

    def mul_poly(self, p: Poly) -> "LinForm":
        """Multiply by a parameter polynomial (degree grows)."""
        return LinForm(
            {v: q * p for v, q in self.coeffs.items()}, self.const * p
        )

    # -- substitution / evaluation ------------------------------------------

    def substitute_state(self, image: Mapping[str, "LinForm"]) -> "LinForm":
        """Replace each variable by its image form (composition).

        Variables without an image are kept.  Parameter polynomials multiply,
        so composing a parameterized template with a parameterized update
        raises the parameter degree, exactly as intended.
        """
        acc = LinForm({}, self.const)
        for v, p in self.coeffs.items():
            if v in image:
                acc = acc + image[v].mul_poly(p)
            else:
                acc = acc + LinForm({v: p})
        return acc

    def substitute_params(self, valuation: Mapping[str, Fraction]) -> "LinForm":
        """Replace bound parameters by rationals; `self` when none is bound."""
        if self.params().isdisjoint(valuation):
            return self
        return LinForm(
            {v: p.substitute(valuation) for v, p in self.coeffs.items()},
            self.const.substitute(valuation),
        )

    def eval(
        self,
        params: Mapping[str, Fraction],
        state: Mapping[str, Fraction],
    ) -> Fraction:
        total = self.const.eval(params)
        for v, p in self.coeffs.items():
            if v not in state:
                raise KeyError(f"variable {v} unbound")
            total += p.eval(params) * state[v]
        return total

    # -- plumbing -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinForm)
            and self.coeffs == other.coeffs
            and self.const == other.const
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((frozenset(self.coeffs.items()), self.const))
            return h

    def __repr__(self) -> str:
        parts = []
        for v in sorted(self.coeffs):
            p = self.coeffs[v]
            if p == ONE:
                parts.append(v)
            elif p.is_constant():
                parts.append(f"{p.constant_value()}*{v}")
            else:
                parts.append(f"({p})*{v}")
        if not self.const.is_zero() or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


class FormSum:
    """A sum of scaled forms, kept as one canonical coefficient map that
    each term is added into in place; `form` wraps it as one `LinForm`.

    A coefficient that cancels is deleted at once, so the map keeps the
    key order that a left-to-right fold of `LinForm` additions gives."""

    __slots__ = ("coeffs", "const")

    def __init__(self) -> None:
        self.coeffs: dict[str, dict[Monomial, Fraction]] = {}
        self.const: dict[Monomial, Fraction] = {}

    def add(self, factor: Fraction, form: "LinForm | None") -> None:
        """Add factor * form, or the number factor when form is None."""
        if not factor:
            return
        if form is None:
            _add_term(self.const, _ONE, factor)
            return
        one = factor == 1  # most terms: a name with no number in front
        coeffs = self.coeffs
        for v, p in form.coeffs.items():
            terms = coeffs.get(v)
            if terms is None:
                coeffs[v] = (
                    dict(p.terms)
                    if one
                    else {m: c * factor for m, c in p.terms.items()}
                )
                continue
            for mono, c in p.terms.items():
                _add_term(terms, mono, c if one else c * factor)
            if not terms:
                del coeffs[v]
        for mono, c in form.const.terms.items():
            _add_term(self.const, mono, c if one else c * factor)

    def form(self, sign: int = 1) -> "LinForm":
        """The sum as a form, negated when sign is -1.  With sign 1 the form
        wraps the maps themselves, so nothing is added after."""
        if sign > 0:
            return LinForm(
                {v: Poly._wrap(t) for v, t in self.coeffs.items()},
                Poly._wrap(self.const),
            )
        return LinForm(
            {
                v: Poly._wrap({m: -c for m, c in t.items()})
                for v, t in self.coeffs.items()
            },
            Poly._wrap({m: -c for m, c in self.const.items()}),
        )


class Rel(Enum):
    """Relation of a constraint `lhs REL 0`.  Atoms are `<=` or `<`; `==`
    occurs only in the Farkas equalities of `farkas.PolyConstraint`."""

    LE = "<="
    LT = "<"
    EQ = "=="


class Atom:
    """A single constraint `form rel 0` over variables and parameters.

    Atoms are in the normal form Farkas' Lemma reads: `rel` is `<=` or
    `<`.  The parser rewrites `>=`, `>` and `=` into it (`syntax.parse_atom`),
    so every layer downstream takes atoms as they are."""

    __slots__ = ("form", "rel")

    def __init__(self, form: LinForm, rel: Rel):
        if rel is Rel.EQ:
            raise ValueError("an atom is <= or <; write == as two <= atoms")
        self.form = form
        self.rel = rel

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is Atom
            and self.rel is other.rel
            and self.form == other.form
        )

    def __hash__(self) -> int:
        return hash((self.form, self.rel))

    def holds(
        self,
        params: Mapping[str, Fraction],
        state: Mapping[str, Fraction],
    ) -> bool:
        v = self.form.eval(params, state)
        return v < 0 if self.rel is Rel.LT else v <= 0

    def __repr__(self) -> str:
        return f"{self.form} {self.rel.value} 0"
