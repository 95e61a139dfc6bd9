"""Function-free finite-domain first-order logic with Herbrand semantics.

Formulas are immutable trees; every operation here is a pure function, so
values can be shared freely between threads and workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .errors import WfomcError

Weight = Union[Fraction, float]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_VAR_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

EXACT = "exact"
FLOAT = "float"

# Normal-form labels, weakest to strongest.
NF_ARBITRARY = "arbitrary"
NF_PRENEX = "prenex"
NF_PRENEX_CLAUSAL = "prenex-clausal"
NF_SKOLEM = "skolem"
NF_FO_CNF = "fo-cnf"


# ---------------------------------------------------------------------------
# Terms and atoms


@dataclass(frozen=True)
class PredicateSig:
    name: str
    arity: int

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise WfomcError(f"bad predicate name {self.name!r}")
        if self.arity < 0:
            raise WfomcError(f"negative arity for {self.name}")

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Constant(Term):
    name: str

    def __post_init__(self):
        if not self.name:
            raise WfomcError("empty constant name")


@dataclass(frozen=True)
class Variable(Term):
    name: str

    def __post_init__(self):
        if not _VAR_RE.match(self.name):
            raise WfomcError(f"bad variable name {self.name!r} (must start lowercase)")


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    pred: PredicateSig
    args: tuple[Term, ...]

    def __post_init__(self):
        if len(self.args) != self.pred.arity:
            raise WfomcError(
                f"{self.pred} applied to {len(self.args)} argument(s)"
            )


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, init=False)
class Junction(Formula):
    """An n-ary connective over ``parts``, two or more operands in order,
    built as ``And(*parts)``. An operand of the same kind stays one
    operand: the constructor does not splice nested nodes."""

    parts: tuple[Formula, ...]

    def __init__(self, *parts: Formula):
        if len(parts) < 2:
            raise WfomcError(f"{type(self).__name__} needs two or more operands")
        object.__setattr__(self, "parts", parts)


class And(Junction):
    """Conjunction of ``parts``."""


class Or(Junction):
    """Disjunction of ``parts``."""


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ForAll(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


TRUE = TrueF()
FALSE = FalseF()

BINARY = (Implies, Iff)
QUANT = (ForAll, Exists)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Junction):
        return f.parts
    if isinstance(f, BINARY):
        return (f.left, f.right)
    if isinstance(f, Not):
        return (f.body,)
    if isinstance(f, QUANT):
        return (f.body,)
    return ()


def with_children(f: Formula, kids: tuple[Formula, ...]) -> Formula:
    """Rebuild ``f`` with the given child formulas."""
    if isinstance(f, (Junction, Implies, Iff)):
        return type(f)(*kids)
    if isinstance(f, Not):
        return Not(kids[0])
    if isinstance(f, QUANT):
        return type(f)(f.var, kids[0])
    assert not kids
    return f


def subformulas(f: Formula) -> Iterator[Formula]:
    """Preorder traversal including ``f`` itself."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(children(g)))


def free_vars(f: Formula) -> frozenset[str]:
    return frozenset(first_occurrence_vars(f))


def bound_vars(f: Formula) -> set[str]:
    return {g.var for g in subformulas(f) if isinstance(g, QUANT)}


def predicates(f: Formula) -> set[PredicateSig]:
    return {g.pred for g in subformulas(f) if isinstance(g, Atom)}


def constants(f: Formula) -> set[Constant]:
    out = set()
    for g in subformulas(f):
        if isinstance(g, Atom):
            out.update(t for t in g.args if isinstance(t, Constant))
    return out


def is_literal(f: Formula) -> bool:
    return isinstance(f, Atom) or (isinstance(f, Not) and isinstance(f.body, Atom))


def is_clause(f: Formula) -> bool:
    """A clause is a disjunction of literals, nested or not; the empty
    clause is ``false``."""
    if isinstance(f, Or):
        return all(is_clause(p) if isinstance(p, Or) else is_literal(p) for p in f.parts)
    return isinstance(f, FalseF) or is_literal(f)


def is_quantifier_free(f: Formula) -> bool:
    return not any(isinstance(g, QUANT) for g in subformulas(f))


def strip_foralls(f: Formula) -> tuple[tuple[str, ...], Formula]:
    """Split off the leading universal prefix."""
    prefix: list[str] = []
    while isinstance(f, ForAll):
        prefix.append(f.var)
        f = f.body
    return tuple(prefix), f


def close_universally(f: Formula, order: tuple[str, ...] | None = None) -> Formula:
    """``f`` under one ``forall`` per variable of ``order``, the first
    outermost, whether or not it occurs free in ``f``.

    ``order`` defaults to the free variables in first-occurrence order.
    """
    if order is None:
        order = first_occurrence_vars(f)
    for v in reversed(order):
        f = ForAll(v, f)
    return f


def first_occurrence_vars(f: Formula) -> tuple[str, ...]:
    """Free variables of ``f`` in order of first (preorder) occurrence.

    One walk over an explicit stack; a quantifier pushes ``None`` under its
    body, which unbinds its variable once the body is done.
    """
    seen: dict[str, None] = {}
    bound: list[str] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g is None:
            bound.pop()
        elif isinstance(g, Atom):
            for t in g.args:
                if isinstance(t, Variable) and t.name not in bound:
                    seen[t.name] = None
        elif isinstance(g, QUANT):
            bound.append(g.var)
            stack += (None, g.body)
        else:
            stack += reversed(children(g))
    return tuple(seen)


def fold_and(parts: list[Formula]) -> Formula:
    """One ``And`` of ``parts``: the part itself if there is one, ``true``
    if none."""
    if len(parts) > 1:
        return And(*parts)
    return parts[0] if parts else TRUE


def fold_or(parts: list[Formula]) -> Formula:
    """One ``Or`` of ``parts``: the part itself if there is one, ``false``
    if none."""
    if len(parts) > 1:
        return Or(*parts)
    return parts[0] if parts else FALSE


def negate(f: Formula) -> Formula:
    """Negation with double negations collapsed."""
    if isinstance(f, Not):
        return f.body
    return Not(f)


# ---------------------------------------------------------------------------
# Substitution


def substitute(f: Formula, binding: Mapping[str, Term]) -> Formula:
    """Capture-avoiding substitution of free variables.

    Raises if the binding mentions a variable that is quantified in ``f``
    (only free variables may be replaced).
    """
    if not binding:
        return f
    offending = set(binding) - set(free_vars(f))
    if offending & bound_vars(f):
        raise WfomcError(f"cannot substitute quantified variable(s) {sorted(offending)}")
    return _subst(f, dict(binding))


def _subst(f: Formula, binding: dict[str, Term]) -> Formula:
    if isinstance(f, Atom):
        args = tuple(
            binding.get(t.name, t) if isinstance(t, Variable) else t for t in f.args
        )
        return Atom(f.pred, args)
    if isinstance(f, QUANT):
        inner = {k: v for k, v in binding.items() if k != f.var}
        if not inner:
            return f
        # Rename the bound variable if a replacement term would be captured.
        captured = any(
            isinstance(t, Variable) and t.name == f.var for t in inner.values()
        )
        if captured:
            taken = bound_vars(f) | free_vars(f) | set(inner)
            taken |= {t.name for t in inner.values() if isinstance(t, Variable)}
            fresh = FreshNamer(taken).variable(f.var)
            body = _subst(f.body, {f.var: Variable(fresh)})
            return type(f)(fresh, _subst(body, inner))
        return type(f)(f.var, _subst(f.body, inner))
    kids = tuple(_subst(c, binding) for c in children(f))
    return with_children(f, kids)


# ---------------------------------------------------------------------------
# Weights and theories


def _is_exact(w: Weight) -> bool:
    return isinstance(w, (Fraction, int))


@dataclass(frozen=True)
class WeightFn:
    """Per-predicate weight pairs (positive-literal, negative-literal).

    Unmapped predicates default to (1, 1). All weights in one function are
    either exact rationals or floats, never mixed.
    """

    pairs: Mapping[PredicateSig, tuple[Weight, Weight]] = field(default_factory=dict)
    mode: str = EXACT

    def __post_init__(self):
        if self.mode not in (EXACT, FLOAT):
            raise WfomcError(f"unknown weight mode {self.mode!r}")
        norm = {}
        for sig, (wt, wf) in self.pairs.items():
            if self.mode == EXACT:
                if not (_is_exact(wt) and _is_exact(wf)):
                    raise WfomcError(f"float weight for {sig} in exact mode")
                norm[sig] = (Fraction(wt), Fraction(wf))
            else:
                norm[sig] = (float(wt), float(wf))
        object.__setattr__(self, "pairs", norm)

    def get(self, sig: PredicateSig) -> tuple[Weight, Weight]:
        if sig in self.pairs:
            return self.pairs[sig]
        one = Fraction(1) if self.mode == EXACT else 1.0
        return (one, one)

    def exact(self, sig: PredicateSig) -> tuple[Fraction, Fraction]:
        """``get(sig)`` as exact rationals: a float weight is its exact
        binary value."""
        wt, wf = self.get(sig)
        return (wt, wf) if self.mode == EXACT else (Fraction(wt), Fraction(wf))

    def extended(self, extra: Mapping[PredicateSig, tuple[Weight, Weight]]) -> "WeightFn":
        merged = dict(self.pairs)
        for sig, pair in extra.items():
            merged[sig] = pair
        return WeightFn(merged, self.mode)


@dataclass(frozen=True)
class ScaleFactor:
    """A deferred count factor ``base ** (|domain| ** nvars)``.

    Produced by unit propagation when a predicate is simplified out of a
    theory; applied once the domain size is known.
    """

    base: Weight
    nvars: int


@dataclass(frozen=True)
class WeightedTheory:
    sentences: tuple[Formula, ...]
    weights: WeightFn = field(default_factory=WeightFn)
    scale: tuple[ScaleFactor, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        arities: dict[str, int] = {}
        sigs: set[PredicateSig] = set()
        for s in self.sentences:
            fv = free_vars(s)
            if fv:
                raise WfomcError(f"sentence has free variable(s) {sorted(fv)}")
            for sig in predicates(s):
                prev = arities.setdefault(sig.name, sig.arity)
                if prev != sig.arity:
                    raise WfomcError(
                        f"predicate {sig.name} used with arities {prev} and {sig.arity}"
                    )
                sigs.add(sig)
        # Kept outside the dataclass fields: it is derived from the
        # sentences, so equality, hashing and repr ignore it.
        object.__setattr__(self, "_predicates",
                           tuple(sorted(sigs, key=lambda p: (p.name, p.arity))))

    def predicates(self) -> tuple[PredicateSig, ...]:
        """All predicates occurring in the sentences, sorted by (name, arity)."""
        return self._predicates

    def constants(self) -> tuple[Constant, ...]:
        """All constants of the sentences, sorted by name; kept after the
        first call, since checks ask for them once per domain and count."""
        if "_constants" not in self.__dict__:
            found = set().union(*map(constants, self.sentences))
            object.__setattr__(self, "_constants", tuple(sorted(found, key=lambda c: c.name)))
        return self._constants

    def replace(self, **kw) -> "WeightedTheory":
        data = {
            "sentences": self.sentences,
            "weights": self.weights,
            "scale": self.scale,
        }
        data.update(kw)
        return WeightedTheory(**data)


@dataclass(frozen=True)
class Domain:
    """Finite, ordered, duplicate-free set of constants. Never empty."""

    constants: tuple[Constant, ...]

    def __post_init__(self):
        object.__setattr__(self, "constants", tuple(self.constants))
        if not self.constants:
            raise WfomcError("empty domain (Herbrand semantics needs at least one constant)")
        names = [c.name for c in self.constants]
        if len(set(names)) != len(names):
            raise WfomcError("duplicate constant in domain")

    def __len__(self) -> int:
        return len(self.constants)

    def __iter__(self) -> Iterator[Constant]:
        return iter(self.constants)

    @staticmethod
    def of_size(n: int, extra: tuple[Constant, ...] = ()) -> "Domain":
        """Synthesize C1..Cn and append any further named constants."""
        base = [Constant(f"C{i}") for i in range(1, n + 1)]
        names = {c.name for c in base}
        for c in extra:
            if c.name not in names:
                base.append(c)
                names.add(c.name)
        return Domain(tuple(base))


# ---------------------------------------------------------------------------
# Fresh names and alpha-renaming


class FreshNamer:
    """The names in use, and the one maker of new names.

    ``fresh(stem, start)`` is the least ``stem + str(k)``, k >= ``start``,
    not in ``used``, and it joins ``used``. Names are only ever added, so no
    smaller k is free later, and the next search for the stem starts one
    past the last: m names from one stem cost O(m) set lookups in all.
    ``used`` is the caller's set, not a copy. Predicates are numbered from
    0 (``Z0``, ``Sk0``, ``Attends_0``), variables from 1 (``y_1``).
    """

    __slots__ = ("used", "_next")

    def __init__(self, used: set[str] | None = None):
        self.used = set() if used is None else used
        self._next: dict[str, int] = {}

    @classmethod
    def for_theory(cls, t: WeightedTheory) -> "FreshNamer":
        """Names fresh against ``t``'s predicates, weighted ones included."""
        return cls({sig.name for sig in t.predicates()} | {sig.name for sig in t.weights.pairs})

    def fresh(self, stem: str, start: int) -> str:
        k = self._next.get(stem, start)
        while f"{stem}{k}" in self.used:
            k += 1
        name = f"{stem}{k}"
        self.used.add(name)
        self._next[stem] = k + 1
        return name

    def atom(self, stem: str, vars_: tuple[str, ...]) -> Atom:
        """A fresh predicate ``stem + k`` applied to the variables ``vars_``."""
        return Atom(PredicateSig(self.fresh(stem, 0), len(vars_)), tuple(map(Variable, vars_)))

    def variable(self, base: str) -> str:
        """A fresh variable ``base_k``."""
        return self.fresh(base + "_", 1)


def standardize_apart(t: WeightedTheory) -> WeightedTheory:
    """Rename quantified variables so no name is bound twice in the theory."""
    names = FreshNamer()  # sentences have no free variables
    return t.replace(sentences=tuple(rename_bound(s, names) for s in t.sentences))


def rename_bound(f: Formula, used: set[str] | FreshNamer) -> Formula:
    """``f`` with every quantified variable whose name is in use renamed to
    a fresh ``name_k`` (``FreshNamer.variable``); each binder's name joins
    the names in use, so no two binders of ``f`` share one either. ``used``,
    a set of names or a ``FreshNamer``, must hold the free variables of
    ``f``; a set gains the new names. A search for a fresh name resumes
    where the last one for its name stopped: within a call, and across
    calls over one ``FreshNamer``."""
    names = used if isinstance(used, FreshNamer) else FreshNamer(used)

    def walk(g: Formula, ren: dict[str, str]) -> Formula:
        if isinstance(g, Atom):
            args = tuple(
                Variable(ren[t_.name]) if isinstance(t_, Variable) and t_.name in ren else t_
                for t_ in g.args
            )
            return Atom(g.pred, args)
        if isinstance(g, QUANT):
            name = g.var
            if name in names.used:
                name = names.variable(name)
            else:
                names.used.add(name)
            inner = dict(ren)
            inner[g.var] = name
            return type(g)(name, walk(g.body, inner))
        return with_children(g, tuple(walk(c, ren) for c in children(g)))

    return walk(f, {})


# ---------------------------------------------------------------------------
# Normal-form classification


def classify_normal_form(t: WeightedTheory) -> str:
    """Strongest normal-form label that applies to every sentence."""
    clausal = skolem = True
    for s in t.sentences:
        body = s
        universal_only = True
        while isinstance(body, QUANT):
            if isinstance(body, Exists):
                universal_only = False
            body = body.body
        if not is_quantifier_free(body):
            return NF_ARBITRARY
        skolem = skolem and universal_only
        clausal = clausal and is_clause(body)
    if not t.sentences:
        return NF_FO_CNF
    if skolem and clausal:
        return NF_FO_CNF
    if skolem:
        return NF_SKOLEM
    if clausal:
        return NF_PRENEX_CLAUSAL
    return NF_PRENEX
