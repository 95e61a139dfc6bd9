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

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


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


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


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

BINARY = (And, Or, Implies, Iff)
QUANT = (ForAll, Exists)


def atom(name: str, *args: Term) -> Atom:
    """Convenience constructor: ``atom("P", Variable("x"))``."""
    return Atom(PredicateSig(name, len(args)), tuple(args))


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, BINARY):
        return (f.left, f.right)
    if isinstance(f, Not):
        return (f.body,)
    if isinstance(f, QUANT):
        return (f.body,)
    return ()


def with_children(f: Formula, kids: tuple[Formula, ...]) -> Formula:
    """Rebuild ``f`` with the given child formulas."""
    if isinstance(f, BINARY):
        return type(f)(kids[0], kids[1])
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
    if isinstance(f, Atom):
        return frozenset(t.name for t in f.args if isinstance(t, Variable))
    if isinstance(f, QUANT):
        return free_vars(f.body) - {f.var}
    out: frozenset[str] = frozenset()
    for c in children(f):
        out |= free_vars(c)
    return out


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
    """A clause is a disjunction of literals; the empty clause is ``false``."""
    if isinstance(f, FalseF):
        return True
    if isinstance(f, Or):
        return is_clause_nonempty(f)
    return is_literal(f)


def is_clause_nonempty(f: Formula) -> bool:
    if isinstance(f, Or):
        return is_clause_nonempty(f.left) and is_clause_nonempty(f.right)
    return is_literal(f)


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
    """Quantify the free variables of ``f`` universally.

    ``order`` defaults to first-occurrence order in the formula.
    """
    if order is None:
        order = first_occurrence_vars(f)
    fv = free_vars(f)
    for v in reversed([v for v in order if v in fv]):
        f = ForAll(v, f)
    return f


def first_occurrence_vars(f: Formula) -> tuple[str, ...]:
    """Free variables of ``f`` in order of first (preorder) occurrence."""
    seen: list[str] = []

    def walk(g: Formula, bound: frozenset[str]):
        if isinstance(g, Atom):
            for t in g.args:
                if isinstance(t, Variable) and t.name not in bound and t.name not in seen:
                    seen.append(t.name)
        elif isinstance(g, QUANT):
            walk(g.body, bound | {g.var})
        else:
            for c in children(g):
                walk(c, bound)

    walk(f, frozenset())
    return tuple(seen)


def fold_and(parts: list[Formula]) -> Formula:
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def fold_or(parts: list[Formula]) -> Formula:
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


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
            fresh = _fresh_var(f.var, taken)
            body = _subst(f.body, {f.var: Variable(fresh)})
            return type(f)(fresh, _subst(body, inner))
        return type(f)(f.var, _subst(f.body, inner))
    kids = tuple(_subst(c, binding) for c in children(f))
    return with_children(f, kids)


def _fresh_var(base: str, taken: set[str]) -> str:
    k = 1
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


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

    def extended(self, extra: Mapping[PredicateSig, tuple[Weight, Weight]]) -> "WeightFn":
        merged = dict(self.pairs)
        for sig, pair in extra.items():
            merged[sig] = pair
        return WeightFn(merged, self.mode)

    def one(self) -> Weight:
        return Fraction(1) if self.mode == EXACT else 1.0


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

    @property
    def mode(self) -> str:
        return self.weights.mode

    def predicates(self) -> tuple[PredicateSig, ...]:
        """All predicates occurring in the sentences, sorted by (name, arity)."""
        return self._predicates

    def constants(self) -> tuple[Constant, ...]:
        out = set()
        for s in self.sentences:
            out |= constants(s)
        return tuple(sorted(out, key=lambda c: c.name))

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
# Alpha-renaming


def standardize_apart(t: WeightedTheory) -> WeightedTheory:
    """Rename quantified variables so no name is bound twice in the theory."""
    used: set[str] = set()
    for s in t.sentences:
        used |= free_vars(s)

    def walk(f: Formula, ren: dict[str, str]) -> Formula:
        if isinstance(f, Atom):
            args = tuple(
                Variable(ren[t_.name]) if isinstance(t_, Variable) and t_.name in ren else t_
                for t_ in f.args
            )
            return Atom(f.pred, args)
        if isinstance(f, QUANT):
            name = f.var
            if name in used:
                name = _fresh_var(f.var, used)
            used.add(name)
            inner = dict(ren)
            inner[f.var] = name
            return type(f)(name, walk(f.body, inner))
        kids = tuple(walk(c, ren) for c in children(f))
        return with_children(f, kids)

    return t.replace(sentences=tuple(walk(s, {}) for s in t.sentences))


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
