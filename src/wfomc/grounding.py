"""Herbrand grounding of weighted theories over finite domains."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from .errors import WfomcError
from .logic import (
    BINARY,
    QUANT,
    And,
    Atom,
    Constant,
    Domain,
    FalseF,
    ForAll,
    Formula,
    Not,
    Or,
    TrueF,
    Variable,
    Weight,
    WeightedTheory,
)


@dataclass(frozen=True)
class HerbrandBase:
    """All ground atoms over a theory's predicates and a domain's constants.

    Ordering is deterministic: predicates sorted by (name, arity), argument
    tuples in lexicographic domain order.
    """

    atoms: tuple[Atom, ...]
    index: dict = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class GroundProblem:
    base: HerbrandBase
    formula: Formula  # ground; conjunction of the theory's sentences
    weights: tuple[tuple[Weight, Weight], ...]  # per base index
    scalar: Weight
    mode: str


def herbrand_base(t: WeightedTheory, d: Domain) -> HerbrandBase:
    _check_constants(t, d)
    atoms: list[Atom] = []
    for sig in t.predicates():
        for combo in itertools.product(d.constants, repeat=sig.arity):
            atoms.append(Atom(sig, combo))
    return HerbrandBase(tuple(atoms), {a: i for i, a in enumerate(atoms)})


def ground(t: WeightedTheory, d: Domain) -> GroundProblem:
    """Expand quantifiers over the domain; sentences become one conjunction."""
    base = herbrand_base(t, d)
    g = _Grounder(d)
    parts: dict[int, None] = {}
    for s in t.sentences:
        g.flatten(And, g.instantiate(s, {}), parts)
    formula = g.nodes[g.fold(And, parts)]
    weights = tuple(t.weights.get(a.pred) for a in base.atoms)
    scalar = t.weights.one()
    for sf in t.scale:
        scalar = scalar * (sf.base ** (len(d) ** sf.nvars))
    return GroundProblem(base, formula, weights, scalar, t.mode)


def _check_constants(t: WeightedTheory, d: Domain):
    names = {c.name for c in d.constants}
    missing = [c.name for c in t.constants() if c.name not in names]
    if missing:
        raise WfomcError(f"constant(s) {missing} of the theory missing from the domain")


def expand(f: Formula, d: Domain, env: Mapping[str, Constant] | None = None) -> Formula:
    """Ground ``f`` over ``d``: ``forall`` becomes a conjunction and
    ``exists`` a disjunction over the domain's constants.

    Variables bound in ``env`` or by an enclosing quantifier are replaced by
    their constants; other variables stay free.
    """
    g = _Grounder(d)
    return g.nodes[g.instantiate(f, dict(env or {}))]


class _Grounder:
    """One pass over a formula that carries an environment from variables to
    constants and builds the ground result hash-consed.

    Binding only constants means nothing can be captured, and an inner binder
    shadows an outer one by overwriting its name in the environment, so no
    renaming is needed. The recursion follows the formula's nesting; loops,
    never recursion, run over the domain.

    Equal ground subformulas get one id and one object. Instances repeated
    across a quantifier's expansion (a subformula not mentioning the bound
    variable, a vacuous quantifier) are dropped after flattening by id,
    keeping first occurrences in order: conjunction and disjunction are
    associative and idempotent, and this matches hand-written groundings.
    Comparing ids also means no subtree is hashed or compared as a whole,
    which for a left-deep fold would recurse once per domain constant.
    """

    def __init__(self, d: Domain):
        self.consts = d.constants
        self.nodes: list[Formula] = []  # by id
        self.kids: list[tuple[int, ...]] = []  # child ids, by id
        self.ids: dict[tuple, int] = {}  # (Atom, pred, args) or (type, *child ids)

    def _add(self, key: tuple, f: Formula, kids: tuple[int, ...]) -> int:
        i = self.ids[key] = len(self.nodes)
        self.nodes.append(f)
        self.kids.append(kids)
        return i

    def _node(self, cls, kids: tuple[int, ...]) -> int:
        key = (cls, *kids)
        i = self.ids.get(key)
        if i is None:
            i = self._add(key, cls(*[self.nodes[k] for k in kids]), kids)
        return i

    def instantiate(self, f: Formula, env: dict[str, Constant]) -> int:
        if isinstance(f, Atom):
            args = tuple(env.get(a.name, a) if isinstance(a, Variable) else a for a in f.args)
            key = (Atom, f.pred, args)
            i = self.ids.get(key)
            if i is None:
                i = self._add(key, Atom(f.pred, args), ())
            return i
        if isinstance(f, QUANT):
            cls = And if isinstance(f, ForAll) else Or
            outer = env.get(f.var)
            parts: dict[int, None] = {}
            for c in self.consts:
                env[f.var] = c
                self.flatten(cls, self.instantiate(f.body, env), parts)
            if outer is None:
                del env[f.var]
            else:
                env[f.var] = outer
            return self.fold(cls, parts)
        if isinstance(f, Not):
            kids = (self.instantiate(f.body, env),)
        elif isinstance(f, BINARY):
            kids = (self.instantiate(f.left, env), self.instantiate(f.right, env))
        else:
            kids = ()  # true or false
        return self._node(type(f), kids)

    def flatten(self, cls, i: int, parts: dict[int, None]):
        """Append the ``cls`` operands of node ``i`` to ``parts``, skipping repeats."""
        stack = [i]
        while stack:
            j = stack.pop()
            if isinstance(self.nodes[j], cls):
                left, right = self.kids[j]
                stack.append(right)
                stack.append(left)
            else:
                parts[j] = None  # a repeat keeps its first position

    def fold(self, cls, parts) -> int:
        """Left-deep fold of the ids in ``parts``; ``true``/``false`` if empty."""
        out = None
        for p in parts:
            out = p if out is None else self._node(cls, (out, p))
        if out is None:
            return self._node(TrueF if cls is And else FalseF, ())
        return out
