"""Herbrand grounding of weighted theories over finite domains."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping

from .errors import WfomcError
from .logic import (
    BINARY,
    FALSE,
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
    PredicateSig,
    TrueF,
    Variable,
    WeightedTheory,
    fold_and,
    fold_or,
)


@dataclass(frozen=True)
class HerbrandBase:
    """All ground atoms over some predicates and a domain's constants.

    Every atom lies in the layout that ``blocks`` records: per predicate, in
    base order, the index of its first atom. The block of an ``a``-ary
    predicate holds ``size ** a`` atoms, argument tuples in lexicographic
    domain order, and the atom whose ``k``-th argument is the domain's
    constant at position ``p_k`` has index ``first + sum(p_k * strides(a)[k])``.
    A theory's base lays out its predicates sorted by (name, arity); the
    predicates that clause form adds (``counting.tseitin_ground``) get
    blocks after them. A base built by hand without ``blocks`` serves only
    to compile formulas.
    """

    atoms: tuple[Atom, ...]
    index: dict = field(compare=False, repr=False)
    size: int = 0  # the domain size the blocks are laid out over
    blocks: tuple[tuple[PredicateSig, int], ...] = ()

    def __len__(self) -> int:
        return len(self.atoms)

    def strides(self, arity: int) -> tuple[int, ...]:
        """Per argument position, the index step of the next constant."""
        return tuple(self.size ** (arity - 1 - k) for k in range(arity))

    def appended(self, sigs, d: Domain) -> "HerbrandBase":
        """This base with a block per predicate of ``sigs`` after its own,
        laid out over ``d``."""
        atoms = list(self.atoms)
        index = dict(self.index)  # a copy keeps the hashes it holds
        blocks = list(self.blocks)
        for sig in sigs:
            blocks.append((sig, len(atoms)))
            for combo in itertools.product(d.constants, repeat=sig.arity):
                a = Atom(sig, combo)
                index[a] = len(atoms)
                atoms.append(a)
        return HerbrandBase(tuple(atoms), index, len(d), tuple(blocks))


@dataclass(frozen=True)
class GroundProblem:
    """A weighted counting problem over a Herbrand base.

    Weights and the scalar are exact. It holds either closed ``sentences``
    to ground over ``domain``, or
    ``clauses``: a CNF whose literals are signed base numbers (index + 1,
    negative when negated), where an empty clause leaves no model.
    ``formula``, the ground conjunction, is built from whichever is held on
    first access and then cached, so a counter that reads only clauses never
    builds it.
    """

    base: HerbrandBase
    weights: tuple[tuple[Fraction, Fraction], ...]  # per base index
    scalar: Fraction
    sentences: tuple[Formula, ...] = ()
    domain: Domain | None = None
    clauses: tuple[frozenset[int], ...] | None = None

    @cached_property
    def formula(self) -> Formula:
        if self.clauses is not None:
            return _clause_formula(self.clauses, self.base)
        g = _Grounder(self.domain)
        parts: dict[int, None] = {}
        for s in self.sentences:
            g.flatten(And, g.instantiate(s, {}), parts)
        return g.nodes[g.fold(And, parts)]


def herbrand_base(t: WeightedTheory, d: Domain) -> HerbrandBase:
    check_constants(t.constants(), d, "the theory")
    return HerbrandBase((), {}).appended(t.predicates(), d)


def ground(t: WeightedTheory, d: Domain) -> GroundProblem:
    """Expand quantifiers over the domain; sentences become one conjunction.

    The base, weights and scale are computed here, all exact: a float weight
    enters as ``Fraction(w)``, its exact binary value. The ground formula is
    built when ``formula`` is first read.
    """
    base = herbrand_base(t, d)
    weights = []
    for sig, _ in base.blocks:  # one shared pair per block
        weights += [t.weights.exact(sig)] * base.size ** sig.arity
    scalar = Fraction(1)
    for sf in t.scale:
        scalar = scalar * Fraction(sf.base) ** (len(d) ** sf.nvars)
    return GroundProblem(base, tuple(weights), scalar, t.sentences, d)


def clause_instances(lits: list[tuple[Atom, bool]], base: HerbrandBase, d: Domain,
                     inner) -> Iterator[tuple[int, ...]]:
    """Ground instances of a clause as signed base numbers, one tuple of
    literals per binding of the clause's outer variables to ``d``'s
    constants.

    ``lits`` are (atom, positive) pairs whose arguments are variables and
    constants, and ``base`` is laid out over ``d``. The variables named in
    ``inner`` are those of disjunctive quantifiers inside the clause: each
    instance holds the literals of every binding of them. No ground atom is
    built: an atom's number is read off the base layout (``HerbrandBase``),
    with each variable first bound to position 0 and then stepped along its
    stride, the outer variables first. An empty clause has no literals to
    bind and yields nothing; the caller decides what it means.
    """
    n = base.size
    first = dict(base.blocks)
    position = {c: i for i, c in enumerate(d.constants)}
    variables = list(dict.fromkeys(
        x.name for atom, _ in lits for x in atom.args if isinstance(x, Variable)))
    outer = [v for v in variables if v not in inner]
    columns = []  # per literal: its numbers, and how many per outer binding
    for atom, positive in lits:
        args = atom.args
        strides = base.strides(len(args))
        col = [first[atom.pred] + 1 + sum(position[x] * s for x, s in zip(args, strides)
                                          if not isinstance(x, Variable))]
        own = list(dict.fromkeys(
            x.name for x in args if isinstance(x, Variable) and x.name in inner))
        for v in outer + own:
            stride = sum(s for x, s in zip(args, strides)
                         if isinstance(x, Variable) and x.name == v)
            col = [c + stride * i for c in col for i in range(n)]
        columns.append((col if positive else [-c for c in col], n ** len(own)))
    if not inner:
        return zip(*(col for col, _ in columns))
    return (tuple(itertools.chain.from_iterable(col[j * k:(j + 1) * k] for col, k in columns))
            for j in range(n ** len(outer)))


def _clause_formula(clauses, base: HerbrandBase) -> Formula:
    """Conjunction of the clauses, literals in base order in each."""
    parts = []
    for c in clauses:
        if not c:
            return FALSE
        parts.append(fold_or([base.atoms[l - 1] if l > 0 else Not(base.atoms[-l - 1])
                              for l in sorted(c, key=abs)]))
    return fold_and(parts)


def check_constants(constants, d: Domain, owner: str):
    """Raise unless each of ``constants`` (those of ``owner``) is in ``d``."""
    names = {c.name for c in d.constants}
    missing = sorted(c.name for c in constants if c.name not in names)
    if missing:
        raise WfomcError(f"constant(s) {missing} of {owner} missing from the domain")


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
