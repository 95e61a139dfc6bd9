"""Herbrand grounding of weighted theories over finite domains."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping

from .errors import WfomcError
from .logic import (
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
    children,
    fold_and,
    fold_or,
)


@dataclass(frozen=True)
class HerbrandBase:
    """The numbering of all ground atoms over some predicates and a
    domain's constants, held as its layout: no atom is stored.

    ``blocks`` records, per predicate in base order, the index of its first
    atom. The block of an ``a``-ary predicate holds ``block_length(a)``
    atoms, argument tuples in lexicographic order of ``constants``, and the
    atom whose ``k``-th argument is the constant at position ``p_k`` has
    index ``first + sum(p_k * strides(a)[k])``. A theory's base lays out its
    predicates sorted by (name, arity); the predicates that clause form adds
    (``counting.tseitin_ground``) get blocks after them. Ground atoms are
    built only when ``atoms`` is read.
    """

    constants: tuple[Constant, ...]
    blocks: tuple[tuple[PredicateSig, int], ...] = ()

    def __len__(self) -> int:
        return self.blocks[-1][1] + self.block_length(self.blocks[-1][0].arity) if self.blocks else 0

    def block_length(self, arity: int) -> int:
        return len(self.constants) ** arity

    def strides(self, arity: int) -> tuple[int, ...]:
        """Per argument position, the index step of the next constant."""
        return tuple(self.block_length(arity - 1 - k) for k in range(arity))

    def appended(self, sigs) -> "HerbrandBase":
        """This base with a block per predicate of ``sigs`` after its own."""
        blocks, end = list(self.blocks), len(self)
        for sig in sigs:
            blocks.append((sig, end))
            end += self.block_length(sig.arity)
        return HerbrandBase(self.constants, tuple(blocks))

    def layout(self, atom: Atom) -> tuple[int, dict[str, int]]:
        """The index of ``atom`` with every variable at the first constant,
        and per variable, in order of first occurrence, the index step of
        binding it to the next one. Raises ``WfomcError`` for an atom whose
        predicate has no block or whose constant is not in the base."""
        if "_first" not in self.__dict__:  # per predicate, its block's first index
            object.__setattr__(self, "_first", dict(self.blocks))
        i = self._first.get(atom.pred)
        if i is None:
            raise WfomcError(f"ground atom {atom} not in the Herbrand base")
        steps: dict[str, int] = {}
        for arg, stride in zip(atom.args, self.strides(atom.pred.arity)):
            if isinstance(arg, Variable):
                steps[arg.name] = steps.get(arg.name, 0) + stride
            elif arg in self.constants:
                i += self.constants.index(arg) * stride
            else:
                raise WfomcError(f"ground atom {atom} not in the Herbrand base")
        return i, steps

    def atom_index(self, atom: Atom) -> int:
        """The index of a ground atom (``layout``), which must not have a variable."""
        i, steps = self.layout(atom)
        if steps:
            raise WfomcError(f"ground atom {atom} not in the Herbrand base")
        return i

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """Every ground atom in index order, built on each read."""
        return tuple(Atom(sig, args) for sig, _ in self.blocks
                     for args in itertools.product(self.constants, repeat=sig.arity))


@dataclass(frozen=True)
class GroundProblem:
    """A weighted counting problem over a Herbrand base.

    Weights and the scalar are exact, one weight pair per predicate: per
    entry of ``base.blocks``, in block order. It holds either closed
    ``sentences`` to ground over the base's constants, or
    ``clauses``: a CNF whose literals are signed base numbers (index + 1,
    negative when negated), where an empty clause leaves no model.
    ``formula``, the ground conjunction, is built from whichever is held on
    first access and then cached, so a counter that reads only clauses never
    builds it.
    """

    base: HerbrandBase
    weights: tuple[tuple[Fraction, Fraction], ...]  # per base block
    scalar: Fraction
    sentences: tuple[Formula, ...] = ()
    clauses: tuple[frozenset[int], ...] | None = None

    def __post_init__(self):
        if len(self.weights) != len(self.base.blocks):
            raise WfomcError(f"{len(self.weights)} weight pair(s) for "
                             f"{len(self.base.blocks)} Herbrand base block(s)")

    @property
    def atom_weights(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Every base atom's weight pair in index order; for small bases."""
        return tuple(pair for (sig, _), pair in zip(self.base.blocks, self.weights)
                     for _ in range(self.base.block_length(sig.arity)))

    @cached_property
    def formula(self) -> Formula:
        if self.clauses is not None:
            return _clause_formula(self.clauses, self.base)
        g = _Grounder(self.base.constants)
        parts: dict[int, None] = {}
        for s in self.sentences:
            g.flatten(And, g.instantiate(s, {}), parts)
        return g.nodes[g.fold(And, parts)]


def herbrand_base(t: WeightedTheory, d: Domain) -> HerbrandBase:
    check_constants(t.constants(), d, "the theory")
    return HerbrandBase(d.constants).appended(t.predicates())


def ground(t: WeightedTheory, d: Domain) -> GroundProblem:
    """Lay out the Herbrand base and compute the scale factor and one weight
    pair per predicate, all exact: a float weight enters as ``Fraction(w)``,
    its exact binary value. No ground atom is built here, and the ground
    formula (quantifiers expanded, sentences one conjunction) only when
    ``formula`` is first read.
    """
    base = herbrand_base(t, d)
    weights = tuple(t.weights.exact(sig) for sig, _ in base.blocks)
    scalar = Fraction(1)
    for sf in t.scale:
        scalar = scalar * Fraction(sf.base) ** (len(d) ** sf.nvars)
    return GroundProblem(base, weights, scalar, t.sentences)


def clause_instances(lits: list[tuple[Atom, bool]], base: HerbrandBase,
                     inner) -> Iterator[tuple[int, ...]]:
    """Ground instances of a clause as signed base numbers, one tuple of
    literals per binding of the clause's outer variables to the base's
    constants.

    ``lits`` are (atom, positive) pairs whose arguments are variables and
    constants of the base. The variables named in ``inner`` are those of
    disjunctive quantifiers inside the clause: each instance holds the
    literals of every binding of them. No ground atom is built: each
    literal's numbers start at its atom's ``HerbrandBase.layout``, every
    variable at the first constant, and step along each variable's stride,
    the outer variables first. An empty clause has no literals to bind and
    yields nothing; the caller decides what it means.
    """
    n = len(base.constants)
    layouts = [base.layout(atom) for atom, _ in lits]
    outer = list(dict.fromkeys(v for _, steps in layouts for v in steps if v not in inner))
    columns = []  # per literal: its numbers, and how many per outer binding
    for (start, steps), (_, positive) in zip(layouts, lits):
        own = [v for v in steps if v in inner]
        col = [start + 1]
        for v in outer + own:
            stride = steps.get(v, 0)
            col = [c + stride * i for c in col for i in range(n)]
        columns.append((col if positive else [-c for c in col], n ** len(own)))
    if not inner:
        return zip(*(col for col, _ in columns))
    return (tuple(itertools.chain.from_iterable(col[j * k:(j + 1) * k] for col, k in columns))
            for j in range(n ** len(outer)))


def _clause_formula(clauses, base: HerbrandBase) -> Formula:
    """Conjunction of the clauses, literals in base order in each."""
    atoms, parts = base.atoms, []
    for c in clauses:
        if not c:
            return FALSE
        parts.append(fold_or([atoms[l - 1] if l > 0 else Not(atoms[-l - 1])
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
    g = _Grounder(d.constants)
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
    Nodes are keyed by their child ids rather than by the ground formulas
    themselves because that is faster: no subtree is hashed or compared as
    a whole.
    """

    def __init__(self, constants: tuple[Constant, ...]):
        self.consts = constants
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
        kids = tuple(self.instantiate(c, env) for c in children(f))
        return self._node(type(f), kids)

    def flatten(self, cls, i: int, parts: dict[int, None]):
        """Append the ``cls`` operands of node ``i`` to ``parts``, skipping repeats."""
        stack = [i]
        while stack:
            j = stack.pop()
            if isinstance(self.nodes[j], cls):
                stack += reversed(self.kids[j])
            else:
                parts[j] = None  # a repeat keeps its first position

    def fold(self, cls, parts) -> int:
        """One ``cls`` node over the ids in ``parts``: the id itself if there
        is one, ``true``/``false`` if none."""
        if len(parts) > 1:
            return self._node(cls, tuple(parts))
        return next(iter(parts)) if parts else self._node(TrueF if cls is And else FalseF, ())
