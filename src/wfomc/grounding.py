"""Herbrand grounding of weighted theories over finite domains."""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping

from .errors import WfomcError
from .logic import (
    And,
    Atom,
    Constant,
    Domain,
    Exists,
    FalseF,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PredicateSig,
    TrueF,
    Variable,
    WeightedTheory,
    constants,
    first_occurrence_vars,
    predicates,
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
    get blocks after them (``clause_problem``). Ground atoms are built only
    when ``atoms`` or ``atom`` is read.
    """

    constants: tuple[Constant, ...]
    blocks: tuple[tuple[PredicateSig, int], ...] = ()

    def __len__(self) -> int:
        return self.blocks[-1][1] + self.block_length(self.blocks[-1][0].arity) if self.blocks else 0

    def block_length(self, arity: int) -> int:
        return len(self.constants) ** arity

    def strides(self, arity: int) -> tuple[int, ...]:
        """Per argument position, the index step of the next constant."""
        n = len(self.constants)
        return tuple(n ** (arity - 1 - k) for k in range(arity))

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

    def atom(self, i: int) -> Atom:
        """The ground atom of index ``i``."""
        if not 0 <= i < len(self):
            raise WfomcError(f"atom index {i} outside a Herbrand base of {len(self)} atoms")
        sig, first = self.blocks[bisect_right([first for _, first in self.blocks], i) - 1]
        n, offset = len(self.constants), i - first
        return Atom(sig, tuple(self.constants[offset // stride % n]
                               for stride in self.strides(sig.arity)))

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """Every ground atom in index order, built on each read."""
        return tuple(Atom(sig, args) for sig, _ in self.blocks
                     for args in itertools.product(self.constants, repeat=sig.arity))


@dataclass(frozen=True)
class GroundDag:
    """A ground formula as a hash-consed DAG over a Herbrand base.

    ``nodes`` holds each distinct ground subformula once, every node after
    its children, as a tuple of a formula class and ints: ``(Atom, i)`` for
    base atom ``i``, ``(cls, *child ids)`` for a connective (``Not``,
    ``And``, ``Or``, ``Implies``, ``Iff``), ``(TrueF,)`` and ``(FalseF,)``.
    The formula is the node ``root``. It may not reach every node: a
    junction spliced into an enclosing one of its kind is left behind.
    """

    base: HerbrandBase
    nodes: tuple[tuple, ...]
    root: int

    def formula(self) -> Formula:
        """The ground formula as ``Formula`` objects, one per node."""
        built: list[Formula] = []
        for cls, *rest in self.nodes[:self.root + 1]:
            built.append(self.base.atom(rest[0]) if cls is Atom
                         else cls(*[built[k] for k in rest]))
        return built[self.root]


@dataclass(frozen=True)
class GroundProblem:
    """A weighted counting problem over a Herbrand base.

    Weights and the scalar are exact, one weight pair per predicate: per
    entry of ``base.blocks``, in block order. It holds either closed
    ``sentences`` to ground over the base's constants, or
    ``clauses``: a CNF whose literals are signed base numbers (index + 1,
    negative when negated), where an empty clause leaves no model
    (``clause_problem`` builds one from first-order clause rows).
    ``dag``, the ground conjunction as a hash-consed DAG, and ``formula``,
    the same conjunction as ``Formula`` objects, are built from whichever
    is held on first access and then cached, so a counter that reads only
    clauses never builds them.
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
    def dag(self) -> GroundDag:
        g = _Grounder(self.base, len(self.base.constants))
        if self.clauses is not None:
            root = g.clause_conjunction(self.clauses)
        else:
            parts: dict[int, None] = {}
            for s in self.sentences:
                g.into(And, s, {}, parts)
            root = g.fold(And, parts)
        return GroundDag(self.base, tuple(g.nodes), root)

    @cached_property
    def formula(self) -> Formula:
        return self.dag.formula()


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


def clause_problem(base: HerbrandBase, weights, scalar, rows, added=()) -> GroundProblem:
    """The ground clause problem of first-order clause rows, (literals,
    inner variables) as ``transform.clause_form`` gives them: the blocks of
    ``added`` (predicate, weight pair) go after ``base``'s, with their
    weights after ``weights``, and the rows' instances are numbered from
    the result (``clause_set``)."""
    base = base.appended(sig for sig, _ in added)
    weights = (*weights, *(pair for _, pair in added))
    return GroundProblem(base, weights, scalar, clauses=clause_set(rows, base))


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


def clause_set(rows, layout: HerbrandBase) -> tuple[frozenset[int], ...]:
    """The ground instances of clauses given as (literals, inner variables)
    rows, numbered from the base layout (``clause_instances``).
    Tautological and repeated instances are dropped; a clause without
    literals leaves only the empty clause (the domain is never empty)."""
    clauses: dict[frozenset[int], None] = {}
    for lits, inner in rows:
        if not lits:
            return (frozenset(),)
        instances = map(frozenset, clause_instances(lits, layout, inner))
        positive = {a.pred for a, pos in lits if pos}
        # Some instance may be a tautology.
        if any(not pos and a.pred in positive for a, pos in lits):
            instances = (c for c in instances if not any(-l in c for l in c))
        clauses.update(dict.fromkeys(instances))
    return tuple(clauses)


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
    their constants; other variables stay free. The grounder lays its atoms
    out in a Herbrand base over the domain's constants followed by every
    other term ``f`` can leave in an atom (constants of ``env`` or ``f``
    outside ``d``, free variables), each free variable bound to itself.
    """
    env = dict(env or {})
    free = [Variable(v) for v in first_occurrence_vars(f) if v not in env]
    extra = [*env.values(), *sorted(constants(f), key=lambda c: c.name), *free]
    terms = tuple(dict.fromkeys([*d.constants, *extra]))
    sigs = sorted(predicates(f), key=lambda sig: (sig.name, sig.arity))
    base = HerbrandBase(terms).appended(sigs)
    position = {t: i for i, t in enumerate(terms)}
    bound = {v: position[c] for v, c in env.items()} | {v.name: position[v] for v in free}
    g = _Grounder(base, len(d.constants))
    root = g.instantiate(f, bound)
    return GroundDag(base, tuple(g.nodes), root).formula()


class _Grounder:
    """One pass over a formula that carries an environment from variables to
    constant positions and builds the ground result as a hash-consed DAG
    (``GroundDag``) over a Herbrand base.

    Binding only constants means nothing can be captured, and an inner binder
    shadows an outer one by overwriting its name in the environment, so no
    renaming is needed. The recursion follows the formula's nesting; loops,
    never recursion, run over the domain, the first ``n`` constants of the
    base.

    A node is keyed by its own tuple of a class and ints: an atom by its
    base index, computed from the first-order atom's ``HerbrandBase.layout``
    and the positions its variables are bound to, a connective by its child
    ids. No ``Formula`` object is built and no subtree is hashed or compared
    as a whole, so equal ground subformulas get one id cheaply. Instances
    repeated across a quantifier's expansion (a subformula not mentioning
    the bound variable, a vacuous quantifier) are dropped after flattening
    by id, keeping first occurrences in order: conjunction and disjunction
    are associative and idempotent, and this matches hand-written
    groundings.
    """

    def __init__(self, base: HerbrandBase, n: int):
        self.base = base
        self.n = n
        self.nodes: list[tuple] = []  # by id
        self.ids: dict[tuple, int] = {}
        # per first-order atom object, by id(): its layout, the steps as pairs
        self.layouts: dict[int, tuple[int, tuple[tuple[str, int], ...]]] = {}

    def node(self, key: tuple) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.nodes)
            self.nodes.append(key)
        return i

    def instantiate(self, f: Formula, env: dict[str, int]) -> int:
        t = type(f)
        if t is Atom:
            layout = self.layouts.get(id(f))
            if layout is None:
                start, steps = self.base.layout(f)
                layout = self.layouts[id(f)] = (start, tuple(steps.items()))
            index, steps = layout
            try:
                for v, step in steps:
                    index += env[v] * step
            except KeyError:
                raise WfomcError(f"free variable {v!r} in a sentence to ground") from None
            key = (Atom, index)
        elif t is ForAll or t is Exists:
            cls = And if t is ForAll else Or
            parts: dict[int, None] = {}
            self.into(cls, f, env, parts)
            return self.fold(cls, parts)
        elif t is And or t is Or:
            key = (t, *[self.instantiate(p, env) for p in f.parts])
        elif t is Not:
            key = (Not, self.instantiate(f.body, env))
        elif t is Implies or t is Iff:
            key = (t, self.instantiate(f.left, env), self.instantiate(f.right, env))
        elif t is TrueF or t is FalseF:
            key = (t,)
        else:
            raise WfomcError(f"cannot ground a {t.__name__}")
        return self.node(key)

    def into(self, cls, f: Formula, env: dict[str, int], parts: dict[int, None]):
        """Add the ``cls`` operands of ``f``'s instantiation to ``parts``,
        skipping repeats. A ``cls`` junction, or a quantifier that expands
        to one (``forall`` for ``And``, ``exists`` for ``Or``), adds its
        operands' operands in order, without a node of its own."""
        t = type(f)
        if t is cls:
            for p in f.parts:
                self.into(cls, p, env, parts)
        elif t is (ForAll if cls is And else Exists):
            outer = env.get(f.var)
            for c in range(self.n):
                env[f.var] = c
                self.into(cls, f.body, env, parts)
            if outer is None:
                del env[f.var]
            else:
                env[f.var] = outer
        else:
            i = self.instantiate(f, env)
            if self.nodes[i][0] is cls:
                self.flatten(cls, i, parts)
            else:
                parts[i] = None  # a repeat keeps its first position

    def flatten(self, cls, i: int, parts: dict[int, None]):
        """Append the ``cls`` operands of node ``i`` to ``parts``, skipping repeats."""
        stack = [i]
        while stack:
            j = stack.pop()
            node = self.nodes[j]
            if node[0] is cls:
                stack += reversed(node[1:])
            else:
                parts[j] = None  # a repeat keeps its first position

    def fold(self, cls, parts) -> int:
        """One ``cls`` node over the ids in ``parts``: the id itself if there
        is one, ``true``/``false`` if none."""
        if len(parts) > 1:
            return self.node((cls, *parts))
        return next(iter(parts)) if parts else self.node((TrueF,) if cls is And else (FalseF,))

    def clause_conjunction(self, clauses) -> int:
        """The conjunction of clauses of signed base numbers, literals in
        base order in each; ``false`` if one is empty."""
        if not all(clauses):
            return self.fold(Or, ())
        parts: dict[int, None] = {}
        for c in clauses:
            lits = {}
            for l in sorted(c, key=abs):
                a = self.node((Atom, abs(l) - 1))
                lits[a if l > 0 else self.node((Not, a))] = None
            parts[self.fold(Or, lits)] = None
        return self.fold(And, parts)
