"""Random-instance generation and the certification harness.

Everything here measures one thing: that quantifier elimination and its
relatives preserve exact weighted counts, judged against the brute-force
counter. Failures are shrunk to small witnesses before being reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .counting import max_atoms_cap, wfomc
from .errors import CapExceededError, WfomcError
from .frontends import serialize_formula, serialize_theory
from .grounding import herbrand_base
from .logic import (
    And,
    Atom,
    Domain,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Junction,
    Not,
    Or,
    PredicateSig,
    QUANT,
    Variable,
    Weight,
    WeightFn,
    WeightedTheory,
    children,
    fold_and,
    free_vars,
    predicates,
    standardize_apart,
    substitute,
    with_children,
)
from .transform import (
    ElimSite,
    StagedElimination,
    replace_at,
    skolemize,
    staged_elimination,
    to_cnf_distribute,
    to_cnf_tseitin,
    unit_propagate,
)

DEFAULT_WEIGHT_POOL = (
    Fraction(1), Fraction(1), Fraction(1), Fraction(1),
    Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3, 10),
)
_SHRINK_STEPS = 200  # candidates that shrink_theory tries before it stops


@dataclass(frozen=True)
class GenConfig:
    """Caps for the random theory generator; generation is a pure function
    of the seed."""

    max_predicates: int = 2
    max_arity: int = 2
    max_quantifier_depth: int = 3
    max_connective_depth: int = 3
    max_sentences: int = 2
    domain_sizes: tuple[int, ...] = (1, 2)
    seed: int = 0

    def __post_init__(self):
        if self.max_arity > 2:
            raise WfomcError("generator arity cap is 2")
        if self.max_quantifier_depth > 3:
            raise WfomcError("generator quantifier depth cap is 3")
        if not set(self.domain_sizes) <= {1, 2, 3}:
            raise WfomcError("generator domain sizes must be within {1,2,3}")


def gen_theory(cfg: GenConfig) -> WeightedTheory:
    rng = random.Random(cfg.seed)
    n_preds = rng.randint(1, cfg.max_predicates)
    sigs = []
    for i in range(n_preds):
        arity = rng.choice([0, 1, 1, 2][: 2 + cfg.max_arity])
        arity = min(arity, cfg.max_arity)
        sigs.append(PredicateSig(f"P{i}", arity))
    if cfg.max_quantifier_depth == 0 and all(s.arity for s in sigs):
        sigs[0] = PredicateSig(sigs[0].name, 0)  # closed sentences need a leaf

    var_counter = [0]

    def fresh_var() -> str:
        var_counter[0] += 1
        return f"v{var_counter[0]}"

    # The quantifier budget is shared across a whole sentence (not per path):
    # every quantifier costs one elimination later, and each elimination adds
    # fresh predicates, so this is what keeps Herbrand bases enumerable.
    def gen(budget: list[int], dc: int, scope: tuple[str, ...]) -> Formula:
        usable = [s for s in sigs if s.arity == 0 or scope]
        must_quantify = not usable
        r = rng.random()
        if budget[0] > 0 and (must_quantify or r < 0.35):
            budget[0] -= 1
            v = fresh_var()
            cls = ForAll if rng.random() < 0.5 else Exists
            return cls(v, gen(budget, dc, scope + (v,)))
        if dc > 0 and r < 0.80 and not must_quantify:
            kind = rng.randrange(5)
            if kind == 0:
                return Not(gen(budget, dc - 1, scope))
            cls = (And, Or, Implies, Iff)[kind - 1]
            left, right = gen(budget, dc - 1, scope), gen(budget, dc - 1, scope)
            if isinstance(left, cls) and cls in (And, Or):  # one node per chain, as parsed
                return cls(*left.parts, right)
            return cls(left, right)
        if must_quantify:  # out of quantifier budget and no usable predicate
            sig = min(sigs, key=lambda s: s.arity)
            v = fresh_var()
            body = Atom(sig, tuple(Variable(v) for _ in range(sig.arity)))
            return ForAll(v, body)
        sig = rng.choice(usable)
        args = tuple(Variable(rng.choice(scope)) for _ in range(sig.arity))
        return Atom(sig, args)

    sentences = []
    for _ in range(rng.randint(1, cfg.max_sentences)):
        f = gen([cfg.max_quantifier_depth], cfg.max_connective_depth, ())
        assert not free_vars(f)
        sentences.append(f)

    pairs = {}
    for sig in sigs:
        wt = rng.choice(DEFAULT_WEIGHT_POOL)
        wf = rng.choice(DEFAULT_WEIGHT_POOL)
        if (wt, wf) != (1, 1):
            pairs[sig] = (wt, wf)
    return WeightedTheory(tuple(sentences), WeightFn(pairs))


def gen_ground_conjunction(rng: random.Random, t: WeightedTheory, d: Domain,
                           max_literals: int = 3) -> Formula:
    """Conjunction of up to three ground literals over the theory's own
    predicates (never over predicates a transformation introduced)."""
    sigs = list(t.predicates())
    if not sigs:
        return fold_and([])  # a theory without atoms admits only trivial queries
    lits = []
    for _ in range(rng.randint(1, max_literals)):
        sig = rng.choice(sigs)
        args = tuple(rng.choice(d.constants) for _ in range(sig.arity))
        a = Atom(sig, args)
        lits.append(a if rng.random() < 0.5 else Not(a))
    return fold_and(lits)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class Counterexample:
    theory: WeightedTheory
    domain_size: int
    before: Weight
    after: Weight
    query: Formula | None = None


@dataclass(frozen=True)
class CheckReport:
    checked: int = 0
    skipped: int = 0
    failures: tuple[Counterexample, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# Soundness


def check_soundness(t: WeightedTheory, sizes=(1, 2), max_atoms: int | None = None,
                    transform=skolemize, shrink: bool = True) -> CheckReport:
    """Exact count equality before and after the transformation, at every
    domain size; the smallest failing size is reported with a shrunk witness.
    A size is skipped where either Herbrand base has more atoms than the cap
    (``max_atoms_cap``) that every count is held to."""
    checked = skipped = 0
    failures: list[Counterexample] = []
    cap = max_atoms_cap(max_atoms)
    out = transform(t)
    for n in sorted(sizes):
        d = Domain.of_size(n, extra=t.constants())
        if max(len(herbrand_base(x, d)) for x in (t, out)) > cap:
            skipped += 1
            continue
        before = wfomc(t, d, cap=cap)
        after = wfomc(out, d, cap=cap)
        checked += 1
        if before != after:
            witness = t
            if shrink:
                witness = shrink_theory(t, lambda s: _count_mismatch(s, transform, n, cap))
                before = wfomc(witness, d, cap=cap)
                after = wfomc(transform(witness), d, cap=cap)
            failures.append(Counterexample(witness, n, before, after))
            break
    return CheckReport(checked, skipped, tuple(failures))


def _count_mismatch(t: WeightedTheory, transform, n: int, cap: int) -> bool:
    try:
        d = Domain.of_size(n, extra=t.constants())
        return wfomc(t, d, cap=cap) != wfomc(transform(t), d, cap=cap)
    except (WfomcError, CapExceededError):
        return False


# ---------------------------------------------------------------------------
# Modularity


def check_modularity(t: WeightedTheory, sizes=(1, 2), samples: int = 3,
                     rng: random.Random | None = None,
                     max_atoms: int | None = None,
                     queries: list[Formula] | None = None) -> CheckReport:
    """Counts with a ground conjunction added after the transformation must
    match the untransformed theory with the same conjunction.

    Queries range over the theory's own predicates only; one that mentions a
    predicate the transformation introduced is rejected as unsupported.
    """
    rng = rng or random.Random(0)
    checked = skipped = 0
    failures: list[Counterexample] = []
    cap = max_atoms_cap(max_atoms)
    sk = skolemize(t)
    original = set(t.predicates())
    for n in sorted(sizes):
        d = Domain.of_size(n, extra=t.constants())
        if max(len(herbrand_base(x, d)) for x in (t, sk)) > cap:
            skipped += 1
            continue
        phis = queries if queries is not None else [
            gen_ground_conjunction(rng, t, d) for _ in range(samples)
        ]
        for phi in phis:
            if not predicates(phi) <= original:
                raise WfomcError("query ranges outside the original predicates")
            before = wfomc(_conjoin(t, phi), d, cap=cap)
            after = wfomc(_conjoin(sk, phi), d, cap=cap)
            checked += 1
            if before != after:
                failures.append(Counterexample(t, n, before, after, phi))
    return CheckReport(checked, skipped, tuple(failures))


def _conjoin(t: WeightedTheory, phi: Formula) -> WeightedTheory:
    return t.replace(sentences=t.sentences + (phi,))


# ---------------------------------------------------------------------------
# Staged elimination checks


def check_staged_counts(t: WeightedTheory, site: ElimSite,
                        sizes=(1, 2)) -> CheckReport:
    """The four intermediate theories of one elimination all count the same
    as the input."""
    stages = staged_elimination(t, site)
    checked = 0
    failures: list[Counterexample] = []
    for n in sorted(sizes):
        d = Domain.of_size(n)
        want = wfomc(standardize_apart(t), d)
        for staged in (stages.isolate, stages.split, stages.feature, stages.implication):
            got = wfomc(staged, d)
            checked += 1
            if got != want:
                failures.append(Counterexample(staged, n, want, got))
    return CheckReport(checked, 0, tuple(failures))


def staged_case_table(stages: StagedElimination, d: Domain, stage: str) -> dict:
    """Conditioned counts for one grounding of the cancellation predicate.

    Keys are (sigma_value, s_value); values are (measured, expected) where
    expected follows the per-grounding weight argument: rows that violate the
    stage's sentence contribute 0, the others factor into the cancellation
    predicate's weight times the count of the remaining sentences.
    Needs |domain| = 1 so the predicate has a single grounding.
    """
    if len(d) != 1:
        raise WfomcError("case table is defined over a single grounding; use |domain| = 1")
    theory = stages.feature if stage == "feature" else stages.implication
    wt, wf = theory.weights.get(stages.s)
    gamma = theory.replace(sentences=tuple(
        s for s in theory.sentences if stages.s not in predicates(s)
    ))
    c = d.constants[0]
    binding = {v: c for v in stages.ys}
    s_atom = Atom(stages.s, tuple(c for _ in stages.ys))
    sigma = substitute(stages.sigma, binding)

    rows = {}
    for sigma_val in (True, False):
        for s_val in (True, False):
            lits = [s_atom if s_val else Not(s_atom),
                    sigma if sigma_val else Not(sigma)]
            measured = wfomc(_conjoin(_conjoin(theory, lits[0]), lits[1]), d)
            side = wfomc(_conjoin(gamma, sigma if sigma_val else Not(sigma)), d)
            if stage == "feature":
                expected = (wt if s_val else wf) * side if sigma_val == s_val else Fraction(0)
            else:
                if sigma_val and not s_val:
                    expected = Fraction(0)
                else:
                    expected = (wt if s_val else wf) * side
            rows[(sigma_val, s_val)] = (measured, expected)
    return rows


# ---------------------------------------------------------------------------
# Sabotaged transformations (mutation sensitivity)


def skolemize_wrong_cancellation_weight(t: WeightedTheory) -> WeightedTheory:
    """Deliberately wrong: the cancellation predicates' negative branch gets
    weight +1, so relaxation models no longer cancel."""
    sk = skolemize(t)
    return sk.replace(weights=sk.weights.extended(
        {sig: (1, 1) for sig, pair in sk.weights.pairs.items()
         if pair == (1, -1) and sig not in t.weights.pairs}))


def skolemize_skip_universal_rewrite(t: WeightedTheory) -> WeightedTheory:
    """Deliberately wrong: universal sites are eliminated as if existential,
    skipping the double-negation rewrite; that is, each ``forall`` below a
    sentence's leading universal prefix is read as ``exists``."""
    return skolemize(t.replace(sentences=tuple(map(_exists_below_prefix, t.sentences))))


def _exists_below_prefix(f: Formula, leading: bool = True) -> Formula:
    kids = tuple(_exists_below_prefix(k, leading and isinstance(f, ForAll)) for k in children(f))
    return Exists(f.var, *kids) if isinstance(f, ForAll) and not leading else with_children(f, kids)


# ---------------------------------------------------------------------------
# Shrinking


def shrink_theory(t: WeightedTheory, still_fails) -> WeightedTheory:
    """Greedy minimization: fewer sentences, then smaller formulas, as long
    as the failure persists, trying at most ``_SHRINK_STEPS`` candidates."""
    steps = 0
    while steps < _SHRINK_STEPS:
        for candidate in _shrink_candidates(t):
            steps += 1
            try:
                failing = still_fails(candidate)
            except (WfomcError, CapExceededError):
                failing = False
            if failing:
                t = candidate
                break
        else:
            return t
    return t


def _shrink_candidates(t: WeightedTheory):
    if len(t.sentences) > 1:
        for i in range(len(t.sentences)):
            yield t.replace(sentences=t.sentences[:i] + t.sentences[i + 1:])
    for i, s in enumerate(t.sentences):
        for smaller in _shrink_formula(s):
            if free_vars(smaller):
                continue
            yield t.replace(sentences=t.sentences[:i] + (smaller,) + t.sentences[i + 1:])
    # Finally try neutral weights.
    for sig, pair in t.weights.pairs.items():
        if pair != (1, 1):
            pairs = dict(t.weights.pairs)
            pairs[sig] = (Fraction(1), Fraction(1))
            yield t.replace(weights=WeightFn(pairs, t.weights.mode))


def _shrink_formula(f: Formula):
    """Yield formulas with one node replaced by one of its children, a
    chain of three or more operands less one, or a vacuous quantifier
    dropped."""
    for path, node in _paths(f):
        for smaller in _node_shrinks(node):
            yield replace_at(f, path, smaller)


def _paths(f: Formula, prefix: tuple[int, ...] = ()):
    yield prefix, f
    for i, c in enumerate(children(f)):
        yield from _paths(c, prefix + (i,))


def _node_shrinks(f: Formula):
    if isinstance(f, QUANT):
        if f.var not in free_vars(f.body):
            yield f.body
        return
    if isinstance(f, Junction) and len(f.parts) > 2:
        for i in reversed(range(len(f.parts))):
            yield type(f)(*f.parts[:i], *f.parts[i + 1:])
    yield from children(f)


# ---------------------------------------------------------------------------
# Suite driver (CLI `check`)


@dataclass
class SuiteResult:
    ok: bool
    lines: list[str] = field(default_factory=list)


def _printed_cnf(t: WeightedTheory) -> WeightedTheory:
    """What ``wfomc skolemize`` prints."""
    return unit_propagate(to_cnf_distribute(skolemize(t)))


def _printed_tseitin(t: WeightedTheory) -> WeightedTheory:
    """What ``wfomc cnf --tseitin`` prints."""
    return to_cnf_tseitin(skolemize(t))


def run_suite(seeds: int = 100, sizes=(1, 2), max_atoms: int | None = None) -> SuiteResult:
    """Per seed: soundness of the elimination, one sampled modularity query
    where it is sound, and soundness of the clause forms the CLI prints."""
    lines = []
    checked = skipped = 0
    failures = 0
    for seed in range(seeds):
        cfg = GenConfig(seed=seed, domain_sizes=tuple(sizes))
        t = gen_theory(cfg)
        rep = check_soundness(t, sizes, max_atoms=max_atoms)
        reports = [("soundness", rep)]
        if rep.ok:
            reports.append(("modularity", check_modularity(
                t, sizes, samples=1, rng=random.Random(seed), max_atoms=max_atoms)))
        for name, transform in (("cnf soundness", _printed_cnf),
                                ("tseitin soundness", _printed_tseitin)):
            reports.append((name, check_soundness(t, sizes, max_atoms=max_atoms,
                                                  transform=transform)))
        for name, report in reports:
            checked += report.checked
            skipped += report.skipped
            for c in report.failures:
                failures += 1
                query = "" if c.query is None else f" query={serialize_formula(c.query)}"
                lines.append(f"FAIL {name} seed={seed} size={c.domain_size}{query} "
                             f"before={c.before} after={c.after}")
                if c.query is None:
                    lines.append("  shrunk witness:")
                    for ln in serialize_theory(c.theory).strip().splitlines():
                        lines.append("    " + ln)
    lines.append(f"{checked} checks, {skipped} skipped (atom cap), {failures} failure(s)")
    if not checked:  # a run that checked nothing must not pass
        lines.append("nothing was checked: raise the atom cap or pick smaller sizes")
    return SuiteResult(failures == 0 and checked > 0, lines)
