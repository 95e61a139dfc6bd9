"""Digest of every transform output over a fixed corpus of theories.

Two checkouts of the package give equal digests exactly when their
transforms give the same outputs on the corpus, so a refactor of
``wfomc.transform`` is compared with its parent by running this script
against each::

    PYTHONPATH=src python tests/transform_sweep.py [--seeds N]

The corpus is the ``gen_theory`` theories of seeds 0..N-1 (default 3000)
with ``max_connective_depth=4`` and ``max_sentences=3``, then every
``samples/*.fol``. Each output is serialized, or written as ``error: ...``
where a transform rejects its input; per output kind the script prints the
number of outputs and a sha256 of their serializations. Besides the
transforms proper, the outputs include ``to_nnf`` and ``to_prenex`` of each
sentence and the ground formula over two constants; an elimination site is
recorded by the subformula it names, not by its tree path. One more kind,
``unit_propagate.clauses``, propagates the seeded unit-heavy clause sets of
``unit_clauses``, one per seed, whose units interact far more often than
those of the corpus. The kinds ``count.brute`` and ``count.dpll`` hold
``wfomc`` of each corpus theory on that engine at one and two constants
(plus the theory's own), so the script also compares the counting engines
of two checkouts; ``prob.brute`` and ``prob.dpll`` hold the query pair
(count with the query, count without) of the same theories and domains,
for one ground literal over the theory's predicates drawn from a
generator seeded by the theory's label and the domain size
(``gen_ground_conjunction``). Counts are exact, so these four kinds must
not differ between two checkouts unless a count was wrong.

The encoders are swept too. ``standardize_apart`` is recorded for each
corpus theory and, as ``standardize_apart.shadowed``, for each seed's theory
with its variables renamed to x, y and z, so that binders share names.
``encode_mln`` and ``encode_problog`` (and ``.prepared``, the Skolemized
clausal form a query is counted against) are recorded for every
``samples/*.mln`` and ``samples/*.plp`` and for one seeded MLN and one
seeded ProbLog program per seed (``gen_mln``, ``gen_program``). The file
name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from wfomc.counting import wfomc
from wfomc.encoders import encode_mln, encode_problog
from wfomc.errors import WfomcError
from wfomc.frontends import (
    BodyLiteral,
    LogicProgram,
    MlnModel,
    MlnRule,
    ProbFact,
    Rule,
    parse_mln,
    parse_problog,
    parse_theory,
    serialize_formula,
    serialize_theory,
)
from wfomc.grounding import ground
from wfomc.logic import (
    QUANT,
    Atom,
    Constant,
    Domain,
    Not,
    PredicateSig,
    Variable,
    WeightFn,
    WeightedTheory,
    children,
    close_universally,
    fold_or,
    standardize_apart,
    strip_foralls,
    with_children,
)
from wfomc.propcheck import GenConfig, gen_ground_conjunction, gen_theory
from wfomc.transform import (
    FreshNamer,
    clause_form,
    eliminate_one,
    formula_at,
    next_internal_site,
    skolemize,
    skolemize_full,
    skolemize_prenex_shortcut,
    staged_elimination,
    to_cnf_distribute,
    to_cnf_tseitin,
    to_nnf,
    to_prenex,
    unit_propagate,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def generated(seed: int) -> WeightedTheory:
    return gen_theory(GenConfig(seed=seed, max_connective_depth=4, max_sentences=3))


def corpus(seeds):
    """(label, theory) pairs: the generated theories, then the samples."""
    for seed in seeds:
        yield f"seed {seed}", generated(seed)
    for path in sorted(SAMPLES.glob("*.fol")):
        yield path.name, parse_theory(path.read_text())[0]


def unit_clauses(seed: int, max_preds: int = 4, max_clauses: int = 8,
                 constants: tuple[str, ...] = ("A", "B")) -> WeightedTheory:
    """A seeded clause set in which units interact: 1 to ``max_preds``
    predicates of arity 0 to 2, weighted from {1,2,3} x {1,-1,5}, and 1 to
    ``max_clauses`` clauses, 45% of them units, over the terms x, y and
    ``constants``, so ground, repeated-variable and distinct-variable units
    all occur."""
    rng = random.Random(seed)
    sigs = [PredicateSig(f"P{i}", rng.randint(0, 2)) for i in range(rng.randint(1, max_preds))]
    terms = [Variable("x"), Variable("y")] + [Constant(c) for c in constants]
    sentences = []
    for _ in range(rng.randint(1, max_clauses)):
        lits = []
        for _ in range(1 if rng.random() < 0.45 else rng.randint(2, 3)):
            sig = rng.choice(sigs)
            a = Atom(sig, tuple(rng.choice(terms) for _ in range(sig.arity)))
            lits.append(a if rng.random() < 0.5 else Not(a))
        sentences.append(close_universally(fold_or(lits)))
    pairs = {sig: (rng.choice((1, 2, 3)), rng.choice((1, -1, 5))) for sig in sigs}
    return WeightedTheory(tuple(sentences), WeightFn(pairs))


def shadowed(f):
    """``f``, a formula or theory of ``gen_theory``, with each variable
    ``v<k>`` renamed to x, y or z by k mod 3."""
    if isinstance(f, WeightedTheory):
        return f.replace(sentences=tuple(map(shadowed, f.sentences)))
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(Variable("xyz"[int(a.name[1:]) % 3]) if isinstance(a, Variable)
                                  else a for a in f.args))
    if isinstance(f, QUANT):
        return type(f)("xyz"[int(f.var[1:]) % 3], shadowed(f.body))
    return with_children(f, tuple(map(shadowed, children(f))))


def gen_mln(seed: int) -> MlnModel:
    """The sentences of the seed's shadowed theory as MLN formulas, without
    their leading universals, so those variables are free, each weighted
    1.5, -0.5 or inf (hard). Its predicates P0, P1, ... share the stem of
    the encoder's parameter predicates."""
    rng = random.Random(seed)
    return MlnModel(tuple(MlnRule(rng.choice((1.5, -0.5, math.inf)), strip_foralls(s)[1])
                          for s in shadowed(generated(seed)).sentences))


def gen_program(seed: int) -> LogicProgram:
    """A seeded ProbLog program over the variables x, y, z and y_1: one to
    three facts on each of A, B and A_0, so multi-fact predicates whose
    auxiliary names collide with A_0, and one to three rules for each of H
    (over A, B, A_0 and E, which has neither facts nor rules) and G (over A,
    B and H). Each head takes its own variables, so body-only variables
    collide with the first rule's head variables; one head in thirty has a
    constant or a repeated variable."""
    rng = random.Random(seed)
    arity = {name: rng.randint(0, 2) for name in ("A", "B", "A_0", "E", "H", "G")}
    pool = ("x", "y", "z", "y_1")

    def head(name):
        args = [Variable(v) for v in rng.sample(pool, arity[name])]
        if args and rng.random() < 1 / 30:
            args[-1] = rng.choice((args[0], Constant("C")))
        return Atom(PredicateSig(name, arity[name]), tuple(args))

    def literal(names):
        name = rng.choice(names)
        args = tuple(Variable(rng.choice(pool)) for _ in range(arity[name]))
        return BodyLiteral(rng.random() < 0.7, Atom(PredicateSig(name, arity[name]), args))

    probs = (Fraction(1, 10), Fraction(1, 2), Fraction(3, 4))
    facts = [ProbFact(rng.choice(probs), head(name))
             for name in ("A", "B", "A_0") for _ in range(rng.randint(1, 3))]
    rules = [Rule(head(name), tuple(literal(body) for _ in range(rng.randint(1, 3))))
             for name, body in (("H", ("A", "B", "A_0", "E")), ("G", ("A", "B", "H")))
             for _ in range(rng.randint(1, 3))]
    return LogicProgram(tuple(facts), tuple(rules))


def programs(seeds):
    """(label, encoder, model) triples: the sample models, then one seeded
    MLN and one seeded ProbLog program per seed."""
    for path in sorted(SAMPLES.glob("*.mln")):
        yield path.name, encode_mln, parse_mln(path.read_text())
    for path in sorted(SAMPLES.glob("*.plp")):
        yield path.name, encode_problog, parse_problog(path.read_text())
    for seed in seeds:
        yield f"mln {seed}", encode_mln, gen_mln(seed)
        yield f"plp {seed}", encode_problog, gen_program(seed)


def _shown(thunk, show=serialize_theory) -> str:
    """``show`` of ``thunk()``, or ``error: ...`` where it raises."""
    try:
        return show(thunk())
    except WfomcError as e:
        return f"error: {e}"


def _clauses(form) -> str:
    clauses, added = form
    lines = [" | ".join(("" if pos else "~") + serialize_formula(a) for a, pos in lits)
             + f"  inner {list(inner)}" for lits, inner in clauses]
    lines += [f"added {sig} {wt} {wf}" for sig, (wt, wf) in added]
    return "\n".join(lines)


def _sentences(fs) -> str:
    return "\n".join(serialize_formula(f) for f in fs)


def _site(std, site) -> str:
    """An elimination site by what it names, not by its tree path."""
    if site is None:
        return "None"
    at = formula_at(std.sentences[site.sentence_index], site.path)
    return f"{site.sentence_index} {site.kind} {site.var} {site.ys} {serialize_formula(at)}"


def outputs(t, label=""):
    """(kind, serialization) of each transform of ``t``; ``label`` seeds
    the queries of the ``prob`` kinds."""
    out = {}

    def record(kind, thunk, show=serialize_theory):
        out[kind] = _shown(thunk, show)

    record("skolemize", lambda: skolemize(t))
    record("skolemize_full", lambda: skolemize_full(t))
    record("skolemize_prenex_shortcut", lambda: skolemize_prenex_shortcut(t))
    record("to_nnf", lambda: [to_nnf(s) for s in t.sentences], _sentences)
    std = standardize_apart(t)
    out["standardize_apart"] = serialize_theory(std)
    record("to_prenex", lambda: [to_prenex(s) for s in std.sentences], _sentences)
    record("ground", lambda: ground(t, Domain.of_size(2, t.constants())).formula,
           serialize_formula)
    site = next_internal_site(std)
    out["next_internal_site"] = _site(std, site)
    if site is not None:
        record("eliminate_one", lambda: eliminate_one(std, site, FreshNamer.for_theory(std)))
        if site.kind == "exists":
            stages = staged_elimination(t, site)
            for stage in ("isolate", "split", "feature", "implication"):
                out[f"staged.{stage}"] = serialize_theory(getattr(stages, stage))
            out["staged.names"] = (f"{stages.z} {stages.s} {stages.ys} "
                                   f"{serialize_formula(stages.sigma)}")
    record("clause_form", lambda: clause_form(t.sentences, t.predicates()), _clauses)
    record("to_cnf_distribute", lambda: to_cnf_distribute(skolemize(t)))
    record("to_cnf_tseitin", lambda: to_cnf_tseitin(skolemize(t)))
    record("unit_propagate", lambda: unit_propagate(to_cnf_distribute(skolemize(t))))
    for engine in ("brute", "dpll"):
        counts, probs = [], []
        for n in (1, 2):
            d = Domain.of_size(n, t.constants())
            counts.append(f"{n} {_shown(lambda: wfomc(t, d, engine=engine), str)}")
            q = gen_ground_conjunction(random.Random(f"{label} {n}"), t, d, max_literals=1)
            pair = _shown(lambda: wfomc(t, d, engine=engine, query=q), lambda p: f"{p[0]} {p[1]}")
            probs.append(f"{n} {serialize_formula(q)} {pair}")
        out[f"count.{engine}"] = "\n".join(counts)
        out[f"prob.{engine}"] = "\n".join(probs)
    return out


def sweep(seeds) -> dict[str, tuple[int, str]]:
    """Per output kind, (number of outputs, sha256 of their serializations)."""
    digests: dict[str, tuple[int, object]] = {}

    def add(kind, label, text):
        n, h = digests.get(kind) or (0, hashlib.sha256())
        h.update(f"{label}\n{text}\n\0".encode())
        digests[kind] = (n + 1, h)

    for label, t in corpus(seeds):
        for kind, text in outputs(t, label).items():
            add(kind, label, text)
    for seed in seeds:
        add("unit_propagate.clauses", f"units {seed}",
            serialize_theory(unit_propagate(unit_clauses(seed))))
        add("standardize_apart.shadowed", f"seed {seed}",
            serialize_theory(standardize_apart(shadowed(generated(seed)))))
    for label, encode, model in programs(seeds):
        kind = encode.__name__
        add(kind, label, _shown(lambda: encode(model).theory))
        add(f"{kind}.prepared", label, _shown(lambda: encode(model).prepared().theory))
    return {kind: (n, h.hexdigest()) for kind, (n, h) in sorted(digests.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=3000,
                    help="number of generator seeds, from 0 (default 3000)")
    args = ap.parse_args(argv)
    for kind, (n, digest) in sweep(range(args.seeds)).items():
        print(f"{kind:28} {n:6} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
