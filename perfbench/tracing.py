"""Layer spans recorded from outside the program.

A ``Tracer`` wraps the public entry points of each wfomc module (``LAYERS``)
and installs the wrappers at every place that holds a reference to an entry
point: the defining module, every module that imported it by name
(``counting.ground``, ``propcheck.wfomc``, ``encoders.wfomc``, ...), the
package namespace, class attributes, and default argument values
(``check_soundness(transform=skolemize)``). After installing it verifies that
no such reference to an original is left.

Each span records (name, start, end, parent, op id). Work a wrapper does
after its span has ended (counting fresh predicates, say) is taken off the
clock, so it does not land in the parent span. Spans stay in memory and are
written out at the end of the run.

``LAYERS`` is also the map from each layer to the end-to-end metric it should
move, on which workload:

* frontends (``parse_*``): ``setup_s`` on all workloads;
* encoders: ``op_ref.p50`` on mln_query and problog_brute;
* transform, propcheck, logic (``WeightedTheory`` validation): ``op_ref.mean``
  on certify;
* grounding: ``op_ref.p50`` on mln_query (most) and certify, and not on
  smokers_dpll or problog_brute;
* counting.compile: certify;
* kernels (module ``_kernels``): ``op_ref.mean`` on certify and ``op_ref.p50``
  on problog_brute; no kernel work runs on the dpll workloads;
* counting.brute (the exact weighted sum, without compile and kernels):
  ``op_ref.p50`` on problog_brute;
* counting.dpll, counting.clauses_of, counting.tseitin: ``op_ref.p50`` on
  smokers_dpll (most) and mln_query (little).
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from types import FunctionType

# (layer, entry points as "module.qualname" under the wfomc package)
LAYERS = (
    ("frontends", ("frontends.parse_theory", "frontends.parse_mln",
                   "frontends.parse_problog")),
    ("encoders", ("encoders.encode_mln", "encoders.encode_problog",
                  "encoders.WfomcEncoding.prepared", "encoders.query_probability")),
    ("transform", ("transform.skolemize", "transform.to_cnf_distribute")),
    ("propcheck", ("propcheck.check_soundness", "propcheck.check_modularity")),
    ("logic", ("logic.WeightedTheory.__post_init__",)),
    ("grounding", ("grounding.ground",)),
    ("counting.wfomc", ("counting.wfomc",)),
    ("counting.compile", ("counting.compile_program",)),
    ("kernels", ("_kernels.satisfying_words", "_kernels.satisfying_mask",
                  "_kernels.popcount")),
    ("counting.brute", ("counting.wmc_bruteforce",)),
    ("counting.dpll", ("counting.wmc_dpll",)),
    ("counting.clauses_of", ("counting.clauses_of",)),
    ("counting.tseitin", ("counting.tseitin_ground",)),
)
LAYER_OF = {entry: layer for layer, entries in LAYERS for entry in entries}
OP = "op"  # the root span of one op; its self time is time no layer covers

# Per-layer metrics: name -> unit. Counts and times are per traced op.
PER_LAYER_UNITS = {
    "frontends.calls": "1/op", "frontends.self_s": "s/op",
    "encoders.calls": "1/op", "encoders.self_s": "s/op",
    "transform.calls": "1/op", "transform.self_s": "s/op", "transform.fresh_preds": "1/op",
    "propcheck.self_s": "s/op", "propcheck.skipped_share": "share",
    "logic.theory_new_calls": "1/op", "logic.theory_new_s": "s/op",
    "grounding.calls": "1/op", "grounding.self_s": "s/op", "grounding.atoms": "1/op",
    "grounding.atoms_per_s": "1/s",
    "counting.wfomc.self_s": "s/op",
    "counting.compile.self_s": "s/op", "counting.compile.prog_ops": "1/op",
    "kernels.calls": "1/op", "kernels.self_s": "s/op", "kernels.assignments": "1/op",
    "kernels.assignments_per_s": "1/s",
    "counting.brute.self_s": "s/op",
    "counting.dpll.calls": "1/op", "counting.dpll.self_s": "s/op",
    "counting.dpll.clauses": "1/op",
    "counting.clauses_of.self_s": "s/op", "counting.tseitin.self_s": "s/op",
    "trace.overhead_share": "share", "trace.uncovered_share": "share",
}


class CoverageError(RuntimeError):
    """A wrapper is missing from a call site, or never fired where expected."""


# -- counters taken from an entry point's arguments and result ---------------


def _fresh_preds(tracer, args, kwargs, result):
    before = set(args[0].predicates())
    tracer.count("transform.fresh_preds", len(set(result.predicates()) - before))


def _check_report(tracer, args, kwargs, result):
    tracer.count("propcheck.checked", result.checked)
    tracer.count("propcheck.skipped", result.skipped)


def _ground_atoms(tracer, args, kwargs, result):
    tracer.count("grounding.atoms", len(result.base))


def _prog_ops(tracer, args, kwargs, result):
    tracer.count("counting.compile.prog_ops", len(result.ops))


def _assignments(tracer, args, kwargs, result):
    n = args[4] if len(args) > 4 else kwargs["n"]
    tracer.count("kernels.assignments", n)


def _dpll_clauses(tracer, args, kwargs, result):
    if result is not None and tracer.parent_layer() == "counting.dpll":
        tracer.count("counting.dpll.clauses", len(result))


HOOKS = {
    "transform.skolemize": _fresh_preds,
    "transform.to_cnf_distribute": _fresh_preds,
    "propcheck.check_soundness": _check_report,
    "propcheck.check_modularity": _check_report,
    "grounding.ground": _ground_atoms,
    "counting.compile_program": _prog_ops,
    "_kernels.satisfying_words": _assignments,
    "counting.clauses_of": _dpll_clauses,
}


def wfomc_modules() -> list:
    """The wfomc package and every module in it, imported."""
    import wfomc

    return [wfomc] + [importlib.import_module(f"wfomc.{m.name}")
                      for m in pkgutil.iter_modules(wfomc.__path__)]


def _resolve(entry: str):
    """(owner object, attribute name) of an entry point."""
    modname, qualname = entry.split(".", 1)
    owner = importlib.import_module(f"wfomc.{modname}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _references(modules):
    """Every (holder, key) through which wfomc code can reach a function:
    module globals, class attributes, and default argument values."""
    for mod in modules:
        for name, val in vars(mod).items():
            yield ("global", mod, name, val)
            if getattr(val, "__module__", None) != mod.__name__:
                continue
            if isinstance(val, type):
                for attr, member in vars(val).items():
                    yield ("class", val, attr, member)
            elif isinstance(val, FunctionType):
                for i, default in enumerate(val.__defaults__ or ()):
                    yield ("default", val, i, default)
                for key, default in (val.__kwdefaults__ or {}).items():
                    yield ("kwdefault", val, key, default)


def _replace(kind, holder, key, new):
    if kind in ("global", "class"):
        setattr(holder, key, new)
    elif kind == "default":
        defaults = list(holder.__defaults__)
        defaults[key] = new
        holder.__defaults__ = tuple(defaults)
    else:
        holder.__kwdefaults__ = {**holder.__kwdefaults__, key: new}


class Tracer:
    """Spans and counters for one traced run; a context manager that
    installs the wrappers on entry and restores the originals on exit. It
    may be entered many times; spans and counters accumulate."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.fired: dict[str, int] = {}
        self.stolen = 0.0
        self.op_id = -1
        self._modules: list = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def begin(self, name: str) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([nid, self.clock(), None, parent, self.op_id])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def count(self, key: str, value: float):
        self.counters[key] = self.counters.get(key, 0) + value

    def parent_layer(self) -> str | None:
        """Layer of the innermost open span (the caller of a hook's entry)."""
        if not self.stack:
            return None
        return LAYER_OF.get(self.names[self.spans[self.stack[-1]][0]])

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) inside the root span of op ``op_id``."""
        self.op_id = op_id
        idx = self.begin(OP)
        try:
            return fn(*args)
        finally:
            self.end(idx)

    def _wrap(self, entry: str, fn):
        tracer = self
        hook = HOOKS.get(entry)

        def wrapper(*args, **kwargs):
            tracer.fired[entry] += 1
            idx = tracer.begin(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if hook is not None:
                t0 = time.perf_counter()
                hook(tracer, args, kwargs, result)
                tracer.stolen += time.perf_counter() - t0
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- installing ---------------------------------------------------------

    def install(self):
        """Put a wrapper at every reference to an entry point; verify none is
        left unwrapped."""
        if not self._wrappers:
            self._modules = wfomc_modules() + list(self.extra_modules)
            for entry in LAYER_OF:
                owner, attr = _resolve(entry)
                orig = vars(owner)[attr]
                self._wrappers[id(orig)] = (orig, self._wrap(entry, orig))
                self.fired[entry] = 0
        for kind, holder, key, val in list(_references(self._modules)):
            hit = self._wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                _replace(kind, holder, key, hit[1])
                self._undo.append((kind, holder, key, val))
        left = [f"{kind} {getattr(holder, '__name__', holder)}.{key}"
                for kind, holder, key, val in _references(self._modules)
                if id(val) in self._wrappers and self._wrappers[id(val)][0] is val]
        if left:
            self.uninstall()
            raise CoverageError(f"unwrapped references to entry points: {left}")

    def uninstall(self):
        for kind, holder, key, val in reversed(self._undo):
            _replace(kind, holder, key, val)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def check_fired(self, uses):
        """Raise if an entry point the workload always reaches never fired."""
        silent = [entry for entry in uses if not self.fired.get(entry)]
        if silent:
            raise CoverageError(f"wrappers that never fired: {silent}")

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer, plus OP for op time no layer span covers."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (nid, start, end, parent, _) in enumerate(self.spans):
            name = self.names[nid]
            key = OP if name == OP else LAYER_OF[name]
            out[key] = out.get(key, 0.0) + (end - start) - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for entry, n in self.fired.items():
            out[LAYER_OF[entry]] = out.get(LAYER_OF[entry], 0) + n
        return out

    def op_time(self) -> float:
        oid = self.name_id.get(OP)
        return sum(e - s for nid, s, e, _, _ in self.spans if nid == oid)

    def metrics(self, n_ops: int, overhead_share: float) -> dict[str, float]:
        """The per-layer metrics of PER_LAYER_UNITS over ``n_ops`` traced ops."""
        selft = self.self_times()
        calls = self.calls()
        c = self.counters
        per = 1.0 / n_ops

        def rate(work: float, layer: str) -> float:
            busy = selft.get(layer, 0.0)
            return work / busy if busy else 0.0

        checked = c.get("propcheck.checked", 0) + c.get("propcheck.skipped", 0)
        out = {
            "frontends.calls": calls["frontends"] * per,
            "encoders.calls": calls["encoders"] * per,
            "transform.calls": calls["transform"] * per,
            "transform.fresh_preds": c.get("transform.fresh_preds", 0) * per,
            "propcheck.skipped_share": c.get("propcheck.skipped", 0) / checked if checked else 0.0,
            "logic.theory_new_calls": calls["logic"] * per,
            "logic.theory_new_s": selft.get("logic", 0.0) * per,
            "grounding.calls": calls["grounding"] * per,
            "grounding.atoms": c.get("grounding.atoms", 0) * per,
            "grounding.atoms_per_s": rate(c.get("grounding.atoms", 0), "grounding"),
            "counting.compile.prog_ops": c.get("counting.compile.prog_ops", 0) * per,
            "kernels.calls": self.fired["_kernels.satisfying_words"] * per,
            "kernels.assignments": c.get("kernels.assignments", 0) * per,
            "kernels.assignments_per_s": rate(c.get("kernels.assignments", 0), "kernels"),
            "counting.dpll.calls": calls["counting.dpll"] * per,
            "counting.dpll.clauses": c.get("counting.dpll.clauses", 0) * per,
            "trace.overhead_share": overhead_share,
            "trace.uncovered_share": selft.get(OP, 0.0) / self.op_time(),
        }
        for layer in ("frontends", "encoders", "transform", "propcheck", "grounding",
                      "counting.wfomc", "counting.compile", "kernels", "counting.brute",
                      "counting.dpll", "counting.clauses_of", "counting.tseitin"):
            out[f"{layer}.self_s"] = selft.get(layer, 0.0) * per
        return {name: out[name] for name in PER_LAYER_UNITS}

    def layer_shares(self) -> list[tuple[str, float]]:
        """Self time of each layer as a share of op time, largest first."""
        total = self.op_time()
        shares = [(("(uncovered)" if k == OP else k), v / total)
                  for k, v in self.self_times().items()]
        return sorted(shares, key=lambda kv: -kv[1])

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": self.counters,
                "fired": self.fired}
