"""Text formats: weighted theories (.fol), MLN files (.mln), ProbLog programs (.plp).

One shared ASCII formula syntax is used everywhere:

    ~ & | -> <->         connectives (tightest to loosest)
    forall x ...         quantifiers bind weaker than any connective,
    exists x ...         their body extends as far right as possible
    true false           constants
    Name(t1,t2)          atoms; bare Name is a nullary atom

Variables start lowercase; constants start uppercase or are single-quoted.
``#`` starts a line comment in all three formats.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, WfomcError
from .logic import (
    FALSE,
    FLOAT,
    TRUE,
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
    ScaleFactor,
    Term,
    TrueF,
    Variable,
    Weight,
    WeightFn,
    WeightedTheory,
    children,
    fold_and,
    fold_or,
    free_vars,
)

# ---------------------------------------------------------------------------
# Source models for the probabilistic formats


@dataclass(frozen=True)
class MlnRule:
    """One weighted MLN formula; ``math.inf`` marks a hard constraint."""

    weight: float
    formula: Formula

    @property
    def hard(self) -> bool:
        return math.isinf(self.weight)


@dataclass(frozen=True)
class MlnModel:
    rules: tuple[MlnRule, ...]


@dataclass(frozen=True)
class ProbFact:
    prob: Fraction
    head: Atom

    def __post_init__(self):
        if not 0 <= self.prob <= 1:
            raise WfomcError(f"probability {self.prob} out of [0,1]")


@dataclass(frozen=True)
class BodyLiteral:
    positive: bool
    atom: Atom


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[BodyLiteral, ...]


@dataclass(frozen=True)
class LogicProgram:
    facts: tuple[ProbFact, ...]
    rules: tuple[Rule, ...]


# ---------------------------------------------------------------------------
# Lexer


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>[ \t\r]+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<NEWLINE>\n)
  | (?P<DECIMAL>\d+\.\d+)
  | (?P<INT>\d+)
  | (?P<IDENT>[A-Za-z][A-Za-z0-9_]*)
  | (?P<QUOTED>'(?:[^'\\\n]|\\.)*')
  | (?P<SYM><->|->|::|:-|\\\+|[()~&|,./-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "NEWLINE":
            out.append(Token("NEWLINE", tok, line, col))
            line += 1
            col = 1
        else:
            if kind not in ("WS", "COMMENT"):
                out.append(Token(kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    out.append(Token("EOF", "", line, col))
    return out


_KEYWORDS = {"forall", "exists", "true", "false", "domain", "weight", "scale", "inf"}


# ---------------------------------------------------------------------------
# Shared recursive-descent machinery


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.arities: dict[str, tuple[int, Token]] = {}

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            t = self.peek()
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.col)
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def skip_newlines(self):
        while self.at("NEWLINE"):
            self.next()

    # -- formulas -----------------------------------------------------------

    def formula(self) -> Formula:
        if self.at("IDENT", "forall") or self.at("IDENT", "exists"):
            kw = self.next()
            var = self.expect("IDENT")
            if not var.text[0].islower():
                raise ParseError(f"quantified variable {var.text!r} must start lowercase",
                                 var.line, var.col)
            body = self.formula()
            cls = ForAll if kw.text == "forall" else Exists
            return cls(var.text, body)
        return self.iff_expr()

    def iff_expr(self) -> Formula:
        f = self.imp_expr()
        while self.at("SYM", "<->"):
            self.next()
            f = Iff(f, self.imp_expr())
        return f

    def imp_expr(self) -> Formula:
        f = self.or_expr()
        if self.at("SYM", "->"):
            self.next()
            return Implies(f, self.imp_expr())
        return f

    def or_expr(self) -> Formula:
        parts = [self.and_expr()]
        while self.at("SYM", "|"):
            self.next()
            parts.append(self.and_expr())
        return fold_or(parts)

    def and_expr(self) -> Formula:
        parts = [self.unary()]
        while self.at("SYM", "&"):
            self.next()
            parts.append(self.unary())
        return fold_and(parts)

    def unary(self) -> Formula:
        if self.at("SYM", "~"):
            self.next()
            return Not(self.unary())
        if self.at("IDENT", "forall") or self.at("IDENT", "exists"):
            return self.formula()
        return self.primary()

    def primary(self) -> Formula:
        if self.at("SYM", "("):
            self.next()
            f = self.formula()
            self.expect("SYM", ")")
            return f
        if self.at("IDENT", "true"):
            self.next()
            return TRUE
        if self.at("IDENT", "false"):
            self.next()
            return FALSE
        if self.at("IDENT"):
            return self.atom()
        return self.fail("expected a formula")

    def atom(self) -> Atom:
        name = self.expect("IDENT")
        if name.text in _KEYWORDS:
            raise ParseError(f"{name.text!r} is reserved", name.line, name.col)
        args: list[Term] = []
        if self.at("SYM", "("):
            self.next()
            args.append(self.term())
            while self.at("SYM", ","):
                self.next()
                args.append(self.term())
            self.expect("SYM", ")")
        self._check_arity(name, len(args))
        return Atom(PredicateSig(name.text, len(args)), tuple(args))

    def term(self) -> Term:
        if self.at("QUOTED"):
            return self.quoted()
        t = self.expect("IDENT")
        if t.text in _KEYWORDS:
            raise ParseError(f"{t.text!r} is reserved", t.line, t.col)
        if t.text[0].islower():
            return Variable(t.text)
        return Constant(t.text)

    def quoted(self) -> Constant:
        """The constant of the next token, a quoted name with ``\\'`` and
        ``\\\\`` escaped; ``''`` names none."""
        t = self.next()
        if t.text == "''":
            raise ParseError("empty constant name", t.line, t.col)
        return Constant(t.text[1:-1].replace("\\'", "'").replace("\\\\", "\\"))

    def _check_arity(self, name: Token, arity: int):
        prev = self.arities.get(name.text)
        if prev is None:
            self.arities[name.text] = (arity, name)
        elif prev[0] != arity:
            raise ParseError(
                f"predicate {name.text} used with arity {arity}, "
                f"but line {prev[1].line} uses arity {prev[0]}",
                name.line, name.col,
            )

    # -- numbers ------------------------------------------------------------

    def exact_number(self) -> Fraction:
        neg = False
        if self.at("SYM", "-"):
            self.next()
            neg = True
        if self.at("DECIMAL"):
            val = Fraction(self.next().text)
        elif self.at("INT"):
            num = int(self.next().text)
            if self.at("SYM", "/"):
                self.next()
                den = self.expect("INT")
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.line, den.col)
                val = Fraction(num, int(den.text))
            else:
                val = Fraction(num)
        else:
            return self.fail("expected a number")
        return -val if neg else val

    def float_number(self) -> float:
        if self.at("IDENT", "inf"):
            self.next()
            return math.inf
        neg = False
        if self.at("SYM", "-"):
            self.next()
            neg = True
        if self.at("DECIMAL") or self.at("INT"):
            val = float(self.next().text)
            return -val if neg else val
        return self.fail("expected a weight (number or 'inf')")


# ---------------------------------------------------------------------------
# Theory files (.fol)


def parse_theory(text: str) -> tuple[WeightedTheory, Domain | None]:
    """Parse a weighted theory; returns the optional declared domain too."""
    p = _Parser(text)
    sentences: list[Formula] = []
    pairs: dict[PredicateSig, tuple[Weight, Weight]] = {}
    declared: dict[str, Token] = {}
    scale: list[ScaleFactor] = []
    domain: Domain | None = None
    declaration: Token | None = None  # the domain's

    while not p.at("EOF"):
        p.skip_newlines()
        if p.at("EOF"):
            break
        if p.at("SYM", "."):  # stray terminator
            p.next()
            continue
        if p.at("IDENT", "domain"):
            tok = p.next()
            if domain is not None:
                raise ParseError("duplicate domain declaration", tok.line, tok.col)
            declaration = tok
            consts = [_domain_constant(p)]
            while p.at("SYM", ","):
                p.next()
                consts.append(_domain_constant(p))
            names = [c.name for c in consts]
            if len(set(names)) != len(names):
                raise ParseError("duplicate constant in domain", tok.line, tok.col)
            domain = Domain(tuple(consts))
        elif p.at("IDENT", "weight"):
            p.next()
            name = p.expect("IDENT")
            arity = int(p.expect("INT").text)
            wt = p.exact_number()
            wf = p.exact_number()
            if name.text in declared:
                raise ParseError(f"duplicate weight declaration for {name.text}",
                                 name.line, name.col)
            declared[name.text] = name
            p._check_arity(name, arity)
            pairs[PredicateSig(name.text, arity)] = (wt, wf)
        elif p.at("IDENT", "scale"):
            p.next()
            base = p.exact_number()
            nvars = int(p.expect("INT").text)
            scale.append(ScaleFactor(base, nvars))
        else:
            f = p.formula()
            fv = sorted(free_vars(f))
            if fv:
                t = p.peek()
                raise ParseError(f"sentence has free variable(s) {fv}", t.line, t.col)
            sentences.append(f)
        _end_statement(p)

    theory = WeightedTheory(tuple(sentences), WeightFn(pairs), tuple(scale))
    if domain is not None:
        missing = [c.name for c in theory.constants() if c not in domain.constants]
        if missing:
            raise ParseError(f"constants {missing} missing from declared domain",
                             declaration.line, declaration.col)
    return theory, domain


def parse_query(text: str) -> Formula:
    """Parse a query: one sentence, the whole of ``text``."""
    p = _Parser(text)
    f = p.formula()
    if not p.at("EOF"):
        p.fail("trailing input after query")
    if free_vars(f):
        raise WfomcError("query must be a sentence (no free variables)")
    return f


def _domain_constant(p: _Parser) -> Constant:
    if p.at("QUOTED"):
        return p.quoted()
    tok = p.expect("IDENT")
    if tok.text[0].islower():
        raise ParseError(f"domain constant {tok.text!r} must start uppercase or be quoted",
                         tok.line, tok.col)
    return Constant(tok.text)


def _end_statement(p: _Parser):
    if p.at("SYM", "."):
        p.next()
    elif p.at("NEWLINE"):
        p.next()
    elif not p.at("EOF"):
        p.fail("expected end of statement ('.' or newline)")


# ---------------------------------------------------------------------------
# MLN files (.mln)


def parse_mln(text: str) -> MlnModel:
    """Parse a list of weighted formulas; formula order is preserved."""
    p = _Parser(text)
    rules: list[MlnRule] = []
    while not p.at("EOF"):
        p.skip_newlines()
        if p.at("EOF"):
            break
        w = p.float_number()
        f = p.formula()
        rules.append(MlnRule(w, f))
        _end_statement(p)
    return MlnModel(tuple(rules))


# ---------------------------------------------------------------------------
# ProbLog programs (.plp)


def parse_problog(text: str) -> LogicProgram:
    """Parse probabilistic facts ``p :: Atom.`` and rules ``Head :- Body.``"""
    p = _Parser(text)
    facts: list[ProbFact] = []
    rules: list[Rule] = []
    while True:
        p.skip_newlines()
        if p.at("EOF"):
            break
        start = p.peek()
        if p.at("INT") or p.at("DECIMAL") or p.at("SYM", "-"):
            prob = p.exact_number()
            p.expect("SYM", "::")
            head = p.atom()
            if not 0 <= prob <= 1:
                raise ParseError(f"probability {prob} out of [0,1]", start.line, start.col)
            facts.append(ProbFact(prob, head))
        else:
            head = p.atom()
            body: list[BodyLiteral] = []
            if p.at("SYM", ":-"):
                p.next()
                body.append(_body_literal(p))
                while p.at("SYM", ","):
                    p.next()
                    body.append(_body_literal(p))
            rules.append(Rule(head, tuple(body)))
        p.expect("SYM", ".")
    return LogicProgram(tuple(facts), tuple(rules))


def _body_literal(p: _Parser) -> BodyLiteral:
    p.skip_newlines()
    positive = True
    if p.at("SYM", "\\+"):
        p.next()
        positive = False
    return BodyLiteral(positive, p.atom())


# ---------------------------------------------------------------------------
# Serializers


_UPPER_IDENT = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")

_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4}


def serialize_term(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    if _UPPER_IDENT.match(t.name):
        return t.name
    return "'" + t.name.replace("\\", "\\\\").replace("'", "\\'") + "'"


def serialize_formula(f: Formula) -> str:
    return _fmt(f, 0)


def _fmt(f: Formula, ctx: int) -> str:
    if isinstance(f, Atom):
        if not f.args:
            return f.pred.name
        return f.pred.name + "(" + ",".join(serialize_term(t) for t in f.args) + ")"
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Not):
        return "~" + _fmt(f.body, 5)
    if isinstance(f, (ForAll, Exists)):
        kw = "forall" if isinstance(f, ForAll) else "exists"
        body = f.body
        if isinstance(body, (ForAll, Exists, Atom, Not, TrueF, FalseF)):
            s = f"{kw} {f.var} {_fmt(body, 0)}"
        else:
            s = f"{kw} {f.var} ({_fmt(body, 0)})"
        return f"({s})" if ctx > 0 else s
    lvl = _PREC[type(f)]
    sym = {Iff: "<->", Implies: "->", Or: "|", And: "&"}[type(f)]
    if isinstance(f, Implies):  # right-associative
        parts = [_fmt(f.left, lvl + 1), _fmt(f.right, lvl)]
    else:  # <-> associates left; a chain of & or | is one node
        first, *rest = children(f)
        parts = [_fmt(first, lvl)] + [_fmt(g, lvl + 1) for g in rest]
    s = f" {sym} ".join(parts)
    return f"({s})" if lvl < ctx else s


def weight_str(w: Weight) -> str:
    if isinstance(w, float):
        return "inf" if math.isinf(w) else repr(w)
    frac = Fraction(w)
    if frac.denominator == 1:
        return _int_str(frac.numerator)
    return f"{_int_str(frac.numerator)}/{_int_str(frac.denominator)}"


def _int_str(n: int) -> str:
    """Decimal digits of ``n``, however many.

    ``str(int)`` refuses more than ``sys.get_int_max_str_digits()`` digits,
    a limit that guards the parsing of untrusted numbers, while exact counts
    over large domains have many more (3**10000 has 4772). Chunks of at most
    ``str_digits_check_threshold`` digits are never checked, so the limit
    stays in place for everything else. Interpreters older than the limit
    (before 3.10.7) lack that attribute and convert any int.
    """
    width = getattr(sys.int_info, "str_digits_check_threshold", None)
    if width is None:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    chunk = 10 ** width
    parts = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(f"{low:0{width}d}")
    parts.append(str(n))
    return "".join(reversed(parts))


def serialize_theory(t: WeightedTheory, domain: Domain | None = None) -> str:
    lines: list[str] = []
    if domain is not None:
        lines.append("domain " + ", ".join(serialize_term(c) for c in domain))
    for sig in sorted(t.weights.pairs, key=lambda s: (s.name, s.arity)):
        wt, wf = t.weights.pairs[sig]
        if (wt, wf) != (1, 1):
            lines.append(f"weight {sig.name} {sig.arity} {weight_str(wt)} {weight_str(wf)}")
    for sf in t.scale:
        base = sf.base
        if t.weights.mode == FLOAT:
            # A float-mode scale base prints as a float: an exact sum of two
            # float weights as their IEEE sum, unless that overflows.
            try:
                base = float(base)
            except OverflowError:
                pass
        lines.append(f"scale {weight_str(base)} {sf.nvars}")
    for s in t.sentences:
        lines.append(serialize_formula(s))
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_mln(m: MlnModel) -> str:
    lines = [f"{weight_str(r.weight)} {serialize_formula(r.formula)}" for r in m.rules]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_problog(prog: LogicProgram) -> str:
    lines = []
    for f in prog.facts:
        lines.append(f"{weight_str(f.prob)} :: {serialize_formula(f.head)}.")
    for r in prog.rules:
        head = serialize_formula(r.head)
        if r.body:
            body = ", ".join(
                ("" if lit.positive else "\\+") + serialize_formula(lit.atom)
                for lit in r.body
            )
            lines.append(f"{head} :- {body}.")
        else:
            lines.append(f"{head}.")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# JSON result emission


def count_json(value: Weight) -> dict:
    """Lossless JSON form of a count, which is always exact: numerator and
    denominator in full."""
    frac = Fraction(value)
    return {"count": {"num": _int_str(frac.numerator), "den": _int_str(frac.denominator)}}


def probability_json(value: Weight) -> dict:
    if isinstance(value, float):
        return {"probability_float": value}
    frac = Fraction(value)
    return {"probability": {"num": _int_str(frac.numerator),
                            "den": _int_str(frac.denominator)}}
