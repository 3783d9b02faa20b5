"""Spectral decision-rule language: AST, parser, formatter and evaluator.

Rule file grammar (``//`` starts a comment; ``#`` is reserved for colors,
whose ``#RRGGBB`` text ``raster.parse_color`` reads, as in map headers):

    file        := item*
    item        := bands-decl | policy-decl | rule | class-decl | fallback
    bands-decl  := 'bands' ':' BAND '@' NUMBER (',' BAND '@' NUMBER)*
    policy-decl := 'policy' ('last-match' | 'first-match')
    rule        := 'rule' INT STRING 'color' COLOR '{' or-expr '}'
    class-decl  := 'class' INT STRING 'color' COLOR      // ruleless legend entry
    fallback    := 'fallback' INT STRING ['color' COLOR]
    or-expr     := and-expr ('OR' and-expr)*
    and-expr    := primary ('AND' primary)*
    primary     := 'requires' '(' BAND ',' or-expr ')'
                 | '(' or-expr ')'
                 | comparison
    comparison  := num-expr (CMP num-expr)+               // chains desugar to AND
    num-expr    := term (('+' | '-') term)*
    term        := atom ('/' atom)*
    atom        := NUMBER | BAND | '(' num-expr ')'

A numeric expression is a ``Const``, a ``BandRef`` or one ``Arith(op, left,
right)`` node for each ``+``, ``-`` and ``/``; a ``/`` whose denominator
magnitude falls below ``DIV_EPS`` gives NaN, which fails every comparison.
A ``RuleSet``'s classes are ``raster.LegendEntry`` values: each rule's, the
ruleless ``class`` entries and the fallback.  ``RuleSet.legend()`` lists them
by label, and that legend is the one a ``classify`` map header carries.

A ``requires(bK, clause)`` guard marks a clause as in use only when band bK
is supplied.  When the band is absent the clause drops out of its enclosing
conjunction (contributes true) or disjunction (contributes false); a rule
whose whole body drops out never fires.

``compile_rules`` turns a rule set, the set of bound band symbols and a match
policy into a ``RuleProgram``: a flat step list in which every distinct
numeric and boolean node has one slot, so a ratio or comparison shared by
several rules is computed once.  ``requires`` guards are resolved at compile
time.  ``RuleProgram.label`` runs the steps over blocks of about
``_BLOCK_PIXELS`` pixels, dropping each value after its last use, and picks
the winning rule without branches: each rule has a position (its stored order
under last-match, reversed under first-match), the winner is the largest
``mask * position`` and one lookup table maps positions to labels.
``eval_expr``/``eval_rule`` walk the AST directly; they are the reference the
compiled program is tested against, and serve one-pixel evaluation.
"""

from __future__ import annotations

import functools
import importlib.resources
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import ConfigError, RuleSyntaxError
from .raster import LegendEntry, format_color, parse_color

#: Ratios whose denominator magnitude falls below this make the enclosing
#: comparison false: a zero-reflectance denominator has no physical ratio.
DIV_EPS = 1e-9

MATCH_POLICIES = ("last-match", "first-match")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandRef:
    symbol: str


@dataclass(frozen=True)
class Const:
    value: float


_ARITH_OPS = ("+", "-", "/")


@dataclass(frozen=True)
class Arith:
    """``left op right``; a ``/`` is guarded by ``DIV_EPS``."""

    op: str
    left: "NumExpr"
    right: "NumExpr"

    def __post_init__(self):
        if self.op not in _ARITH_OPS:
            raise ConfigError(f"unknown arithmetic operator {self.op!r}")


NumExpr = Union[BandRef, Const, Arith]

_CMP_OPS = ("<=", ">=", "<", ">")


@dataclass(frozen=True)
class Cmp:
    left: NumExpr
    op: str
    right: NumExpr

    def __post_init__(self):
        if self.op not in _CMP_OPS:
            raise ConfigError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


@dataclass(frozen=True)
class RequiresBand:
    symbol: str
    child: "BoolExpr"


BoolExpr = Union[Cmp, And, Or, RequiresBand]


def _flatten(kind, children: Iterable) -> BoolExpr:
    """``kind`` (And or Or) over ``children``, splicing in nested nodes of
    the same kind; a single child collapses."""
    flat = []
    for c in children:
        if isinstance(c, kind):
            flat.extend(c.children)
        else:
            flat.append(c)
    if len(flat) == 1:
        return flat[0]
    return kind(tuple(flat))


def make_and(children: Iterable) -> BoolExpr:
    return _flatten(And, children)


def make_or(children: Iterable) -> BoolExpr:
    return _flatten(Or, children)


def referenced_bands(expr) -> frozenset[str]:
    """Every band symbol the expression mentions, guarded or not."""
    out: set[str] = set()
    _walk_bands(expr, out, required_only=False)
    return frozenset(out)


def required_bands(expr) -> frozenset[str]:
    """Band symbols referenced outside any requires() guard."""
    out: set[str] = set()
    _walk_bands(expr, out, required_only=True)
    return frozenset(out)


def _walk_bands(node, out: set, required_only: bool) -> None:
    if isinstance(node, BandRef):
        out.add(node.symbol)
    elif isinstance(node, (Arith, Cmp)):
        _walk_bands(node.left, out, required_only)
        _walk_bands(node.right, out, required_only)
    elif isinstance(node, (And, Or)):
        for c in node.children:
            _walk_bands(c, out, required_only)
    elif isinstance(node, RequiresBand):
        if not required_only:
            out.add(node.symbol)
            _walk_bands(node.child, out, required_only)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _eval_num(node, bands: Mapping[str, object]):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, BandRef):
        try:
            return bands[node.symbol]
        except KeyError:
            raise ConfigError(f"band {node.symbol} not supplied") from None
    if not isinstance(node, Arith):
        raise ConfigError(f"not a numeric expression node: {node!r}")
    left, right = _eval_num(node.left, bands), _eval_num(node.right, bands)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    num = np.asarray(left, dtype=np.float64)
    den = np.asarray(right, dtype=np.float64)
    ok = np.abs(den) >= DIV_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        q = num / np.where(ok, den, 1.0)
    return np.where(ok, q, np.nan)


_CMP_FUNCS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}


def eval_expr(node, bands: Mapping[str, object]):
    """Evaluate a boolean expression over scalar or array band values.

    Returns a bool / bool array, or None when the whole expression is
    guarded by bands that are absent from ``bands``.
    """
    if isinstance(node, Cmp):
        left = _eval_num(node.left, bands)
        right = _eval_num(node.right, bands)
        # NaN operands (guarded ratios) fail the comparison.
        with np.errstate(invalid="ignore"):
            return _CMP_FUNCS[node.op](left, right)
    if isinstance(node, (And, Or)):
        parts = [eval_expr(c, bands) for c in node.children]
        parts = [p for p in parts if p is not None]
        if not parts:
            return None
        fold = np.logical_and if isinstance(node, And) else np.logical_or
        return functools.reduce(fold, parts)
    if isinstance(node, RequiresBand):
        if node.symbol not in bands:
            return None
        return eval_expr(node.child, bands)
    raise ConfigError(f"not a boolean expression node: {node!r}")


def eval_rule(expr, pixel: Mapping[str, float]) -> bool:
    """True iff the rule body holds for one pixel's band values."""
    result = eval_expr(expr, pixel)
    if result is None:
        return False
    return bool(result)


# ---------------------------------------------------------------------------
# Rule set model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    index: int
    name: str
    expr: BoolExpr
    pseudo_color: tuple[int, int, int]


@dataclass(frozen=True)
class RuleSet:
    declared_bands: tuple[tuple[str, float], ...]  # (symbol, wavelength um)
    rules: tuple[Rule, ...]
    ruleless: tuple[LegendEntry, ...]  # classes declared without an expression
    fallback: LegendEntry  # the label of a valid pixel no rule matches
    match_policy: str = "last-match"

    def __post_init__(self):
        if not self.rules:
            raise ConfigError("a rule set needs at least one rule")
        if self.match_policy not in MATCH_POLICIES:
            raise ConfigError(f"unknown match policy {self.match_policy!r}")
        labels = [e.label for e in self.legend()]
        if len(set(labels)) != len(labels):
            raise ConfigError("rule/class indices must be unique")
        declared = {s for s, _ in self.declared_bands}
        for rule in self.rules:
            unknown = referenced_bands(rule.expr) - declared
            if unknown:
                raise ConfigError(
                    f"rule {rule.index} references undeclared bands: "
                    + ", ".join(sorted(unknown))
                )

    def required_bands(self) -> frozenset[str]:
        out: set[str] = set()
        for rule in self.rules:
            out |= required_bands(rule.expr)
        return frozenset(out)

    def legend(self) -> tuple[LegendEntry, ...]:
        """Every class as a ``LegendEntry``, sorted by label."""
        entries = [LegendEntry(r.index, r.name, r.pseudo_color) for r in self.rules]
        entries += [*self.ruleless, self.fallback]
        return tuple(sorted(entries, key=lambda e: e.label))


# ---------------------------------------------------------------------------
# Compiled rule program
# ---------------------------------------------------------------------------

#: Pixels per evaluation block: a block's live intermediates stay cache-sized.
_BLOCK_PIXELS = 1 << 16


def _ratio(num, den):
    """``num / den`` in float64, NaN where ``|den| < DIV_EPS``: as ``_eval_num``."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.full(np.broadcast_shapes(num.shape, den.shape), np.nan)
    return np.divide(num, den, out=out, where=np.abs(den) >= DIV_EPS)


def _fold(ufunc):
    """``functools.reduce(ufunc, parts)``, in place after the first call."""

    def fold(*parts):
        acc = ufunc(parts[0], parts[1])
        for part in parts[2:]:
            # A scalar from a constant-only clause cannot take ``out=``; it
            # broadcasts against an array ``part`` into a new array.
            if isinstance(acc, np.ndarray) and acc.shape == np.broadcast_shapes(
                acc.shape, np.shape(part)
            ):
                ufunc(acc, part, out=acc)
            else:
                acc = ufunc(acc, part)
        return acc

    return fold


_NUM_FUNCS = {"+": operator.add, "-": operator.sub, "/": _ratio}
_FOLDS = {And: _fold(np.logical_and), Or: _fold(np.logical_or)}


@dataclass(frozen=True, eq=False)
class RuleProgram:
    """A rule set compiled for one band binding and one match policy.

    ``steps`` are ``(func, out, args, drop)``: ``values[out] =
    func(*values[args])``, then every slot in ``drop`` is freed, because that
    step was its last use.  A step whose ``func`` is None is a winner step:
    ``out`` is the rule's position and ``args`` holds its mask slot.
    """

    steps: tuple[tuple, ...]
    initial: tuple  # per-slot value before a block runs: constants, else None
    bands: tuple[tuple[int, str], ...]  # (slot, band symbol)
    lut: np.ndarray  # position -> label; position 0 is the fallback

    def label(self, planes: Mapping[str, np.ndarray], validity: np.ndarray) -> np.ndarray:
        """int32 labels of 2-D ``planes``; invalid pixels get label 0 (nodata)."""
        height, width = validity.shape
        labels = np.empty((height, width), dtype=np.int32)
        rows = max(1, _BLOCK_PIXELS // max(width, 1))
        win_dtype = np.min_scalar_type(len(self.lut) - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            for r0 in range(0, height, rows):
                block = labels[r0 : r0 + rows]
                win = np.zeros(block.shape, dtype=win_dtype)
                hit = np.empty_like(win)
                values = list(self.initial)
                for slot, symbol in self.bands:
                    values[slot] = planes[symbol][r0 : r0 + rows]
                for func, out, args, drop in self.steps:
                    if func is None:
                        np.multiply(values[args[0]], out, out=hit)
                        np.maximum(win, hit, out=win)
                    else:
                        values[out] = func(*[values[a] for a in args])
                    for slot in drop:
                        values[slot] = None
                np.take(self.lut, win, out=block)
                # Label 0 is nodata.
                np.multiply(block, validity[r0 : r0 + rows], out=block)
        return labels


def compile_rules(ruleset: RuleSet, symbols: Iterable[str], policy: str) -> RuleProgram:
    """Compile ``ruleset`` for the band ``symbols`` bound to an image.

    Each distinct (structurally equal) node gets one slot.  A ``requires``
    guard on an unbound band drops its clause here, and a rule whose whole
    body drops out gets no winner step.  An unguarded unbound band is a
    ``ConfigError``, as in ``eval_expr``.
    """
    if policy not in MATCH_POLICIES:
        raise ConfigError(f"unknown match policy {policy!r}")
    symbols = frozenset(symbols)
    slots: dict[object, int | None] = {}
    initial: list = []
    bands: list[tuple[int, str]] = []
    steps: list[list] = []

    def new_slot(value=None) -> int:
        initial.append(value)
        return len(initial) - 1

    def emit(func, args) -> int:
        args = tuple(args)  # compiles the operands, so their steps come first
        out = new_slot()
        steps.append([func, out, args])
        return out

    def num(node) -> int:
        if node in slots:
            return slots[node]
        if isinstance(node, Const):
            slot = new_slot(node.value)
        elif isinstance(node, BandRef):
            if node.symbol not in symbols:
                raise ConfigError(f"band {node.symbol} not supplied")
            slot = new_slot()
            bands.append((slot, node.symbol))
        elif isinstance(node, Arith):
            slot = emit(_NUM_FUNCS[node.op], (num(node.left), num(node.right)))
        else:
            raise ConfigError(f"not a numeric expression node: {node!r}")
        slots[node] = slot
        return slot

    def boolean(node) -> int | None:
        """The node's slot, or None when its guards drop it entirely."""
        if node in slots:
            return slots[node]
        if isinstance(node, Cmp):
            slot = emit(_CMP_FUNCS[node.op], (num(node.left), num(node.right)))
        elif isinstance(node, (And, Or)):
            parts = [p for p in map(boolean, node.children) if p is not None]
            if len(parts) > 1:
                slot = emit(_FOLDS[type(node)], parts)
            else:
                slot = parts[0] if parts else None
        elif isinstance(node, RequiresBand):
            slot = boolean(node.child) if node.symbol in symbols else None
        else:
            raise ConfigError(f"not a boolean expression node: {node!r}")
        slots[node] = slot
        return slot

    n = len(ruleset.rules)
    win_type = np.min_scalar_type(n).type
    lut = np.empty(n + 1, dtype=np.int32)
    lut[0] = ruleset.fallback.label
    for i, rule in enumerate(ruleset.rules):
        # The largest matching position wins.
        position = i + 1 if policy == "last-match" else n - i
        lut[position] = rule.index
        root = boolean(rule.expr)
        if root is not None:
            steps.append([None, win_type(position), (root,)])

    last_use: dict[int, int] = {}
    for k, (_, _, args) in enumerate(steps):
        for slot in args:
            last_use[slot] = k
    drops: list[list[int]] = [[] for _ in steps]
    for slot, k in last_use.items():
        drops[k].append(slot)
    return RuleProgram(
        steps=tuple((f, out, args, tuple(d)) for (f, out, args), d in zip(steps, drops)),
        initial=tuple(initial),
        bands=tuple(bands),
        lut=lut,
    )


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<color>\#[0-9a-fA-F]{6})
  | (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<string>"[^"\n]*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|<|>|[(){}:,@/+\-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleSyntaxError(
                f"cannot tokenize {text[pos:pos + 10]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, tok, line, m.start() - line_start + 1))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + tok.rfind("\n") + 1
        pos = m.end()
    return tokens


#: Most levels an expression may nest, well inside Python's recursion limit.
#: Each '(' and each '+', '-' or '/' operator is one level over what it
#: holds, so a chain of n operators is n levels deep.  Deeper text is refused
#: at the first token past the limit.
MAX_NESTING = 100


class _TooDeep(RuleSyntaxError):
    """Nesting past ``MAX_NESTING``: no reading of the text can avoid it."""


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        # Levels read around ``pos``: open parentheses, and operators whose
        # right operand holds ``pos``.
        self.depth = 0
        self.declared: dict[str, float] = {}
        # The end of input sits just past the last token.
        last = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
        self.eof = _Token("eof", "<end of file>", last.line, last.col + len(last.text))

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else self.eof

    def _next(self) -> _Token:
        tok = self._peek()
        self.pos += 1
        return tok

    def _error(self, message: str, tok: _Token | None = None):
        tok = tok or self._peek()
        raise RuleSyntaxError(f"{message}, got {tok.text!r}", tok.line, tok.col)

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self._peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            self._error(f"expected {text or kind}")
        return self._next()

    def _deeper(self, tok: _Token, levels: int) -> None:
        """Refuse ``tok`` when the node it makes, ``levels`` deep, passes
        ``MAX_NESTING`` under the ``depth`` levels around it."""
        if self.depth + levels > MAX_NESTING:
            what = "parentheses" if tok.text == "(" else f"operator {tok.text!r}"
            raise _TooDeep(f"{what} nested deeper than {MAX_NESTING} levels",
                           tok.line, tok.col)

    def _open(self) -> None:
        self._deeper(self._expect("op", "("), 1)
        self.depth += 1

    def _close(self) -> None:
        self._expect("op", ")")
        self.depth -= 1

    def _accept(self, kind: str, text: str | None = None) -> _Token | None:
        tok = self._peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self._next()
        return None

    # -- file level ----------------------------------------------------------

    def parse_file(self) -> RuleSet:
        rules: list[Rule] = []
        ruleless: list[LegendEntry] = []
        fallback: LegendEntry | None = None
        policy = "last-match"
        while self._peek() is not self.eof:
            tok = self._peek()
            if tok.kind != "ident":
                self._error("expected a declaration keyword")
            if tok.text == "bands":
                self._parse_bands_decl()
            elif tok.text == "policy":
                policy = self._parse_policy()
            elif tok.text == "rule":
                rules.append(self._parse_rule())
            elif tok.text == "class":
                ruleless.append(self._parse_entry("class"))
            elif tok.text == "fallback":
                if fallback is not None:
                    self._error("duplicate fallback declaration")
                fallback = self._parse_entry("fallback")
            else:
                self._error("expected bands/policy/rule/class/fallback")
        if fallback is None:
            self._error("missing fallback declaration", self.eof)
        if not rules:
            raise RuleSyntaxError("rule file declares no rules", 1, 1)
        return RuleSet(
            declared_bands=tuple(self.declared.items()),
            rules=tuple(sorted(rules, key=lambda r: r.index)),
            ruleless=tuple(sorted(ruleless, key=lambda c: c.label)),
            fallback=fallback,
            match_policy=policy,
        )

    def _parse_bands_decl(self) -> None:
        self._expect("ident", "bands")
        self._expect("op", ":")
        while True:
            sym = self._expect("ident")
            if sym.text in self.declared:
                raise RuleSyntaxError(f"repeated band symbol {sym.text!r}", sym.line, sym.col)
            self._expect("op", "@")
            self.declared[sym.text] = float(self._expect("number").text)
            if not self._accept("op", ","):
                break

    def _parse_policy(self) -> str:
        self._expect("ident", "policy")
        first = self._expect("ident")
        parts = [first.text]
        while self._accept("op", "-"):
            parts.append(self._expect("ident").text)
        policy = "-".join(parts)
        if policy not in MATCH_POLICIES:
            raise RuleSyntaxError(f"policy must be one of {MATCH_POLICIES}, got {policy!r}",
                                  first.line, first.col)
        return policy

    def _index(self) -> int:
        tok = self._expect("number")
        if "." in tok.text:
            self._error("expected an integer index", tok)
        return int(tok.text)

    def _parse_entry(self, keyword: str) -> LegendEntry:
        """``keyword INT STRING 'color' COLOR``; a fallback may leave out its
        colour, which is then black."""
        self._expect("ident", keyword)
        index = self._index()
        name = self._expect("string").text[1:-1]
        color = (0, 0, 0)
        if keyword != "fallback" or self._peek().text == "color":
            self._expect("ident", "color")
            color = parse_color(self._expect("color").text)
        return LegendEntry(index, name, color)

    def _parse_rule(self) -> Rule:
        entry = self._parse_entry("rule")
        self._expect("op", "{")
        if self._peek().kind == "op" and self._peek().text == "}":
            self._error("empty rule body")
        expr = self._parse_or()
        self._expect("op", "}")
        return Rule(entry.label, entry.name, expr, entry.color)

    # -- expressions ---------------------------------------------------------

    def _parse_or(self):
        children = [self._parse_and()]
        while self._accept("ident", "OR"):
            children.append(self._parse_and())
        return make_or(children)

    def _parse_and(self):
        children = [self._parse_primary()]
        while self._accept("ident", "AND"):
            children.append(self._parse_primary())
        return make_and(children)

    def _parse_primary(self):
        tok = self._peek()
        if tok.kind == "ident" and tok.text == "requires":
            self._next()
            self._open()
            sym = self._band_symbol()
            self._expect("op", ",")
            child = self._parse_or()
            self._close()
            return RequiresBand(sym, child)
        if tok.kind == "op" and tok.text == "(":
            # Try a boolean group first; fall back to a numeric comparison.
            save = self.pos, self.depth
            try:
                self._open()
                node = self._parse_or()
                self._close()
                return node
            except _TooDeep:
                raise
            except RuleSyntaxError:
                self.pos, self.depth = save
        return self._parse_comparison()

    def _parse_comparison(self):
        first = self._parse_num()[0]
        tok = self._peek()
        if tok.kind != "op" or tok.text not in _CMP_OPS:
            self._error("expected a comparison operator")
        terms = [first]
        ops: list[str] = []
        while self._peek().kind == "op" and self._peek().text in _CMP_OPS:
            ops.append(self._next().text)
            terms.append(self._parse_num()[0])
        # a <= x <= b desugars into (a <= x) AND (x <= b)
        comparisons = [
            Cmp(terms[i], ops[i], terms[i + 1]) for i in range(len(ops))
        ]
        return make_and(comparisons)

    def _band_symbol(self) -> str:
        tok = self._expect("ident")
        if tok.text not in self.declared:
            raise RuleSyntaxError(
                f"undeclared band symbol {tok.text!r}", tok.line, tok.col
            )
        return tok.text

    # Numeric parsers return (node, the levels it nests).

    def _parse_num(self):
        return self._parse_chain(self._parse_term, "+-")

    def _parse_term(self):
        return self._parse_chain(self._parse_atom, "/")

    def _parse_chain(self, operand, ops: str):
        """Left-associative ``operand``s joined by the operator characters
        ``ops``; each operator is one level over its deeper operand."""
        node, levels = operand()
        while (tok := self._peek()).kind == "op" and tok.text in ops:
            self._next()
            self._deeper(tok, levels + 1)
            self.depth += 1
            right, right_levels = operand()
            self.depth -= 1
            node = Arith(tok.text, node, right)
            levels = max(levels, right_levels) + 1
        return node, levels

    def _parse_atom(self):
        tok = self._peek()
        if tok.kind == "number":
            self._next()
            return Const(float(tok.text)), 0
        if tok.kind == "ident":
            return BandRef(self._band_symbol()), 0
        if tok.kind == "op" and tok.text == "(":
            self._open()
            node, levels = self._parse_num()
            self._close()
            return node, levels + 1
        self._error("expected a number, band or '('")


def parse_rules(text: str) -> RuleSet:
    """Parse rule-file text into a RuleSet; raises RuleSyntaxError with position."""
    if not text.strip():
        raise RuleSyntaxError("empty rule text", 1, 1)
    return _Parser(text).parse_file()


# ---------------------------------------------------------------------------
# Formatter (parse . format == identity, structurally)
# ---------------------------------------------------------------------------


#: Arithmetic operator -> (precedence level, text); atoms are level 3.
_ARITH_FORMAT = {"+": (1, " + "), "-": (1, " - "), "/": (2, "/")}


def _fmt_num(node, min_level: int = 1) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, BandRef):
        return node.symbol
    if not isinstance(node, Arith):
        raise ConfigError(f"not a numeric expression node: {node!r}")
    level, op = _ARITH_FORMAT[node.op]
    # Left-associative: a right operand at this operator's level needs parens.
    text = f"{_fmt_num(node.left, level)}{op}{_fmt_num(node.right, level + 1)}"
    return f"({text})" if level < min_level else text


def format_expr(node) -> str:
    if isinstance(node, Cmp):
        return f"{_fmt_num(node.left)} {node.op} {_fmt_num(node.right)}"
    if isinstance(node, And):
        parts = []
        for c in node.children:
            text = format_expr(c)
            if isinstance(c, Or):
                text = f"({text})"
            parts.append(text)
        return " AND ".join(parts)
    if isinstance(node, Or):
        return " OR ".join(format_expr(c) for c in node.children)
    if isinstance(node, RequiresBand):
        return f"requires({node.symbol}, {format_expr(node.child)})"
    raise ConfigError(f"not a boolean expression node: {node!r}")


def format_rules(ruleset: RuleSet) -> str:
    """Canonical text for a RuleSet; reparsing reproduces it structurally."""
    lines = []
    bands = ", ".join(f"{s}@{repr(w)}" for s, w in ruleset.declared_bands)
    lines.append(f"bands: {bands}")
    lines.append(f"policy {ruleset.match_policy}")
    lines.append("")
    exprs = {rule.index: rule.expr for rule in ruleset.rules}
    for entry in ruleset.legend():
        head = f'{entry.label} "{entry.name}" color {format_color(entry.color)}'
        if entry.label in exprs:
            lines.append(f"rule {head} {{\n  {format_expr(exprs[entry.label])}\n}}")
        elif entry == ruleset.fallback:
            lines.append(f"fallback {head}")
        else:
            lines.append(f"class {head}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shipped default rule set
# ---------------------------------------------------------------------------


#: Rule 8's corrected b3 clause; the "printed" variant swaps its constant.
_RULE8_CORRECTED = "b3 >= 0.08"


def load_specl(variant: str = "corrected") -> RuleSet:
    """Load the packaged 19-class SPECL rule set.

    variant="corrected" ships rule 8's b3 threshold as 0.08; "printed"
    restores the published literal 8.0, which no reflectance in [0, 1] can
    satisfy (kept for fidelity runs).
    """
    if variant not in ("corrected", "printed"):
        raise ConfigError(f"unknown SPECL variant {variant!r}")
    text = (
        importlib.resources.files("specmap")
        .joinpath("data/specl.rules")
        .read_text(encoding="utf-8")
    )
    if variant == "printed":
        if text.count(_RULE8_CORRECTED) != 1:
            raise ConfigError(f"printed variant needs one {_RULE8_CORRECTED!r} clause")
        text = text.replace(_RULE8_CORRECTED, "b3 >= 8.0")
    return parse_rules(text)
