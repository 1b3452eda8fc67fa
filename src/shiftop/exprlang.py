"""Expression language for coefficients, weights, and shift lifts.

Supported grammar: decimal literals, the constant ``pi``, the variable
``t``, unary functions ``sin cos exp log abs sqrt``, prefix minus, and
binary ``+ - * / ^``.  Exponents of ``^`` must not contain ``t`` so that
symbolic differentiation stays inside the grammar.

Precedence is ``^`` > prefix minus > ``* /`` > ``+ -`` with left
associativity; the canonical serialization is fully parenthesized infix.

``as_function`` compiles an expression once into numpy ufunc calls.  Every
function of t in the package follows its convention: a float in gives a
float out, and an ndarray in gives an ndarray of the same shape out.
``evaluate`` is the exact scalar reference that names the node and the t
of a domain error.  ``Fn`` is the checked function type of everything a
verdict, a spectrum or the oracle evaluates.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "Expr", "Num", "Pi", "Var", "Unary", "Binary",
    "ExprError", "ParseError", "EvalDomainError",
    "parse", "serialize", "evaluate", "as_function", "check_finite", "Fn",
    "differentiate", "is_periodic",
    "ZeroHit", "find_zeros",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "abs", "sqrt")

# the tolerances of every zero and periodic-structure scan (find_zeros):
# bisection width, flat band, and the default number of grid cells
ZERO_TOL = 1e-12
FLAT_TOL = 1e-11
SCAN_CELLS = 4096


class ExprError(ValueError):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    def __init__(self, message: str, node: "Expr | None" = None, t: float | None = None):
        if node is not None:
            message = f"{message} in {serialize(node)}"
        if t is not None:
            message = f"{message} at t={t!r}"
        super().__init__(message)
        self.node = node
        self.t = t


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Unary:
    op: str
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Pi, Var, Unary, Binary]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = pos + (len(text[pos:]) - len(stripped))
            raise ParseError(f"unexpected character {text[bad]!r}", _byte_offset(text, bad))
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def contains_var(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, Unary):
        return contains_var(e.arg)
    if isinstance(e, Binary):
        return contains_var(e.left) or contains_var(e.right)
    return False


class _Parser:
    def __init__(self, text: str):
        if not text or not text.strip():
            raise ParseError("empty expression", 0)
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, _byte_offset(self.text, tok[2]))

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, _ = self.peek()
        if kind != "end":
            self.error(f"unexpected token {val!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.next()[1]
            e = Binary(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.next()[1]
            e = Binary(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek()[:2] == ("op", "-"):
            self.next()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        while self.peek()[:2] == ("op", "^"):
            tok = self.next()
            exponent = self.pow_rhs()
            if contains_var(exponent):
                raise ParseError("exponent of ^ must not contain t", _byte_offset(self.text, tok[2]))
            e = Binary("^", e, exponent)
        return e

    def pow_rhs(self) -> Expr:
        if self.peek()[:2] == ("op", "-"):
            self.next()
            return Unary("neg", self.pow_rhs())
        return self.atom()

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            if val == "pi":
                return Pi()
            if val == "t":
                return Var()
            if val in FUNCTIONS:
                if self.peek()[:2] != ("op", "("):
                    self.error(f"{val} requires parenthesized argument")
                self.next()
                arg = self.expr()
                nk, nv, npos = self.next()
                if (nk, nv) == ("op", ","):
                    raise ParseError(f"{val} takes exactly one argument", _byte_offset(self.text, npos))
                if (nk, nv) != ("op", ")"):
                    raise ParseError("expected ')'", _byte_offset(self.text, npos))
                return Unary(val, arg)
            raise ParseError(f"unknown identifier {val!r}", _byte_offset(self.text, pos))
        if (kind, val) == ("op", "("):
            e = self.expr()
            nk, nv, npos = self.next()
            if (nk, nv) != ("op", ")"):
                raise ParseError("expected ')'", _byte_offset(self.text, npos))
            return e
        raise ParseError(f"unexpected token {val!r}", _byte_offset(self.text, pos))


def parse(text: str) -> Expr:
    """Parse an expression string into an AST."""
    return _Parser(text).parse()


def serialize(e: Expr) -> str:
    """Canonical fully parenthesized infix form; parse(serialize(e)) == e."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{serialize(e.arg)})"
        return f"{e.op}({serialize(e.arg)})"
    return f"({serialize(e.left)} {e.op} {serialize(e.right)})"


_SCALAR_UNARY = {"neg": operator.neg, "sin": math.sin, "cos": math.cos, "exp": math.exp,
                 "log": math.log, "abs": abs, "sqrt": math.sqrt}
_SCALAR_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                  "/": operator.truediv, "^": math.pow}


def evaluate(e: Expr, t: float) -> float:
    """Evaluate at a scalar t with precise domain-error reporting."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Var):
        return float(t)
    if isinstance(e, Unary):
        x = evaluate(e.arg, t)
        if e.op == "log" and x <= 0.0:
            raise EvalDomainError("log of non-positive value", e, t)
        if e.op == "sqrt" and x < 0.0:
            raise EvalDomainError("sqrt of negative value", e, t)
        if e.op not in _SCALAR_UNARY:
            raise ExprError(f"unknown unary operator {e.op!r}")
        try:
            return _SCALAR_UNARY[e.op](x)
        except OverflowError:
            raise EvalDomainError("overflow", e, t) from None
    if isinstance(e, Binary):
        a, b = evaluate(e.left, t), evaluate(e.right, t)
        if e.op == "/" and b == 0.0:
            raise EvalDomainError("division by zero", e, t)
        if e.op not in _SCALAR_BINARY:
            raise ExprError(f"unknown binary operator {e.op!r}")
        try:
            return _SCALAR_BINARY[e.op](a, b)
        except OverflowError:
            raise EvalDomainError("overflow", e, t) from None
        except ValueError:
            raise EvalDomainError("invalid power", e, t) from None
    raise ExprError(f"malformed node {e!r}")


_UNARY = {"neg": np.negative, "abs": np.abs, "sin": np.sin, "cos": np.cos,
          "exp": np.exp, "log": np.log, "sqrt": np.sqrt}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "^": np.power}


def _compile(e: Expr) -> Callable:
    """Closure tree over the numpy ufuncs; constants stay plain floats."""
    if isinstance(e, Var):
        return lambda t: t
    if isinstance(e, Unary):
        f, x = _UNARY[e.op], _compile(e.arg)
        return lambda t: f(x(t))
    if isinstance(e, Binary):
        f, x, y = _BINARY[e.op], _compile(e.left), _compile(e.right)
        return lambda t: f(x(t), y(t))
    c = math.pi if isinstance(e, Pi) else e.value
    return lambda t: c


def as_function(e) -> Callable:
    """Compile an Expr once into a function of t (a callable passes through).

    A float in gives a float out; an ndarray in gives an ndarray of the
    same shape out, also for t-free expressions.  Domain violations surface
    as non-finite values, which ``Fn`` leaves check.
    """
    if callable(e):
        return e
    body = _compile(e)
    if not contains_var(e):
        with np.errstate(all="ignore"):
            c = body(0.0)
        body = lambda t: np.full_like(t, c, dtype=float) if isinstance(t, np.ndarray) else c

    def fn(t):
        with np.errstate(all="ignore"):
            return body(t)

    return fn


def check_finite(e, ts, values) -> None:
    """Raise EvalDomainError at the first t whose value (of e at ts) is not
    finite; an Expr e is re-evaluated there to name the offending node."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        t = float(np.atleast_1d(ts)[np.atleast_1d(bad)][0])
        if e is not None and not callable(e):
            evaluate(e, t)
        raise EvalDomainError("non-finite evaluation", t=t)


def _checked(call: Callable, name: str | None, expr=None) -> Callable:
    """call, whose non-finite values raise EvalDomainError prefixed with name."""
    def checked(t):
        v = call(t)
        if not (math.isfinite(v) if isinstance(v, float) else np.isfinite(v).all()):
            try:
                check_finite(expr, t, v)
            except EvalDomainError as exc:
                if name:
                    exc.args = (f"{name}: {exc}",)
                raise
        return v
    return checked


def _divide(x, y):
    with np.errstate(all="ignore"):
        return np.divide(x, y)   # a zero divisor gives inf, never ZeroDivisionError


def _binary(op: Callable, sym: str, swap: bool = False) -> Callable:
    """The Fn method op(self, c), op(c, self) with swap; a number c is constant."""
    def method(self, c):
        other = c if isinstance(c, Fn) else Fn(lambda t: c, repr(c))
        x, y = (other, self) if swap else (self, other)
        xc, yc, name = x._call, y._call, f"({x.name} {sym} {y.name})"
        call = lambda t: op(xc(t), yc(t))
        return Fn(_checked(call, name) if op is _divide else call, name)
    return method


class Fn:
    """A function of t that a verdict, a spectrum or the oracle evaluates.

    A leaf (``Fn.of``) is what ``as_function`` returns for a coefficient,
    weight or right-hand side, with a label such as ``a`` or ``--weight``.
    Where a leaf's or a quotient's value is not finite, EvalDomainError
    names the label (or the quotient), the failing subexpression and the t.
    Nodes give + - * /, unary minus, abs, wrap, composition f(alpha_k(t))
    and the orbit product f_m, with the float operations of the plain
    expression.  ``Fn(call, name)`` is an unchecked node, for the shift's
    own functions.
    """

    __slots__ = ("_call", "name")

    def __init__(self, call: Callable, name: str):
        self._call, self.name = call, name

    def __call__(self, t):
        return self._call(t)

    @classmethod
    def of(cls, e, label: str | None = None) -> "Fn":
        """e itself if an Fn, else the checked leaf of an Expr or a callable."""
        if isinstance(e, Fn):
            return e
        # as_function is looked up at call time: a wrapper installed on it sees every leaf
        expr = None if callable(e) else e
        return cls(_checked(as_function(e), label, expr), label or "f")

    __add__ = _binary(operator.add, "+")
    __sub__ = _binary(operator.sub, "-")
    __mul__ = _binary(operator.mul, "*")
    __truediv__ = _binary(_divide, "/")
    __rtruediv__ = _binary(_divide, "/", swap=True)

    def __neg__(self):
        xc = self._call
        return Fn(lambda t: -xc(t), f"(-{self.name})")

    def __abs__(self):
        xc = self._call
        return Fn(lambda t: np.abs(xc(t)), f"abs({self.name})")

    def wrap(self) -> "Fn":
        """t -> f(wrap(t))."""
        from .circle import wrap   # circle imports this module
        xc = self._call
        return Fn(lambda t: xc(wrap(t)), self.name)

    def compose(self, shift, k: int) -> "Fn":
        """t -> f(alpha_k(t)), through ``shift.apply(t, k)``."""
        xc = self._call
        return Fn(lambda t: xc(shift.apply(t, k)), f"{self.name}(alpha_{k})")

    def orbit(self, shift, m: int) -> "Fn":
        """The orbit product f_m(t) = prod_{i<m} f(alpha_i(t))."""
        from . import circle   # circle imports this module; orbit_product stays there
        return Fn(lambda t: circle.orbit_product(self, shift, m, t), f"{self.name}_{m}")


def _n(x: float) -> Expr:
    return Num(float(x))


def _add(a: Expr, b: Expr) -> Expr:
    if a == Num(0.0):
        return b
    if b == Num(0.0):
        return a
    return Binary("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if b == Num(0.0):
        return a
    if a == Num(0.0):
        return Unary("neg", b)
    return Binary("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if a == Num(0.0) or b == Num(0.0):
        return Num(0.0)
    if a == Num(1.0):
        return b
    if b == Num(1.0):
        return a
    return Binary("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if a == Num(0.0):
        return Num(0.0)
    if b == Num(1.0):
        return a
    return Binary("/", a, b)


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative with respect to t.

    abs differentiates to arg*arg'/abs(arg), which is the sign rule away
    from zeros of the argument and a domain error at them.
    """
    if isinstance(e, (Num, Pi)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0)
    if isinstance(e, Unary):
        u = e.arg
        du = differentiate(u)
        if e.op == "neg":
            return Unary("neg", du) if du != Num(0.0) else Num(0.0)
        if e.op == "sin":
            return _mul(Unary("cos", u), du)
        if e.op == "cos":
            return _mul(Unary("neg", Unary("sin", u)), du)
        if e.op == "exp":
            return _mul(Unary("exp", u), du)
        if e.op == "log":
            return _div(du, u)
        if e.op == "sqrt":
            return _div(du, _mul(_n(2.0), Unary("sqrt", u)))
        if e.op == "abs":
            return _div(_mul(u, du), Unary("abs", u))
        raise ExprError(f"unknown unary operator {e.op!r}")
    if isinstance(e, Binary):
        a, b = e.left, e.right
        da, db = differentiate(a), differentiate(b)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if e.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), Binary("^", b, _n(2.0)))
        if e.op == "^":
            # exponent is t-free by construction
            return _mul(_mul(b, Binary("^", a, _sub(b, _n(1.0)))), da)
        raise ExprError(f"unknown binary operator {e.op!r}")
    raise ExprError(f"malformed node {e!r}")


def is_periodic(e) -> bool:
    """Numeric 1-periodicity check: f(0), f(1) finite and
    |f(0) - f(1)| <= 1e-9*(1+|f(0)|)."""
    fn = as_function(e)
    f0, f1 = float(fn(0.0)), float(fn(1.0))
    return math.isfinite(f0) and math.isfinite(f1) and abs(f0 - f1) <= 1e-9 * (1.0 + abs(f0))


@dataclass(frozen=True)
class ZeroHit:
    """One zero of a scanned function.

    kind is "crossing" for a sign change, "tangential" for a refined
    touch or near-touch of zero (suspect: it may be a dip that misses
    zero), or "interval" for a flat stretch inside FLAT_TOL.
    """

    location: float
    kind: str
    value: float = 0.0
    lo: float | None = None
    hi: float | None = None

    def certain(self) -> bool:
        """Whether the hit is definitely a zero (vs an ambiguous near-zero dip)."""
        return self.kind != "tangential" or abs(self.value) <= 64 * np.finfo(float).eps


def _bisect(fn, a: float, b: float, fa: float, fb: float, tol: float) -> float:
    for _ in range(200):
        if b - a <= tol:
            break
        m = 0.5 * (a + b)
        fm = fn(m)
        if fm == 0.0:
            return m
        if (fa < 0) != (fm < 0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _refine_min(fn, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section minimization of fn on [a, b]: (argmin, min)."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - gr * (b - a)
    x2 = a + gr * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - gr * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + gr * (b - a)
            f2 = fn(x2)
    x = x1 if f1 < f2 else x2
    return x, fn(x)


def find_zeros(e, lo: float, hi: float, cells: int = SCAN_CELLS) -> list[ZeroHit]:
    """Locate zeros of e on the half-open interval [lo, hi).

    Grid scan (``cells`` cells) plus bisection of sign changes to ZERO_TOL;
    grid-local minima of |e| small enough to be candidate tangencies are
    refined into "tangential" hits; runs of samples inside FLAT_TOL become
    interval records.  A zero at ``hi`` is excluded (on periodic inputs it
    coincides with ``lo``).
    """
    if not lo < hi:
        raise ValueError("find_zeros requires lo < hi")
    fn = Fn.of(e)
    xs = np.linspace(lo, hi, cells + 1)
    fx = fn(xs)

    scale = max(1.0, float(np.max(np.abs(fx))))
    node_atol = 1e-13 * scale
    screen = scale * (10.0 / cells) ** 2

    flat = np.abs(fx) <= FLAT_TOL
    hits: list[ZeroHit] = []
    in_flat = np.zeros(cells + 1, dtype=bool)
    g = lambda x: abs(fn(x)) - FLAT_TOL   # zero at the ends of a flat run

    # flat runs spanning at least two cells
    i = 0
    while i <= cells:
        if flat[i]:
            j = i
            while j + 1 <= cells and flat[j + 1]:
                j += 1
            if j - i >= 2:
                a = xs[i]
                if i > 0:
                    a = _bisect(g, xs[i - 1], xs[i], g(xs[i - 1]), g(xs[i]), ZERO_TOL)
                b = xs[j]
                if j < cells:
                    b = _bisect(g, xs[j], xs[j + 1], -FLAT_TOL, g(xs[j + 1]), ZERO_TOL)
                hits.append(ZeroHit(0.5 * (a + b), "interval", 0.0, a, b))
                in_flat[i:j + 1] = True
            i = j + 1
        else:
            i += 1

    sgn = np.where(np.abs(fx) <= node_atol, 0, np.sign(fx))

    # node zeros and sign-change crossings outside flat runs
    for i in range(cells + 1):
        if in_flat[i] or sgn[i] != 0:
            continue
        left = sgn[i - 1] if i > 0 else 0
        right = sgn[i + 1] if i < cells else 0
        kind = "tangential" if (left != 0 and left == right) else "crossing"
        hits.append(ZeroHit(xs[i], kind, float(fx[i])))
    for i in range(cells):
        if in_flat[i] or in_flat[i + 1]:
            continue
        if sgn[i] != 0 and sgn[i + 1] != 0 and sgn[i] != sgn[i + 1]:
            x = _bisect(fn, xs[i], xs[i + 1], fx[i], fx[i + 1], ZERO_TOL)
            hits.append(ZeroHit(x, "crossing", fn(x)))

    # tangential candidates: small interior local minima of |f| without sign change
    absf = np.abs(fx)
    for i in range(1, cells):
        if in_flat[i] or sgn[i] == 0 or sgn[i - 1] != sgn[i] or sgn[i] != sgn[i + 1]:
            continue
        if absf[i] <= screen and absf[i] < absf[i - 1] and absf[i] <= absf[i + 1]:
            x, v = _refine_min(lambda x: abs(fn(x)), xs[i - 1], xs[i + 1], ZERO_TOL)
            if v <= screen:
                hits.append(ZeroHit(x, "tangential", v))

    # dedup points, drop anything at hi, keep intervals as-is
    points = sorted((h for h in hits if h.kind != "interval"), key=lambda h: h.location)
    merged: list[ZeroHit] = []
    span = hi - lo
    dedup = max(10 * ZERO_TOL, 1e-12 * span)
    for h in points:
        if h.location >= hi - max(ZERO_TOL, 1e-12 * span):
            continue
        if merged and h.location - merged[-1].location <= dedup:
            if merged[-1].kind == "tangential" and h.kind == "crossing":
                merged[-1] = h
            continue
        merged.append(h)
    intervals = [h for h in hits if h.kind == "interval"]
    return sorted(merged + intervals, key=lambda h: h.location)
