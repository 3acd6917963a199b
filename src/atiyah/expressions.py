"""Parser and evaluator for bundle expressions.

Grammar (precedence high to low: power, product, sum):

    expr    := term ('+' term)*
    term    := INT ['*'] factors | INT | factors
    factors := factor ('*' factor)*
    factor  := primary ('^' ['-'] INT)*
    primary := 'O' | 'L' | 'F' ['_'] INT | 'F' '(' INT ')' | '(' expr ')'

Whitespace is insignificant.  A leading integer in a term is a multiplicity
(a bare integer k means k copies of O), so canonical renderings such as
"2 F_2 + F_4" re-parse to the sum they came from.  Powers may be negative;
they act through the dual.  Parentheses nest at most ``MAX_NESTING`` deep,
which also bounds the depth of the expression tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundles import BundleSum, TorsionContext

MAX_NESTING = 100


class ExpressionError(ValueError):
    """Syntax or validation error in a bundle expression, with its position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Token:
    kind: str
    value: int | None
    position: int


_PUNCT = {"+": "plus", "*": "star", "^": "caret", "(": "lparen", ")": "rparen",
          "-": "minus", "_": "underscore"}


def _tokenize(src: str) -> list[Token]:
    tokens = []
    i, size = 0, len(src)
    while i < size:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            start = i
            while i < size and src[i].isdecimal():
                i += 1
            try:
                value = int(src[start:i])
            except ValueError:  # more digits than int() may convert
                raise ExpressionError(
                    f"integer literal of {i - start} digits is too long", start
                ) from None
            tokens.append(Token("int", value, start))
            continue
        if ch in "OLF":
            tokens.append(Token(ch, None, i))
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], None, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", None, size))
    return tokens


# -- AST ------------------------------------------------------------------

class Expression:
    def evaluate(self, context: TorsionContext) -> BundleSum:
        raise NotImplementedError


@dataclass(frozen=True)
class Trivial(Expression):
    def evaluate(self, context):
        return BundleSum.unit(context)


@dataclass(frozen=True)
class Line(Expression):
    def evaluate(self, context):
        return BundleSum.single(context, context.line(1))


@dataclass(frozen=True)
class Atiyah(Expression):
    index: int

    def evaluate(self, context):
        return BundleSum.single(context, context.atiyah(self.index))


@dataclass(frozen=True)
class Power(Expression):
    """A chain base^e1^e2^..., applied left to right."""

    base: Expression
    exponents: tuple[int, ...]

    def evaluate(self, context):
        result = self.base.evaluate(context)
        for e in self.exponents:
            result = result.tensor_power(e)
        return result


@dataclass(frozen=True)
class Product(Expression):
    factors: tuple[Expression, ...]

    def evaluate(self, context):
        result = self.factors[0].evaluate(context)
        for f in self.factors[1:]:
            result = result.tensor(f.evaluate(context))
        return result


@dataclass(frozen=True)
class Repeat(Expression):
    count: int
    inner: Expression

    def evaluate(self, context):
        return self.inner.evaluate(context).scale(self.count)


@dataclass(frozen=True)
class Sum(Expression):
    parts: tuple[Expression, ...]

    def evaluate(self, context):
        result = self.parts[0].evaluate(context)
        for p in self.parts[1:]:
            result = result + p.evaluate(context)
        return result


# -- parser ---------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.take()
        if tok.kind != kind:
            raise ExpressionError(f"expected {what}", tok.position)
        return tok

    def parse(self) -> Expression:
        expr = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError("unexpected trailing input", tok.position)
        return expr

    def expr(self) -> Expression:
        parts = [self.term()]
        while self.peek().kind == "plus":
            self.take()
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))

    def term(self) -> Expression:
        if self.peek().kind == "int":
            count_tok = self.take()
            nxt = self.peek().kind
            if nxt == "star":
                self.take()
                return Repeat(count_tok.value, self.factors())
            if nxt in ("O", "L", "F", "lparen"):
                return Repeat(count_tok.value, self.factors())
            # Bare integer: that many copies of O.
            return Repeat(count_tok.value, Trivial())
        return self.factors()

    def factors(self) -> Expression:
        fs = [self.factor()]
        while self.peek().kind == "star":
            self.take()
            fs.append(self.factor())
        return fs[0] if len(fs) == 1 else Product(tuple(fs))

    def factor(self) -> Expression:
        node = self.primary()
        exponents = []
        while self.peek().kind == "caret":
            self.take()
            sign = 1
            if self.peek().kind == "minus":
                self.take()
                sign = -1
            tok = self.expect("int", "an integer exponent")
            exponents.append(sign * tok.value)
        return Power(node, tuple(exponents)) if exponents else node

    def primary(self) -> Expression:
        tok = self.take()
        if tok.kind == "O":
            return Trivial()
        if tok.kind == "L":
            return Line()
        if tok.kind == "F":
            return Atiyah(self._f_index())
        if tok.kind == "lparen":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExpressionError(
                    f"parentheses nested more than {MAX_NESTING} deep", tok.position
                )
            inner = self.expr()
            self.expect("rparen", "a closing parenthesis")
            self.depth -= 1
            return inner
        raise ExpressionError("expected a bundle atom", tok.position)

    def _f_index(self) -> int:
        tok = self.peek()
        if tok.kind == "underscore":
            self.take()
            tok = self.expect("int", "an F index")
        elif tok.kind == "int":
            self.take()
        elif tok.kind == "lparen":
            self.take()
            tok = self.expect("int", "an F index")
            self.expect("rparen", "a closing parenthesis")
        else:
            raise ExpressionError("expected an F index", tok.position)
        if tok.value < 1:
            raise ExpressionError("F index must be >= 1", tok.position)
        return tok.value


def parse_expression(src: str) -> Expression:
    """Parse a bundle expression into an AST (raises ExpressionError)."""
    return _Parser(_tokenize(src)).parse()


def evaluate_expression(src: str, context: TorsionContext) -> BundleSum:
    """Parse and lower to a decomposed bundle sum in one step."""
    return parse_expression(src).evaluate(context)

