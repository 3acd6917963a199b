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

The source is tokenized by one compiled pattern into (kind, value,
position) tuples, each line power ``L^e`` and each ``F_r`` that no exponent
follows as one token holding its ``Atom``, and parsed into a tree of four
node kinds: :class:`Atom` (a class L^e ⊗ F_r), :class:`Sum`,
:class:`Product` and :class:`Power`.  An ``Atom`` is ``O``, ``L`` or
``F_r``, and also a line power (``L^e``, ``(L^-1)^-1^2``, ``O^5``) and a
product of line atoms with at most one ``F_r``: each class name
``L^e*F_r`` parses to one ``Atom(e, r)``, which evaluates by one
``context.bundle`` call, and a product's leading run of such factors folds
the same way.  A sum holds (multiplicity, node) parts, so ``k X`` is the
part (k, X), and a lone ``k X`` is a one-part sum.  It is accumulated once:
every part's terms, times its multiplicity, are added into one dict that
becomes one :class:`BundleSum`, an ``Atom`` part's class directly.
Products go through ``BundleSum.tensor``, with its size check, and powers
through ``BundleSum.tensor_power``, whose plan takes a line class ``L^e``
to any power in one word operation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .bundles import BundleSum, IndecomposableBundle, TorsionContext

MAX_NESTING = 100


class ExpressionError(ValueError):
    """Syntax or validation error in a bundle expression, with its position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# A token is a plain tuple (kind, value, position): value is the integer of
# an "int" token, the Atom of an "atom" token and None otherwise, position
# its offset in the source.
Token = tuple[str, "int | Atom | None", int]

_PUNCT = {"+": "plus", "*": "star", "^": "caret", "(": "lparen", ")": "rparen",
          "-": "minus", "_": "underscore", "O": "O", "L": "L", "F": "F"}

# One alternative per token class, tried in order: a class name, a run of
# decimal digits, one grammar character, whitespace, or any other character.
# Over str, \d and \s match exactly the characters that str.isdecimal and
# str.isspace accept.  A class name is a line power L^e or an Atiyah atom F_r,
# F(r) or Fr with r >= 1, written without spaces in at most 18 ASCII digits,
# followed by no digit and by no '^' after optional whitespace: its tokens
# would make one Atom in _Parser.factor, and any other text (F_0, L ^ 2,
# L^2^3, F_3^2, a longer or non-ASCII literal) keeps the tokens of its
# characters, from which the parser builds that Atom or reports the error.
_TOKEN = re.compile(
    r"(L\^-?[0-9]{1,18}|F(?:_?(?=0*[1-9])[0-9]{1,18}|\((?=0*[1-9])[0-9]{1,18}\)))"
    r"(?!\d)(?!\s*\^)"
    r"|(\d+)|([-+*^()_OLF])|\s+|(.)"
)


def _tokenize(src: str) -> list[Token]:
    """The tokens of ``src``, each class name as one "atom" token; one Atom
    per distinct spelling."""
    tokens = []
    append = tokens.append
    atoms: dict[str, Atom] = {}
    for match in _TOKEN.finditer(src):
        name, digits, punct, junk = match.groups()
        if name is not None:
            atom = atoms.get(name)
            if atom is None:
                if name[0] == "L":
                    atom = Atom(int(name[2:]), 1)
                else:
                    atom = Atom(0, int(name[1:].strip("_()")))
                atoms[name] = atom
            append(("atom", atom, match.start()))
        elif punct is not None:
            append((_PUNCT[punct], None, match.start()))
        elif digits is not None:
            try:
                value = int(digits)
            except ValueError:  # more digits than int() may convert
                raise ExpressionError(
                    f"integer literal of {len(digits)} digits is too long", match.start()
                ) from None
            append(("int", value, match.start()))
        elif junk is not None:
            raise ExpressionError(f"unexpected character {junk!r}", match.start())
    append(("end", None, len(src)))
    return tokens


# -- AST ------------------------------------------------------------------

class Expression:
    def evaluate(self, context: TorsionContext) -> BundleSum:
        raise NotImplementedError


@dataclass(frozen=True)
class Atom(Expression):
    """The class L^exponent ⊗ F_index: ``O``, ``L``, ``F_r``, a line power
    or a product of line atoms with at most one ``F_r``."""

    exponent: int
    index: int

    def evaluate(self, context):
        return BundleSum(context, {context.bundle(self.exponent, self.index): 1})


_O, _L = Atom(0, 1), Atom(1, 1)


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
class Sum(Expression):
    """Parts (multiplicity, node): ``k X`` is (k, X), any other part (1, X)."""

    parts: tuple[tuple[int, Expression], ...]

    def evaluate(self, context):
        """Every part's terms, times its multiplicity, added into one dict;
        an Atom part adds its class directly.  Each part is evaluated, ``0 X``
        too, so that X's errors still surface; coefficients are >= 0, so no
        zero is stored."""
        acc: dict[IndecomposableBundle, int] = {}
        get = acc.get
        bundle = context.bundle
        for count, part in self.parts:
            if type(part) is Atom:
                b = bundle(part.exponent, part.index)
                if count:
                    acc[b] = get(b, 0) + count
                continue
            terms = part.evaluate(context).terms
            if count:
                for b, c in terms.items():
                    acc[b] = get(b, 0) + count * c
        return BundleSum(context, acc)


# -- parser ---------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def kind(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = found, _, position = self.take()
        if found != kind:
            raise ExpressionError(f"expected {what}", position)
        return tok

    def parse(self) -> Expression:
        expr = self.expr()
        kind, _, position = self.peek()
        if kind != "end":
            raise ExpressionError("unexpected trailing input", position)
        return expr

    def expr(self) -> Expression:
        parts = [self.term()]
        while self.kind() == "plus":
            self.take()
            parts.append(self.term())
        if len(parts) == 1 and parts[0][0] == 1:
            return parts[0][1]
        return Sum(tuple(parts))

    def term(self) -> tuple[int, Expression]:
        """(multiplicity, node): a leading integer is the multiplicity, and a
        bare integer k is k copies of O."""
        if self.kind() != "int":
            return 1, self.factors()
        count = self.take()[1]
        nxt = self.kind()
        if nxt == "star":
            self.take()
        elif nxt not in ("atom", "O", "L", "F", "lparen"):
            return count, _O
        return count, self.factors()

    def factors(self) -> Expression:
        """The factors' product.  Its leading atoms fold, as they are read,
        into one class L^(Σe) ⊗ F_r while at most one of them has index
        r >= 2: ``L^2*F_3*L`` is Atom(3, 3), ``L*F_2*F_3`` the product of
        Atom(1, 2) and F_3.  The fold gives the product's value and errors:
        a line factor only shifts the exponent, and a product of two classes
        one of which is a line is far below the size check."""
        node = self.factor()
        rest = []
        while self.kind() == "star":
            self.take()
            factor = self.factor()
            if (not rest and type(node) is Atom and type(factor) is Atom
                    and (node.index == 1 or factor.index == 1)):
                # One index is 1, so their product is the other.
                node = Atom(node.exponent + factor.exponent, node.index * factor.index)
            else:
                rest.append(factor)
        return Product((node, *rest)) if rest else node

    def factor(self) -> Expression:
        """A primary and its exponent chain.  A line atom's chain folds into
        its exponent, (L^e)^m = L^(e·m): ``(L^-1)^-1^2`` is Atom(2, 1)."""
        node = self.primary()
        exponents = []
        while self.kind() == "caret":
            self.take()
            sign = 1
            if self.kind() == "minus":
                self.take()
                sign = -1
            exponents.append(sign * self.expect("int", "an integer exponent")[1])
        if not exponents:
            return node
        if type(node) is Atom and node.index == 1:
            exponent = node.exponent
            for m in exponents:
                exponent *= m
            return Atom(exponent, 1)
        return Power(node, tuple(exponents))

    def primary(self) -> Expression:
        kind, value, position = self.take()
        if kind == "atom":
            return value
        if kind == "O":
            return _O
        if kind == "L":
            return _L
        if kind == "F":
            return Atom(0, self._f_index())
        if kind == "lparen":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExpressionError(
                    f"parentheses nested more than {MAX_NESTING} deep", position
                )
            inner = self.expr()
            self.expect("rparen", "a closing parenthesis")
            self.depth -= 1
            return inner
        raise ExpressionError("expected a bundle atom", position)

    def _f_index(self) -> int:
        kind = self.kind()
        if kind == "underscore":
            self.take()
            _, index, position = self.expect("int", "an F index")
        elif kind == "int":
            _, index, position = self.take()
        elif kind == "lparen":
            self.take()
            _, index, position = self.expect("int", "an F index")
            self.expect("rparen", "a closing parenthesis")
        else:
            raise ExpressionError("expected an F index", self.peek()[2])
        if index < 1:
            raise ExpressionError("F index must be >= 1", position)
        return index


def parse_expression(src: str) -> Expression:
    """Parse a bundle expression into an AST (raises ExpressionError)."""
    return _Parser(_tokenize(src)).parse()


def evaluate_expression(src: str, context: TorsionContext) -> BundleSum:
    """Parse and lower to a decomposed bundle sum in one step."""
    return parse_expression(src).evaluate(context)

