"""Lexer and parser for the Lua subset.

The lexer is one compiled pattern with one alternative per token class.
A token is a light record (a named tuple of kind, text, value, line and
column); its ``Pos`` is built only when a node or an error asks for it.
Statements are parsed by recursive descent; expressions by one loop over
explicit operand and operator stacks, so nested parentheses, unary
operators and ``^`` chains need no Python recursion.  The parser keeps the
current token in an attribute.

Accepted grammar (a pragmatic slice of Lua 5.2):

    chunk   ::= {stat} [laststat]
    stat    ::= ';' | varlist '=' explist | functioncall
              | 'local' namelist ['=' explist]
              | 'do' block 'end'
              | 'if' exp 'then' block {'elseif' exp 'then' block}
                ['else' block] 'end'
              | 'while' exp 'do' block 'end'
              | 'break'
    laststat::= 'return' [explist]
    exp     ::= unop exp | exp binop exp | atom
                with the levels of ``ast.BINARY_PREC`` and ``UNARY_PREC``:
                or, and, comparisons, + -, * / %, unary (not, -),
                ^ (right assoc)
    atom    ::= nil | true | false | Number | String | function | table
              | prefix
    prefix  ::= Name | '(' exp ')' | prefix '[' exp ']' | prefix '.' Name
              | prefix '(' [explist] ')' | prefix String
    table   ::= '{' [field {sep field} [sep]] '}'
    field   ::= '[' exp ']' '=' exp | Name '=' exp | exp

No goto/labels/repeat/for, no varargs, no method sugar.  String
escapes: \\n \\t \\\\ \\" \\'.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import TYPE_CHECKING, List, Optional, Tuple

from .ast import (
    BINARY_PREC,
    RIGHT_ASSOC,
    UNARY_PREC,
    And,
    Assign,
    BinOp,
    Block,
    Bool,
    Break,
    Call,
    Const,
    Empty,
    ExprStat,
    Function,
    If,
    Index,
    Local,
    Name,
    Neg,
    Nil,
    Not,
    Num,
    Or,
    Pos,
    Return,
    Str,
    TableCtor,
    While,
)

if TYPE_CHECKING:
    from .ast import Expr, Stat


class LuaSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


KEYWORDS = {
    "and", "break", "do", "else", "elseif", "end", "false", "function",
    "if", "in", "local", "nil", "not", "or", "return", "then", "true",
    "while",
}

_LITERALS = {"nil": Nil(), "true": Bool(True), "false": Bool(False)}

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "'": "'"}

# What ``str.isdigit`` calls a digit: ``\d`` (the decimal digits) and the
# other digits, superscripts, circled digits and the like, which no number
# may contain.  A test checks this class against ``str.isdigit``.
_DIGIT = (r"\d²-³¹፩-፱᧚⁰⁴-⁹"
          r"₀-₉①-⑨⑴-⑼⒈-⒐⓪"
          r"⓵-⓽⓿❶-❾➀-➈➊-➒"
          r"\U00010a40-\U00010a43\U00010e60-\U00010e68"
          r"\U00011052-\U0001105a\U0001f100-\U0001f10a")

# One alternative per token class, tried in this order at each position.
# A ``name`` match whose first character is not a letter or ``_`` (``½``)
# is an unexpected character; a ``string`` match without its closing quote
# stops at the first problem, a bad escape or the end of the line.
_TOKEN = re.compile(rf"""
    (?P<space>   [ \t\r]+ | --[^\n]* )
  | (?P<newline> \n )
  | (?P<number>  (?: [{_DIGIT}] | \.(?=[{_DIGIT}]) ) [{_DIGIT}.]*
                 (?: [eE] [+-]? [{_DIGIT}]* )? )
  | (?P<name>    [^\W\d] \w* )
  | (?P<string>  (?P<quote>["']) (?: \\[{re.escape("".join(_ESCAPES))}]
                                  | (?!(?P=quote))[^\\\n] )*
                 (?P<closed>(?P=quote))? )
  | (?P<symbol>  == | ~= | <= | >= | [-+*/%^<>=(){{}}\[\];,.] )
  | (?P<other>   . )
""", re.VERBOSE)

_ESCAPE = re.compile(r"\\(.)")


class Token(namedtuple("Token", "kind text value line col")):
    """``kind`` is "name", "number", "string", "symbol", "keyword" or
    "eof"; ``value`` is the number or the unescaped string."""

    __slots__ = ()

    @property
    def pos(self) -> Pos:
        return Pos(self.line, self.col)


def tokenize(src: str) -> List[Token]:
    toks: List[Token] = []
    # ``tuple.__new__`` builds a token without the named tuple's own
    # Python-level ``__new__``, a third of the cost of ``Token(...)``
    append, new = toks.append, tuple.__new__
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "space":
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        col = m.start() - line_start + 1
        value: object = text
        if kind == "number":
            try:
                value = float(text)
            except ValueError:
                raise LuaSyntaxError(f"malformed number near '{text}'",
                                     line, col) from None
        elif kind == "name" and (text[0].isalpha() or text[0] == "_"):
            kind = "keyword" if text in KEYWORDS else "name"
        elif kind == "string":
            if m.group("closed") is None:
                bad_escape = src.startswith("\\", m.end())
                raise LuaSyntaxError(
                    "invalid escape sequence" if bad_escape
                    else "unfinished string", line, col)
            value = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], text[1:-1])
        elif kind != "symbol":
            raise LuaSyntaxError(f"unexpected character {text[0]!r}",
                                 line, col)
        append(new(Token, (kind, text, value, line, col)))
    append(Token("eof", "<eof>", None, line, len(src) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.toks = tokens
        self.i = 0
        self.tok = tokens[0]  # the current token
        self.loop_depth = 0

    # -- token plumbing ---------------------------------------------------

    def advance(self) -> Token:
        t = self.tok
        if t.kind != "eof":
            self.i += 1
            self.tok = self.toks[self.i]
        return t

    def check(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.tok
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        t = self.tok
        if t.kind == kind and (text is None or t.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.tok
        if t.kind == kind and (text is None or t.text == text):
            return self.advance()
        raise LuaSyntaxError(f"'{text or kind}' expected near '{t.text}'",
                             t.line, t.col)

    def err(self, msg: str):
        raise LuaSyntaxError(msg, self.tok.line, self.tok.col)

    # -- grammar ------------------------------------------------------------

    def parse_chunk(self) -> Block:
        pos = self.tok.pos
        stats = self.parse_block_stats()
        self.expect("eof")
        return Block(tuple(stats), pos=pos)

    def parse_block_stats(self) -> List[Stat]:
        stats: List[Stat] = []
        while True:
            if self.check("symbol", ";"):
                p = self.advance().pos
                stats.append(Empty(pos=p))
                continue
            if self.check("keyword", "return"):
                stats.append(self.parse_return())
                break
            if self._block_end():
                break
            stats.append(self.parse_statement())
        return stats

    def _block_end(self) -> bool:
        t = self.tok
        return t.kind == "eof" or (
            t.kind == "keyword" and t.text in ("end", "else", "elseif"))

    def parse_return(self) -> Return:
        pos = self.expect("keyword", "return").pos
        exprs: Tuple[Expr, ...] = ()
        if not self._block_end() and not self.check("symbol", ";"):
            exprs = tuple(self.parse_explist())
        self.accept("symbol", ";")
        if not self._block_end():
            self.err("'end' expected after return")
        return Return(exprs, pos=pos)

    def parse_statement(self) -> Stat:
        t = self.tok
        if t.kind == "keyword":
            if t.text == "local":
                return self.parse_local()
            if t.text == "do":
                pos = self.advance().pos
                stats = self.parse_block_stats()
                self.expect("keyword", "end")
                return Block(tuple(stats), pos=pos)
            if t.text == "if":
                return self.parse_if()
            if t.text == "while":
                return self.parse_while()
            if t.text == "break":
                pos = self.advance().pos
                if self.loop_depth == 0:
                    raise LuaSyntaxError("break outside a loop",
                                         pos.line, pos.col)
                return Break(pos=pos)
        # expression statement: function call or assignment
        return self.parse_exprstat()

    def parse_local(self) -> Local:
        pos = self.expect("keyword", "local").pos
        names = [self.expect("name").text]
        while self.accept("symbol", ","):
            names.append(self.expect("name").text)
        exprs: Tuple[Expr, ...] = ()
        if self.accept("symbol", "="):
            exprs = tuple(self.parse_explist())
        # Explicitly scoped form: local x = e in s end.  Without it the
        # scope is the rest of the enclosing block (filled by desugaring).
        if self.accept("keyword", "in"):
            stats = self.parse_block_stats()
            self.expect("keyword", "end")
            return Local(tuple(names), exprs, Block(tuple(stats), pos=pos),
                         pos=pos)
        return Local(tuple(names), exprs, Empty(pos=pos), pos=pos)

    def parse_if(self) -> If:
        # each ``elseif`` arm is an ``if`` nested in the previous arm's else
        # branch, so the arms are read in a loop and folded from the last
        arms: List[Tuple[Pos, Expr, Block]] = []
        pos = self.expect("keyword", "if").pos
        while True:
            cond = self.parse_expr()
            self.expect("keyword", "then")
            arms.append((pos, cond, Block(tuple(self.parse_block_stats()), pos=pos)))
            if not self.check("keyword", "elseif"):
                break
            pos = self.advance().pos
        node_else: Stat = Empty(pos=pos)
        if self.accept("keyword", "else"):
            node_else = Block(tuple(self.parse_block_stats()), pos=pos)
        self.expect("keyword", "end")
        for pos, cond, then in reversed(arms):
            node = If(cond, then, node_else, pos=pos)
            node_else = Block((node,), pos=pos)
        return node

    def parse_while(self) -> While:
        pos = self.expect("keyword", "while").pos
        cond = self.parse_expr()
        self.expect("keyword", "do")
        self.loop_depth += 1
        stats = self.parse_block_stats()
        self.loop_depth -= 1
        self.expect("keyword", "end")
        return While(cond, Block(tuple(stats), pos=pos), pos=pos)

    def parse_exprstat(self) -> Stat:
        pos = self.tok.pos
        first = self.parse_prefix()
        if self.check("symbol", ",") or self.check("symbol", "="):
            targets = [first]
            while self.accept("symbol", ","):
                targets.append(self.parse_prefix())
            for x in targets:
                if not isinstance(x, (Name, Index)):
                    self.err("cannot assign to this expression")
            self.expect("symbol", "=")
            exprs = tuple(self.parse_explist())
            return Assign(tuple(targets), exprs, pos=pos)
        if not isinstance(first, Call):
            self.err("syntax error: expression is not a statement")
        return ExprStat(first, pos=pos)

    def parse_explist(self) -> List[Expr]:
        exprs = [self.parse_expr()]
        while self.accept("symbol", ","):
            exprs.append(self.parse_expr())
        return exprs

    # expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._climb(prefix=False)

    def parse_prefix(self) -> Expr:
        """A name or a parenthesized expression, then its suffixes."""
        return self._climb(prefix=True)

    def _climb(self, prefix: bool) -> Expr:
        """Precedence climbing over explicit operand and operator stacks
        (shunting-yard), so nesting needs no Python recursion.

        An operator entry is ``(level, token, arity)`` with the level from
        ``BINARY_PREC`` or ``UNARY_PREC``; an open parenthesis is level 0,
        arity 0.  Outside parentheses, a ``prefix`` parse takes no operator
        and starts only with a name or ``(``.
        """
        operands: List[Expr] = []
        ops: List[Tuple[int, Token, int]] = []
        depth = 0
        while True:
            t = self.tok
            if t.kind == "symbol" and t.text == "(":
                ops.append((0, self.advance(), 0))
                depth += 1
                continue
            if (depth or not prefix) and (
                    t.kind == "symbol" and t.text == "-"
                    or t.kind == "keyword" and t.text == "not"):
                ops.append((UNARY_PREC, self.advance(), 1))
                continue
            if prefix and not depth and t.kind != "name":
                self.err(f"unexpected symbol near '{t.text}'")
            operands.append(self.parse_atom())
            while depth and self.check("symbol", ")"):
                _fold(operands, ops, 1)
                ops.pop()
                depth -= 1
                self.advance()
                operands.append(self.parse_suffixes(operands.pop()))
            t = self.tok
            level = (BINARY_PREC.get(t.text)
                     if t.kind in ("symbol", "keyword") else None)
            if level is None or (prefix and not depth):
                if depth:
                    self.expect("symbol", ")")
                _fold(operands, ops, 1)
                return operands[0]
            _fold(operands, ops, level + 1 if t.text == RIGHT_ASSOC else level)
            ops.append((level, self.advance(), 2))

    def parse_atom(self) -> Expr:
        t = self.tok
        if t.kind == "number":
            self.advance()
            return Const(Num(float(t.value)), pos=t.pos)
        if t.kind == "string":
            self.advance()
            return Const(Str(t.value), pos=t.pos)
        if t.kind == "name":
            self.advance()
            return self.parse_suffixes(Name(t.text, pos=t.pos))
        if t.kind == "keyword":
            if t.text in _LITERALS:
                self.advance()
                return Const(_LITERALS[t.text], pos=t.pos)
            if t.text == "function":
                return self.parse_function()
        if self.check("symbol", "{"):
            return self.parse_table()
        self.err(f"unexpected symbol near '{t.text}'")

    def parse_function(self) -> Function:
        pos = self.expect("keyword", "function").pos
        self.expect("symbol", "(")
        params: List[str] = []
        if not self.check("symbol", ")"):
            params.append(self.expect("name").text)
            while self.accept("symbol", ","):
                params.append(self.expect("name").text)
        self.expect("symbol", ")")
        saved = self.loop_depth
        self.loop_depth = 0
        stats = self.parse_block_stats()
        self.loop_depth = saved
        self.expect("keyword", "end")
        return Function(tuple(params), Block(tuple(stats), pos=pos), pos=pos)

    def parse_table(self) -> TableCtor:
        pos = self.expect("symbol", "{").pos
        fields: List[Tuple[Optional[Expr], Expr]] = []
        while not self.check("symbol", "}"):
            if self.check("symbol", "["):
                self.advance()
                key = self.parse_expr()
                self.expect("symbol", "]")
                self.expect("symbol", "=")
                fields.append((key, self.parse_expr()))
            elif self.tok.kind == "name" and self.toks[self.i + 1].text == "=" \
                    and self.toks[self.i + 1].kind == "symbol":
                nm = self.advance()
                self.advance()  # '='
                fields.append((Const(Str(nm.text), pos=nm.pos), self.parse_expr()))
            else:
                fields.append((None, self.parse_expr()))
            if not (self.accept("symbol", ",") or self.accept("symbol", ";")):
                break
        self.expect("symbol", "}")
        return TableCtor(tuple(fields), pos=pos)

    def parse_suffixes(self, e: Expr) -> Expr:
        while True:
            t = self.tok
            if t.kind == "string":
                # string-argument call sugar: f "lit"
                self.advance()
                p = t.pos
                e = Call(e, (Const(Str(t.value), pos=p),), pos=p)
                continue
            if t.kind != "symbol" or t.text not in ("[", ".", "("):
                return e
            self.advance()
            if t.text == "[":
                key = self.parse_expr()
                self.expect("symbol", "]")
                e = Index(e, key, pos=t.pos)
            elif t.text == ".":
                nm = self.expect("name")
                e = Index(e, Const(Str(nm.text), pos=nm.pos), pos=t.pos)
            else:
                args = [] if self.check("symbol", ")") else self.parse_explist()
                self.expect("symbol", ")")
                e = Call(e, tuple(args), pos=t.pos)


def _fold(operands: List[Expr], ops: list, floor: int) -> None:
    """Apply the pending operators of level ``floor`` and above, innermost
    first; each replaces its operands on the stack by its node."""
    while ops and ops[-1][0] >= floor:
        level, tok, arity = ops.pop()
        if arity == 1:
            node = Not if tok.text == "not" else Neg
            operands.append(node(operands.pop(), pos=tok.pos))
            continue
        rhs, lhs = operands.pop(), operands.pop()
        if tok.text == "and":
            operands.append(And(lhs, rhs, pos=tok.pos))
        elif tok.text == "or":
            operands.append(Or(lhs, rhs, pos=tok.pos))
        else:
            operands.append(BinOp(tok.text, lhs, rhs, pos=tok.pos))


def parse(text: str, origin: str = "<inline>") -> Block:
    """Parse source text into the raw (pre-desugaring) AST.

    Raises :class:`LuaSyntaxError` with line/column on malformed input.
    """
    try:
        return _Parser(tokenize(text)).parse_chunk()
    except LuaSyntaxError as e:
        raise LuaSyntaxError(f"{origin}: {e.message}", e.line, e.col) from None
