"""Recursive-descent parser for MiniC."""

from __future__ import annotations

from typing import List, Union

from repro.frontend import ast_nodes as ast
from repro.frontend.errors import MiniCError
from repro.frontend.lexer import Token, TokenKind, tokenize

#: Binary operator precedence tiers, low to high. '&&'/'||' are handled by
#: the same table but lowered with short-circuit control flow later.
_PRECEDENCE: List[List[str]] = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]

_ASSIGN_OPS = {"=": "", "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%"}


class Parser:
    """Token-stream parser producing a :class:`~repro.frontend.ast_nodes.Program`."""

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token helpers -------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def check(self, text: str) -> bool:
        return self.current.text == text and self.current.kind in (
            TokenKind.PUNCT,
            TokenKind.KEYWORD,
        )

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            raise MiniCError(
                f"expected {text!r}, found {self.current.text!r}",
                self.current.line,
                self.current.column,
            )
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind is not TokenKind.IDENT:
            raise MiniCError(
                f"expected identifier, found {self.current.text!r}",
                self.current.line,
                self.current.column,
            )
        return self.advance()

    def error(self, message: str) -> MiniCError:
        return MiniCError(message, self.current.line, self.current.column)

    # -- types ---------------------------------------------------------------

    def at_type(self) -> bool:
        return self.current.kind is TokenKind.KEYWORD and self.current.text in (
            "int",
            "float",
            "void",
        )

    def parse_type(self) -> ast.TypeSpec:
        token = self.advance()
        spec = ast.TypeSpec(token.line, token.column, token.text)
        if self.accept("*"):
            spec.is_pointer = True
        return spec

    # -- program -------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        first = self.current
        program = ast.Program(first.line, first.column, [])
        while self.current.kind is not TokenKind.EOF:
            if not self.at_type():
                raise self.error(
                    f"expected declaration, found {self.current.text!r}"
                )
            type_spec = self.parse_type()
            name = self.expect_ident()
            if self.check("("):
                program.items.append(self.parse_func_rest(type_spec, name))
            else:
                program.items.append(self.parse_global_rest(type_spec, name))
        return program

    def parse_func_rest(self, return_type: ast.TypeSpec, name: Token) -> ast.FuncDef:
        self.expect("(")
        params: List[ast.Param] = []
        if not self.check(")"):
            while True:
                if not self.at_type():
                    raise self.error("expected parameter type")
                ptype = self.parse_type()
                if ptype.base == "void" and not ptype.is_pointer:
                    raise self.error("parameters cannot be void")
                pname = self.expect_ident()
                params.append(ast.Param(pname.line, pname.column, ptype, pname.text))
                if not self.accept(","):
                    break
        self.expect(")")
        body = self.parse_block()
        return ast.FuncDef(name.line, name.column, return_type, name.text, params, body)

    def parse_global_rest(
        self, type_spec: ast.TypeSpec, name: Token
    ) -> ast.GlobalDecl:
        if type_spec.base == "void":
            raise self.error("globals cannot be void")
        decl = ast.GlobalDecl(name.line, name.column, type_spec, name.text)
        if self.accept("["):
            size = self.advance()
            if size.kind is not TokenKind.INT_LIT:
                raise self.error("array size must be an integer literal")
            decl.array_size = int(size.value)  # type: ignore[arg-type]
            self.expect("]")
        if self.accept("="):
            decl.init = self.parse_const_init()
        self.expect(";")
        return decl

    def parse_const_init(self) -> List[Union[int, float]]:
        values: List[Union[int, float]] = []
        if self.accept("{"):
            if not self.check("}"):
                while True:
                    values.append(self.parse_const_scalar())
                    if not self.accept(","):
                        break
            self.expect("}")
        else:
            values.append(self.parse_const_scalar())
        return values

    def parse_const_scalar(self) -> Union[int, float]:
        negate = self.accept("-")
        token = self.advance()
        if token.kind not in (TokenKind.INT_LIT, TokenKind.FLOAT_LIT):
            raise MiniCError(
                "global initializers must be numeric literals",
                token.line,
                token.column,
            )
        value = token.value
        assert value is not None
        return -value if negate else value

    # -- statements -----------------------------------------------------------

    def parse_block(self) -> ast.Block:
        open_tok = self.expect("{")
        block = ast.Block(open_tok.line, open_tok.column, [])
        while not self.check("}"):
            if self.current.kind is TokenKind.EOF:
                raise self.error("unterminated block")
            block.statements.append(self.parse_statement())
        self.expect("}")
        return block

    def as_block(self, stmt: ast.Stmt) -> ast.Block:
        if isinstance(stmt, ast.Block):
            return stmt
        return ast.Block(stmt.line, stmt.column, [stmt])

    def parse_statement(self) -> ast.Stmt:
        token = self.current
        if self.check("{"):
            return self.parse_block()
        if self.accept(";"):
            return ast.Block(token.line, token.column, [])
        if self.at_type():
            return self.parse_var_decl()
        if self.check("if"):
            return self.parse_if()
        if self.check("while"):
            return self.parse_while()
        if self.check("for"):
            return self.parse_for()
        if self.accept("return"):
            value = None if self.check(";") else self.parse_expression()
            self.expect(";")
            return ast.Return(token.line, token.column, value)
        if self.accept("break"):
            self.expect(";")
            return ast.Break(token.line, token.column)
        if self.accept("continue"):
            self.expect(";")
            return ast.Continue(token.line, token.column)
        stmt = self.parse_simple_statement()
        self.expect(";")
        return stmt

    def parse_var_decl(self) -> ast.Stmt:
        type_spec = self.parse_type()
        if type_spec.base == "void" and not type_spec.is_pointer:
            raise self.error("variables cannot be void")
        name = self.expect_ident()
        decl = ast.VarDecl(name.line, name.column, type_spec, name.text)
        if self.accept("["):
            size = self.advance()
            if size.kind is not TokenKind.INT_LIT:
                raise self.error("array size must be an integer literal")
            decl.array_size = int(size.value)  # type: ignore[arg-type]
            self.expect("]")
        elif self.accept("="):
            decl.init = self.parse_expression()
        self.expect(";")
        return decl

    def parse_if(self) -> ast.If:
        token = self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then = self.as_block(self.parse_statement())
        orelse = None
        if self.accept("else"):
            orelse = self.as_block(self.parse_statement())
        return ast.If(token.line, token.column, cond, then, orelse)

    def parse_while(self) -> ast.While:
        token = self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        body = self.as_block(self.parse_statement())
        return ast.While(token.line, token.column, cond, body)

    def parse_for(self) -> ast.For:
        token = self.expect("for")
        self.expect("(")
        init = None if self.check(";") else self.parse_simple_statement()
        self.expect(";")
        cond = None if self.check(";") else self.parse_expression()
        self.expect(";")
        step = None if self.check(")") else self.parse_simple_statement()
        self.expect(")")
        body = self.as_block(self.parse_statement())
        return ast.For(token.line, token.column, init, cond, step, body)

    def parse_simple_statement(self) -> ast.Stmt:
        """An assignment, ++/--, or bare expression (no trailing ';')."""
        token = self.current
        expr = self.parse_expression()
        for text, op in _ASSIGN_OPS.items():
            if self.check(text):
                self.advance()
                value = self.parse_expression()
                return ast.Assign(token.line, token.column, expr, op, value)
        if self.check("++") or self.check("--"):
            op = "+" if self.advance().text == "++" else "-"
            one = ast.IntLit(token.line, token.column, 1)
            return ast.Assign(token.line, token.column, expr, op, one)
        return ast.ExprStmt(token.line, token.column, expr)

    # -- expressions ----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self.parse_binary(0)

    def parse_binary(self, tier: int) -> ast.Expr:
        if tier >= len(_PRECEDENCE):
            return self.parse_unary()
        left = self.parse_binary(tier + 1)
        while self.current.kind is TokenKind.PUNCT and self.current.text in _PRECEDENCE[tier]:
            op = self.advance()
            right = self.parse_binary(tier + 1)
            left = ast.Binary(op.line, op.column, op.text, left, right)
        return left

    def parse_unary(self) -> ast.Expr:
        token = self.current
        if self.current.kind is TokenKind.PUNCT and self.current.text in (
            "-",
            "!",
            "*",
            "&",
        ):
            op = self.advance().text
            operand = self.parse_unary()
            return ast.Unary(token.line, token.column, op, operand)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            if self.accept("["):
                index = self.parse_expression()
                self.expect("]")
                expr = ast.Index(expr.line, expr.column, expr, index)
            elif self.check("(") and isinstance(expr, ast.Name):
                self.advance()
                args: List[ast.Expr] = []
                if not self.check(")"):
                    while True:
                        args.append(self.parse_expression())
                        if not self.accept(","):
                            break
                self.expect(")")
                expr = ast.Call(expr.line, expr.column, expr.ident, args)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind is TokenKind.INT_LIT:
            self.advance()
            return ast.IntLit(token.line, token.column, int(token.value))  # type: ignore[arg-type]
        if token.kind is TokenKind.FLOAT_LIT:
            self.advance()
            return ast.FloatLit(token.line, token.column, float(token.value))  # type: ignore[arg-type]
        if token.kind is TokenKind.IDENT:
            self.advance()
            return ast.Name(token.line, token.column, token.text)
        if self.accept("("):
            expr = self.parse_expression()
            self.expect(")")
            return expr
        raise self.error(f"unexpected token {token.text!r} in expression")


def parse(source: str) -> ast.Program:
    """Parse MiniC ``source`` text into an AST."""
    return Parser(tokenize(source)).parse_program()
