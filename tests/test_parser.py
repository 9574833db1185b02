"""Tests for the MiniC parser (AST shapes and diagnostics)."""

import pytest

from repro.frontend.errors import MiniCError
from repro.frontend.parser import parse
from repro.frontend import ast_nodes as ast


def parse_main(body):
    program = parse("void main() { %s }" % body)
    func = program.items[-1]
    assert isinstance(func, ast.FuncDef)
    return func.body.statements


def parse_expr(text):
    statements = parse_main(f"x = {text};")
    assign = statements[0]
    assert isinstance(assign, ast.Assign)
    return assign.value


class TestTopLevel:
    def test_globals_and_functions(self):
        program = parse("int g; float arr[4]; void main() { }")
        assert isinstance(program.items[0], ast.GlobalDecl)
        assert program.items[1].array_size == 4
        assert isinstance(program.items[2], ast.FuncDef)

    def test_global_initializers(self):
        program = parse("int a = 5; int b[3] = {1, 2, 3}; float c = -1.5; void main(){}")
        assert program.items[0].init == [5]
        assert program.items[1].init == [1, 2, 3]
        assert program.items[2].init == [-1.5]

    def test_function_params(self):
        program = parse("int f(int a, float b, int *p) { return a; } void main(){}")
        params = program.items[0].params
        assert [p.name for p in params] == ["a", "b", "p"]
        assert params[2].type.is_pointer

    def test_void_param_rejected(self):
        with pytest.raises(MiniCError):
            parse("int f(void x) { return 0; } void main(){}")

    def test_junk_at_top_level(self):
        with pytest.raises(MiniCError):
            parse("42;")


class TestStatements:
    def test_declarations(self):
        stmts = parse_main("int x; float y = 1.0; int buf[8];")
        assert isinstance(stmts[0], ast.VarDecl) and stmts[0].init is None
        assert stmts[1].init is not None
        assert stmts[2].array_size == 8

    def test_if_else(self):
        stmts = parse_main("if (x) { y = 1; } else y = 2;")
        node = stmts[0]
        assert isinstance(node, ast.If)
        assert isinstance(node.orelse, ast.Block)

    def test_while(self):
        stmts = parse_main("while (i < 10) i = i + 1;")
        assert isinstance(stmts[0], ast.While)

    def test_for_full(self):
        stmts = parse_main("for (i = 0; i < 10; i++) { }")
        node = stmts[0]
        assert isinstance(node, ast.For)
        assert node.init is not None and node.cond is not None
        assert isinstance(node.step, ast.Assign)

    def test_for_empty_clauses(self):
        stmts = parse_main("for (;;) { break; }")
        node = stmts[0]
        assert node.init is None and node.cond is None and node.step is None

    def test_break_continue_return(self):
        stmts = parse_main("while (1) { break; } while (1) { continue; } return;")
        assert isinstance(stmts[0].body.statements[0], ast.Break)
        assert isinstance(stmts[1].body.statements[0], ast.Continue)
        assert isinstance(stmts[2], ast.Return)

    def test_compound_assignment_desugars(self):
        stmts = parse_main("x += 3;")
        node = stmts[0]
        assert isinstance(node, ast.Assign) and node.op == "+"

    def test_increment_decrement(self):
        stmts = parse_main("x++; y--;")
        assert stmts[0].op == "+" and stmts[1].op == "-"
        assert isinstance(stmts[0].value, ast.IntLit)

    def test_empty_statement(self):
        stmts = parse_main(";")
        assert isinstance(stmts[0], ast.Block) and not stmts[0].statements

    def test_unterminated_block(self):
        with pytest.raises(MiniCError):
            parse("void main() { if (1) {")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert isinstance(expr, ast.Binary) and expr.op == "+"
        assert expr.right.op == "*"

    def test_left_associativity(self):
        expr = parse_expr("10 - 4 - 3")
        assert expr.op == "-" and expr.left.op == "-"

    def test_comparison_precedence(self):
        expr = parse_expr("a + 1 < b * 2")
        assert expr.op == "<"

    def test_logical_precedence(self):
        expr = parse_expr("a == 1 && b || c")
        assert expr.op == "||" and expr.left.op == "&&"

    def test_shift_and_bitwise(self):
        expr = parse_expr("a << 2 | b & 3")
        assert expr.op == "|"
        assert expr.left.op == "<<"
        assert expr.right.op == "&"

    def test_parentheses(self):
        expr = parse_expr("(1 + 2) * 3")
        assert expr.op == "*" and expr.left.op == "+"

    def test_unary(self):
        expr = parse_expr("-a")
        assert isinstance(expr, ast.Unary) and expr.op == "-"
        expr = parse_expr("!x")
        assert expr.op == "!"
        expr = parse_expr("*p")
        assert expr.op == "*"
        expr = parse_expr("&a[0]")
        assert expr.op == "&" and isinstance(expr.operand, ast.Index)

    def test_indexing_chain(self):
        expr = parse_expr("a[i + 1]")
        assert isinstance(expr, ast.Index)
        assert isinstance(expr.index, ast.Binary)

    def test_call_with_args(self):
        expr = parse_expr("f(1, g(2), x)")
        assert isinstance(expr, ast.Call) and len(expr.args) == 3
        assert isinstance(expr.args[1], ast.Call)

    def test_assignment_to_deref(self):
        stmts = parse_main("*p = 5;")
        node = stmts[0]
        assert isinstance(node.target, ast.Unary) and node.target.op == "*"

    def test_missing_semicolon(self):
        with pytest.raises(MiniCError):
            parse("void main() { x = 1 }")

    def test_bad_expression_token(self):
        with pytest.raises(MiniCError):
            parse("void main() { x = ; }")
