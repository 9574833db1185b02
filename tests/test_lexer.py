"""Tests for the MiniC lexer."""

import pytest

from repro.frontend.errors import MiniCError
from repro.frontend.lexer import TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_source_gives_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1 and tokens[0].kind is TokenKind.EOF

    def test_keywords_vs_identifiers(self):
        tokens = tokenize("int intx for forth while")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.KEYWORD,
            TokenKind.IDENT,
            TokenKind.KEYWORD,
            TokenKind.IDENT,
            TokenKind.KEYWORD,
        ]

    def test_integer_literal(self):
        token = tokenize("12345")[0]
        assert token.kind is TokenKind.INT_LIT and token.value == 12345

    def test_float_literal(self):
        token = tokenize("3.25")[0]
        assert token.kind is TokenKind.FLOAT_LIT and token.value == 3.25

    def test_float_exponent(self):
        token = tokenize("1e3")[0]
        assert token.kind is TokenKind.FLOAT_LIT and token.value == 1000.0
        token = tokenize("2.5e-2")[0]
        assert token.value == 0.025

    def test_leading_dot_float(self):
        token = tokenize(".5")[0]
        assert token.kind is TokenKind.FLOAT_LIT and token.value == 0.5

    def test_underscored_identifier(self):
        token = tokenize("_foo_bar1")[0]
        assert token.kind is TokenKind.IDENT and token.text == "_foo_bar1"


class TestPunctuation:
    def test_maximal_munch(self):
        assert texts("a<=b") == ["a", "<=", "b"]
        assert texts("a<b") == ["a", "<", "b"]
        assert texts("x>>=1") == ["x", ">>=", "1"]
        assert texts("i++") == ["i", "++"]
        assert texts("a&&b") == ["a", "&&", "b"]
        assert texts("a&b") == ["a", "&", "b"]

    def test_compound_assignment(self):
        assert texts("x+=2") == ["x", "+=", "2"]


class TestCommentsAndPositions:
    def test_line_comments(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comments(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(MiniCError):
            tokenize("/* never ends")

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n  c")
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]
        assert tokens[2].column == 3

    def test_line_tracking_through_block_comment(self):
        tokens = tokenize("/* a\nb\nc */ x")
        assert tokens[0].line == 3


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(MiniCError) as err:
            tokenize("a $ b")
        assert "$" in str(err.value)

    def test_malformed_number(self):
        with pytest.raises(MiniCError):
            tokenize("1.2.3")

    def test_malformed_exponent(self):
        with pytest.raises(MiniCError):
            tokenize("1e+")
