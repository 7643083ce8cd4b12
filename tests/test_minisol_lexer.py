"""MiniSol tokenizer."""

import pytest

from repro.minisol.lexer import LexError, tokenize


def kinds(source):
    return [(token.kind, token.text) for token in tokenize(source)[:-1]]


class TestBasics:
    def test_keywords_and_idents(self):
        tokens = kinds("contract Foo")
        assert tokens == [("keyword", "contract"), ("ident", "Foo")]

    def test_numbers_decimal_and_hex(self):
        assert kinds("42 0xFF") == [("number", "42"), ("number", "0xFF")]

    def test_string_literal(self):
        assert kinds('"transfer(address)"') == [("string", "transfer(address)")]

    def test_symbols_maximal_munch(self):
        assert [text for _, text in kinds("== = => >= > !")] == [
            "==", "=", "=>", ">=", ">", "!",
        ]

    def test_compound_assignment_ops(self):
        assert [text for _, text in kinds("+= -=")] == ["+=", "-="]

    def test_line_tracking(self):
        tokens = tokenize("a\nb\n\nc")
        assert [t.line for t in tokens[:-1]] == [1, 2, 4]

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "eof"

    def test_underscore_is_ident(self):
        assert kinds("_")[0] == ("ident", "_")


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment here\nb") == [("ident", "a"), ("ident", "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [("ident", "a"), ("ident", "b")]

    def test_block_comment_line_count(self):
        tokens = tokenize("/* 1\n2\n3 */ x")
        assert tokens[0].line == 3

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(LexError) as exc:
            tokenize("a $ b")
        assert exc.value.line == 1

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')


class TestCompileErrorBase:
    def test_every_compile_error_is_a_minisol_value_error(self):
        from repro.minisol import CheckError, MiniSolError, ParseError
        from repro.minisol.codegen import CodegenError

        for error in (LexError, ParseError, CheckError, CodegenError):
            assert issubclass(error, MiniSolError)
        assert issubclass(MiniSolError, ValueError)

    @pytest.mark.parametrize(
        "source",
        [
            "contract A { uint256 x = $; }",  # lexical
            "contract {",  # syntax
            "contract A { function f() public { y = 1; } }",  # semantic
        ],
    )
    def test_bad_sources_raise_minisol_errors(self, source):
        from repro.minisol import MiniSolError, compile_source

        with pytest.raises(MiniSolError):
            compile_source(source)
