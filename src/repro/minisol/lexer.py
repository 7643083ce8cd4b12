"""Tokenizer for MiniSol source text."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.minisol.errors import MiniSolError

KEYWORDS = {
    "contract",
    "function",
    "modifier",
    "constructor",
    "mapping",
    "uint256",
    "uint",
    "address",
    "bool",
    "public",
    "private",
    "internal",
    "external",
    "payable",
    "view",
    "pure",
    "returns",
    "return",
    "require",
    "if",
    "else",
    "while",
    "for",
    "true",
    "false",
    "msg",
    "this",
    "event",
    "emit",
}

# Multi-character operators first so maximal munch works.
SYMBOLS = [
    "=>",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "+=",
    "-=",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    ".",
]


class LexError(MiniSolError):
    """Raised on unrecognizable input."""

    def __init__(self, message: str, line: int):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


@dataclass(frozen=True)
class Token:
    kind: str  # "keyword" | "ident" | "number" | "string" | "symbol" | "eof"
    text: str
    line: int

    def __repr__(self) -> str:
        return "Token(%s, %r, line %d)" % (self.kind, self.text, self.line)


def tokenize(source: str) -> List[Token]:
    """Convert ``source`` into a token list ending with an ``eof`` token."""
    tokens: List[Token] = []
    position = 0
    line = 1
    length = len(source)

    while position < length:
        char = source[position]

        if char == "\n":
            line += 1
            position += 1
            continue
        if char in " \t\r":
            position += 1
            continue

        # Comments.
        if source.startswith("//", position):
            end = source.find("\n", position)
            position = length if end == -1 else end
            continue
        if source.startswith("/*", position):
            end = source.find("*/", position)
            if end == -1:
                raise LexError("unterminated block comment", line)
            line += source.count("\n", position, end)
            position = end + 2
            continue

        # String literals (used for ABI call signatures).
        if char == '"':
            end = source.find('"', position + 1)
            if end == -1 or "\n" in source[position:end]:
                raise LexError("unterminated string literal", line)
            tokens.append(Token("string", source[position + 1 : end], line))
            position = end + 1
            continue

        # Numbers: decimal or 0x hex.
        if char.isdigit():
            start = position
            if source.startswith("0x", position) or source.startswith("0X", position):
                position += 2
                while position < length and source[position] in "0123456789abcdefABCDEF":
                    position += 1
            else:
                while position < length and source[position].isdigit():
                    position += 1
            tokens.append(Token("number", source[start:position], line))
            continue

        # Identifiers and keywords.
        if char.isalpha() or char == "_":
            start = position
            while position < length and (source[position].isalnum() or source[position] == "_"):
                position += 1
            text = source[start:position]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line))
            continue

        # Operators and punctuation.
        for symbol in SYMBOLS:
            if source.startswith(symbol, position):
                tokens.append(Token("symbol", symbol, line))
                position += len(symbol)
                break
        else:
            raise LexError("unexpected character %r" % char, line)

    tokens.append(Token("eof", "", line))
    return tokens
